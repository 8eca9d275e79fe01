"""Constructive partial-isometry extension: given a, a nearby regular x and a
cut level delta, build the partial isometry w that agrees with the canonical
polar part v on the spectral projection above delta, verifying every
identity that a construction fault can break. In M_n every x is regular,
so the lemma's hypotheses reduce to ||a - x|| < delta and x is never
factorized unless it is c.

b, c and w are built in the ambient algebra. The residuals are read in the
SVD frame a = U diag(s) V* of a: there e_delta, f_delta, e_gamma and f_gamma
are coordinate projections onto the leading singular directions, so each
3x3 block f_i M e_j is a sub-block of U* M V and each residual is a norm
of the sub-block that is nonzero in exact arithmetic; both norms used are
unitarily invariant. Every check is read against CHECK_SCREEN, so a block
costs an SVD only when its Frobenius norm, an upper bound on its 2-norm
(||M||_2 <= ||M||_F, Golub & Van Loan, Matrix Computations, 4th ed.,
sec. 2.3), is above it: the set of checks above the screen is the set
their exact 2-norms give. Those exact norms are taken in one stacked call
per shape. beta_g_sup_bound is read in closed form: g(|a|) is diagonal and
positive in the frame of a, so its norm is the largest g(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import opcore
from .errors import TooFar
from .opcore import (
    SVDFrame,
    as_matrix,
    identity_fn,
    make_h_pair,
    op_norm,
    op_norms,
    proof_f,
    proof_g,
)

EXACT_MATCH_TOL = 1e-12  # below this, a and x are treated as equal
CHECK_SCREEN = 1e-7  # a check above this flags a construction fault


@dataclass
class PipelineTrace:
    beta: float
    gamma: float
    delta: float
    w: np.ndarray
    v: np.ndarray
    abs_a: np.ndarray
    short_circuit: bool = False
    # name -> residual. A value above CHECK_SCREEN is the exact 2-norm; one
    # at or below it may be the Frobenius norm, an upper bound on the 2-norm.
    checks: dict = field(default_factory=dict)

    def max_residual(self) -> float:
        return max(self.checks.values()) if self.checks else 0.0


def _check_norms(mats) -> list[float]:
    """A norm of each residual that is above CHECK_SCREEN exactly when its
    2-norm is. The Frobenius norm bounds the 2-norm, so it stands where it
    is below the screen, by a relative margin of 1e-12 that covers the
    rounding of both norms; elsewhere, also where it is not finite, the
    value is the exact 2-norm (op_norms)."""
    out = [math.sqrt(np.vdot(m, m).real) for m in mats]
    exact = [k for k, fro in enumerate(out) if not fro <= CHECK_SCREEN * (1.0 - 1e-12)]
    for k, norm in zip(exact, op_norms([mats[k] for k in exact])):
        out[k] = norm
    return out


def construct_partial_isometry(a, x, delta: float) -> PipelineTrace:
    """Run the full pipeline and record every identity that a construction
    fault can break.

    Raises TooFar when ||a - x|| >= delta and SpectralCollision when delta
    (or a nudged gamma) cannot be separated from the singular spectrum of
    a. It factorizes two operands once each, a and c, and reads every
    spectral object of a and c off their SVD frames. On the short-circuit
    path (a = x to EXACT_MATCH_TOL) c is x: a and x, two SVDs again.
    """
    a = as_matrix(a)
    x = as_matrix(x)
    n = a.shape[0]
    if a.shape != x.shape or a.shape[0] != a.shape[1]:
        raise ValueError("pipeline expects square matrices of equal shape")
    eye = np.eye(n)

    beta = op_norm(a - x)
    if beta >= delta:
        raise TooFar(f"||a - x|| = {beta:.6g} >= delta = {delta:.6g}")

    frame_a = SVDFrame.of(a)
    v = frame_a.isometry()
    abs_a = frame_a.fn_abs(identity_fn)
    eta = opcore.eta_sep(frame_a.norm)
    s = frame_a.s
    uh, vm = frame_a.u.conj().T, frame_a.vh.conj().T  # U*, V

    opcore.check_clear(delta, s, eta)
    kd = int(np.count_nonzero(s > delta))
    vf = uh @ v @ vm  # U* v V

    # (name, matrix) pairs whose norms are the checks (_check_norms)
    residuals = []
    short_circuit = beta <= EXACT_MATCH_TOL * (1.0 + frame_a.norm)
    if short_circuit:
        # a = x to rounding: c := x
        gamma = (beta + delta) / 2.0
        frame_c = SVDFrame.of(x)
    else:
        gamma = opcore.clear_of((beta + delta) / 2.0, s, eta, below=delta)
        kg = int(np.count_nonzero(s > gamma))
        b1, b2, b3 = slice(0, kd), slice(kd, kg), slice(kg, n)

        y = (x - a) / beta
        g = proof_g(gamma)
        g_abs = frame_a.fn_abs(g)
        f_abs = frame_a.fn_abs(proof_f(gamma))
        t_mat = eye + beta * (g_abs @ v.conj().T @ y)
        t_inv = np.linalg.inv(t_mat)
        b = x @ t_inv @ f_abs

        mu1 = (gamma + delta) / 2.0
        h1, h2 = make_h_pair(gamma, mu1, delta)
        h1_left = frame_a.fn_abs_star(h1)
        h2_right = frame_a.fn_abs(h2)
        c = b - h1_left @ b @ (eye - h2_right)
        frame_c = SVDFrame.of(c)

        # In the frame of a, e_gamma and f_gamma keep the first kg coordinates,
        # e_delta and f_delta the first kd, and |a|, h1(|a*|), h2(|a|) are
        # diagonal; each residual is the block that is nonzero in exact
        # arithmetic, and the 2-norm does not see the change of frame.
        bf = uh @ b @ vm
        cf = uh @ c @ vm
        abs_t = s[:kg, None] * (frame_a.vh[:kg] @ t_mat @ vm)  # first kg rows of |a| t
        h2_2 = h2(s[b2])
        v_gg = vf[:kg, :kg]
        f_gamma_b = bf[:kg].copy()  # less v_gg in its first kg columns, 0.0 in the rest
        f_gamma_b[:, :kg] -= v_gg
        residuals += [
            ("t_invertible", t_mat @ t_inv - eye),
            # corner identity f_gamma x = v e_gamma |a| (1 + beta g(|a|) v* y)
            ("corner_identity", uh[:kg] @ x @ vm - v_gg @ abs_t),
            ("f_gamma_b", f_gamma_b),
            # c against [[v e1, 0, 0], [0, v e2, 0], [0, b32 h2, b33]]
            ("block_11", cf[b1, b1] - vf[b1, b1]),
            ("block_12", cf[b1, b2]),
            ("block_13", cf[b1, b3]),
            ("block_21", cf[b2, b1]),
            ("block_22", cf[b2, b2] - vf[b2, b2]),
            ("block_23", cf[b2, b3]),
            ("block_31", cf[b3, b1]),
            ("block_32", cf[b3, b2] - bf[b3, b2] * h2_2),
            ("block_33", cf[b3, b3] - bf[b3, b3]),
            # h1(|a*|) v e2 (1 - h2(|a|)) vanishes
            ("cross_term", h1(s)[:, None] * vf[:, b2] * (1.0 - h2_2)),
            ("abs_c_e1", frame_a.vh @ frame_c.fn_abs(identity_fn) @ vm[:, :kd] - np.eye(n, kd)),
            ("f1_abs_cstar", uh[:kd] @ frame_c.fn_abs_star(identity_fn) @ frame_a.u
             - np.eye(kd, n)),
        ]

    w = frame_c.isometry()
    residuals += [
        ("partial_isometry", w @ w.conj().T @ w - w),
        ("final_we_delta", uh @ (w @ vm[:, :kd]) - vf[:, :kd]),
        ("final_f_delta_w", (uh[:kd] @ w) @ vm - vf[:kd]),
    ]
    names, mats = zip(*residuals)
    checks = dict(zip(names, _check_norms(mats)))
    if not short_circuit:
        # sup |beta*g| over [0, inf) is beta/gamma < 1, so 1 + beta g(|a|) v* y
        # is invertible; ||beta g(|a|)|| = beta max g(s) is only bounded by that sup
        checks["beta_g_sup_bound"] = max(beta * float(np.max(g(s))) - beta / gamma, 0.0)

    return PipelineTrace(
        beta=beta, gamma=gamma, delta=delta, w=w, v=v, abs_a=abs_a,
        short_circuit=short_circuit, checks=checks,
    )


def approx_polar_from_pipeline(a, x, delta: float):
    """Approximate polar decomposition: the pipeline's w gives
    ||a - w |a| || <= 2 delta, since (v - w) e_delta = 0 and the part of
    |a| below delta has norm at most delta."""
    trace = construct_partial_isometry(a, x, delta)
    err = op_norm(as_matrix(a) - trace.w @ trace.abs_a)
    return trace.w, float(err)
