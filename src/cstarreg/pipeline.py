"""Constructive partial-isometry extension: given a, a nearby regular x and a
cut level delta, build the partial isometry w that agrees with the canonical
polar part v on the spectral projection above delta, verifying every
intermediate identity along the way.

All 3x3 block bookkeeping is done with explicit projection sandwiches
f_i M e_j in the ambient algebra, not with reindexed submatrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opcore
from .errors import SpectralCollision, TooFar, XNotRegular
from .opcore import (
    SVDFrame,
    as_matrix,
    identity_fn,
    make_h_pair,
    op_norm,
    proof_f,
    proof_g,
)
from .regularity import is_regular, verify_penrose

EXACT_MATCH_TOL = 1e-12  # below this, a and x are treated as equal


@dataclass
class PipelineTrace:
    beta: float
    gamma: float
    delta: float
    w: np.ndarray
    v: np.ndarray
    abs_a: np.ndarray
    e_delta: np.ndarray
    f_delta: np.ndarray
    short_circuit: bool = False
    checks: dict = field(default_factory=dict)

    def max_residual(self) -> float:
        return max(self.checks.values()) if self.checks else 0.0


def _svd_projections(frame: SVDFrame, level, eta):
    """Left/right spectral projections of |a*| and |a| above `level`, read
    from one SVD frame so the left/right bases stay paired."""
    if np.any(np.abs(frame.s - level) <= eta):
        raise SpectralCollision(f"cut level {level} within {eta:.2g} of a singular value")
    ur, _, wr = frame.above(level)
    e = wr @ wr.conj().T  # projection for |a|
    f = ur @ ur.conj().T  # projection for |a*|
    return e, f


def construct_partial_isometry(a, x, delta: float) -> PipelineTrace:
    """Run the full pipeline and record every intermediate residual.

    Raises TooFar when ||a - x|| >= delta, XNotRegular when x fails its
    regularity check, SpectralCollision when delta (or a nudged gamma)
    cannot be separated from the singular spectrum of a. It factorizes
    three operands once each, x (inside is_regular), a and c, and reads
    every spectral object of a, c and x off their SVD frames. On the
    short-circuit path (a = x to EXACT_MATCH_TOL) c is x, read off the
    frame is_regular built: two SVDs.
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
    rep = is_regular(x)
    if not (rep.is_regular and verify_penrose(x, rep.mp_inverse)):
        raise XNotRegular("x failed the regularity check")

    frame_a = SVDFrame.of(a)
    parts = frame_a.polar()
    v = parts.v
    abs_a = parts.abs_a
    eta = opcore.eta_sep(frame_a.norm)

    e_delta, f_delta = _svd_projections(frame_a, delta, eta)

    checks: dict[str, float] = {}
    short_circuit = beta <= EXACT_MATCH_TOL * (1.0 + frame_a.norm)
    if short_circuit:
        # a = x is already regular: c := x, read off the frame is_regular built
        gamma = (beta + delta) / 2.0
        frame_c = rep.frame
    else:
        gamma = opcore.clear_of((beta + delta) / 2.0, frame_a.s, eta, below=delta)
        e_gamma, f_gamma = _svd_projections(frame_a, gamma, eta)

        y = (x - a) / beta
        checks["y_unit_norm"] = abs(op_norm(y) - 1.0)
        checks["x_decomposition"] = op_norm(x - (a + beta * y))

        g_abs = frame_a.fn_abs(proof_g(gamma))
        f_abs = frame_a.fn_abs(proof_f(gamma))

        # sup |beta*g| over [0, inf) is beta/gamma < 1, so 1 + beta g(|a|) v* y
        # is invertible; the operator norm is only bounded by that sup
        checks["beta_g_sup_bound"] = max(op_norm(beta * g_abs) - beta / gamma, 0.0)
        t_mat = eye + beta * (g_abs @ v.conj().T @ y)
        t_inv = np.linalg.inv(t_mat)
        checks["t_invertible"] = op_norm(t_mat @ t_inv - eye)

        b = x @ t_inv @ f_abs

        # corner identity f_gamma x = v e_gamma |a| (1 + beta g(|a|) v* y)
        checks["corner_identity"] = op_norm(f_gamma @ x - v @ e_gamma @ abs_a @ t_mat)
        checks["f_gamma_b"] = op_norm(f_gamma @ b - v @ e_gamma)
        checks["f_gamma_v"] = op_norm(v @ e_gamma - f_gamma @ v)

        mu1 = (gamma + delta) / 2.0
        h1, h2 = make_h_pair(gamma, mu1, delta)
        h1_left = frame_a.fn_abs_star(h1)
        h2_right = frame_a.fn_abs(h2)
        c = b - h1_left @ b @ (eye - h2_right)

        checks.update(block_shape_residuals(
            c, b, v, h1_left, h2_right, e_delta, e_gamma, f_delta, f_gamma, eye))

        frame_c = SVDFrame.of(c)
        e1, f1 = e_delta, f_delta
        checks["abs_c_e1"] = op_norm(frame_c.fn_abs(identity_fn) @ e1 - e1)
        checks["f1_abs_cstar"] = op_norm(f1 @ frame_c.fn_abs_star(identity_fn) - f1)

    w = frame_c.polar().v
    checks["partial_isometry"] = op_norm(w @ w.conj().T @ w - w)
    checks["final_we_delta"] = op_norm(w @ e_delta - v @ e_delta)
    checks["final_f_delta_w"] = op_norm(f_delta @ w - f_delta @ v)

    return PipelineTrace(
        beta=beta, gamma=gamma, delta=delta, w=w, v=v, abs_a=abs_a,
        e_delta=e_delta, f_delta=f_delta, short_circuit=short_circuit, checks=checks,
    )


def block_shape_residuals(c, b, v, h1_left, h2_right, e_delta, e_gamma, f_delta, f_gamma, eye):
    """Residuals of the nine blocks of c against its expected shape

        [ v e1    0          0    ]
        [ 0       v e2       0    ]
        [ 0       b32 h2     b33  ]

    plus the vanishing cross term h1(|a*|) v e2 (1 - h2(|a|))."""
    e1 = e_delta
    e2 = e_gamma - e_delta
    e3 = eye - e_gamma
    f1 = f_delta
    f2 = f_gamma - f_delta
    f3 = eye - f_gamma
    b32 = f3 @ b @ e2
    b33 = f3 @ b @ e3
    return {
        "block_11": op_norm(f1 @ c @ e1 - v @ e1),
        "block_12": op_norm(f1 @ c @ e2),
        "block_13": op_norm(f1 @ c @ e3),
        "block_21": op_norm(f2 @ c @ e1),
        "block_22": op_norm(f2 @ c @ e2 - v @ e2),
        "block_23": op_norm(f2 @ c @ e3),
        "block_31": op_norm(f3 @ c @ e1),
        "block_32": op_norm(f3 @ c @ e2 - b32 @ h2_right),
        "block_33": op_norm(f3 @ c @ e3 - b33),
        "cross_term": op_norm(h1_left @ v @ e2 @ (eye - h2_right)),
    }


def approx_polar_from_pipeline(a, x, delta: float):
    """Approximate polar decomposition: the pipeline's w gives
    ||a - w |a| || <= 2 delta, since (v - w) e_delta = 0 and the part of
    |a| below delta has norm at most delta."""
    trace = construct_partial_isometry(a, x, delta)
    err = op_norm(as_matrix(a) - trace.w @ trace.abs_a)
    return trace.w, float(err)
