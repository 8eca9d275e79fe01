"""Regularity tests, Moore-Penrose inverses via functional calculus, witness
verification, and the two propagation lemmas (conjugation by invertibles,
block-matrix reduction)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import opcore
from .errors import (
    CornerNotInvertible,
    NotAWitness,
    NotInvertible,
    OffDiagonalNotZero,
    ShapeMismatch,
)
from .opcore import SVDFrame, as_matrix, op_norm

COND_LIMIT = 1e6
PENROSE_TOL = 1e-12  # on each Penrose residual, scaled by its own degree
BLOCK_TOL = 1e-8  # on the corner residuals of the block factorization


@dataclass(frozen=True)
class GapCertificate:
    """Certifies that eigenvalues of a*a split into {<= (TAU_RANK ||a||)^2}
    and {>= epsilon^2}; epsilon is the spectral gap of |a| above zero."""

    epsilon: float


@dataclass
class RegularityReport:
    is_regular: bool
    gap: GapCertificate | None
    mp_inverse: np.ndarray | None
    frame: SVDFrame  # the one SVD of a that gap and mp_inverse are read from


def _certificate(frame: SVDFrame) -> GapCertificate:
    # eigenvalues of a*a are s^2 (plus zeros when a is wide); those at or
    # below the square of the polar rank cut TAU_RANK ||a|| count as zero
    rank_cut = opcore.TAU_RANK * frame.norm
    above = frame.s[frame.s > rank_cut]  # descending
    return GapCertificate(epsilon=float(above[-1]) if above.size else math.inf)


def gap_certificate(a) -> GapCertificate:
    """The spectral gap certificate of a, read off the singular values of a."""
    return _certificate(SVDFrame.of(a))


def moore_penrose(a) -> np.ndarray:
    """a^+ = g(|a|) v* with g the pseudoinverse function 0 |-> 0, t |-> 1/t."""
    return is_regular(a).mp_inverse


def is_regular(a) -> RegularityReport:
    """Regularity report. In M_n 0 is automatically isolated in the finite
    spectrum of a*a, so every matrix is regular; the content is the gap
    certificate and the canonical witness b = a^+, both read off one SVD.
    a^+ = V diag(1/s) U* runs over the s above the polar rank cut
    TAU_RANK ||a||, as g(|a|) v* does.
    """
    frame = SVDFrame.of(a)
    ur, s, wr = frame.above(opcore.TAU_RANK * frame.norm)
    mp = (wr / s) @ ur.conj().T
    return RegularityReport(is_regular=True, gap=_certificate(frame), mp_inverse=mp,
                            frame=frame)


def verify_penrose(a, b) -> bool:
    """All four Penrose identities: aba = a, bab = b, ab and ba Hermitian
    idempotents. Each residual is divided by the product of norms of its own
    degree, ||aba - a|| by ||a||^2 ||b||, ||bab - b|| by ||a|| ||b||^2, the
    Hermitian ones by ||a|| ||b|| and the idempotent ones by (||a|| ||b||)^2,
    so rounding passes at any ||a^+||. ||aba - a|| may in addition reach the
    polar rank cut TAU_RANK ||a||, the singular values a^+ drops by design;
    an inverse that drops larger ones fails. b = 0 passes only for a = 0."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.T.shape:
        raise ShapeMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    na, nb = op_norm(a), op_norm(b)
    if na == 0.0 or nb == 0.0:
        return na == nb
    ab = a @ b
    ba = b @ a
    nab = na * nb
    checks = [
        max(op_norm(a @ ba - a) - opcore.TAU_RANK * na, 0.0) / (na * nab),
        op_norm(b @ ab - b) / (nab * nb),
        op_norm(ab - ab.conj().T) / nab,
        op_norm(ba - ba.conj().T) / nab,
        op_norm(ab @ ab - ab) / nab**2,
        op_norm(ba @ ba - ba) / nab**2,
    ]
    return max(checks) <= PENROSE_TOL


def _cond(u) -> float:
    s = np.linalg.svd(as_matrix(u), compute_uv=False)
    if s[-1] <= 0:
        return math.inf
    return float(s[0] / s[-1])


def conjugate_regular_witness(a, b, u, u_inv, v, v_inv, tol: float = 1e-8) -> np.ndarray:
    """Witness for regularity of u a v: c = v^{-1} b u^{-1}.

    Rejects badly conditioned conjugators, since the propagated tolerance
    1e-7 * cond(u) * cond(v) stops being meaningful past cond ~ 1e6.
    """
    a, b, u, u_inv, v, v_inv = map(as_matrix, (a, b, u, u_inv, v, v_inv))
    n = u.shape[0]
    eye_u = np.eye(n)
    eye_v = np.eye(v.shape[0])
    if op_norm(u @ u_inv - eye_u) > tol or op_norm(v @ v_inv - eye_v) > tol:
        raise NotInvertible("supplied inverses do not invert u, v to tolerance")
    cond_u, cond_v = _cond(u), _cond(v)
    if cond_u > COND_LIMIT or cond_v > COND_LIMIT:
        raise NotInvertible(f"condition number exceeds {COND_LIMIT:.0e}")
    if op_norm(a @ b @ a - a) > tol * (1.0 + op_norm(a)):
        raise NotAWitness("b is not a regularity witness for a")
    c = v_inv @ b @ u_inv
    uav = u @ a @ v
    tol_prop = 1e-7 * cond_u * cond_v
    if op_norm(uav @ c @ uav - uav) > tol_prop * (1.0 + op_norm(uav)):
        raise NotAWitness("propagated witness identity failed beyond tolerance")
    return c


def block_factorize(x, p, q, a_dag):
    """Factor x = L D where, blockwise along (q, 1-q) x (p, 1-p),
    L = [[q, 0], [c a^+, 1-q]] and D = [[a, 0], [0, d]].

    Requires the off-diagonal corner q x (1-p) to vanish and the corner
    a = q x p to be invertible in qAp with inverse a_dag (a a^+ = q,
    a^+ a = p). L is invertible with L^{-1} = 1 - c a^+.
    """
    x, p, q, a_dag = map(as_matrix, (x, p, q, a_dag))
    n = x.shape[0]
    eye = np.eye(n)
    scale = 1.0 + op_norm(x)
    if op_norm(q @ x @ (eye - p)) > BLOCK_TOL * scale:
        raise OffDiagonalNotZero("q x (1-p) does not vanish")
    a = q @ x @ p
    if op_norm(a @ a_dag - q) > BLOCK_TOL or op_norm(a_dag @ a - p) > BLOCK_TOL:
        raise CornerNotInvertible("a_dag does not invert the corner q x p")
    c = (eye - q) @ x @ p
    d = (eye - q) @ x @ (eye - p)
    ell = eye + c @ a_dag
    dd = a + d
    return ell, dd


def block_regular_iff(x, p, q, a_dag):
    """Regularity of x agrees with regularity of the lower corner
    d = (1-q) x (1-p); both flags use the same relative rank cut.
    Corner regularity is tested inside the ambient algebra, which is
    legitimate because regularity does not depend on the containing corner.
    """
    block_factorize(x, p, q, a_dag)  # raises unless x has the block shape
    eye = np.eye(as_matrix(x).shape[0])
    d = (eye - as_matrix(q)) @ as_matrix(x) @ (eye - as_matrix(p))
    x_reg = is_regular(x).is_regular
    d_reg = is_regular(d).is_regular
    return x_reg, d_reg
