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
from .opcore import apply_function, as_matrix, op_norm, polar, pseudoinverse_g

# eigenvalues of a*a below zero_tol count as zero; the default squares the
# polar rank cut TAU_RANK * ||a||, so the certificate and polar agree on
# the rank
DEFAULT_ZERO_TOL_REL = opcore.TAU_RANK
COND_LIMIT = 1e6


@dataclass(frozen=True)
class GapCertificate:
    """Certifies that eigenvalues of a*a split into {<= zero_tol} and
    {>= epsilon^2}; epsilon is the spectral gap of |a| above zero."""

    epsilon: float
    zero_tol: float


@dataclass
class RegularityReport:
    is_regular: bool
    gap: GapCertificate | None
    witness: np.ndarray | None
    mp_inverse: np.ndarray | None


def gap_certificate(a, zero_tol: float | None = None) -> GapCertificate:
    """Read off the singular values s of a: the eigenvalues of a*a are s^2
    (plus zeros when a is wide), without forming a*a, which would square
    the condition number."""
    a = as_matrix(a)
    s = np.linalg.svd(a, compute_uv=False)  # descending
    if zero_tol is None:
        zero_tol = (DEFAULT_ZERO_TOL_REL * (s[0] if s.size else 0.0)) ** 2
    above = s[s * s > zero_tol]
    eps = float(above[-1]) if above.size else math.inf
    return GapCertificate(epsilon=eps, zero_tol=zero_tol)


def moore_penrose(a, gap: GapCertificate | None = None) -> np.ndarray:
    """a^+ = g(|a|) v* with g the pseudoinverse function 0 |-> 0, t |-> 1/t.

    In a matrix algebra the spectrum of a*a is finite, so the gap
    certificate is produced automatically when not supplied.
    """
    a = as_matrix(a)
    if gap is None:
        gap = gap_certificate(a)
    parts = polar(a)
    g_abs = apply_function(parts.abs_a, pseudoinverse_g(), gap=gap)
    return g_abs @ parts.v.conj().T


def is_regular(a, zero_tol: float | None = None) -> RegularityReport:
    """Regularity report. In M_n 0 is automatically isolated in the finite
    spectrum of a*a, so every matrix is regular; the content is the gap
    certificate and the canonical witness b = a^+."""
    a = as_matrix(a)
    gap = gap_certificate(a, zero_tol)
    mp = moore_penrose(a, gap)
    return RegularityReport(is_regular=True, gap=gap, witness=mp, mp_inverse=mp)


def verify_penrose(a, b, tol: float = 1e-8) -> bool:
    """All four Penrose identities: aba = a, bab = b, ab and ba Hermitian
    idempotents, each to tol scaled by 1 + ||a|| + ||b||."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.T.shape:
        raise ShapeMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    scale = tol * (1.0 + op_norm(a) + op_norm(b))
    ab = a @ b
    ba = b @ a
    checks = [
        op_norm(a @ ba - a),
        op_norm(b @ ab - b),
        op_norm(ab - ab.conj().T),
        op_norm(ba - ba.conj().T),
        op_norm(ab @ ab - ab),
        op_norm(ba @ ba - ba),
    ]
    return max(checks) <= scale


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
    if _cond(u) > COND_LIMIT or _cond(v) > COND_LIMIT:
        raise NotInvertible(f"condition number exceeds {COND_LIMIT:.0e}")
    if op_norm(a @ b @ a - a) > tol * (1.0 + op_norm(a)):
        raise NotAWitness("b is not a regularity witness for a")
    c = v_inv @ b @ u_inv
    uav = u @ a @ v
    tol_prop = 1e-7 * _cond(u) * _cond(v)
    if op_norm(uav @ c @ uav - uav) > tol_prop * (1.0 + op_norm(uav)):
        raise NotAWitness("propagated witness identity failed beyond tolerance")
    return c


def block_factorize(x, p, q, a_dag, tol: float = 1e-8):
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
    if op_norm(q @ x @ (eye - p)) > tol * scale:
        raise OffDiagonalNotZero("q x (1-p) does not vanish")
    a = q @ x @ p
    if op_norm(a @ a_dag - q) > tol or op_norm(a_dag @ a - p) > tol:
        raise CornerNotInvertible("a_dag does not invert the corner q x p")
    c = (eye - q) @ x @ p
    d = (eye - q) @ x @ (eye - p)
    ell = eye + c @ a_dag
    dd = a + d
    return ell, dd


def block_inverse_of_l(x, p, q, a_dag) -> np.ndarray:
    x, p, q, a_dag = map(as_matrix, (x, p, q, a_dag))
    eye = np.eye(x.shape[0])
    c = (eye - q) @ x @ p
    return eye - c @ a_dag


def block_regular_iff(x, p, q, a_dag, zero_tol: float | None = None, tol: float = 1e-8):
    """Regularity of x agrees with regularity of the lower corner
    d = (1-q) x (1-p); both flags are evaluated with the same zero_tol.
    Corner regularity is tested inside the ambient algebra, which is
    legitimate because regularity does not depend on the containing corner.
    """
    ell, dd = block_factorize(x, p, q, a_dag, tol=tol)
    eye = np.eye(as_matrix(x).shape[0])
    d = (eye - as_matrix(q)) @ as_matrix(x) @ (eye - as_matrix(p))
    x_reg = is_regular(x, zero_tol).is_regular
    d_reg = is_regular(d, zero_tol).is_regular
    return x_reg, d_reg
