"""Dense complex linear algebra: norms, canonical polar decompositions and
cut-downs, all read off one SVD frame per matrix. The Hermitian calculus
(eigendecompositions, functional calculus, spectral projections) is kept
only because the benchmark's tracing names it.

Matrices are plain complex numpy arrays (row-major, finite entries).
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadOrdering, EigenvalueTooCloseToCut, NotHermitian

# Tolerances (relative, see module notes):
#   TAU_RANK      singular values at or below it count as zero (polar parts, grid gap test)
#   TAU_HERM      hermiticity acceptance for inputs built from products a*a
#   ETA_SEP       guard band separating spectral-projection cuts from eigenvalues
#   TAU_NONZERO   below it (x (1 + largest)) a singular value is rounding noise of a zero
#   MODULUS_SLACK a witness modulus over its bound by less is rounding, not a failure
#   MAX_NUDGES    steps of 2 ETA_SEP off the spectrum before a cut level counts as colliding
TAU_RANK = 1e-9
TAU_HERM = 1e-8
ETA_SEP_BASE = 1e-8
TAU_NONZERO = 1e-13
MODULUS_SLACK = 1e-9
MAX_NUDGES = 50


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def op_norm(a) -> float:
    a = as_matrix(a)
    if a.size == 0 or not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2))


def eta_sep(norm: float) -> float:
    """Guard band around a cut level for an operand of the given norm."""
    return ETA_SEP_BASE * (1.0 + norm)


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigenvalues with an orthonormal eigenvector frame."""

    values: np.ndarray  # real, ascending
    frame: np.ndarray  # unitary, columns are eigenvectors


@dataclass(frozen=True)
class PolarParts:
    """Canonical polar decomposition a = v |a| with support projections."""

    v: np.ndarray  # partial isometry, vanishes on ker |a|
    abs_a: np.ndarray  # positive square root of a* a
    supp_right: np.ndarray  # v* v, support projection of |a|
    supp_left: np.ndarray  # v v*, support projection of |a*|


def identity_fn(t):
    return t


def proof_f(gamma: float):
    """f = 1/gamma on [0, gamma] and 1/t above."""
    return lambda t: np.where(t <= gamma, 1.0 / gamma, 1.0 / np.maximum(t, gamma))


def proof_g(gamma: float):
    """g = t/gamma^2 on [0, gamma] and 1/t above."""
    return lambda t: np.where(t <= gamma, t / gamma**2, 1.0 / np.maximum(t, gamma))


def check_hermitian(h) -> np.ndarray:
    h = as_matrix(h)
    scale = 1.0 + op_norm(h)
    dev = op_norm(h - h.conj().T)
    if dev > TAU_HERM * scale:
        raise NotHermitian(f"||h - h*|| = {dev:.3g} exceeds {TAU_HERM:.1g}*(1+||h||)")
    return 0.5 * (h + h.conj().T)


def hermitian_eig(h) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues.

    LAPACK's divide-and-conquer path is deterministic for identical input
    bytes, which is what report reproducibility needs.
    """
    h = check_hermitian(h)
    values, frame = np.linalg.eigh(h)
    return SpectralData(values=values, frame=frame)


def svd(a):
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a)
    return u, s, vh


@dataclass(frozen=True)
class SVDFrame:
    """One SVD a = u diag(s) vh (u, vh square unitaries, s descending, of
    length min(m, n)), from which every spectral object of a is read. Reading
    |a| off s, not off eigh(a*a), keeps the condition number of a unsquared."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    @classmethod
    def of(cls, a) -> SVDFrame:
        return cls(*svd(a))

    @property
    def norm(self) -> float:
        return float(self.s[0]) if self.s.size else 0.0

    def _padded(self, size: int) -> np.ndarray:
        # |a| is n x n and |a*| is m x m; the missing singular values are 0,
        # where f need not vanish (1/gamma for proof-f, 1 for the bumps)
        out = np.zeros(size)
        out[: self.s.size] = self.s
        return out

    def fn_abs(self, fn) -> np.ndarray:
        """f(|a|) = V diag(f(s)) V*."""
        vh = self.vh
        return (vh.conj().T * fn(self._padded(vh.shape[0]))) @ vh

    def fn_abs_star(self, fn) -> np.ndarray:
        """f(|a*|) = U diag(f(s)) U*."""
        u = self.u
        return (u * fn(self._padded(u.shape[0]))) @ u.conj().T

    def above(self, level: float):
        """(U_r, s_r, W_r): the left and right singular bases with s > level,
        paired column by column (a W_r = U_r diag(s_r)), and their values."""
        k = self.s.size
        keep = self.s > level
        return self.u[:, :k][:, keep], self.s[keep], self.vh[:k][keep].conj().T

    def polar(self) -> PolarParts:
        """Canonical polar decomposition at the rank cut: v sums u_i w_i*
        over the singular triples above it, so v vanishes on ker |a| and
        v*v, vv* are the support projections of |a| and |a*|."""
        ur, _, wr = self.above(TAU_RANK * self.norm)
        return PolarParts(v=ur @ wr.conj().T, abs_a=self.fn_abs(identity_fn),
                          supp_right=wr @ wr.conj().T, supp_left=ur @ ur.conj().T)

    def cutdown(self, delta: float) -> np.ndarray:
        """v (|a| - delta)_+ = U diag((s - delta)_+) V*."""
        k = self.s.size
        return (self.u[:, :k] * np.maximum(self.s - delta, 0.0)) @ self.vh[:k, :]


def abs_of(a) -> np.ndarray:
    """|a| = (a* a)^(1/2), a positive semidefinite square matrix of size cols."""
    return SVDFrame.of(a).fn_abs(identity_fn)


def polar(a) -> PolarParts:
    """Canonical polar decomposition a = v |a| (see SVDFrame.polar)."""
    return SVDFrame.of(a).polar()


def apply_function(h, fn) -> np.ndarray:
    """Functional calculus of a Hermitian h: frame * diag(fn(values)) * frame^*."""
    sd = hermitian_eig(h)
    return (sd.frame * fn(sd.values)) @ sd.frame.conj().T


def spectral_projection(h, delta: float, eta: float | None = None) -> np.ndarray:
    """Spectral projection of a Hermitian PSD matrix onto (delta, inf).

    Raises EigenvalueTooCloseToCut when an eigenvalue sits within the guard
    band around delta; sweeping callers perturb delta by 2*eta and retry.
    """
    sd = hermitian_eig(h)
    if eta is None:
        eta = eta_sep(op_norm(h))
    close = np.abs(sd.values - delta) <= eta
    if np.any(close):
        bad = float(sd.values[close][0])
        raise EigenvalueTooCloseToCut(delta, bad, eta)
    keep = sd.values > delta
    cols = sd.frame[:, keep]
    return cols @ cols.conj().T


def cutdown(a, delta: float) -> np.ndarray:
    """delta-cut-down v (|a| - delta)_+ using the canonical polar part."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return SVDFrame.of(a).cutdown(delta)


def make_h_pair(gamma: float, mu1: float, delta: float):
    """Decreasing piecewise-linear bump pair: h1 = 1 on [0, gamma], 0 from mu1;
    h2 = 1 on [0, mu1], 0 from delta. Supports nest so h1 h2 = h1."""
    if not (0.0 < gamma < mu1 < delta):
        raise BadOrdering(f"need 0 < gamma < mu1 < delta, got {gamma}, {mu1}, {delta}")
    return (lambda t: np.clip((mu1 - t) / (mu1 - gamma), 0.0, 1.0),
            lambda t: np.clip((delta - t) / (delta - mu1), 0.0, 1.0))
