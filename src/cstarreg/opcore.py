"""Dense complex linear algebra: norms, canonical polar decompositions,
functions of |a| and cut-downs, all read off one SVD frame per matrix.

Matrices are plain complex numpy arrays (row-major, finite entries).
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadOrdering, SpectralCollision

# Tolerances (relative, see module notes):
#   TAU_RANK      singular values at or below it count as zero (polar parts, grid gap test)
#   ETA_SEP       guard band separating cut levels from singular values
#   TAU_NONZERO   below it (x (1 + largest)) a singular value is rounding noise of a zero
#   MODULUS_SLACK a witness modulus over its bound by less is rounding, not a failure
#   MAX_NUDGES    steps of 2 ETA_SEP off the spectrum before a cut level counts as colliding
TAU_RANK = 1e-9
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


def op_norms(mats) -> list[float]:
    """op_norm of each matrix, one stacked np.linalg.norm call per shape. A
    stack gives the same bits as one call per matrix; an empty matrix has
    norm 0."""
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    out = [0.0] * len(mats)
    by_shape: dict[tuple, list[int]] = {}
    for k, m in enumerate(mats):
        if m.size:
            by_shape.setdefault(m.shape, []).append(k)
    for idx in by_shape.values():
        stack = np.stack([mats[k] for k in idx])
        if not np.isfinite(stack).all():
            raise ValueError("matrix entries must be finite")
        for k, norm in zip(idx, np.linalg.norm(stack, 2, axis=(1, 2)).tolist()):
            out[k] = norm
    return out


def eta_sep(norm: float) -> float:
    """Guard band around a cut level for an operand of the given norm."""
    return ETA_SEP_BASE * (1.0 + norm)


def check_level(level: float) -> None:
    """ValueError for a negative or NaN cut level. A NaN is within eta of
    nothing and compares False with every singular value, so it would pass
    each other check and cut nothing."""
    if not level >= 0:  # NaN included
        raise ValueError(f"cut level must be nonnegative, got {level}")


def _collides(level: float, s, eta: float) -> bool:
    check_level(level)
    return bool(np.any(np.abs(s - level) <= eta))


def check_clear(level: float, s, eta: float) -> None:
    """Raises SpectralCollision when some value of `s` lies within eta of
    `level`: the collision rule that clear_of, the pipeline and the grid
    decisions share. A NaN level is a ValueError in both."""
    if _collides(level, s, eta):
        raise SpectralCollision(f"cut level {level} within {eta:.2g} of a singular value")


def clear_of(level: float, s, eta: float, below: float = math.inf) -> float:
    """`level` stepped up by 2 eta while it collides with `s` (check_clear),
    at most MAX_NUDGES times and staying below `below`. Raises
    SpectralCollision when it cannot be cleared."""
    for _ in range(MAX_NUDGES):
        if not _collides(level, s, eta):
            return level
        level += 2.0 * eta
        if level >= below:
            break
    raise SpectralCollision(f"could not separate cut level {level} from the spectrum")


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
    """g = t/gamma^2 on [0, gamma] and 1/t above. gamma^2 is inf past the
    float range, where t/gamma^2 rounds to 0 anyway."""
    with np.errstate(over="ignore"):
        gamma2 = np.float64(gamma) ** 2
    return lambda t: np.where(t <= gamma, t / gamma2, 1.0 / np.maximum(t, gamma))


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

    def isometry(self) -> np.ndarray:
        """The v of `polar()` alone, for a caller that needs no other part."""
        ur, _, wr = self.above(TAU_RANK * self.norm)
        return ur @ wr.conj().T

    def polar(self) -> PolarParts:
        """Canonical polar decomposition at the rank cut: v sums u_i w_i*
        over the singular triples above it, so v vanishes on ker |a| and
        v*v, vv* are the support projections of |a| and |a*|."""
        ur, _, wr = self.above(TAU_RANK * self.norm)
        return PolarParts(v=self.isometry(), abs_a=self.fn_abs(identity_fn),
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


def cutdown(a, delta: float) -> np.ndarray:
    """delta-cut-down v (|a| - delta)_+ using the canonical polar part."""
    check_level(delta)
    return SVDFrame.of(a).cutdown(delta)


def make_h_pair(gamma: float, mu1: float, delta: float):
    """Decreasing piecewise-linear bump pair: h1 = 1 on [0, gamma], 0 from mu1;
    h2 = 1 on [0, mu1], 0 from delta. Supports nest so h1 h2 = h1."""
    if not (0.0 < gamma < mu1 < delta):
        raise BadOrdering(f"need 0 < gamma < mu1 < delta, got {gamma}, {mu1}, {delta}")
    return (lambda t: np.clip((mu1 - t) / (mu1 - gamma), 0.0, 1.0),
            lambda t: np.clip((delta - t) / (delta - mu1), 0.0, 1.0))


# The Hermitian calculus is deleted: every spectral object comes off SVDFrame.
# benchmark/spans.py PUBLIC still looks up and wraps these four names, one
# object each, so they stay bound until ROADMAP item 5 drops them from PUBLIC.
def _removed(name: str):
    def removed(*args, **kwargs):
        raise NotImplementedError(f"opcore.{name} was removed; use SVDFrame")
    return removed


check_hermitian = _removed("check_hermitian")
hermitian_eig = _removed("hermitian_eig")
apply_function = _removed("apply_function")
spectral_projection = _removed("spectral_projection")
