"""`gridalg.polar_extension_1d` for d = 1 at L cut levels in one pass over
(L, n) arrays. Every step is elementwise or an exact maximum, and no sum
runs over the level axis, so each level has the bits of a decision at it
alone."""

import math

import numpy as np


def jumps(f: np.ndarray) -> np.ndarray:
    """The modulus of scalar interval samples f, shape (..., n), along the last axis."""
    return np.abs(f[..., 1:] - f[..., :-1]).max(axis=-1)


def witnesses(u: np.ndarray, supported: np.ndarray) -> np.ndarray:
    """The witnesses for flat phases u, shape (L, n), on the supports
    `supported` = s > delta: u + 0.0 there (the bytes of u vh: a -0 part
    turns +0), the nearest supported frame before the first supported node
    and after the last (node 0's if none is), and on each interior free run
    the phase-linear bridge w_lo exp(i frac angle(w_lo* w_hi))."""
    idx = np.arange(u.size)
    first = supported.argmax(axis=1)[:, None]
    left = np.maximum.accumulate(np.where(supported, idx, first), axis=1)
    right = np.minimum.accumulate(np.where(supported, idx, u.size)[:, ::-1], axis=1)[:, ::-1]
    u = u + 0.0
    w = u[left]
    rows, cols = np.nonzero((idx > left) & (right < u.size))
    if rows.size:
        lo, hi = left[rows, cols], right[rows, cols]
        w1 = u[lo]
        w[rows, cols] = w1 * np.exp(1j * ((cols - lo) / (hi - lo)) * np.angle(w1.conj() * u[hi]))
    return w


def decide(u: np.ndarray, s: np.ndarray, delta: np.ndarray, factor: float):
    """(bounds, moduli, w) at the levels delta, shape (L, 1), clear of the
    flat moduli s: the modulus bounds factor jumps(cut-down) / spread, with
    spread the distance to the nearest s below (0 if none; inf at spread 0),
    the witnesses' moduli, both lists, and the witnesses."""
    w = witnesses(u, s > delta)
    spread = (delta[:, 0] - np.where(s < delta, s, 0.0).max(axis=1)).tolist()
    cut = jumps(u * np.maximum(s - delta, 0.0) + 0.0).tolist()
    bounds = [factor * c / gap if gap > 0 else math.inf for c, gap in zip(cut, spread)]
    return bounds, jumps(w).tolist(), w
