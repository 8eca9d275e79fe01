"""Reference answers computed apart from cstarreg.

Nothing here imports the package. Each oracle uses numpy directly (bound at
import, so a traced run never counts the oracle's own factorizations) and a
fact about the algebra that does not depend on the program:

- interval: C([0,1], M_d) has stable rank one (Rieffel 1983), so regular
  elements are dense and the distance to them is 0;
- disk: for f = g z^w with g zero-free, the cut-down at delta is blocked by a
  winding obstruction exactly when {|f| > delta} separates the origin from the
  rim (argument principle), so the distance is the bottleneck level at which
  the nodes with |f| <= delta connect the innermost ring to the rim;
- matrix: the polar part, the spectral projection above delta and the
  pseudoinverse are read off one SVD of a.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import norm as _norm
from numpy.linalg import svd as _svd

EPS = np.finfo(np.float64).eps
RANK_CUT_REL = 1e-9  # the rank cut of the polar part, relative to ||a||
MP_TOL_CAP = 1e-3  # a relative error above this is a wrong inverse at any kappa


def _op_norm(a) -> float:
    return float(_svd(a, compute_uv=False)[0]) if a.size else 0.0


# --- interval ---------------------------------------------------------------

def interval_bracket_ok(lower: float, upper: float, tol: float, h: float) -> bool:
    """Distance 0 on the interval: the bracket starts at 0 and ends within
    the bisection tolerance plus grid slack."""
    return lower == 0.0 and 0.0 < upper <= tol + 2.0 * h


def interval_conditions_ok(deltas, cond2, cond3, cond4, h: float) -> bool:
    """Conditions (2)-(4) hold at every probed delta above the 3h band."""
    return all(c2 and c3 and c4
               for d, c2, c3, c4 in zip(deltas, cond2, cond3, cond4)
               if d > 3.0 * h)


# --- disk -------------------------------------------------------------------

def disk_distance(mags: np.ndarray, winding: int) -> float:
    """Distance to the regular elements of f = g z^winding sampled on the
    polar grid, from |f| alone.

    mags has shape (n_radial, n_angular). A support cycle around the origin
    exists at delta exactly when the closed sub-level set {|f| <= delta} does
    not join ring 0 to the rim; the support is 4-connected, so its dual, the
    sub-level set, is 8-connected (with the angular seam wrapped). Nodes are
    added in increasing |f| to a union-find until ring 0 meets the rim.
    """
    if winding == 0:
        return 0.0
    nr, nt = mags.shape
    size = nr * nt
    inner, outer = size, size + 1
    parent = list(range(size + 2))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, k):
        ri, rk = find(i), find(k)
        if ri != rk:
            parent[ri] = rk

    flat = mags.ravel()
    added = np.zeros(size, dtype=bool)
    for node in np.argsort(flat, kind="stable").tolist():
        added[node] = True
        j, m = divmod(node, nt)
        if j == 0:
            union(node, inner)
        if j == nr - 1:
            union(node, outer)
        for dj in (-1, 0, 1):
            jj = j + dj
            if not 0 <= jj < nr:
                continue
            for dm in (-1, 0, 1):
                other = jj * nt + (m + dm) % nt
                if other != node and added[other]:
                    union(node, other)
        if find(inner) == find(outer):
            return float(flat[node])
    raise AssertionError("the rim is always reachable once every node is added")


def approximant_ok(f: np.ndarray, x: np.ndarray, delta: float, eps: float) -> bool:
    """x is regular with uniform gap >= 0.9 eps and within delta + eps of f,
    both read from the pointwise singular values (here scalar moduli)."""
    far = float(np.abs(f - x).max())
    mags = np.abs(x)
    nonzero = mags[mags > 1e-12]
    gap_ok = nonzero.size == 0 or float(nonzero.min()) >= 0.9 * eps
    return gap_ok and far <= delta + eps + 1e-9


# --- matrix -----------------------------------------------------------------

def polar_frame(a: np.ndarray, delta: float):
    """(v, e_delta, |a|) from one SVD: v keeps singular values above the
    rank cut, e_delta projects onto the right singular vectors above delta."""
    u, s, vh = _svd(a)
    keep = s > RANK_CUT_REL * (s[0] if s.size else 0.0)
    v = (u[:, keep]) @ vh[keep, :]
    above = vh[s > delta, :]
    e_delta = above.conj().T @ above
    abs_a = (vh.conj().T * s) @ vh
    return v, e_delta, abs_a


def pipeline_output_ok(a: np.ndarray, w: np.ndarray, delta: float) -> bool:
    """w is a partial isometry, agrees with the polar part of a above delta,
    and gives an approximate polar decomposition within 2 delta."""
    v, e_delta, abs_a = polar_frame(a, delta)
    return (_op_norm(w @ w.conj().T @ w - w) <= 1e-10
            and _op_norm((w - v) @ e_delta) <= 1e-8
            and _op_norm(a - w @ abs_a) <= 2.0 * delta + 1e-9)


def pinv_at_rank_cut(a: np.ndarray):
    """Pseudoinverse keeping singular values above RANK_CUT_REL * ||a||,
    and the condition number of the kept part."""
    u, s, vh = _svd(a)
    keep = s > RANK_CUT_REL * s[0]
    kept = s[keep]
    pinv = (vh[keep, :].conj().T / kept) @ u[:, keep].conj().T
    return pinv, float(kept[0] / kept[-1])


def mp_tolerance(kappa: float, n: int) -> float:
    """Relative tolerance for a pseudoinverse formed through a*a, whose
    error grows like eps * kappa^2; capped where the answer stops meaning
    anything. It does not scale with ||a^+||."""
    return min(MP_TOL_CAP, 10.0 * n * EPS * kappa * kappa)


def moore_penrose_ok(a: np.ndarray, mp: np.ndarray) -> bool:
    pinv, kappa = pinv_at_rank_cut(a)
    err = _norm(mp - pinv, 2) / _norm(pinv, 2)
    return bool(err <= mp_tolerance(kappa, a.shape[0]))


def matrix_with_spectrum(rng: np.random.Generator, s) -> np.ndarray:
    """u diag(s) v* with Haar-like unitaries from QR of complex Gaussians."""
    n = len(s)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q1 * np.asarray(s, dtype=np.float64)) @ q2.conj().T
