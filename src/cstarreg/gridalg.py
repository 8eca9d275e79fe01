"""Grid-discretized continuous-function algebras C(X, M_n) on an interval or
the unit disk: sup-norm, pointwise lifts of matrix operations, uniform-gap
regularity, partial-isometry extension procedures and the bisection estimator
for the distance to the regular elements.

Scalar partial isometries on a connected domain are unitary-or-zero; both
extension procedures build on that classification. The 1-D procedure
transports a unitary frame along the interval (Procrustes correction per
step); the 2-D scalar procedure unwraps the phase over the support region
and tests winding residues around its holes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import opcore
from .errors import PhaseUnwrapAliasing, SpectralCollision

ALIAS_GUARD = np.pi / 2  # max tolerated adjacent-point phase jump


@dataclass(frozen=True)
class GridDomain:
    """Interval [0,1] sampled at n_points nodes, or the unit disk sampled on
    a polar grid (radii (j+1)/n_radial, equispaced angles)."""

    kind: str  # "interval-1d" | "disk-2d-polar"
    n_points: int = 0
    n_radial: int = 0
    n_angular: int = 0

    def __post_init__(self):
        if self.kind == "interval-1d":
            if self.n_points < 16:
                raise ValueError("interval grid needs at least 16 points")
        elif self.kind == "disk-2d-polar":
            if self.n_radial < 16 or self.n_angular < 64:
                raise ValueError("disk grid needs >= 16 radial and >= 64 angular nodes")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @property
    def size(self) -> int:
        if self.kind == "interval-1d":
            return self.n_points
        return self.n_radial * self.n_angular

    def coordinates(self):
        """1-D: array of t values. 2-D: (radii, angles) arrays."""
        if self.kind == "interval-1d":
            return np.linspace(0.0, 1.0, self.n_points)
        radii = (np.arange(self.n_radial) + 1.0) / self.n_radial
        angles = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
        return radii, angles

    def edge_arrays(self):
        return _edge_arrays(self)

    def max_spacing(self) -> float:
        if self.kind == "interval-1d":
            return 1.0 / (self.n_points - 1)
        return max(1.0 / self.n_radial, 2.0 * np.pi / self.n_angular)


@lru_cache(maxsize=64)
def _edge_arrays(dom: GridDomain):
    """(left, right, spacing) index arrays over adjacent node pairs."""
    if dom.kind == "interval-1d":
        h = 1.0 / (dom.n_points - 1)
        left = np.arange(dom.n_points - 1)
        return left, left + 1, np.full(dom.n_points - 1, h)
    radii, _ = dom.coordinates()
    nr, nt = dom.n_radial, dom.n_angular
    dr = 1.0 / nr
    dtheta = 2.0 * np.pi / nt
    j = np.repeat(np.arange(nr), nt)
    m = np.tile(np.arange(nt), nr)
    idx = j * nt + m
    ang_right = j * nt + (m + 1) % nt
    lefts = [idx]
    rights = [ang_right]
    spacings = [radii[j] * dtheta]
    inner = j < nr - 1
    lefts.append(idx[inner])
    rights.append(idx[inner] + nt)
    spacings.append(np.full(inner.sum(), dr))
    return (np.concatenate(lefts), np.concatenate(rights),
            np.concatenate(spacings))


def interval_domain(n_points: int) -> GridDomain:
    return GridDomain(kind="interval-1d", n_points=n_points)


def disk_domain(n_radial: int, n_angular: int) -> GridDomain:
    return GridDomain(kind="disk-2d-polar", n_radial=n_radial, n_angular=n_angular)


@dataclass
class GridElement:
    """An element of C(X, M_d) sampled on a grid: one d x d matrix per node
    (flat node order), with an empirical continuity modulus.

    Immutable by convention: `values` is never reassigned or written to
    after construction, because `spectrum()` keeps the factorization of the
    values it first saw. Build a new element for new values.
    """

    domain: GridDomain
    values: np.ndarray  # shape (num_points, d, d)
    _svd: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 3 or v.shape[0] != self.domain.size or v.shape[1] != v.shape[2]:
            raise ValueError(f"bad grid value shape {v.shape}")
        self.values = v

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def is_scalar(self) -> bool:
        return self.dim == 1

    def modulus(self) -> float:
        """Max over adjacent nodes of the operator-norm jump."""
        left, right, _ = self.domain.edge_arrays()
        diffs = self.values[left] - self.values[right]
        if diffs.size == 0:
            return 0.0
        if self.dim == 1:
            return float(np.abs(diffs).max())
        return float(np.linalg.svd(diffs, compute_uv=False).max())

    def spectrum(self):
        """Pointwise SVD (u, s, vh), shapes (n, d, d), (n, d), (n, d, d),
        with each row of s descending: the one factorization of the element
        that every grid routine shares.

        d > 1: one batched LAPACK SVD, computed on first use and kept.
        d = 1: s = |f|, u = f/|f| (1 where f = 0) and vh = 1, which is what
        LAPACK returns for a 1 x 1 matrix. The real and imaginary parts are
        divided separately so that a real positive sample has phase exactly
        1. Not kept: rebuilding it costs about as much as a lookup, and
        keeping it would hold three more arrays per element.
        """
        if self.dim == 1:
            f = self.values[:, 0, 0]
            s = np.abs(f)
            nz = s > 0
            u = np.ones(f.shape, dtype=np.complex128)
            np.divide(f.real, s, out=u.real, where=nz)
            np.divide(f.imag, s, out=u.imag, where=nz)
            vh = np.broadcast_to(np.ones((1, 1, 1), dtype=np.complex128), self.values.shape)
            return u.reshape(-1, 1, 1), s.reshape(-1, 1), vh
        if self._svd is None:
            self._svd = np.linalg.svd(self.values)
        return self._svd

    def singular_values(self) -> np.ndarray:
        """The s of `spectrum()`. When d > 1 and no spectrum is kept yet,
        only the values are computed, and not kept: a one-off element such
        as a residual never needs its singular vectors, and computing them
        too makes the batched SVD 1.5-2.5x slower for d = 2, 3 (128 nodes,
        one OpenBLAS thread)."""
        if self.dim == 1:
            return np.abs(self.values[:, :, 0])
        if self._svd is None:
            return np.linalg.svd(self.values, compute_uv=False)
        return self._svd[1]


@dataclass
class ExtensionReport:
    exists: bool
    witness: GridElement | None
    obstruction: dict | None
    witness_modulus: float = 0.0
    modulus_bound: float = math.inf


def sup_norm(ge: GridElement) -> float:
    s = ge.singular_values()
    return float(s.max()) if s.size else 0.0


def guard_band(ge: GridElement) -> float:
    """Half-width of the band around a cut level inside which a pointwise
    singular value collides with the cut."""
    return opcore.ETA_SEP_BASE * (1.0 + sup_norm(ge))


def lift_cutdown(ge: GridElement, delta: float) -> GridElement:
    # batched equivalent of the pointwise opcore.cutdown
    u, s, vh = ge.spectrum()
    shaved = np.maximum(s - delta, 0.0)
    out = np.einsum("kij,kj,kjl->kil", u, shaved, vh)
    return GridElement(domain=ge.domain, values=out)


def uniform_gap_regular(ge: GridElement, zero_tol: float | None = None,
                        gap_min: float | None = None):
    """Uniform-gap regularity: in C(X, M_d) the spectrum of a*a is the union
    over points, so regularity means every pointwise singular value is
    either <= zero_tol or >= a common gap well above grid resolution.

    Returns (is_regular, gap) with gap the smallest singular value above
    zero_tol (inf when there is none).
    """
    s = ge.singular_values().ravel()
    if zero_tol is None:
        zero_tol = 1e-9 * (sup_norm(ge) + 1.0)
    if gap_min is None:
        gap_min = 2.0 * ge.domain.max_spacing()
    above = s[s > zero_tol]
    gap = float(above.min()) if above.size else math.inf
    return gap >= gap_min, gap


def _nearest_below(s_all: np.ndarray, delta: float) -> float:
    below = s_all[s_all < delta]
    return float(below.max()) if below.size else 0.0


def _modulus_bound(ge: GridElement, delta: float) -> float:
    """Perturbation-style bound on the allowed witness modulus."""
    s_all = ge.singular_values().ravel()
    spread = delta - _nearest_below(s_all, delta)
    cut_mod = lift_cutdown(ge, delta).modulus()
    if spread <= 0:
        return math.inf
    return 10.0 * cut_mod / spread


def _check_separation(s_pointwise: np.ndarray, delta: float, eta: float):
    if np.any(np.abs(s_pointwise - delta) <= eta):
        raise SpectralCollision(
            f"cut {delta} within {eta:.2g} of a pointwise singular value")


def polar_extension_1d(ge: GridElement, delta: float) -> ExtensionReport:
    """Build a grid-continuous partial isometry w on [0,1] with
    w e_delta = v e_delta at every node.

    The constrained part of w at each node is v restricted to the singular
    directions above delta; the free part is chosen by unitary Procrustes
    against the previous node, so w is a unitary frame transported along the
    interval. On an interval this never meets a topological obstruction;
    existence reduces to the transported frame staying within the modulus
    bound.
    """
    if ge.domain.kind != "interval-1d":
        raise ValueError("polar_extension_1d needs an interval domain")
    u_all, s_all, vh_all = ge.spectrum()
    _check_separation(s_all.ravel(), delta, guard_band(ge))
    keeps = s_all > delta
    if ge.is_scalar:
        # vh = 1 for d = 1, so the polar part v is the phase u
        w = _transport_scalar(u_all[:, 0, 0], keeps[:, 0]).reshape(-1, 1, 1)
    else:
        w = _transport_frames(u_all, vh_all, keeps)

    witness = GridElement(domain=ge.domain, values=w)
    mod = witness.modulus()
    bound = _modulus_bound(ge, delta)
    exists = mod <= bound + 1e-9
    obstruction = None if exists else {"kind": "frame-transport", "modulus": mod}
    return ExtensionReport(exists=exists, witness=witness if exists else None,
                           obstruction=obstruction, witness_modulus=mod,
                           modulus_bound=bound)


def _transport_frames(u_all: np.ndarray, vh_all: np.ndarray,
                      keeps: np.ndarray) -> np.ndarray:
    """Per-node Procrustes transport of a unitary frame (d > 1)."""
    npts, d, _ = u_all.shape

    def step(k, w_prev):
        u, vh = u_all[k], vh_all[k]
        keep = keeps[k]
        fixed = u[:, keep] @ vh[keep, :]
        bp = vh[~keep, :].conj().T  # basis of ker e_delta
        bq = u[:, ~keep]  # basis of the free left subspace
        if w_prev is None:
            free = bq @ bp.conj().T
        else:
            m = bq.conj().T @ w_prev @ bp
            if m.size:
                mu, _, mvh = np.linalg.svd(m)
                free = bq @ (mu @ mvh) @ bp.conj().T
            else:
                free = np.zeros((d, d), dtype=np.complex128)
        return fixed + free

    w = np.empty_like(u_all)
    supported = keeps.any(axis=1)
    if not supported.any():
        w[:] = step(0, None)
        return w
    # transport outward from the first supported node so leading free
    # nodes continue the support frame instead of an arbitrary one
    k0 = int(np.argmax(supported))
    w[k0] = step(k0, None)
    for k in range(k0 + 1, npts):
        w[k] = step(k, w[k - 1])
    for k in range(k0 - 1, -1, -1):
        w[k] = step(k, w[k + 1])
    _bridge_free_runs(w, supported)
    return w


def _transport_scalar(phase: np.ndarray, supported: np.ndarray) -> np.ndarray:
    """The frame transport for d = 1, as an index fill.

    A 1 x 1 Procrustes step copies the neighbour's phase, so every free node
    takes the phase of the last supported node before it, and the leading
    free run that of the first supported node. Interior free runs are then
    bridged phase-linearly, which is the 1 x 1 unitary geodesic.
    """
    npts = len(phase)
    if not supported.any():
        return np.full(npts, phase[0])
    idx = np.arange(npts)
    k0 = int(np.argmax(supported))
    left = np.maximum.accumulate(np.where(supported, idx, k0))
    right = np.minimum.accumulate(np.where(supported, idx, npts)[::-1])[::-1]
    w = phase[left]
    bridged = (idx > left) & (right < npts)
    lo, hi = left[bridged], right[bridged]
    frac = (idx[bridged] - lo) / (hi - lo)
    w[bridged] = phase[lo] * np.exp(1j * frac * np.angle(phase[lo].conj() * phase[hi]))
    return w


def _unitary_geodesic(w1: np.ndarray, w2: np.ndarray, count: int) -> np.ndarray:
    """`count` interior points on the geodesic from w1 to w2 in the unitary
    group, re-orthonormalized by polar correction."""
    a = w1.conj().T @ w2
    evals, vecs = np.linalg.eig(a)
    angles = np.angle(evals)
    vinv = np.linalg.inv(vecs)
    out = np.empty((count,) + w1.shape, dtype=np.complex128)
    for i in range(count):
        s = (i + 1.0) / (count + 1.0)
        interp = w1 @ (vecs * np.exp(1j * s * angles)) @ vinv
        uu, _, vv = np.linalg.svd(interp)
        out[i] = uu @ vv
    return out


def _bridge_free_runs(w: np.ndarray, supported: np.ndarray) -> None:
    """Replace maximal interior runs of fully-free nodes (no pinned singular
    directions) by geodesic interpolation between the flanking frames."""
    npts = len(supported)
    k = 0
    while k < npts:
        if supported[k]:
            k += 1
            continue
        start = k
        while k < npts and not supported[k]:
            k += 1
        end = k  # run is [start, end)
        if start == 0 or end == npts:
            continue  # boundary runs already continue the support frame
        w[start:end] = _unitary_geodesic(w[start - 1], w[end], end - start)


def _wrap_pi(x: float) -> float:
    return (x + np.pi) % (2.0 * np.pi) - np.pi


@lru_cache(maxsize=16)
def _neighbors_2d(dom: GridDomain):
    adj = [[] for _ in range(dom.size)]
    left, right, _ = dom.edge_arrays()
    for i, j in zip(left.tolist(), right.tolist()):
        adj[i].append(j)
        adj[j].append(i)
    return adj


def polar_extension_2d_scalar(ge: GridElement, delta: float) -> ExtensionReport:
    """Decide and build the phase extension on the disk.

    A scalar partial isometry in C(disk) is unitary or zero, so a witness
    exists iff the phase of the element on its support region {|f| > delta}
    extends to a continuous unimodular function on the whole disk. The
    support phase is unwrapped along a BFS spanning forest; each non-tree
    edge inside the support contributes a 2*pi*k residue, and a nonzero k is
    exactly a winding obstruction around a hole of the support. When every
    residue vanishes, the unwrapped phase is filled into the holes by
    breadth-first averaging and exponentiated back into a witness.
    """
    if ge.domain.kind != "disk-2d-polar" or not ge.is_scalar:
        raise ValueError("polar_extension_2d_scalar needs a scalar disk element")
    dom = ge.domain
    f = ge.values[:, 0, 0]
    mags = np.abs(f)
    _check_separation(mags, delta, guard_band(ge))
    support = mags > delta

    if not support.any():
        witness = GridElement(domain=dom, values=np.zeros_like(ge.values))
        return ExtensionReport(exists=True, witness=witness, obstruction=None,
                               witness_modulus=0.0,
                               modulus_bound=_modulus_bound(ge, delta))

    phase = np.angle(f)
    adj = _neighbors_2d(dom)
    unwrapped = np.full(dom.size, np.nan)
    visited = np.zeros(dom.size, dtype=bool)
    residues = []
    for start in np.flatnonzero(support):
        if visited[start]:
            continue
        visited[start] = True
        unwrapped[start] = phase[start]
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nb in adj[node]:
                if not support[nb]:
                    continue
                step = _wrap_pi(phase[nb] - phase[node])
                if abs(step) > ALIAS_GUARD:
                    raise PhaseUnwrapAliasing(
                        f"phase jump {abs(step):.3f} > pi/2 between nodes "
                        f"{node} and {nb}; refine the grid")
                if visited[nb]:
                    mismatch = unwrapped[node] + step - unwrapped[nb]
                    k = int(round(mismatch / (2.0 * np.pi)))
                    if k != 0:
                        residues.append(k)
                    continue
                visited[nb] = True
                unwrapped[nb] = unwrapped[node] + step
                queue.append(nb)

    bound = _modulus_bound(ge, delta)
    if residues:
        windings = sorted({abs(k) for k in residues})
        return ExtensionReport(
            exists=False, witness=None,
            obstruction={"kind": "winding", "windings": windings},
            witness_modulus=math.inf, modulus_bound=bound)

    # fill the holes: breadth-first averaging of the unwrapped phase
    frontier = deque(np.flatnonzero(visited))
    while frontier:
        node = frontier.popleft()
        for nb in adj[node]:
            if not visited[nb]:
                vals = [unwrapped[x] for x in adj[nb] if visited[x]]
                unwrapped[nb] = float(np.mean(vals))
                visited[nb] = True
                frontier.append(nb)

    w = np.exp(1j * unwrapped)
    w[support] = f[support] / mags[support]  # exact phase on the support
    witness = GridElement(domain=dom, values=w.reshape(-1, 1, 1))
    mod = witness.modulus()
    exists = mod <= bound + 1e-9
    obstruction = None if exists else {"kind": "modulus", "modulus": mod}
    return ExtensionReport(exists=exists, witness=witness if exists else None,
                           obstruction=obstruction, witness_modulus=mod,
                           modulus_bound=bound)


def polar_extension(ge: GridElement, delta: float) -> ExtensionReport:
    if ge.domain.kind == "interval-1d":
        return polar_extension_1d(ge, delta)
    return polar_extension_2d_scalar(ge, delta)


def decide_extension(ge: GridElement, delta: float, retries: int = 50) -> ExtensionReport:
    """polar_extension with automatic perturbation of delta away from
    spectral collisions."""
    eta = guard_band(ge)
    for _ in range(retries):
        try:
            return polar_extension(ge, delta)
        except SpectralCollision:
            delta += 2.0 * eta
    raise SpectralCollision(f"could not separate {delta} from the grid spectrum")


def dist_to_regular(ge: GridElement, tol_bisect: float):
    """Bracket the distance to the regular elements by bisecting on the cut
    level: the cut-down of the element admits a polar decomposition in the
    grid algebra iff the extension at that level exists (Theorem condition
    (4)), and each successful extension certifies distance <= level via the
    explicit regular approximant. Returns (lower, upper); the interval never
    collapses to a point because grid error is irreducible.
    """
    hi = sup_norm(ge) + max(tol_bisect, 10.0 * guard_band(ge))
    if not decide_extension(ge, hi).exists:
        raise SpectralCollision("extension unexpectedly failed above the norm")
    lo = 0.0
    while hi - lo > tol_bisect:
        mid = 0.5 * (lo + hi)
        if decide_extension(ge, mid).exists:
            hi = mid
        else:
            lo = mid
    return lo, hi


def no_polar_decomposition_witness(ge: GridElement) -> float:
    """Total principal-value phase variation of f/|f| over the support of a
    scalar 1-D element. Unbounded growth under grid refinement certifies
    that no continuous unimodular w matches the phase at cut level 0."""
    if ge.domain.kind != "interval-1d" or not ge.is_scalar:
        raise ValueError("needs a scalar interval element")
    f = ge.values[:, 0, 0]
    supp = np.abs(f) > 0
    ph = np.angle(f[supp])
    if ph.size < 2:
        return 0.0
    d = np.diff(ph)
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.sum(np.abs(d)))
