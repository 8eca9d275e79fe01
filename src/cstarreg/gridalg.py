"""Grid-discretized continuous-function algebras C(X, M_n) on an interval or
the unit disk: sup-norm, pointwise lifts of matrix operations, uniform-gap
regularity, partial-isometry extension procedures and the bisection estimator
for the distance to the regular elements.

Scalar partial isometries on a connected domain are unitary-or-zero; both
extension procedures build on that classification. The 1-D procedure
transports a unitary frame along the interval: for d = 1 `levels.decide`
builds the witnesses, their moduli and the modulus bounds at every level of
a report in one pass over a level axis, and a single decision is its L = 1
case (`_line_reports`); for d > 1 `_transport` carries the frame in the
coordinates of the pointwise SVD. The modulus of an element reads its jumps
as slices of the layout for d = 1; for d > 1 it screens them by cheap norm
bounds and factorizes only those that can hold the maximum. The 2-D scalar
procedure decides by discrete Stokes on the polar grid
(`polar_extension_2d_scalar`): the element keeps the phase data that no cut
level changes (`_disk_phase`), and a decision labels the holes of the
support by runs of free nodes along the rings and a union-find over their
contacts (`_blocked_windings`). On both domains `dist_to_regular` decides
the lowest bisection rung first, which settles the bracket in one decision
whenever the distance is 0, as everywhere in C([0,1], M_d).

Every entry point reads the element's flat singular values s once and
derives the guard band, the collision test, the modulus bound and the
cut-down from them. `decide_extension`, a bisection, a harness report and
each harness decision on a derived element hold their element
(`_holding`) while they run: one read of s and the guard band, for d = 1
the abs/phase spectrum, and the levels found clear of s, which are not
tested again. The hold is dropped when the run returns.

The bisection decides each level by `_extends`, which shares the
`_decide_at` step with the extension procedures but builds no witness that
cannot fail: every witness is unitary at every node, or zero, so its
modulus is at most WITNESS_MODULUS_MAX = 2 to rounding, and where the
modulus bound is at least that, the answer is the winding decision alone.
So `_extends` agrees with `decide_extension(...).exists` at every level.
Elements whose values are not finite are refused (ValueError) by the
guard band, which every decision asks first.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import levels, opcore
from .errors import PhaseUnwrapAliasing, SpectralCollision

ALIAS_GUARD = np.pi / 2  # max tolerated adjacent-point phase jump
# |det m| / ||m||_F^2 (about s2/s1) at or below which det m is rounding of
# zero and the 2 x 2 polar factor comes from the SVD
POLAR2_DET_FLOOR = opcore.TAU_NONZERO
TOP_HEADROOM = 10.0  # guard bands above the sup-norm where dist_to_regular starts
# witness modulus allowed per unit of cut-down modulus over spectral spread
MODULUS_BOUND_FACTOR = 10.0
# the largest modulus a witness can have: every witness is unitary (or zero)
# at every node, so adjacent nodes differ by at most |w_i| + |w_j| = 2, give
# or take a few ulps, far below MODULUS_SLACK; at a bound at least this
# large the modulus check cannot fail
WITNESS_MODULUS_MAX = 2.0
# relative margin by which a jump's upper bound on its norm may fall short of
# another jump's lower bound before GridElement.modulus drops it unfactorized
MODULUS_SCREEN = 1e-8
NOT_FINITE = "grid values must be finite"
NOT_SCALAR_DISK = "polar_extension_2d_scalar needs a scalar disk element"


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
    """(left, right) index arrays over adjacent node pairs."""
    if dom.kind == "interval-1d":
        left = np.arange(dom.n_points - 1)
        return left, left + 1
    nr, nt = dom.n_radial, dom.n_angular
    j = np.repeat(np.arange(nr), nt)
    m = np.tile(np.arange(nt), nr)
    idx = j * nt + m
    ang_right = j * nt + (m + 1) % nt
    inner = j < nr - 1
    return (np.concatenate([idx, idx[inner]]),
            np.concatenate([ang_right, idx[inner] + nt]))


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
    _phase: _DiskPhase | None = field(default=None, init=False, repr=False, compare=False)
    _hold: _Hold | None = field(default=None, init=False, repr=False, compare=False)

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
        """Max over adjacent nodes of the operator-norm jump.

        d = 1: the |jumps| as slices of the node layout, those of
        `edge_arrays` with the sign flipped, so the same bits, NaN included.
        d > 1: the largest of LAPACK's s1 over the jumps D that can hold the
        maximum, in one SVD call. Every jump has
        sqrt(||D* D||_F) >= s1 >= ||D* D||_F / ||D||_F, computed on the
        jumps divided by their largest entry so that no fourth power leaves
        the float range, and a jump whose upper bound falls below the
        largest lower bound by more than MODULUS_SCREEN, relative, cannot
        hold it. The margin is far above the rounding of either bound or of
        LAPACK's s1, so the result has the bits of s1 taken over every
        jump."""
        return _modulus(self.domain, self.values)

    def spectrum(self):
        """Pointwise SVD (u, s, vh), shapes (n, d, d), (n, d), (n, d, d),
        with each row of s descending: the one factorization of the element
        that every grid routine shares.

        d > 1: one batched LAPACK SVD, computed on first use and kept.
        d = 1: s = |f|, u = f/|f| (1 where f = 0) and vh = 1, which is what
        LAPACK returns for a 1 x 1 matrix. The real and imaginary parts are
        divided separately so that a real positive sample has phase exactly
        1. Kept only while the element is held (`_holding`): kept for good,
        it would hold 32 bytes per node of every scalar element.
        """
        if self._svd is None:
            if self.dim == 1:
                return _scalar_spectrum(self.values, np.abs(self.values[:, 0, 0]))
            try:
                self._svd = np.linalg.svd(self.values)
            except np.linalg.LinAlgError:  # what a NaN entry gives
                if np.isfinite(self.values).all():
                    raise
                raise ValueError(NOT_FINITE) from None
        return self._svd

    def singular_values(self) -> np.ndarray:
        """The s of `spectrum()`, so the same values whatever was called
        before: for d > 1 this computes and keeps the full spectrum."""
        if self._svd is not None:
            return self._svd[1]
        if self.dim == 1:
            return np.abs(self.values[:, :, 0])
        return self.spectrum()[1]


def _modulus(dom: GridDomain, values: np.ndarray) -> float:
    """`GridElement.modulus` of these (n, d, d) values on dom."""
    if values.shape[1] == 1:
        f = values[:, 0, 0]
        if dom.kind == "interval-1d":
            return float(levels.jumps(f))
        g = f.reshape(dom.n_radial, dom.n_angular)
        return float(np.max([np.abs(g[:, 1:] - g[:, :-1]).max(),
                             np.abs(g[:, 0] - g[:, -1]).max(), np.abs(g[1:] - g[:-1]).max()]))
    left, right = dom.edge_arrays()
    diffs = values[left] - values[right]
    if diffs.size == 0:
        return 0.0
    scale = np.abs(diffs).max()
    if scale == 0.0:
        return 0.0
    if math.isfinite(scale):  # otherwise LAPACK refuses the jumps as before
        jumps = diffs / scale
        fro = np.linalg.norm(jumps, axis=(1, 2))
        gram = np.linalg.norm(jumps.conj().transpose(0, 2, 1) @ jumps, axis=(1, 2))
        nonzero = fro > 0.0
        lower = (gram[nonzero] / fro[nonzero]).max()
        diffs = diffs[np.sqrt(gram) >= lower * (1.0 - MODULUS_SCREEN)]
    return float(np.linalg.svd(diffs, compute_uv=False).max())


def _scalar_spectrum(values: np.ndarray, s: np.ndarray):
    """`spectrum()` of a scalar element with (n, 1, 1) values and flat s."""
    vh = np.broadcast_to(np.ones((1, 1, 1), dtype=np.complex128), values.shape)
    return _unit(values[:, 0, 0], s).reshape(-1, 1, 1), s.reshape(-1, 1), vh


@dataclass
class _Hold:
    """What a hold (`_holding`) keeps of its element while it runs: the
    flat singular values s, their guard band, and the levels already found
    clear of s (each one the result of opcore.clear_of)."""

    s: np.ndarray
    band: float
    clear: set = field(default_factory=set)


@contextmanager
def _holding(ge: GridElement):
    """Hold ge for the with block: one read of s and the guard band, and
    for d = 1 the spectrum built on that s, kept on the element as
    `spectrum()` keeps the SVD for d > 1. A hold inside another one is the
    outer one. On exit the element is as before: no hold and, for d = 1, no
    spectrum. ValueError, as `guard_band`, when the values are not finite."""
    if ge._hold is not None:
        yield ge._hold
        return
    s = ge.singular_values().ravel()
    ge._hold = _Hold(s, _band(s))
    if ge.is_scalar:
        ge._svd = _scalar_spectrum(ge.values, s)
    try:
        yield ge._hold
    finally:
        ge._hold = None
        if ge.is_scalar:
            ge._svd = None


def _read(ge: GridElement):
    """(s, band): the element's flat singular values and guard band, its
    hold's while one is on."""
    if ge._hold is not None:
        return ge._hold.s, ge._hold.band
    s = ge.singular_values().ravel()
    return s, _band(s)


def _clear(ge: GridElement, level: float, s: np.ndarray, band: float) -> float:
    """opcore.clear_of(level, s, band), which a hold asks once per level:
    a level it cleared before is clear of s as it stands."""
    hold = ge._hold
    if hold is not None and level in hold.clear:
        return level
    level = opcore.clear_of(level, s, band)
    if hold is not None:
        hold.clear.add(level)
    return level


def _unit(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """f/|f| for scalar samples f with s = |f|, and 1 where f = 0: the u of
    `spectrum()` for d = 1."""
    u = np.ones(f.shape, dtype=np.complex128)
    nz = s > 0
    np.divide(f.real, s, out=u.real, where=nz)
    np.divide(f.imag, s, out=u.imag, where=nz)
    return u


def _unit_of(ge: GridElement, s: np.ndarray) -> np.ndarray:
    """The flat u of a scalar element's `spectrum()` off s, its flat
    singular values: the held one while a hold is on."""
    return _unit(ge.values[:, 0, 0], s) if ge._svd is None else ge._svd[0][:, 0, 0]


@dataclass
class ExtensionReport:
    exists: bool
    witness: GridElement | None
    obstruction: dict | None
    witness_modulus: float = 0.0
    modulus_bound: float = math.inf
    # the cut level decided at, after decide_extension's nudges (None when
    # no cut was taken)
    delta: float | None = None


def sup_norm(ge: GridElement) -> float:
    """The largest singular value over the nodes. ValueError, as
    `guard_band`, when the values are not finite."""
    return float(_read(ge)[0].max(initial=0.0))


def guard_band(ge: GridElement) -> float:
    """Half-width of the band around a cut level inside which a pointwise
    singular value collides with the cut. ValueError for an element whose
    values are not finite, which is the first thing every decision asks:
    a NaN or inf entry makes the sup-norm NaN or inf."""
    return _read(ge)[1]


def _band(s: np.ndarray) -> float:
    """`guard_band` off s, the element's singular values."""
    norm = float(s.max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError(NOT_FINITE)
    return opcore.eta_sep(norm)


def from_svd(domain: GridDomain, u: np.ndarray, s: np.ndarray, vh: np.ndarray) -> GridElement:
    """The element u diag(s) vh, node by node: with (u, s, vh) the spectrum
    of a and s replaced by f(s), f(0) = 0, it is v f(|a|)."""
    return GridElement(domain=domain, values=np.einsum("kij,kj,kjl->kil", u, s, vh))


def lift_cutdown(ge: GridElement, delta: float) -> GridElement:
    # batched equivalent of the pointwise opcore.cutdown
    opcore.check_level(delta)
    return GridElement(ge.domain, _cut(ge, delta, _read(ge)[0]))


def _cut(ge: GridElement, delta: float, s: np.ndarray) -> np.ndarray:
    """The values of `lift_cutdown` off s, the element's flat singular
    values: for d > 1 off the kept SVD, whose s they are; for d = 1
    u (|f| - delta)_+ + 0.0 with u = f/|f| (held while a hold is on), the
    bits of from_svd with no einsum: vh = 1, and adding 0.0 turns a -0 part
    into +0 as the einsum's sum from zero does."""
    if ge.is_scalar:
        return (_unit_of(ge, s) * np.maximum(s - delta, 0.0) + 0.0).reshape(-1, 1, 1)
    u, s, vh = ge.spectrum()
    return from_svd(ge.domain, u, np.maximum(s - delta, 0.0), vh).values


def uniform_gap_regular(ge: GridElement, gap_min: float | None = None):
    """Uniform-gap regularity: in C(X, M_d) the spectrum of a*a is the union
    over points, so regularity means every pointwise singular value is
    either <= zero_tol = TAU_RANK (1 + ||ge||) or >= a common gap well above
    grid resolution.

    Returns (is_regular, gap) with gap the smallest singular value above
    zero_tol (inf when there is none). ValueError, as `guard_band`, when the
    values are not finite.
    """
    s, _ = _read(ge)
    zero_tol = opcore.TAU_RANK * (float(s.max(initial=0.0)) + 1.0)
    if gap_min is None:
        gap_min = 2.0 * ge.domain.max_spacing()
    above = s[s > zero_tol]
    gap = float(above.min()) if above.size else math.inf
    return gap >= gap_min, gap


def _modulus_bound(ge: GridElement, delta: float, s: np.ndarray) -> float:
    """Perturbation-style bound on the allowed witness modulus, with s the
    element's flat singular values."""
    spread = delta - float(s[s < delta].max(initial=0.0))  # to the nearest s below
    if spread <= 0:
        return math.inf
    return MODULUS_BOUND_FACTOR * _modulus(ge.domain, _cut(ge, delta, s)) / spread


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
    return _report(ge, delta, "frame-transport")


def _report(ge: GridElement, delta: float, kind: str) -> ExtensionReport:
    """The report of both extension procedures at delta, off one read of
    the singular values: the collision test (not again for a level the
    element's hold cleared), then `_line_reports` for a scalar interval
    element, else the `_decide_at` step and a winding obstruction or the
    witness held to the modulus bound, whose failure is an obstruction of
    `kind`; an empty disk support gives the zero witness."""
    s, band = _read(ge)
    if ge._hold is None or delta not in ge._hold.clear:
        opcore.check_clear(delta, s, band)
    if ge.is_scalar and ge.domain.kind == "interval-1d":
        return _line_reports(ge, [delta])[0][0]
    windings, build = _decide_at(ge, delta, s)
    bound = _modulus_bound(ge, delta, s)
    if windings:
        return ExtensionReport(
            exists=False, witness=None,
            obstruction={"kind": "winding", "windings": windings},
            witness_modulus=math.inf, modulus_bound=bound, delta=delta)
    witness = build() if build else GridElement(ge.domain, np.zeros_like(ge.values))
    return _held_to_bound(witness, bound, delta, kind)


def _frame_witness(ge: GridElement, delta: float) -> GridElement:
    u, s, vh = ge.spectrum()
    w = levels.witnesses(u[:, 0, 0], s.T > delta) if ge.is_scalar else _transport(u, vh, s > delta)
    return GridElement(ge.domain, w.reshape(ge.values.shape))


def _line_reports(ge: GridElement, delta: list):
    """polar_extension_1d's reports on a scalar element at the levels delta,
    clear of its spectrum, from one `levels.decide`, and the (L, n) witnesses."""
    s, _ = _read(ge)
    bounds, mods, w = levels.decide(_unit_of(ge, s), s, np.reshape(delta, (-1, 1)),
                                    MODULUS_BOUND_FACTOR)
    return [_held_to_bound(GridElement(ge.domain, x.reshape(-1, 1, 1)), bound, level,
                           "frame-transport", mod)
            for x, bound, level, mod in zip(w, bounds, delta, mods)], w


def _held_to_bound(witness: GridElement, bound: float, delta: float, kind: str,
                   mod: float | None = None) -> ExtensionReport:
    """The report on a witness held to its modulus bound: it exists when its
    modulus (mod, if known) is within bound + MODULUS_SLACK, else it is an
    obstruction of `kind`."""
    mod = witness.modulus() if mod is None else mod
    exists = mod <= bound + opcore.MODULUS_SLACK
    obstruction = None if exists else {"kind": kind, "modulus": mod}
    return ExtensionReport(exists=exists, witness=witness if exists else None,
                           obstruction=obstruction, witness_modulus=mod,
                           modulus_bound=bound, delta=delta)


def _polar_block(m: list) -> list:
    """Unitary polar factor of a small square block given as nested lists of
    Python complex numbers, returned the same way.

    r = 1: m/|m|, and 1 when m = 0, as LAPACK. r = 2: the closed form of
    `_polar2`. At or below POLAR2_DET_FLOOR (det m = 0 included), and for
    r >= 3, LAPACK's SVD.
    """
    if len(m) == 1:
        y = m[0][0]
        return [[y / abs(y) if y else 1.0 + 0j]]
    if len(m) == 2:
        flat = _polar2(*m[0], *m[1])
        if flat is not None:
            return [list(flat[:2]), list(flat[2:])]
    mu, _, mvh = np.linalg.svd(np.array(m))
    return (mu @ mvh).tolist()


def _polar2(a: complex, b: complex, c: complex, d: complex):
    """Unitary polar factor of [[a, b], [c, d]] as the flat row-major tuple
    of its entries, in the closed form
    (m + (det m/|det m|) adj(m)*) / sqrt(||m||_F^2 + 2 |det m|) (Higham,
    Functions of Matrices, SIAM 2008, 8.1), since p + |det m| p^-1 =
    (s1 + s2) 1 for the 2 x 2 positive part p. Like LAPACK's, its result is
    unitary to rounding and within about eps s1/s2 of the exact factor,
    which is as sensitive as that. None at or below POLAR2_DET_FLOOR, where
    det m is rounding of zero."""
    det = a * d - b * c
    adet = abs(det)
    fro2 = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    if not adet > POLAR2_DET_FLOOR * fro2:
        return None
    ph = det / adet
    scale = 1.0 / math.sqrt(fro2 + 2.0 * adet)
    return ((a + ph * d.conjugate()) * scale, (b - ph * c.conjugate()) * scale,
            (c - ph * b.conjugate()) * scale, (d + ph * a.conjugate()) * scale)


def _dot(row: list, col: list):
    """sum(map(mul, row, col)) written out: the products added left to right
    from the integer 0, which is how the builtin adds complex numbers on
    Python 3.11, so the bits are the same."""
    acc = 0
    for x, y in zip(row, col):
        acc = acc + x * y
    return acc


def _transport(u: np.ndarray, vh: np.ndarray, keeps: np.ndarray) -> np.ndarray:
    """Procrustes transport of a unitary frame along the interval for
    d > 1 (`levels.witnesses` for d = 1), carried in frame coordinates.

    Every node's frame is w = u X vh. X = 1 at every node that keeps all
    its directions and at the first supported node. At each later node k
    that keeps some but not all, X is 1 on the kept block and the r x r
    unitary U_k on the free block:
    U_k = polar of the free block of T X_prev S, with prev the last
    supported node before k, T = u_k* u_prev and S = vh_prev vh_k*, which
    is the Procrustes completion of the free part against w_prev. T and S
    come in one stacked product each; `_free_blocks` runs the recurrence
    on them, carrying only U from node to node, and X, written one batched
    assignment per kept count, gives w = u X vh at those nodes in one more
    stacked product. Fully free nodes copy the nearest supported frame,
    which is what a Procrustes step from a neighbour gives them, and
    interior runs of them are then bridged along the unitary geodesic
    between their flanks.
    """
    npts, d, _ = u.shape
    w = u @ vh
    supported = keeps[:, 0]  # s is descending, so each node keeps a prefix
    idx = np.arange(npts)
    k0 = int(np.argmax(supported))  # 0 when nothing is supported
    left = np.maximum.accumulate(np.where(supported, idx, k0))
    part = np.flatnonzero(supported & ~keeps[:, -1] & (idx > k0))
    if part.size:
        prev = left[part - 1]
        kept = keeps[part].sum(axis=1)
        counts = kept.tolist()
        blocks = _free_blocks(
            u[part].conj().transpose(0, 2, 1) @ u[prev],
            # S transposed, so that row j is column j of S
            vh[part].conj() @ vh[prev].transpose(0, 2, 1),
            counts, (prev[1:] == part[:-1]).tolist())
        x = np.tile(np.eye(d, dtype=np.complex128), (part.size, 1, 1))
        for m in set(counts):  # not np.unique, which imports numpy.ma
            at = np.flatnonzero(kept == m)
            x[at, m:, m:] = np.array([blocks[i] for i in at.tolist()]).reshape(-1, d - m, d - m)
        w[part] = u[part] @ x @ vh[part]
    w = w.reshape(npts, d * d)[left].reshape(npts, d, d)
    right = np.minimum.accumulate(np.where(supported, idx, npts)[::-1])[::-1]
    bridged = (idx > left) & (right < npts)
    if bridged.any():
        lo, hi = left[bridged], right[bridged]
        w[bridged] = _geodesic(w[lo], w[hi], (idx[bridged] - lo) / (hi - lo))
    return w


def _free_blocks(ts: np.ndarray, ss: np.ndarray, kept: list, chained: list) -> list:
    """The free blocks U_k of `_transport`, one flat row-major tuple of r x r
    entries per partially kept node, r = d - kept.

    ts[k] is T and ss[k] S transposed, so that row j of ss[k] is column j of
    S. chained[k - 1] says that node k's prev is the partial node before it
    in the list: only then does X_prev carry a free block, the (m, U)
    carried from the step before. Every entry of a product is a `_dot`,
    summed left to right from 0, so the frames do not depend on how the
    step is written. r = 1: U = y/|y| (1 at y = 0, as LAPACK), y the one
    entry of the free block; r = 2: `_polar2`. A step whose kept count
    differs from the carried one (rare), and r >= 3, go the general way
    through `_polar_block`, on the node's entries as Python complex scalars.

    For r <= 2, U_prev acts on the last r entries of each free column of S
    only, so each entry of the free block, a `_dot` of a row of T with such
    a column, splits into its first d - r terms, which do not depend on U,
    and its last r. `_heads` sums the first terms of the bottom-right 2 x 2
    entries for every node at once, with the bits of `_dot`, and the loop
    adds the last ones in `_dot`'s order.
    """
    d = ts.shape[-1]
    heads = _heads(ts[:, -2:, None, :-1], ss[:, None, -2:, :-1])
    ys = heads[:, 1, 1, -1].tolist()  # r = 1: the first d - 1 terms of y
    bs = heads[..., -2].reshape(-1, 4).tolist()  # r = 2: the first d - 2 of each entry
    tails = np.concatenate([ts[:, -2:, -2:], ss[:, -2:, -2:]], axis=1).reshape(-1, 8).tolist()
    blocks = []
    mp = up = None  # kept count and free block of the step before
    end = d * d
    for k, (m, chain) in enumerate(zip(kept, [False, *chained])):
        r = d - m
        if r > 2 or (chain and mp != m):
            t, s = ts[k].ravel().tolist(), ss[k].ravel().tolist()
            cols = [s[j:j + d] for j in range(m * d, end, d)]  # the free columns of S
            if chain:  # of X_prev S: U_prev acts on the last d - mp entries
                rp = d - mp
                for col in cols:
                    tail = col[mp:]
                    col[mp:] = [_dot(up[i:i + rp], tail) for i in range(0, rp * rp, rp)]
            block = _polar_block([[_dot(t[i:i + d], col) for col in cols]
                                  for i in range(m * d, end, d)])
            up = tuple(z for row in block for z in row)
        elif r == 1:
            t, s = tails[k][3], tails[k][7]  # the last entries of T and S
            y = ys[k] + t * (s if not chain else 0 + up[0] * s)
            up = (y / abs(y) if y else 1.0 + 0j,)
        else:
            t00, t01, t10, t11, p0, q0, p1, q1 = tails[k]  # (p, q): a column's last two
            if chain:
                u00, u01, u10, u11 = up
                p0, q0 = 0 + u00 * p0 + u01 * q0, 0 + u10 * p0 + u11 * q0
                p1, q1 = 0 + u00 * p1 + u01 * q1, 0 + u10 * p1 + u11 * q1
            b00, b01, b10, b11 = bs[k]
            block = [b00 + t00 * p0 + t01 * q0, b01 + t00 * p1 + t01 * q1,
                     b10 + t10 * p0 + t11 * q0, b11 + t10 * p1 + t11 * q1]
            up = _polar2(*block)
            if up is None:
                up = tuple(z for row in _polar_block([block[:2], block[2:]]) for z in row)
        blocks.append(up)
        mp = m
    return blocks


def _heads(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The running sums of `_dot(t, s)` over the last axis, broadcast:
    out[..., l] sums the first l products, left to right from 0, so that
    out[..., 0] is 0 and a -0.0 part turns into +0.0 as in `_dot`. Each
    product is made from real float products by Python's complex formula,
    so the sums have the bits of `_dot`'s."""
    shape = np.broadcast_shapes(t.shape, s.shape)
    prods = np.zeros((*shape[:-1], shape[-1] + 1), dtype=np.complex128)
    prods.real[..., 1:] = t.real * s.real - t.imag * s.imag
    prods.imag[..., 1:] = t.real * s.imag + t.imag * s.real
    return np.add.accumulate(prods, axis=-1)


def _geodesic(w1: np.ndarray, w2: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """The points at fractions `frac` along the unitary geodesics from the
    stack w1 to the stack w2, re-orthonormalized by polar correction."""
    frac = frac[:, None, None]
    evals, vecs = np.linalg.eig(w1.conj().transpose(0, 2, 1) @ w2)
    uu, _, vv = np.linalg.svd(
        w1 @ (vecs * np.exp(1j * frac * np.angle(evals)[:, None, :])) @ np.linalg.inv(vecs))
    return uu @ vv


def _principal(x):
    """Principal value of an angle difference, in [-pi, pi)."""
    return (x + np.pi) % (2.0 * np.pi) - np.pi


class _DiskPhase(NamedTuple):
    """The phase data of a scalar disk element that no cut level changes.

    ang, rad: the integer jumps (wrap(dphi) - dphi) / 2 pi of the angular
    edges (j, m) -> (j, m+1), shape (nr, nt), and of the radial edges
    (j, m) -> (j+1, m), shape (nr - 1, nt); int8, as every jump is -1, 0
    or 1. charged, charges: the flat index (that of node (j, m) for quad
    (j, m)) and the charge of each charged quad; centre: the charge of the
    centre polygon (`_face_charges`). alias_level: the largest
    min(|f_i|, |f_j|) over the edges whose wrapped step exceeds ALIAS_GUARD
    (-inf when there is none), so an edge inside the support {|f| > delta}
    aliases iff delta < alias_level.
    """

    ang: np.ndarray
    rad: np.ndarray
    charged: np.ndarray
    charges: np.ndarray
    centre: int
    alias_level: float


def _wrapped_steps(ge: GridElement):
    """(wrapped, raw) phase steps along the edges of `edge_arrays`."""
    left, right = ge.domain.edge_arrays()  # angular edges first, both in flat order
    phase = np.angle(ge.values[:, 0, 0])
    dphi = phase[right] - phase[left]
    return _principal(dphi), dphi


def _disk_phase(ge: GridElement) -> _DiskPhase:
    """The `_DiskPhase` of a scalar disk element, computed on first use and
    kept on it, as `spectrum()` keeps the SVD. It keeps about 2 bytes per
    node: the float phase and steps would hold 16 per edge."""
    if ge._phase is None:
        dom = ge.domain
        nr, nt = dom.n_radial, dom.n_angular
        step, dphi = _wrapped_steps(ge)
        jump = np.rint((step - dphi) / (2.0 * np.pi)).astype(np.int8)
        ang, rad = jump[: nr * nt].reshape(nr, nt), jump[nr * nt:].reshape(nr - 1, nt)
        quads, centre = _face_charges(ang, rad)
        charged = np.flatnonzero(quads)
        aliased = np.abs(step) > ALIAS_GUARD
        level = -math.inf
        if aliased.any():
            left, right = dom.edge_arrays()
            mags = np.abs(ge.values[:, 0, 0])
            level = float(np.minimum(mags[left[aliased]], mags[right[aliased]]).max())
        ge._phase = _DiskPhase(ang, rad, charged, quads.ravel()[charged], centre, level)
    return ge._phase


def _aliasing(ge: GridElement, delta: float) -> PhaseUnwrapAliasing:
    """The error for the first edge inside the support {|f| > delta} whose
    wrapped step exceeds ALIAS_GUARD."""
    left, right = ge.domain.edge_arrays()
    step, _ = _wrapped_steps(ge)
    support = np.abs(ge.values[:, 0, 0]) > delta
    k = int(np.argmax(support[left] & support[right] & (np.abs(step) > ALIAS_GUARD)))
    return PhaseUnwrapAliasing(
        f"phase jump {abs(step[k]):.3f} > pi/2 between nodes {left[k]} and "
        f"{right[k]}; refine the grid")


def _face_charges(ang: np.ndarray, rad: np.ndarray):
    """Counterclockwise circulations of the edge jumps: (quads, centre).
    Quad (j, m) runs (j, m) -> (j+1, m) -> (j+1, m+1) -> (j, m+1); the
    centre polygon is ring 0. With one orientation for all faces, the quad
    charges and the centre charge sum to the circulation along the rim."""
    quads = rad + ang[1:] - np.roll(rad, -1, axis=1) - ang[:-1]
    return quads, int(ang[0].sum())


def _run_starts(mask: np.ndarray) -> np.ndarray:
    """Where a run of set nodes along a ring of an (nr, nt) mask begins, the
    seam (column nt - 1 -> 0) cutting every run."""
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    return starts


def _ring_runs(mask: np.ndarray):
    """The runs of set nodes along each ring of an (nr, nt) mask, cut at the
    seam: the run of each node, numbered in flat order of the runs' first
    nodes (-1 off the mask), shape (nr, nt), and the flat index of each
    run's first node."""
    starts = _run_starts(mask)
    runs = np.cumsum(starts) - 1
    runs[~mask.ravel()] = -1
    return runs.reshape(mask.shape), np.flatnonzero(starts)


def _overlaps(mask: np.ndarray) -> np.ndarray:
    """The flat index of the first node (j, m) of each stretch of columns
    set on both ring j and ring j + 1: one for each pair of runs of adjacent
    rings that share a column, as two runs cut at the seam overlap in one
    stretch."""
    return np.flatnonzero(_run_starts(mask[:-1] & mask[1:]))


def _beside(idx: np.ndarray, nt: int) -> np.ndarray:
    """The flat index of node (j, m+1) for node (j, m), across the seam."""
    return idx + np.where(idx % nt == nt - 1, 1 - nt, 1)


def _blocked_windings(phase: _DiskPhase, free: np.ndarray) -> list:
    """Sorted |total charge| of the blocked holes of the support.

    A hole is a connected set of free (non-support) nodes, 8-connected,
    together with the faces that touch it; the free nodes of ring 0 are one
    hole, joined through the centre polygon, and a charged face with no free
    corner is a hole on its own. The winding of the phase along any support
    cycle is the sum of the charges it encloses, so a hole with non-zero
    total charge blocks the extension unless it reaches the rim, where no
    support cycle can enclose it.

    Holes are labelled by runs (Rosenfeld & Pfaltz, JACM 13(4), 1966): the
    free runs of each ring, cut at the seam and numbered in flat order, are
    joined by a union-find across the seam, all of ring 0 to its first run,
    and each to the runs of the next ring it touches: where they share a
    column (`_overlaps`) or, diagonally, where one ends at column m and the
    other starts at m + 1 (every other diagonal contact is also a path
    through a shared column or along a ring). A node's run, the last to
    start at or before it, is looked up (`searchsorted`) only where it is
    read: at the nodes of each contact and at the first free corner, which
    the mask gives, of each charged quad.
    """
    charged, charges, centre = phase.charged, phase.charges, phase.centre
    if not charged.size and centre == 0:
        return []
    nr, nt = free.shape
    first = np.flatnonzero(_run_starts(free))
    after = np.concatenate([free[:, 1:], free[:, :1]], axis=1)  # free at the next column
    ends, begins = free & ~after, after & ~free
    out = np.flatnonzero(ends[:-1] & begins[1:])  # (j, m) touches (j+1, m+1)
    into = np.flatnonzero(begins[:-1] & ends[1:])  # (j, m+1) touches (j+1, m)
    shared = _overlaps(free)
    seam = np.flatnonzero(free[:, 0] & free[:, -1]) * nt  # node (j, 0) of each ring
    # corners (j, m), (j, m+1), (j+1, m), (j+1, m+1) of each charged quad
    beside = _beside(charged, nt)
    corners = np.column_stack([charged, beside, charged + nt, beside + nt])
    free_corner = free.ravel()[corners]
    touches = free_corner.any(axis=1)
    # each open quad hands its charge to the hole of its first free corner
    holder = corners[np.arange(charged.size), free_corner.argmax(axis=1)][touches]
    # contact k joins the runs of nodes k and k + joins
    nodes = [shared, out, _beside(into, nt), seam + nt - 1,
             shared + nt, _beside(out, nt) + nt, into + nt, seam, holder]
    labels = np.searchsorted(first, np.concatenate(nodes), side="right") - 1
    joins = (labels.size - holder.size) // 2
    ring0 = np.arange(np.searchsorted(first, nt))  # ring 0's runs are the first labels
    root = _roots(first.size, np.concatenate([labels[:joins], np.zeros_like(ring0)]),
                  np.concatenate([labels[joins:2 * joins], ring0]))
    windings = set(np.abs(charges[~touches]).tolist())
    total = np.zeros(first.size, dtype=np.int64)
    np.add.at(total, root[labels[2 * joins:]], charges[touches])
    if ring0.size:
        total[0] += centre
    elif centre:
        windings.add(abs(centre))
    total[root[first >= (nr - 1) * nt]] = 0  # holes that reach the rim block nothing
    windings.update(np.abs(total[total != 0]).tolist())
    return sorted(windings)


def _roots(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root, the lowest label, of each of `count` labels once each pair
    (a[k], b[k]) is joined, by union-find with path halving."""
    parent = list(range(count))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x
    for x, y in zip(a.tolist(), b.tolist()):
        x, y = find(x), find(y)
        if x != y:
            parent[max(x, y)] = min(x, y)
    for x in range(count):  # a parent is a lower label, already at its root
        parent[x] = parent[parent[x]]
    return np.array(parent, dtype=np.intp)


def _unwrap(phase: np.ndarray, jumps: _DiskPhase, support: np.ndarray) -> np.ndarray:
    """phase + 2 pi n on the support, with n the integer potential of the
    edge jumps, 0 at the first node in flat order of each 4-connected
    component of the support: n rises by its jump along every edge.

    Within a run of the support along a ring (`_ring_runs`) n is a prefix
    sum of the angular jumps. One radial edge for each pair of runs of
    adjacent rings that share a column (`_overlaps`), and the seam, then
    give each run its offset over a spanning forest of the runs, grown from
    the lowest run of each component, whose first node is the component's
    first. n is path-independent when no hole is blocked, so it does not
    depend on the spanning forest."""
    ang, rad = jumps.ang, jumps.rad
    nr, nt = ang.shape
    supp = support.reshape(nr, nt)
    runs, first = _ring_runs(supp)
    along = np.cumsum(ang, axis=1, dtype=np.int64)
    before = (along - ang).ravel()  # n(j, m) - n(j, 0) along ring j, short of the seam
    flat = runs.ravel()
    shared = _overlaps(supp)
    seam = supp[:, -1] & supp[:, 0]
    # each contact (a, b, d): n at a node of run b is d above n at its
    # neighbour in run a
    contacts = zip(np.concatenate([flat[shared], runs[seam, -1]]).tolist(),
                   np.concatenate([flat[shared + nt], runs[seam, 0]]).tolist(),
                   np.concatenate([before[shared] + rad.ravel()[shared] - before[shared + nt],
                                   along[seam, -1]]).tolist())
    adjacent = [[] for _ in range(first.size)]
    for x, y, d in contacts:
        adjacent[x].append((y, d))
        adjacent[y].append((x, -d))
    # a run's offset is n at its nodes less their `before`
    offset = [None] * first.size
    start = before[first].tolist()
    for root in range(first.size):
        if offset[root] is None:
            offset[root] = -start[root]
            todo = [root]
            while todo:
                x = todo.pop()
                for y, d in adjacent[x]:
                    if offset[y] is None:
                        offset[y] = offset[x] + d
                        todo.append(y)
    turns = np.zeros(support.size, dtype=np.int64)
    turns[support] = np.array(offset, dtype=np.int64)[flat[support]] + before[support]
    return phase + 2.0 * np.pi * turns


def _bridge(theta: np.ndarray, support: np.ndarray) -> np.ndarray:
    """theta, given on the support, carried over the free nodes along the
    rings. On a ring with support, each run of free nodes takes the linear
    bridge between the theta of the two supported nodes that flank it on
    its ring, across the seam too, so it steps by
    (theta_R - theta_L) / (run length + 1). A ring with no support copies
    the nearest ring that has some, the inner one on a tie."""
    nr, nt = support.shape
    theta = theta.reshape(nr, nt)
    # the supported column at or before, and at or after, each column of
    # the ring taken twice round, so that every run has both flanks
    col = np.arange(2 * nt)
    twice = np.tile(support, 2)
    left = np.maximum.accumulate(np.where(twice, col, -1), axis=1)[:, nt:] - nt
    right = np.minimum.accumulate(np.where(twice, col, 2 * nt)[:, ::-1], axis=1)[:, ::-1][:, :nt]
    has = support.any(axis=1)
    j, m = np.nonzero(~support & has[:, None])
    lo, hi = left[j, m], right[j, m]
    start = theta[j, lo % nt]
    out = theta.copy()
    out[j, m] = start + (theta[j, hi % nt] - start) * ((m - lo) / (hi - lo))
    ring = np.arange(nr)
    inner = np.maximum.accumulate(np.where(has, ring, -nr))
    outer = np.minimum.accumulate(np.where(has, ring, 2 * nr)[::-1])[::-1]
    return out[np.where(ring - inner <= outer - ring, inner, outer)].ravel()


def polar_extension_2d_scalar(ge: GridElement, delta: float) -> ExtensionReport:
    """Decide and build the phase extension on the disk.

    A scalar partial isometry in C(disk) is unitary or zero, so a witness
    exists iff the phase of the element on its support region
    {|f| > delta} extends to a continuous unimodular function on the whole
    disk, that is iff the phase winds around no hole of the support.

    Decided by discrete Stokes (the residues of Goldstein, Zebker & Werner,
    Radio Science 23(4), 1988): each grid edge carries the integer jump
    between its wrapped and its raw phase step, each face (quad or centre
    polygon) the sum of the jumps around it, and the winding around a hole
    is the total charge of the faces in it. The obstruction lists as
    `windings` the sorted |total charge| of each blocked hole. When no hole
    is blocked, the phase is unwrapped over the support by the integer
    potential of the jumps, bridged into the holes along the rings in
    closed form (`_bridge`: each free run steps by
    (theta_R - theta_L) / (run length + 1) between its flanks), and
    exponentiated; on the support the witness is the phase u of
    `spectrum()`. It is held to the modulus bound.
    """
    if ge.domain.kind != "disk-2d-polar" or not ge.is_scalar:
        raise ValueError(NOT_SCALAR_DISK)
    return _report(ge, delta, "modulus")


def _phase_witness(ge: GridElement, s: np.ndarray, support: np.ndarray) -> GridElement:
    """The phase u of `spectrum()` on the support, s > delta with s the
    element's flat singular values, and off it exp(i theta), with theta the
    unwrapped phase bridged along the rings (`_bridge`): a witness when no
    hole is blocked."""
    w = _unit_of(ge, s).copy()
    if not support.all():
        phase = _disk_phase(ge)
        theta = _bridge(_unwrap(np.angle(ge.values[:, 0, 0]), phase, support),
                        support.reshape(phase.ang.shape))
        w[~support] = np.exp(1j * theta[~support])
    return GridElement(domain=ge.domain, values=w.reshape(-1, 1, 1))


def polar_extension(ge: GridElement, delta: float) -> ExtensionReport:
    if ge.domain.kind == "interval-1d":
        return polar_extension_1d(ge, delta)
    return polar_extension_2d_scalar(ge, delta)


def decide_extension(ge: GridElement, delta: float) -> ExtensionReport:
    """polar_extension at delta, first moved off the pointwise singular
    values by opcore.clear_of (SpectralCollision when it cannot be), in a
    hold (`_holding`), so the report does not test the level again."""
    with _holding(ge):
        return polar_extension(ge, _cleared(ge, delta))


def _cleared(ge: GridElement, delta: float) -> float:
    return _clear(ge, delta, *_read(ge))


def _decide_at(ge: GridElement, delta: float, s: np.ndarray):
    """The decision at a level delta already clear of s, the element's flat
    singular values: (windings, build), with windings the sorted |total
    charge| of the blocked holes (None on the interval) and build the
    witness builder (None when the disk support {|f| > delta} is empty). On
    the disk it checks aliasing (PhaseUnwrapAliasing) and labels the holes
    on the element's kept `_DiskPhase`. A matrix element on the disk is a
    ValueError here too, for `_extends`, which reaches it after the cut."""
    if ge.domain.kind == "interval-1d":
        return None, partial(_frame_witness, ge, delta)
    if not ge.is_scalar:
        raise ValueError(NOT_SCALAR_DISK)
    support = s > delta
    if not support.any():
        return [], None
    phase = _disk_phase(ge)
    if delta < phase.alias_level:
        raise _aliasing(ge, delta)
    return (_blocked_windings(phase, ~support.reshape(phase.ang.shape)),
            partial(_phase_witness, ge, s, support))


def _extends(ge: GridElement, delta: float) -> bool:
    """decide_extension(ge, delta).exists, raising as it does, without the
    witnesses that cannot fail: the same cut and `_decide_at` step, then,
    when the modulus bound is at least WITNESS_MODULUS_MAX, True with no
    witness built, since no witness can exceed that modulus. Below it, the
    witness is built and held to the bound as in polar_extension."""
    s, band = _read(ge)
    delta = _clear(ge, delta, s, band)
    windings, build = _decide_at(ge, delta, s)
    if windings or build is None:
        return not windings
    bound = _modulus_bound(ge, delta, s)
    kind = "frame-transport" if windings is None else "modulus"
    return bound >= WITNESS_MODULUS_MAX or _held_to_bound(build(), bound, delta, kind).exists


def dist_to_regular(ge: GridElement, tol_bisect: float):
    """Bracket the distance to the regular elements by bisecting on the cut
    level: the cut-down of the element admits a polar decomposition in the
    grid algebra iff the extension at that level exists (Theorem condition
    (4)), and each successful extension certifies distance <= level via the
    explicit regular approximant. Returns (lower, upper), at most
    tol_bisect apart, unless adjacent floats or inside one guard band; the
    interval never collapses to a point because grid error is irreducible.
    ValueError when tol_bisect is not finite and positive, or the element's
    values are not finite.

    The bisection runs on (0, hi), hi above the sup-norm. Its lowest rung
    hi 2^-k at or below tol_bisect, the last midpoint when every decision
    succeeds, is decided first, and a success returns (0, rung): every call
    on the interval, as C([0,1], M_d) has stable rank one, and on the disk
    at distance 0. A rung that fails, collides or aliases hands over to the
    bisection. Every level is first cleared (opcore.clear_of) of the
    singular values, in a hold on the element (`_holding`), and the cleared
    level is the one decided, by `_extends`, and returned; a midpoint
    cleared to hi or above ends the bisection.
    """
    if not 0.0 < tol_bisect < math.inf:
        raise ValueError(f"tol_bisect must be finite and positive, got {tol_bisect}")
    with _holding(ge) as hold:
        s, eta = hold.s, hold.band
        hi = float(s.max(initial=0.0)) + max(tol_bisect, TOP_HEADROOM * eta)
        rung = hi
        while rung > tol_bisect:
            rung *= 0.5  # 0.5 * (0 + hi), as a midpoint
        try:
            rung = _clear(ge, rung, s, eta)
            if _extends(ge, rung):
                return 0.0, rung
        except (SpectralCollision, PhaseUnwrapAliasing):
            pass
        lo = 0.0
        while hi - lo > tol_bisect and lo < (mid := 0.5 * (lo + hi)) < hi:
            mid = _clear(ge, mid, s, eta)
            if mid >= hi:
                break
            if _extends(ge, mid):
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
    return float(np.sum(np.abs(_principal(np.diff(ph)))))
