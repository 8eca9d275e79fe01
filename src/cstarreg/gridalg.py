"""Grid-discretized continuous-function algebras C(X, M_n) on an interval or
the unit disk: sup-norm, pointwise lifts of matrix operations, uniform-gap
regularity, partial-isometry extension procedures and the bisection estimator
for the distance to the regular elements.

Scalar partial isometries on a connected domain are unitary-or-zero; both
extension procedures build on that classification. The 1-D procedure
transports a unitary frame along the interval in the interval module
`levels`, for every d. A single decision holds its witness
(`_frame_witness`) to the modulus bound here, as on the disk; a harness
report decides all its levels of an interval element in one pass over a
level axis (`_line_reports`): `levels.decide`, one entry for every d, with
one transport and, for d > 1, one batch of moduli for the L witnesses and
the L cut-downs. The modulus of an element reads its jumps as
slices of the layout for d = 1; for d > 1 it screens them by cheap norm
bounds and factorizes only those that can hold the maximum
(`levels.moduli`, which takes a stack of elements). The 2-D scalar procedure
decides by discrete Stokes on the polar grid (`polar_extension_2d_scalar`)
with the phase machinery of `disk`: the element keeps the phase data that no
cut level changes (`_disk_phase`), and a decision labels the holes of the
support (`_blocked_windings`). On both domains `dist_to_regular` decides the
lowest bisection rung first, which settles the bracket in one decision
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
Three certificates read off data that no level changes decide most steps
without labels or a cut-down: below the disk floor some hole is blocked,
at or above the disk ceiling none is (`disk._DiskPhase`), and where
`_path_bound` reaches 2 so does the modulus bound. Each proves the answer
of the full step, so `_extends` still agrees with
`decide_extension(...).exists` at every level.
Elements whose values are not finite are refused (ValueError) by the
guard band, which every decision asks first.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import levels, opcore
from .disk import _aliasing, _blocked_windings, _disk_phase, _DiskPhase, _principal
from .disk import _phase_witness as _disk_witness
from .errors import PhaseUnwrapAliasing, SpectralCollision
from .levels import MODULUS_BOUND_FACTOR

TOP_HEADROOM = 10.0  # guard bands above the sup-norm where dist_to_regular starts
# the largest modulus a witness can have: every witness is unitary (or zero)
# at every node, so adjacent nodes differ by at most |w_i| + |w_j| = 2, give
# or take a few ulps, far below MODULUS_SLACK; at a bound at least this
# large the modulus check cannot fail
WITNESS_MODULUS_MAX = 2.0
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

    def diameter(self) -> int:
        """The most edges of `edge_arrays` that a shortest path between two
        nodes takes: along the interval, or across the rings and half way
        round one."""
        if self.kind == "interval-1d":
            return self.n_points - 1
        return self.n_radial - 1 + self.n_angular // 2


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
        d > 1: the largest of LAPACK's s1 over the jumps that can hold the
        maximum, screened by cheap norm bounds and factorized in one SVD
        call (`levels.moduli`), with the bits of s1 taken over every jump."""
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
        # slices: an edge_arrays gather cost +0.9% on disk-winding
        g = f.reshape(dom.n_radial, dom.n_angular)
        return float(np.max([np.abs(g[:, 1:] - g[:, :-1]).max(),
                             np.abs(g[:, 0] - g[:, -1]).max(), np.abs(g[1:] - g[:-1]).max()]))
    return levels.moduli(values[None], *dom.edge_arrays())[0]


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


# levels.modulus_bounds in place of this scalar pair cost +1.4% on disk-winding
def _spread(delta: float, s: np.ndarray) -> float:
    """The distance from delta to the nearest of the values s below it (to 0 if none is)."""
    return delta - float(s[s < delta].max(initial=0.0))


def _modulus_bound(ge: GridElement, delta: float, s: np.ndarray) -> float:
    """Perturbation-style bound on the allowed witness modulus, with s the
    element's flat singular values."""
    spread = _spread(delta, s)
    if spread <= 0:
        return math.inf
    return MODULUS_BOUND_FACTOR * _modulus(ge.domain, _cut(ge, delta, s)) / spread


def _path_bound(ge: GridElement, delta: float, s: np.ndarray, band: float) -> float:
    """A lower bound on `_modulus_bound(ge, delta, s)` that forms no
    cut-down, with band the guard band of s:
    MODULUS_BOUND_FACTOR (max c - min c) / (2 D max(spread, band)), with
    c_k = (s_k0 - delta)_+ the cut-down's norm at node k and D the domain's
    `diameter`, and min c read off min_k s_k0, the smallest node norm.

    Proof. A path of at most D edges joins the node of largest c to that of
    smallest, and a jump's norm is at least the difference of the norms at
    its ends, so the cut-down's modulus is at least (max c - min c) / D.
    Taking spread at least the band, which it exceeds anyway unless no s
    lies below delta, only lowers the bound. The computed modulus and c
    are within a few ulps of ||a|| of the exact ones, and the spread within
    an ulp of itself. Where this bound is at least WITNESS_MODULUS_MAX,
    max c - min c >= 0.4 D band >= 4e-9 D (1 + ||a||), so that rounding is
    below 1e-6 of max c - min c, and the factor 2 covers it many times
    over."""
    low = float(s.reshape(len(ge.values), -1)[:, 0].min())
    rise = max(float(s.max()) - delta, 0.0) - max(low - delta, 0.0)
    spread = max(_spread(delta, s), band)
    return MODULUS_BOUND_FACTOR * rise / (2.0 * ge.domain.diameter() * spread)


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
    return _report(ge, delta)


def _report(ge: GridElement, delta: float) -> ExtensionReport:
    """The report of both extension procedures at delta, off one read of
    the singular values: the collision test (not again for a level the
    element's hold cleared), then the `_decide_at` step and a winding
    obstruction or the witness held to the modulus bound
    (`_held_to_bound`); an empty disk support gives the zero witness."""
    s, band = _read(ge)
    if ge._hold is None or delta not in ge._hold.clear:
        opcore.check_clear(delta, s, band)
    windings, build = _decide_at(ge, delta, s)
    bound = _modulus_bound(ge, delta, s)
    if windings:
        return ExtensionReport(
            exists=False, witness=None,
            obstruction={"kind": "winding", "windings": windings},
            witness_modulus=math.inf, modulus_bound=bound, delta=delta)
    witness = build() if build else GridElement(ge.domain, np.zeros_like(ge.values))
    return _held_to_bound(witness, bound, delta)


def _frame_witness(ge: GridElement, delta: float) -> GridElement:
    u, s, vh = ge.spectrum()
    return GridElement(ge.domain, levels.frames(u, vh, (s > delta)[None])[0])


def _line_reports(ge: GridElement, delta: list):
    """polar_extension_1d's reports at the levels delta, clear of the
    spectrum, from one pass over a level axis (`levels.decide`, for every
    d), and the witnesses, shape (L, n, d, d)."""
    bounds, mods, w = levels.decide(*ge.spectrum(), np.reshape(delta, (-1, 1)),
                                    ge.domain.edge_arrays())
    return [_held_to_bound(GridElement(ge.domain, x), bound, level, mod)
            for x, bound, level, mod in zip(w, bounds, delta, mods)], w


def _held_to_bound(witness: GridElement, bound: float, delta: float,
                   mod: float | None = None) -> ExtensionReport:
    """The report on a witness held to its modulus bound: it exists when its
    modulus (mod, if known) is within bound + MODULUS_SLACK, else it is an
    obstruction of its domain's kind: "frame-transport", or "modulus" (disk)."""
    mod = witness.modulus() if mod is None else mod
    exists = mod <= bound + opcore.MODULUS_SLACK
    kind = "frame-transport" if witness.domain.kind == "interval-1d" else "modulus"
    obstruction = None if exists else {"kind": kind, "modulus": mod}
    return ExtensionReport(exists=exists, witness=witness if exists else None,
                           obstruction=obstruction, witness_modulus=mod,
                           modulus_bound=bound, delta=delta)


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
    return _report(ge, delta)


def _phase_witness(ge: GridElement, s: np.ndarray, support: np.ndarray) -> GridElement:
    """`disk._phase_witness` of a scalar disk element at the support s > delta,
    with s its flat singular values."""
    w = _disk_witness(_unit_of(ge, s), ge.values[:, 0, 0], _disk_phase(ge), support)
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


def _decide_at(ge: GridElement, delta: float, s: np.ndarray, labels: bool = True):
    """The decision at a level delta already clear of s, the element's flat
    singular values: (windings, build), with windings the sorted |total
    charge| of the blocked holes (None on the interval) and build the
    witness builder (None when the disk support {|f| > delta} is empty). On
    the disk it checks aliasing (PhaseUnwrapAliasing) and labels the holes
    on the element's kept `_DiskPhase`, but at or above its ceiling, where
    the labelling gives [], and, when `labels` is False, below its floor,
    where some hole is blocked: windings is then True, with no labels. A
    matrix element on the disk is a ValueError here too, for `_extends`,
    which reaches it after the cut."""
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
    build = partial(_phase_witness, ge, s, support)
    if delta >= phase.ceiling:
        return [], build
    if not labels and delta < phase.floor:
        return True, None
    return _blocked_windings(phase, ~support.reshape(phase.ang.shape)), build


def _extends(ge: GridElement, delta: float) -> bool:
    """decide_extension(ge, delta).exists, raising as it does, without the
    witnesses that cannot fail: the same cut and `_decide_at` step, with no
    labels below the disk floor, then, when the modulus bound is at least
    WITNESS_MODULUS_MAX, True with no witness built, since no witness can
    exceed that modulus; `_path_bound` shows that before the cut-down is
    formed. Below it, the witness is built and held to the bound as in
    polar_extension."""
    s, band = _read(ge)
    delta = _clear(ge, delta, s, band)
    windings, build = _decide_at(ge, delta, s, False)  # no labels below the floor
    if windings or build is None:
        return not windings
    if _path_bound(ge, delta, s, band) >= WITNESS_MODULUS_MAX:
        return True
    bound = _modulus_bound(ge, delta, s)
    return bound >= WITNESS_MODULUS_MAX or _held_to_bound(build(), bound, delta).exists


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
