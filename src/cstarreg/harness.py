"""Four-way equivalence harness: evaluates, on a grid element and a sweep of
cut levels, (1) the bracketed distance to the regular elements, (2) existence
of a partial-isometry extension above the cut, (3) polar decomposability of
v f(|a|) for every f that vanishes on [0, delta], and (4) polar
decomposability of the cut-down itself, then cross-checks the implication
chain and the distance bracket.

Where (2) gives a witness w, (3) and (4) are both read from it, through the
prefix norms of miss = w vh* - u: (3) at 25 sampled ramps, and (4) at
f = (t - delta)_+, the cut-down being v f(|a|), which is the paper's
(3)=>(4) step. Without a witness (below the distance on the disk, or
wherever (2) fails) each runs its own extension decision. When
||a|| - delta <= 10 the cut ramp is the sampled ramp of slope 1 and plateau
10, so on the witness path the "(3)=>(4)" cross-check compares two readings
of one residual; what stays independent of (2) there are the "cond4
above/below bracket" checks against the distance.

`check_equivalences` holds its element (`gridalg._holding`), so every
decision shares one read of the singular values, and reads (2)-(4) for a
scalar interval element at all probed levels in one pass over a level axis
(`gridalg._line_reports`, `_scalar_ramps`); others go level by level."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import opcore
from .errors import NoWitness
from .gridalg import (
    MODULUS_SCREEN,
    ExtensionReport,
    GridElement,
    _clear,
    _holding,
    _line_reports,
    decide_extension,
    dist_to_regular,
    from_svd,
    lift_cutdown,
    sup_norm,
    uniform_gap_regular,
)

# condition (3): w f(|a|) - v f(|a|) = (w - v) e_delta f(|a|) for every f
# that vanishes on [0, delta], so one constraint residual per node bounds
# them all; the bound is checked at these 25 sampled ramps
RAMP_SLOPES = np.logspace(-1.0, 3.0, 5)
RAMP_PLATEAUS = np.logspace(np.log10(0.1), np.log10(10.0), 5)
SAMPLED = RAMP_SLOPES.size * RAMP_PLATEAUS.size
RAMP_TOL = 1e-7
# per unit of f: the rounding of w f(|a|) - v f(|a|), which w - v does not carry
RAMP_ROUNDING = 16.0 * np.finfo(np.float64).eps
# half-width, in grid spacings h, of the band around the distance bracket in
# which condition (4) is not held to it (the theorem is strict at delta = dist)
BRACKET_BAND = 3.0


@dataclass
class ConditionResult:
    delta: float
    holds: bool
    detail: dict = field(default_factory=dict)


@dataclass
class EquivalenceReport:
    element: str
    gamma: float
    delta_grid: list
    cond1: tuple  # (lower, upper) distance bracket
    cond2: list
    cond3: list
    cond4: list
    verdict: str
    inconsistencies: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "element": self.element,
            "gamma": self.gamma,
            "deltas": list(self.delta_grid),
            "cond1": {"lower": self.cond1[0], "upper": self.cond1[1]},
            "cond2": [c.holds for c in self.cond2],
            "cond3": [c.holds for c in self.cond3],
            "cond4": [c.holds for c in self.cond4],
            "witnesses": [c.detail for c in self.cond2],
            "verdict": self.verdict,
            "inconsistencies": self.inconsistencies,
        }


def _ramps(delta, s: np.ndarray) -> np.ndarray:
    """The sampled ramps at s, slope-major, then the cut ramp: shape (26, *s.shape)."""
    cut = np.maximum(s - delta, 0.0)
    tail = (1,) * s.ndim
    sampled = np.minimum(cut * RAMP_SLOPES.reshape(-1, 1, *tail), RAMP_PLATEAUS.reshape(-1, *tail))
    return np.concatenate([sampled.reshape(SAMPLED, *s.shape), cut[None]])


def _ramp_bounds(ge: GridElement, delta: float, w: np.ndarray) -> np.ndarray:
    """For d > 1 (`_scalar_ramps` for d = 1): a bound on
    max_k ||w f(|a|) - v f(|a|)|| for each f of `_ramps`, then ||f(|a|)||
    for each, shape (52,).

    At node k the difference is miss diag(f(s)) vh, miss = w vh* - u. With s
    descending and f monotone it is the sum over j of (f(s_j) - f(s_j+1))
    times miss cut to its first j + 1 columns, whose norms c_kj bound every
    f, so a column that a nudged cut left free above delta is weighted by
    its own small f(s_j). One batched SVD factorizes the prefixes with
    s_kj > delta (elsewhere the step weight is exactly 0.0), at the nodes
    that can hold a maximum: a node's value lies in
    [f(s_k0) (lo_k + RAMP_ROUNDING), f(s_k0) (up_k + RAMP_ROUNDING)], lo_k
    the norm of miss's column 0 and up_k the Frobenius norm of its columns
    above delta, and one whose upper value falls short of the largest lower
    value by more than MODULUS_SCREEN, relative, for every ramp, cannot hold
    one, as the margin is far above any rounding. The node of largest s is
    kept for the norms. The maxima are the same floats as over every node."""
    u, s, vh = ge.spectrum()
    f = _ramps(delta, s)
    miss = w @ vh.conj().transpose(0, 2, 1) - u
    cols = (miss.real ** 2 + miss.imag ** 2).sum(axis=1)  # squared column norms
    low = f[..., 0] * (np.sqrt(cols[:, 0]) + RAMP_ROUNDING)
    high = f[..., 0] * (np.sqrt((cols * (s > delta)).sum(axis=1)) + RAMP_ROUNDING)
    keep = (high >= low.max(axis=1, keepdims=True) * (1.0 - MODULUS_SCREEN)).any(axis=0)
    keep[np.argmax(s[:, 0])] = True
    at = np.flatnonzero(keep)
    s, miss, f = s[at], miss[at], f[:, at]
    c = np.zeros(s.shape)
    k, j = np.nonzero(s > delta)
    if k.size:
        prefixes = miss[k] * np.tri(ge.dim)[j][:, None, :]
        c[k, j] = np.linalg.svd(prefixes, compute_uv=False)[:, 0]
    c += RAMP_ROUNDING
    steps = f.copy()  # f(s_j) - f(s_j+1), with f(s_d) = 0
    steps[..., :-1] -= f[..., 1:]
    return np.concatenate([(steps * c).sum(axis=-1).max(axis=-1), f[..., 0].max(axis=-1)])


def _scalar_ramps(u: np.ndarray, s: np.ndarray, delta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`_ramp_bounds` of a scalar element with flat u and s at each level of
    delta, shape (L,), with witnesses w, shape (L, n): shape (L, 52). Here
    miss = w - u, and each level's ramps are taken, in one gather, only at
    the nodes above it where w != u and at the node of largest s, with the
    maxima from `np.maximum.reduceat`. That is exact: every ramp, and its
    product with |miss| + RAMP_ROUNDING, is monotone in s under rounding, so
    no dropped node (f(s) = 0 or miss = 0) exceeds the node of largest s."""
    miss = w - u
    at = (miss != 0) & (s > delta[:, None])
    at[:, np.argmax(s)] = True
    rows, cols = np.nonzero(at)
    f = _ramps(delta[rows], s[cols])
    top = np.concatenate([f * (np.abs(miss[rows, cols]) + RAMP_ROUNDING), f])
    return np.maximum.reduceat(top, np.searchsorted(rows, np.arange(delta.size)), axis=1).T


def _condition3(deltas: list, has_witness: bool, top: np.ndarray) -> list:
    """Condition (3) at the levels deltas off their witnesses' ramp bounds,
    shape (L, 52): with a condition-(2) witness it fails where a sampled
    ramp's bound exceeds RAMP_TOL (1 + ||f||), and carries the cut ramp's."""
    bounds = top[:, :SAMPLED]
    failed = has_witness & (bounds > RAMP_TOL * (1.0 + top[:, SAMPLED + 1:-1]))
    fails = failed.any(axis=1).tolist()
    residuals = np.where(fails, bounds[np.arange(len(fails)), failed.argmax(axis=1)],
                         bounds.max(axis=1)).tolist()
    results = []
    for delta, fail, residual, cut, norm in zip(deltas, fails, residuals,
                                                top[:, SAMPLED].tolist(), top[:, -1].tolist()):
        detail = {"ramp_residual" if fail else "max_ramp_residual": residual}
        if has_witness:
            detail.update(cut_residual=cut, cut_bound=RAMP_TOL * (1.0 + norm))
        results.append(ConditionResult(delta=delta, holds=not fail, detail=detail))
    return results


def _min_positive_singular(s: np.ndarray) -> float:
    """The smallest of the flat singular values s above rounding of 0."""
    pos = s[s > opcore.TAU_NONZERO * (1.0 + s.max(initial=0.0))]
    return float(pos.min()) if pos.size else 0.0


def _decide_polar_decomposable(ge: GridElement) -> ExtensionReport:
    """Does the grid element admit a polar decomposition in the algebra?
    Decided by the extension machinery at a cut just below the smallest
    positive singular value (0, nudged off, when none is), so the probed
    support is the full support. The element is held for the decision, so
    its singular values are read once."""
    with _holding(ge) as hold:
        return decide_extension(ge, _min_positive_singular(hold.s) / 2.0)


def check_condition3(ge: GridElement, delta: float,
                     cond2: ExtensionReport | None) -> ConditionResult:
    """Polar decomposability of v f(|a|) for every f vanishing on [0, delta].

    A condition-(2) witness w decomposes every such f(|a|) as w f(|a|); (3)
    fails when its ramp bound exceeds RAMP_TOL (1 + ||f||) at a sampled
    ramp, and carries the cut ramp's bound and threshold for
    `check_condition4` (`_condition3`). Without a witness every such
    v f(|a|) has the same support, so one extension decision serves them
    all, and its witness bounds the report.
    """
    opcore.check_level(delta)
    has_witness = cond2 is not None and cond2.exists and cond2.witness is not None
    rep = cond2
    u, s, vh = ge.spectrum()
    if not has_witness:  # at the ramp of slope 0.1 and plateau 10
        rep = _decide_polar_decomposable(
            from_svd(ge.domain, u, _ramps(delta, s)[RAMP_PLATEAUS.size - 1], vh))
        if not rep.exists:
            return ConditionResult(delta=delta, holds=False,
                                   detail={"obstruction": rep.obstruction})
    w = rep.witness.values
    top = (_scalar_ramps(u[:, 0, 0], s[:, 0], np.array([delta]), w.reshape(1, -1))
           if ge.is_scalar else _ramp_bounds(ge, delta, w)[None])
    return _condition3([delta], has_witness, top)[0]


def check_condition4(ge: GridElement, delta: float,
                     cond3: ConditionResult | None = None) -> ConditionResult:
    """Polar decomposability of the cut-down c = v (|a| - delta)_+.

    With a condition-(2) witness w, c = w |c| decomposes it: the paper's
    (3)=>(4) step at f = (t - delta)_+. `cond3`, condition (3)'s result at
    the same delta, then carries `cut_residual`, the ramp bound at that f on
    ||w (|a| - delta)_+ - v (|a| - delta)_+||, and (4) holds when it is at
    most `cut_bound` = RAMP_TOL (1 + ||(|a| - delta)_+||).

    Without a witness (no `cond3`, a failed (2), or (3) decided without one)
    the decision is independent: the extension machinery at half the
    smallest positive singular value of the cut-down, so that the probed
    support is the full support. The detail's `path` says which ran.
    """
    if cond3 is not None and cond3.delta == delta and "cut_residual" in cond3.detail:
        residual, bound = cond3.detail["cut_residual"], cond3.detail["cut_bound"]
        return ConditionResult(delta=delta, holds=residual <= bound,
                               detail={"path": "witness", "cut_residual": residual,
                                       "cut_bound": bound})
    rep = _decide_polar_decomposable(lift_cutdown(ge, delta))
    detail = {"path": "decision"}
    if rep.obstruction is not None:
        detail["obstruction"] = rep.obstruction
    return ConditionResult(delta=delta, holds=rep.exists, detail=detail)


def check_equivalences(ge: GridElement, gamma: float, delta_grid,
                       tol_bisect: float | None = None,
                       element_name: str = "element") -> EquivalenceReport:
    """The bracket (1), at tol_bisect (2 grid spacings by default), and (2)-(4)
    at each level of delta_grid, sorted, in a hold on ge (`gridalg._holding`).
    ValueError when gamma or a level is not finite or a level is within the
    guard band above gamma; SpectralCollision when a level cannot be cleared
    of the singular values. A scalar interval element has its levels cleared
    in turn, then (2)-(4) read at all of them from one pass over a level axis,
    but for a level where (2) fails, which decides (3) and (4) on its own."""
    delta_grid = sorted(float(d) for d in delta_grid)
    if not all(math.isfinite(x) for x in (gamma, *delta_grid)):
        raise ValueError("gamma and every probed delta must be finite")
    with _holding(ge) as hold:
        eta = hold.band
        if any(d <= gamma + eta for d in delta_grid):
            raise ValueError("all probed deltas must exceed gamma")
        h = ge.domain.max_spacing()
        if tol_bisect is None:
            tol_bisect = 2.0 * h

        lower, upper = dist_to_regular(ge, tol_bisect)

        line = ge.is_scalar and ge.domain.kind == "interval-1d"
        if line:
            reps, w = _line_reports(ge, [_clear(ge, x, hold.s, eta) for x in delta_grid])
            c3s = _condition3(delta_grid, True, _scalar_ramps(
                ge.spectrum()[0][:, 0, 0], hold.s, np.array(delta_grid), w))
        else:  # lazily, so that each level is decided after the one before is checked
            reps = (decide_extension(ge, delta) for delta in delta_grid)
        cond2, cond3, cond4 = [], [], []
        inconsistencies = []
        for k, (delta, rep2) in enumerate(zip(delta_grid, reps)):
            c2 = ConditionResult(delta=delta, holds=rep2.exists,
                                 detail={"modulus": rep2.witness_modulus,
                                         "bound": rep2.modulus_bound,
                                         **({"obstruction": rep2.obstruction}
                                            if rep2.obstruction else {})})
            c3 = c3s[k] if line and rep2.exists else check_condition3(ge, delta, rep2)
            c4 = check_condition4(ge, delta, c3)
            cond2.append(c2)
            cond3.append(c3)
            cond4.append(c4)
            if c2.holds and not c3.holds:
                inconsistencies.append({"delta": delta, "broken": "(2)=>(3)"})
            if c3.holds and not c4.holds:
                inconsistencies.append({"delta": delta, "broken": "(3)=>(4)"})
            # bracket consistency, outside the undecidable band
            if delta > upper + BRACKET_BAND * h and not c4.holds:
                inconsistencies.append({"delta": delta, "broken": "cond4 above bracket"})
            if lower > 0 and delta < lower - BRACKET_BAND * h and c4.holds:
                inconsistencies.append({"delta": delta, "broken": "cond4 below bracket"})

    verdict = "consistent" if not inconsistencies else "inconsistent"
    return EquivalenceReport(
        element=element_name, gamma=gamma, delta_grid=delta_grid,
        cond1=(lower, upper), cond2=cond2, cond3=cond3, cond4=cond4,
        verdict=verdict, inconsistencies=inconsistencies)


def regular_approximant(ge: GridElement, delta: float, eps: float,
                        witness: ExtensionReport | None = None):
    """Explicit regular element at distance <= delta + eps: pointwise
    w (eps 1 + (|a| - delta)_+) with w the extension witness at delta.
    Verifies the uniform gap >= eps (up to grid slack) before returning."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if witness is None:
        witness = decide_extension(ge, delta)
    if not witness.exists or witness.witness is None:
        raise NoWitness(f"no extension witness at delta={delta}")
    w = witness.witness.values
    _, s, vh = ge.spectrum()
    shaved = np.maximum(s - delta, 0.0) + eps
    pos = np.einsum("kji,kj,kjl->kil", vh.conj(), shaved, vh)
    x_vals = np.einsum("kij,kjl->kil", w, pos)
    x = GridElement(domain=ge.domain, values=x_vals)
    ok, gap = uniform_gap_regular(x, gap_min=eps * 0.9)
    if not ok:
        raise NoWitness(f"approximant failed the gap check: gap={gap:.3g} < {eps:.3g}")
    distance = sup_norm(GridElement(domain=ge.domain, values=ge.values - x_vals))
    return x, float(distance)
