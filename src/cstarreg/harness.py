"""Four-way equivalence harness: evaluates, on a grid element and a sweep of
cut levels, (1) the bracketed distance to the regular elements, (2) existence
of a partial-isometry extension above the cut, (3) polar decomposability of
v f(|a|) for every f that vanishes on [0, delta], and (4) polar
decomposability of the cut-down itself, then cross-checks the implication
chain and the distance bracket.

Where (2) gives a witness w, (3) and (4) are both read from it, through one
batched factorization of the prefix norms of miss = w vh* - u per level:
(3) at 25 sampled ramps, and (4) at f = (t - delta)_+, the cut-down being
v f(|a|), which is the paper's (3)=>(4) step. Without a witness (below the
distance on the disk, or wherever (2) fails) each runs its own extension
decision. When ||a|| - delta <= 10 the cut ramp is the sampled ramp of slope
1 and plateau 10, so on the witness path the "(3)=>(4)" cross-check compares
two readings of one residual; what stays independent of (2) there are the
"cond4 above/below bracket" checks against the distance.

`check_equivalences` holds its element while the report runs
(`gridalg._holding`): the singular values and guard band are read once,
for d = 1 the abs/phase spectrum is built once, and the bracket, every
decision, cut-down and witness and `_ramp_bounds` share them; each probed
level is tested against the spectrum once. The hold is dropped when the
report returns, so the element keeps nothing. Each decision of a
no-witness path holds its own derived element the same way. `_ramp_bounds`
takes the ramps, and for d > 1 factorizes the prefixes of miss, only at the
nodes where they can hold a maximum; for d = 1 it takes miss = w - u."""

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
    _holding,
    decide_extension,
    dist_to_regular,
    from_svd,
    guard_band,
    lift_cutdown,
    sup_norm,
    uniform_gap_regular,
)

# condition (3): w f(|a|) - v f(|a|) = (w - v) e_delta f(|a|) for every f
# that vanishes on [0, delta], so one constraint residual per node bounds
# them all; the bound is checked at these 25 sampled ramps
RAMP_SLOPES = np.logspace(-1.0, 3.0, 5)
RAMP_PLATEAUS = np.logspace(np.log10(0.1), np.log10(10.0), 5)
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


def _ramps(delta: float, s: np.ndarray) -> np.ndarray:
    """The sampled ramps at s, shape (slopes, plateaus, *s.shape)."""
    tail = (1,) * s.ndim
    return np.minimum(np.maximum(s - delta, 0.0) * RAMP_SLOPES.reshape(-1, 1, *tail),
                      RAMP_PLATEAUS.reshape(-1, *tail))


def _ramp_bounds(ge: GridElement, delta: float, w: np.ndarray):
    """((bounds, norms), (cut, cut_norm)): a bound on
    max_k ||w f(|a|) - v f(|a|)|| and ||f(|a|)||, first per sampled ramp f,
    each of shape (slopes, plateaus), then for the cut ramp (t - delta)_+.

    At node k the difference is miss diag(f(s)) vh, miss = w vh* - u. With s
    descending and f monotone it is the sum over j of (f(s_j) - f(s_j+1))
    times miss cut to its first j + 1 columns, whose norms c_kj bound every
    f. A column that a nudged cut left free above delta is thus weighted by
    its own small f(s_j). d > 1: one batched SVD of the prefixes with
    s_kj > delta; at every other (k, j) each ramp vanishes on s_kj and
    below, so the step weight is exactly 0.0 and c_kj is never read.

    d > 1, the screen: only the nodes that can hold a maximum are
    factorized. The steps of a ramp at node k are nonnegative and sum to
    f(s_k0), and every c_kj it weights lies between lo_k, the norm of
    miss's column 0 (the first prefix; prefix norms grow with j), and up_k,
    the Frobenius norm of the columns above delta (which bounds the last
    prefix). So the node's value lies in
    [f(s_k0) (lo_k + RAMP_ROUNDING), f(s_k0) (up_k + RAMP_ROUNDING)], to a
    few ulps. A node whose upper value falls short of the largest lower
    value by more than MODULUS_SCREEN, relative, for every sampled ramp
    and for the cut ramp, lies below that ramp's maximum, since the margin
    is far above the rounding of either side or of LAPACK's s1; the node of
    largest s is kept for the norms. The maxima are then the same floats.

    d = 1: vh = 1, so miss = w - u and c = |miss|, and the ramps are taken
    only at the nodes above delta where w != u, and at one node of largest
    s. That is exact: every ramp is monotone in s under rounding, and so is
    its product with c >= RAMP_ROUNDING, so a dropped node, where f(s) = 0
    or c = RAMP_ROUNDING, never exceeds the node of largest s, and the
    maxima are the same floats."""
    u, s, vh = ge.spectrum()
    if ge.is_scalar:
        miss = w[:, 0, 0] - u[:, 0, 0]
        at = np.append(np.flatnonzero((miss != 0) & (s[:, 0] > delta)), np.argmax(s[:, 0]))
        s = s[at]
        c = np.abs(miss[at])[:, None]
    else:
        miss = w @ vh.conj().transpose(0, 2, 1) - u
        cols = (miss.real ** 2 + miss.imag ** 2).sum(axis=1)  # squared column norms
        # f(s_k0) for every sampled ramp and the cut ramp, shape (26, n)
        top = np.vstack([_ramps(delta, s[:, 0]).reshape(-1, len(s)),
                         np.maximum(s[:, 0] - delta, 0.0)])
        low = top * (np.sqrt(cols[:, 0]) + RAMP_ROUNDING)
        high = top * (np.sqrt((cols * (s > delta)).sum(axis=1)) + RAMP_ROUNDING)
        keep = (high >= low.max(axis=1, keepdims=True) * (1.0 - MODULUS_SCREEN)).any(axis=0)
        keep[np.argmax(s[:, 0])] = True
        at = np.flatnonzero(keep)
        s, miss = s[at], miss[at]
        c = np.zeros(s.shape)
        k, j = np.nonzero(s > delta)
        if k.size:
            prefixes = miss[k] * np.tri(ge.dim)[j][:, None, :]
            c[k, j] = np.linalg.svd(prefixes, compute_uv=False)[:, 0]
    c += RAMP_ROUNDING

    def bound(f):
        steps = f.copy()  # f(s_j) - f(s_j+1), with f(s_d) = 0
        steps[..., :-1] -= f[..., 1:]
        return (steps * c).sum(axis=-1).max(axis=-1), f[..., 0].max(axis=-1)

    return bound(_ramps(delta, s)), bound(np.maximum(s - delta, 0.0))


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
    fails when `_ramp_bounds` exceeds RAMP_TOL (1 + ||f||) at a sampled ramp.
    The detail then also carries, for `check_condition4`, the bound at the
    cut ramp (t - delta)_+ as `cut_residual` and its threshold as
    `cut_bound`. Without a witness every such v f(|a|) has the same support,
    so one extension decision serves them all, and its witness bounds the
    report.
    """
    opcore.check_level(delta)
    has_witness = cond2 is not None and cond2.exists and cond2.witness is not None
    rep = cond2
    if not has_witness:
        u, s, vh = ge.spectrum()
        rep = _decide_polar_decomposable(from_svd(ge.domain, u, _ramps(delta, s)[0, -1], vh))
        if not rep.exists:
            return ConditionResult(delta=delta, holds=False,
                                   detail={"obstruction": rep.obstruction})
    (bounds, norms), cut = _ramp_bounds(ge, delta, rep.witness.values)
    failed = has_witness & (bounds > RAMP_TOL * (1.0 + norms))
    detail = ({"ramp_residual": float(bounds[failed][0])} if failed.any()
              else {"max_ramp_residual": float(bounds.max())})
    if has_witness:
        detail["cut_residual"] = float(cut[0])
        detail["cut_bound"] = RAMP_TOL * (1.0 + float(cut[1]))
    return ConditionResult(delta=delta, holds=not failed.any(), detail=detail)


def check_condition4(ge: GridElement, delta: float,
                     cond3: ConditionResult | None = None) -> ConditionResult:
    """Polar decomposability of the cut-down c = v (|a| - delta)_+.

    With a condition-(2) witness w, c = w |c| decomposes it: the paper's
    (3)=>(4) step at f = (t - delta)_+. `cond3`, condition (3)'s result at
    the same delta, then carries `cut_residual`, the bound of `_ramp_bounds`
    at that f on the sup over the nodes of
    ||w (|a| - delta)_+ - v (|a| - delta)_+||, read off the prefix norms that
    (3) factorized for its own ramps, and (4) holds when it is at most
    `cut_bound` = RAMP_TOL (1 + ||(|a| - delta)_+||).

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
    delta_grid = sorted(float(d) for d in delta_grid)
    if not all(math.isfinite(x) for x in (gamma, *delta_grid)):
        raise ValueError("gamma and every probed delta must be finite")
    # the element's s, guard band and, for d = 1, spectrum, read once for
    # every decision of the report and dropped when it returns
    with _holding(ge):
        eta = guard_band(ge)
        if any(d <= gamma + eta for d in delta_grid):
            raise ValueError("all probed deltas must exceed gamma")
        h = ge.domain.max_spacing()
        if tol_bisect is None:
            tol_bisect = 2.0 * h

        lower, upper = dist_to_regular(ge, tol_bisect)

        cond2, cond3, cond4 = [], [], []
        inconsistencies = []
        for delta in delta_grid:
            rep2 = decide_extension(ge, delta)
            c2 = ConditionResult(delta=delta, holds=rep2.exists,
                                 detail={"modulus": rep2.witness_modulus,
                                         "bound": rep2.modulus_bound,
                                         **({"obstruction": rep2.obstruction}
                                            if rep2.obstruction else {})})
            c3 = check_condition3(ge, delta, rep2)
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
