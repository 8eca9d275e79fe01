"""Four-way equivalence harness: evaluates, on a grid element and a sweep of
cut levels, (1) the bracketed distance to the regular elements, (2) existence
of a partial-isometry extension above the cut, (3) polar decomposability of
v f(|a|) for a sampled family of ramps vanishing below the cut, and (4) polar
decomposability of the cut-down itself, then cross-checks the implication
chain and the distance bracket."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import opcore
from .errors import NoWitness
from .gridalg import (
    ExtensionReport,
    GridElement,
    decide_extension,
    dist_to_regular,
    from_svd,
    guard_band,
    lift_cutdown,
    sup_norm,
    uniform_gap_regular,
)

# sampled ramp family for condition (3): one witness serves every function
# vanishing below the cut, so this is a consistency check, not a quantifier
# sweep
RAMP_SLOPES = np.logspace(-1.0, 3.0, 5)
RAMP_PLATEAUS = np.logspace(np.log10(0.1), np.log10(10.0), 5)
RAMP_TOL = 1e-7


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


def _ramp_fn(delta: float, slope: float, plateau: float):
    def f(t):
        return np.minimum(np.maximum(t - delta, 0.0) * slope, plateau)
    return f


def _min_positive_singular(ge: GridElement) -> float:
    s = ge.singular_values().ravel()
    pos = s[s > opcore.TAU_NONZERO * (1.0 + s.max(initial=0.0))]
    return float(pos.min()) if pos.size else 0.0


def _decide_polar_decomposable(ge: GridElement) -> ExtensionReport:
    """Does the grid element admit a polar decomposition in the algebra?
    Decided by the extension machinery at a cut just below the smallest
    positive singular value, so the probed support is the full support."""
    m = _min_positive_singular(ge)
    if m == 0.0:
        witness = GridElement(domain=ge.domain, values=np.zeros_like(ge.values))
        return ExtensionReport(exists=True, witness=witness, obstruction=None)
    return decide_extension(ge, m / 2.0)


def check_condition3(ge: GridElement, delta: float,
                     cond2: ExtensionReport | None) -> ConditionResult:
    """Polar decomposability of v f(|a|) over the sampled ramp family.

    With a condition-(2) witness w the proof gives the decomposition
    w f(|a|) directly; the residual of that identity is checked per ramp.
    Without a witness each reshaped element is decided independently.
    """
    max_residual = 0.0
    u, s, vh = ge.spectrum()
    has_witness = cond2 is not None and cond2.exists and cond2.witness is not None
    shared_decision = None
    if not has_witness:
        # every sampled ramp vanishes exactly on [0, delta] and is strictly
        # positive beyond, so all reshaped elements share one support and
        # one extension decision
        f0 = _ramp_fn(delta, float(RAMP_SLOPES[0]), float(RAMP_PLATEAUS[-1]))
        shared_decision = _decide_polar_decomposable(from_svd(ge.domain, u, f0(s), vh))
        if not shared_decision.exists:
            return ConditionResult(
                delta=delta, holds=False,
                detail={"obstruction": shared_decision.obstruction})
    for slope in RAMP_SLOPES:
        for plateau in RAMP_PLATEAUS:
            fs = _ramp_fn(delta, slope, plateau)(s)
            reshaped = from_svd(ge.domain, u, fs, vh)
            if has_witness:
                w = cond2.witness.values
            else:
                w = shared_decision.witness.values
            fabs = np.einsum("kji,kj,kjl->kil", vh.conj(), fs, vh)
            prod = np.einsum("kij,kjl->kil", w, fabs)
            res = sup_norm(GridElement(domain=ge.domain,
                                       values=prod - reshaped.values))
            max_residual = max(max_residual, res)
            # the singular values of the reshaped element are f(s)
            if has_witness and res > RAMP_TOL * (1.0 + float(fs.max())):
                return ConditionResult(delta=delta, holds=False,
                                       detail={"ramp_residual": res})
    return ConditionResult(delta=delta, holds=True,
                           detail={"max_ramp_residual": max_residual})


def check_condition4(ge: GridElement, delta: float) -> ConditionResult:
    rep = _decide_polar_decomposable(lift_cutdown(ge, delta))
    detail = {} if rep.obstruction is None else {"obstruction": rep.obstruction}
    return ConditionResult(delta=delta, holds=rep.exists, detail=detail)


def check_equivalences(ge: GridElement, gamma: float, delta_grid,
                       tol_bisect: float | None = None,
                       element_name: str = "element") -> EquivalenceReport:
    delta_grid = sorted(float(d) for d in delta_grid)
    if not all(math.isfinite(x) for x in (gamma, *delta_grid)):
        raise ValueError("gamma and every probed delta must be finite")
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
        c4 = check_condition4(ge, delta)
        cond2.append(c2)
        cond3.append(c3)
        cond4.append(c4)
        if c2.holds and not c3.holds:
            inconsistencies.append({"delta": delta, "broken": "(2)=>(3)"})
        if c3.holds and not c4.holds:
            inconsistencies.append({"delta": delta, "broken": "(3)=>(4)"})
        # bracket consistency, excluding a 3h undecidable band around the
        # bracket (the theorem is strict at delta = dist exactly)
        if delta > upper + 3.0 * h and not c4.holds:
            inconsistencies.append({"delta": delta, "broken": "cond4 above bracket"})
        if lower > 0 and delta < lower - 3.0 * h and c4.holds:
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
    if eps <= 0:
        raise ValueError("eps must be positive")
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
