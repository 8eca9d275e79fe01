"""The four workloads: seeded inputs, one warm-up per layer, the work of one
item, and the check of every output against `oracles`.

An item is one seeded unit of work with the same mix of sizes in every item;
inputs come from a pool of POOL items generated at set-up and are reused in
order. `segments(i)` splits item i into a few calls of 0.1-0.5 s each, so the
reference kernel can be timed between them; each call returns raw outputs
only, and the checks run outside the timed region. Each output is one
operation; `check` returns, per operation, (ok, known_fault) where known_fault
marks the Moore-Penrose rank-cut band.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
from numpy.linalg import norm as _norm
from numpy.linalg import svd as _svd  # bound now: tracing never sees it

import oracles

POOL = 16


def _scalar_top(values: np.ndarray) -> float:
    return float(np.abs(values).max())


def _matrix_top(values: np.ndarray) -> float:
    return float(_svd(values, compute_uv=False).max())


class Workload:
    name = ""

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        self.rng = np.random.default_rng([seed, self.seed_tag])
        self.pool = [self.generate(p) for p in range(POOL)]

    def item_inputs(self, i: int):
        return self.pool[i % POOL]

    def plan(self):
        """Oracle work that must precede the items; not part of set-up."""


# --- interval ---------------------------------------------------------------

class IntervalSweeps(Workload):
    """Shared by both interval workloads: four-condition sweeps with their
    distance bracket, checked against the stable-rank-one oracle."""

    TOL = 0.005
    FRACTIONS = (0.25, 0.5, 0.75)

    def sweep(self, ge, top):
        rep = self.pkg.harness.check_equivalences(
            ge, 0.0, [f * top for f in self.FRACTIONS], tol_bisect=self.TOL)
        return ("sweep", ge.domain.max_spacing(), rep.cond1, rep.delta_grid,
                [c.holds for c in rep.cond2], [c.holds for c in rep.cond3],
                [c.holds for c in rep.cond4], rep.verdict)

    def check_sweep(self, out):
        _, h, (lower, upper), deltas, c2, c3, c4, verdict = out
        return (verdict == "consistent"
                and oracles.interval_bracket_ok(lower, upper, self.TOL, h)
                and oracles.interval_conditions_ok(deltas, c2, c3, c4, h))


class IntervalScalar(IntervalSweeps):
    """Seeded scalar fields at three grid sizes, plus the 1-D gallery run
    through the CLI with stdout captured in memory."""

    name = "interval-scalar"
    seed_tag = 1
    SIZES = (128, 256, 512)
    CLI_GRID_N = 128
    CLI_TOL = 0.01
    # (gallery element, report format); the CSV report exercises serialize
    CLI_RUNS = (("osc", "json"), ("osc-bounded", "json"), ("linear", "csv"),
                ("const-unitary", "json"))

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        self.first_bytes = {}
        self.cli_argvs = [("theorem", "--input", name, "--gridN", str(self.CLI_GRID_N),
                           "--tol", str(self.CLI_TOL), "--format", fmt)
                          for name, fmt in self.CLI_RUNS]

    def generate(self, p):
        fields = []
        for n in self.SIZES:
            ge = self.pkg.gallery.random_scalar_field_1d(n, self.rng)
            fields.append((ge, _scalar_top(ge.values)))
        return fields

    def warm_up(self):
        ge = self.pkg.gallery.random_scalar_field_1d(32, np.random.default_rng(0))
        self.sweep(ge, _scalar_top(ge.values))
        self.cli(["theorem", "--input", "linear", "--gridN", "32", "--tol", "0.05"])

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(argv)
        return code, out.getvalue()

    def segments(self, i):
        segs = [lambda ge=ge, top=top: [self.sweep(ge, top)]
                for ge, top in self.item_inputs(i)]
        segs.append(lambda: [("cli", argv) + self.cli(list(argv))
                             for argv in self.cli_argvs])
        return segs

    def check(self, outs):
        return [(self.check_sweep(o) if o[0] == "sweep" else self.check_cli(o), False)
                for o in outs]

    def check_cli(self, out):
        _, argv, code, text = out
        # reports are byte-identical for a fixed config: every repeat of a
        # CLI run in this process must reproduce the first one's bytes
        same = self.first_bytes.setdefault(argv, text) == text
        h = 1.0 / (self.CLI_GRID_N - 1)
        if argv[-1] == "csv":
            rows = [line.split(",") for line in text.strip().splitlines()[1:]]
            deltas = [float(r[0]) for r in rows]
            conds = [[r[k] == "1" for r in rows] for k in (1, 2, 3)]
            return (code == 0 and same and len(rows) == 4
                    and oracles.interval_conditions_ok(deltas, *conds, h))
        rep = json.loads(text)
        return (code == 0 and same and rep["verdict"] == "consistent"
                and oracles.interval_bracket_ok(rep["cond1"]["lower"],
                                                rep["cond1"]["upper"],
                                                self.CLI_TOL, h)
                and oracles.interval_conditions_ok(rep["deltas"], rep["cond2"],
                                                   rep["cond3"], rep["cond4"], h))


class IntervalMatrix(IntervalSweeps):
    """C([0,1], M_d) for d = 2, 3: the gallery rank drop and seeded
    matrix-valued trig-polynomial fields, half of them with a planted rank
    drop."""

    name = "interval-matrix"
    seed_tag = 2
    N = 128
    # (d, planted rank drop)
    SHAPES = ((2, False), (2, True), (3, False), (3, True))

    def generate(self, p):
        fields = [(self.pkg.gallery.gallery("rankdrop", self.N), 1.0)]
        dom = self.pkg.gridalg.interval_domain(self.N)
        for d, drop in self.SHAPES:
            vals = matrix_trig_field(self.rng, self.N, d, drop)
            fields.append((self.pkg.gridalg.GridElement(domain=dom, values=vals),
                           _matrix_top(vals)))
        return fields

    def warm_up(self):
        vals = matrix_trig_field(np.random.default_rng(0), 32, 2, True)
        ge = self.pkg.gridalg.GridElement(
            domain=self.pkg.gridalg.interval_domain(32), values=vals)
        self.sweep(ge, _matrix_top(vals))

    def segments(self, i):
        return [lambda ge=ge, top=top: [self.sweep(ge, top)]
                for ge, top in self.item_inputs(i)]

    def check(self, outs):
        return [(self.check_sweep(o), False) for o in outs]


def matrix_trig_field(rng, n, d, rank_drop):
    """F(t) = c 1 + sum_k A_k cos(pi k t) + B_k sin(pi k t), k = 0..2, with
    complex Gaussian A_k, B_k damped by 1/(k+1)^2. With rank_drop, F is
    multiplied on the right by 1 + (t - t0 - 1) p p*, which is singular at a
    seeded t0 in the interior, so F(t0) loses rank."""
    t = np.linspace(0.0, 1.0, n)
    vals = np.tile(0.5 * np.eye(d, dtype=np.complex128), (n, 1, 1))
    for k in range(3):
        a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * 0.3 / (k + 1) ** 2
        b = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * 0.3 / (k + 1) ** 2
        vals = vals + np.cos(np.pi * k * t)[:, None, None] * a + np.sin(np.pi * k * t)[:, None, None] * b
    if rank_drop:
        t0 = rng.uniform(0.2, 0.8)
        p = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        p = p / _norm(p)
        proj = np.outer(p, p.conj())
        r = np.eye(d) + (t - t0 - 1.0)[:, None, None] * proj
        vals = vals @ r
    return vals


# --- disk -------------------------------------------------------------------

class DiskWinding(Workload):
    """disk-z and seeded disk fields with planted winding 0..3. Per element:
    a distance bracket, a decision on each side of the oracle distance
    (outside the 3h band), and a regular approximant above it."""

    name = "disk-winding"
    seed_tag = 3
    N_RADIAL, N_ANGULAR = 32, 128
    DISK_Z_N = 32
    TOL = 0.02
    EPS = 0.02
    WINDINGS = (0, 1, 2, 3)
    BAND = 3.5  # decisions are taken this many h away from the oracle

    def generate(self, p):
        elems = [(self.pkg.gallery.gallery("disk-z", self.DISK_Z_N), 1)]
        for w in self.WINDINGS:
            elems.append((self.pkg.gallery.random_scalar_field_2d(
                self.N_RADIAL, self.N_ANGULAR, self.rng, winding=w), w))
        return elems

    def plan(self):
        self.pool = [[self.levels(ge, w) for ge, w in elems] for elems in self.pool]

    def levels(self, ge, w):
        dom = ge.domain
        f = ge.values[:, 0, 0]
        dist = oracles.disk_distance(np.abs(f).reshape(dom.n_radial, dom.n_angular), w)
        h = dom.max_spacing()
        top = _scalar_top(f)
        above = dist + self.BAND * h if w else 0.5 * top
        # below the distance for a planted winding; for w = 0 there is no
        # below, so the second decision is another level above
        other = dist - self.BAND * h if w else self.BAND * h
        return ge, w, dist, above, other

    def warm_up(self):
        ge = self.pkg.gallery.random_scalar_field_2d(16, 64, np.random.default_rng(0), winding=1)
        self.pkg.gridalg.dist_to_regular(ge, 0.1)
        rep = self.pkg.gridalg.decide_extension(ge, 1.5)
        self.pkg.harness.regular_approximant(ge, 1.5, self.EPS, witness=rep)

    def segments(self, i):
        return [lambda e=e: self.element(*e) for e in self.item_inputs(i)]

    def element(self, ge, w, dist, above, other):
        gridalg = self.pkg.gridalg
        outs = [("dist", dist, gridalg.dist_to_regular(ge, self.TOL))]
        rep_above = gridalg.decide_extension(ge, above)
        outs.append(("above", rep_above.exists))
        rep_other = gridalg.decide_extension(ge, other)
        outs.append(("other", w, rep_other.exists, rep_other.obstruction))
        x, _ = self.pkg.harness.regular_approximant(ge, above, self.EPS, witness=rep_above)
        outs.append(("approx", ge.values[:, 0, 0], x.values[:, 0, 0], above))
        return outs

    def check(self, outs):
        return [(self.check_one(o), False) for o in outs]

    def check_one(self, out):
        kind = out[0]
        if kind == "dist":
            _, dist, (lower, upper) = out
            slack = 1e-6
            return lower - slack <= dist <= upper + slack
        if kind == "above":
            return out[1]
        if kind == "other":
            _, w, exists, obstruction = out
            if w == 0:
                return exists
            return (not exists and obstruction["kind"] == "winding"
                    and obstruction["windings"] == [w])
        _, f, x, delta = out
        return oracles.approximant_ok(f, x, delta, self.EPS)


# --- matrix -----------------------------------------------------------------

class MatrixPipeline(Workload):
    """Seeded partial-isometry pipeline runs over n x ratio, and
    Moore-Penrose inverses on geometric spectra, including a fixed set inside
    the rank-cut band that fails at every seed."""

    name = "matrix-pipeline"
    seed_tag = 4
    SIZES = (8, 16, 32, 64)
    RATIOS = (0.2, 0.5, 0.9)
    DELTA = 0.5
    # seeded spectra that every correct inverse handles: kept part geometric
    # from 1 down to 10^-U(1,4), optional tail at 10^-U(10,12) (a factor >= 10
    # clear of the 1e-9 rank cut on both sides)
    MP_SHAPES = ((8, 0), (8, 2), (16, 0), (16, 3))
    # seed-independent spectra with singular values between the polar rank
    # cut (1e-9 ||a||) and the gap-certificate cut (~3.2e-5 ||a||)
    MP_BAND = ((1.0, 1e-5), tuple(np.geomspace(1.0, 1e-5, 8)),
               tuple(np.geomspace(1.0, 1e-7, 8)), tuple(np.geomspace(1.0, 1e-8, 8)),
               (1.0, 1e-4, 1e-8, 1e-12))

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        band_rng = np.random.default_rng(0)
        self.band = [oracles.matrix_with_spectrum(band_rng, s) for s in self.MP_BAND]

    def generate(self, p):
        runs = []
        for n in self.SIZES:
            for ratio in self.RATIOS:
                a = gaussian_unit(self.rng, n)
                x = a + ratio * self.DELTA * gaussian_unit(self.rng, n)
                runs.append((a, x))
        mps = []
        for n, tail in self.MP_SHAPES:
            kept = np.geomspace(1.0, 10.0 ** -self.rng.uniform(1.0, 4.0), n - tail)
            low = 10.0 ** -self.rng.uniform(10.0, 12.0, tail)
            mps.append(oracles.matrix_with_spectrum(self.rng, np.concatenate([kept, low])))
        return runs, mps

    def warm_up(self):
        rng = np.random.default_rng(0)
        a = gaussian_unit(rng, 4)
        self.pkg.pipeline.construct_partial_isometry(a, a + 0.1 * gaussian_unit(rng, 4), self.DELTA)
        self.pkg.regularity.moore_penrose(a)

    def segments(self, i):
        return [lambda: self.item(*self.item_inputs(i))]

    def item(self, runs, mps):
        pipe, mp = self.pkg.pipeline, self.pkg.regularity.moore_penrose
        outs = [("pipe", a, pipe.construct_partial_isometry(a, x, self.DELTA).w)
                for a, x in runs]
        outs += [("mp", a, mp(a)) for a in mps]
        outs += [("mp-band", a, mp(a)) for a in self.band]
        return outs

    def check(self, outs):
        res = []
        for kind, a, out in outs:
            if kind == "pipe":
                res.append((oracles.pipeline_output_ok(a, out, self.DELTA), False))
            else:
                res.append((oracles.moore_penrose_ok(a, out), kind == "mp-band"))
        return res


def gaussian_unit(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a / _svd(a, compute_uv=False)[0]


WORKLOADS = {w.name: w for w in (IntervalScalar, IntervalMatrix, DiskWinding, MatrixPipeline)}
