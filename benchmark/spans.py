"""Tracing for the per-layer run, installed from outside the program.

`install` wraps the public functions of each cstarreg module, and
`np.linalg.svd`, `eigh` and `norm`, in spans. A span is (name, start, end,
parent, item, size, flag): size is the grid node count, the matrix size n or
the SVD batch size, and flag is the name of the exception that left the call
(or, for an SVD, "repeat" when the same input bytes were already factorised in
this item). Spans are recorded only while an item (or the set-up, item -1) is
current, kept in memory and written out once at the end.

Self time is a span's duration minus the durations of its direct children, so
a layer's self time excludes the LAPACK calls it makes.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import math
import time

import numpy as np

SETUP = -1

# public functions traced per module; a wrapper replaces every binding of the
# function in every cstarreg module, because harness, pipeline and
# regularity import these by name
PUBLIC = {
    "opcore": ("op_norm", "check_hermitian", "hermitian_eig", "abs_of", "svd",
               "polar", "apply_function", "spectral_projection", "cutdown"),
    "regularity": ("gap_certificate", "moore_penrose", "is_regular", "verify_penrose"),
    "pipeline": ("construct_partial_isometry",),
    "gridalg": ("sup_norm", "lift_cutdown", "uniform_gap_regular", "polar_extension_1d",
                "polar_extension_2d_scalar", "polar_extension", "decide_extension",
                "dist_to_regular"),
    "harness": ("check_condition3", "check_condition4", "check_equivalences",
                "regular_approximant"),
    "gallery": ("gallery", "random_scalar_field_1d", "random_scalar_field_2d"),
    "serialize": ("matrix_to_dict", "matrix_from_dict", "grid_element_to_dict",
                  "grid_element_from_dict", "load_json", "dump_json", "sweep_csv_lines"),
    "cli": ("run",),
}

NAME, START, END, PARENT, ITEM, SIZE, FLAG = range(7)


def _grid_size(args):
    values = getattr(args[0], "values", None) if args else None
    return values.shape[0] if values is not None else 0


def _matrix_size(args):
    return np.shape(args[0])[0] if args else 0


SIZE_OF = {"gridalg.polar_extension_1d": _grid_size,
           "gridalg.polar_extension_2d_scalar": _grid_size,
           "pipeline.construct_partial_isometry": _matrix_size}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self.factorised: set = set()

    def set_item(self, item):
        self.item = item
        self.factorised = set()

    def _open(self, name, size):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.item, size, ""]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def wrap(self, name, fn):
        size_of = SIZE_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            rec = self._open(name, size_of(args) if size_of else 0)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[FLAG] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                self.stack.pop()
        return traced

    def wrap_svd(self, fn):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            if self.item is None:
                return fn(a, *args, **kwargs)
            arr = np.asarray(a)
            key = (arr.shape, arr.dtype.str,
                   hashlib.blake2b(arr.tobytes(), digest_size=16).digest())
            rec = self._open("linalg.svd", math.prod(arr.shape[:-2]))
            if key in self.factorised:
                rec[FLAG] = "repeat"
            self.factorised.add(key)
            rec[START] = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self.stack.pop()
        return traced

    def wrap_norm(self, fn):
        """np.linalg.norm with ord 2, -2 or 'nuc' runs an SVD internally,
        without looking up np.linalg.svd; only those calls become spans."""
        spanned = self.wrap("linalg.norm2", fn)

        @functools.wraps(fn)
        def traced(x, ord=None, *args, **kwargs):
            if ord in (2, -2, "nuc") and np.ndim(x) >= 2:
                return spanned(x, ord, *args, **kwargs)
            return fn(x, ord, *args, **kwargs)
        return traced

    def install(self, modules: dict):
        for modname, names in PUBLIC.items():
            for fname in names:
                orig = getattr(modules[modname], fname)
                traced = self.wrap(f"{modname}.{fname}", orig)
                for mod in modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, traced)
        np.linalg.svd = self.wrap_svd(np.linalg.svd)
        np.linalg.eigh = self.wrap("linalg.eigh", np.linalg.eigh)
        np.linalg.norm = self.wrap_norm(np.linalg.norm)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def per_layer_metrics(spans, n_items: int) -> dict:
    """The per-layer figures of a traced run. Totals are per item, so runs
    that complete different numbers of items compare; times of one call are
    means over the calls."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    agg = {}  # name -> [calls, total_s, self_s, size]
    for k, rec in enumerate(spans):
        if rec[ITEM] == SETUP:
            continue
        a = agg.setdefault(rec[NAME], [0, 0.0, 0.0, 0])
        dur = rec[END] - rec[START]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child[k]
        a[3] += rec[SIZE]

    def get(name, field):
        return agg.get(name, [0, 0.0, 0.0, 0])[field]

    per = max(n_items, 1)
    out = {}

    def put(name, unit, value):
        out[name] = {"value": value, "unit": unit}

    def calls(name, metric):
        put(metric, "count/item", get(name, 0) / per)

    def total_s(name, metric):
        put(metric, "s/item", get(name, 1) / per)

    def self_s(name, metric):
        put(metric, "s/item", get(name, 2) / per)

    def us_per_node(name, metric):
        nodes = get(name, 3)
        put(metric, "us/node", 1e6 * get(name, 2) / nodes if nodes else 0.0)

    calls("linalg.svd", "linalg.svd_calls")
    total_s("linalg.svd", "linalg.svd_s")
    put("linalg.svd_matrices", "count/item", get("linalg.svd", 3) / per)
    repeats = sum(1 for r in spans if r[NAME] == "linalg.svd" and r[ITEM] != SETUP
                  and r[FLAG] == "repeat")
    put("linalg.svd_repeat_calls", "count/item", repeats / per)
    calls("linalg.eigh", "linalg.eigh_calls")
    total_s("linalg.eigh", "linalg.eigh_s")
    calls("linalg.norm2", "linalg.norm2_calls")
    total_s("linalg.norm2", "linalg.norm2_s")

    for fn in ("polar_extension_1d", "polar_extension_2d_scalar"):
        self_s(f"gridalg.{fn}", f"gridalg.{fn}.self_s")
        us_per_node(f"gridalg.{fn}", f"gridalg.{fn}.us_per_node")
    calls("gridalg.decide_extension", "gridalg.decide_extension.calls")
    retries = sum(1 for r in spans if r[ITEM] != SETUP and r[FLAG] == "SpectralCollision"
                  and r[NAME] == "gridalg.polar_extension" and r[PARENT] >= 0
                  and spans[r[PARENT]][NAME] == "gridalg.decide_extension")
    put("gridalg.decide_extension.retries", "count/item", retries / per)
    total_s("gridalg.dist_to_regular", "gridalg.dist_to_regular.total_s")
    steps = sum(1 for r in spans if r[ITEM] != SETUP and r[NAME] == "gridalg.decide_extension"
                and r[PARENT] >= 0 and spans[r[PARENT]][NAME] == "gridalg.dist_to_regular")
    dists = get("gridalg.dist_to_regular", 0)
    put("gridalg.dist_to_regular.steps", "count/call", steps / dists if dists else 0.0)
    for fn in ("sup_norm", "lift_cutdown"):
        calls(f"gridalg.{fn}", f"gridalg.{fn}.calls")
        self_s(f"gridalg.{fn}", f"gridalg.{fn}.self_s")

    self_s("harness.check_equivalences", "harness.check_equivalences.self_s")
    for fn in ("check_condition3", "check_condition4", "regular_approximant"):
        total_s(f"harness.{fn}", f"harness.{fn}.total_s")

    for fn in ("polar", "apply_function", "abs_of", "hermitian_eig", "op_norm"):
        calls(f"opcore.{fn}", f"opcore.{fn}.calls")
        self_s(f"opcore.{fn}", f"opcore.{fn}.self_s")
    self_s("regularity.moore_penrose", "regularity.moore_penrose.self_s")
    calls("regularity.gap_certificate", "regularity.gap_certificate.calls")
    self_s("regularity.verify_penrose", "regularity.verify_penrose.self_s")

    pipe = [k for k, r in enumerate(spans)
            if r[NAME] == "pipeline.construct_partial_isometry" and r[ITEM] != SETUP]
    for n in (8, 64):
        durs = [spans[k][END] - spans[k][START] for k in pipe if spans[k][SIZE] == n]
        put(f"pipeline.construct_partial_isometry.total_ms_n{n}", "ms",
            1e3 * sum(durs) / len(durs) if durs else 0.0)
    # SVDs and eigendecompositions per run; the SVDs behind op_norm are
    # counted apart, in linalg.norm2_calls
    put("pipeline.factorizations_per_run", "count/call",
        _descendants(spans, set(pipe), ("linalg.svd", "linalg.eigh"))
        / len(pipe) if pipe else 0.0)

    put("gallery.generate_s", "s",
        sum(r[END] - r[START] for r in spans
            if r[ITEM] == SETUP and r[NAME].startswith("gallery.")))
    self_s("cli.run", "cli.run.self_s")
    put("serialize.self_s", "s/item",
        sum(v[2] for name, v in agg.items() if name.startswith("serialize.")) / per)
    return out


def _descendants(spans, roots: set, names) -> int:
    """Spans named in `names` that have an ancestor in `roots`. A parent is
    always recorded before its children, so one forward pass suffices."""
    under = []
    for rec in spans:
        p = rec[PARENT]
        under.append(p >= 0 and (p in roots or under[p]))
    return sum(1 for rec, inside in zip(spans, under) if inside and rec[NAME] in names)
