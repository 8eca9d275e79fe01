"""Benchmark of cstarreg, run from the root of a source checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Everything runs in this one process with one BLAS thread. Set-up (import of
the package from ./src, seeded input generation, one warm-up call per layer)
runs once before the first item and SETUP_REPEATS - 1 more times spread over
the run, between items; each is divided by the mean of the kernel timed just
before and after it, and the median, times kernel.REF_S, is `setup_s`. Items
run until S seconds have passed. Each item is cut into a few
segments; a segment's wall time is divided by the mean of the reference
kernel timed just before and just after it (see kernel.py), and the item's
cost is the sum. Every output is checked against oracles.py outside the timed
region.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 the public functions are wrapped in spans (spans.py) and the last
line carries the per-layer figures. A record of each run, and the spans of a
traced run, go to .bench_runs/ in the checkout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; two threads made first calls 15-20x slower

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import kernel  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
RECORD_DIR = ".bench_runs"
MODULES = ("opcore", "regularity", "pipeline", "gridalg", "harness", "gallery",
           "serialize", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import(src: Path) -> dict:
    """Import cstarreg from src anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "cstarreg" or m.startswith("cstarreg.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"cstarreg.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"cstarreg was imported from {origin}, not from {src}")
    return modules


def set_up(src, cls, seed, tracer=None):
    t0 = time.perf_counter()
    modules = fresh_import(src)
    if tracer is not None:
        tracer.install(modules)
        tracer.set_item(spans.SETUP)
    wl = cls(argparse.Namespace(**modules), seed)
    wl.warm_up()
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.set_item(None)
    return wl, setup_s


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cstarreg" / "__init__.py").is_file():
        sys.stderr.write(f"no cstarreg source under {src}; run from a checkout root\n")
        return 2
    sys.path.insert(0, str(src))
    cls = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None

    kernel.time_kernel()  # the kernel is loaded and warm before set-up starts
    k_prev = kernel.time_kernel()
    wl, setup_wall = set_up(src, cls, args.seed, tracer)
    setups = [(setup_wall, k_prev, kernel.time_kernel())]
    wl.plan()

    walls, costs, segs = [], [], []
    attempted = failed = unexpected = 0
    k_prev = kernel.time_kernel()
    start = time.perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.set_item(i)
        outs, wall, cost = [], 0.0, 0.0
        try:
            for segment in wl.segments(i):
                t0 = time.perf_counter()
                outs += segment()
                seg_wall = time.perf_counter() - t0
                k_next = kernel.time_kernel()
                segs.append((i, seg_wall, k_prev, k_next))
                wall += seg_wall
                cost += seg_wall / (0.5 * (k_prev + k_next))
                k_prev = k_next
        except Exception:
            traceback.print_exc()
            outs = None
        if tracer is not None:
            tracer.set_item(None)
        if outs is None:
            attempted += 1
            failed += 1
            unexpected += 1
        else:
            walls.append(wall)
            costs.append(cost)
            for ok, known_fault in wl.check(outs):
                attempted += 1
                if not ok:
                    failed += 1
                    unexpected += not known_fault
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds:
            break
        if len(setups) < SETUP_REPEATS and elapsed >= args.seconds * len(setups) / SETUP_REPEATS:
            setup_wall = set_up(src, cls, args.seed)[1]
            k_next = kernel.time_kernel()
            setups.append((setup_wall, k_prev, k_next))
            k_prev = k_next

    items_per_ref = len(costs) / sum(costs) if costs else 0.0
    if tracer is not None:
        metrics = spans.per_layer_metrics(tracer.spans, len(costs))
    else:
        metrics = {
            "setup_s": {"value": kernel.REF_S * statistics.median(
                w / (0.5 * (kb + ka)) for w, kb, ka in setups), "unit": "s"},
            "items_per_ref": {"value": items_per_ref, "unit": "1/ref"},
            "item_p50_ref": {"value": statistics.median(costs) if costs else 0.0,
                             "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    out_dir = root / RECORD_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args), "result": result,
        "setups": {"columns": ["wall_s", "kernel_before_s", "kernel_after_s"],
                   "rows": setups},
        "item_wall_s": walls, "item_cost_ref": costs,
        "segments": {"columns": ["item", "wall_s", "kernel_before_s", "kernel_after_s"],
                     "rows": segs},
        "items_per_ref": items_per_ref,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.jsonl.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
