#!/usr/bin/env python3
"""Record one point of the performance trajectory in BENCH_<label>.json.

Run from anywhere; it works on the checkout this script sits in:

    python3 scripts/bench_record.py --label 6

It runs benchmark/run.py for every workload over seeds 1-5 at 20 seconds,
once untraced and once traced, one run at a time. The file holds, per workload, the median and interquartile range
of each end-to-end metric over the untraced runs, the per-layer figures of
the traced seed-1 run, and the correct/failed counts of every run; then the
wall time of the tier-1 tests and of `cstarreg suite --gridN 128`, and the
machine: nproc, Python, numpy and its BLAS build.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("interval-scalar", "interval-matrix", "disk-winding", "matrix-pipeline")
SEEDS = range(1, 6)
SECONDS = 20.0
# one BLAS thread for every child, as benchmark/run.py sets for itself
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONPATH": str(ROOT / "src")}


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def timed(cmd: list) -> dict:
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tail = out.stdout.strip().splitlines()[-1:] if out.stdout.strip() else []
    return {"wall_s": wall, "returncode": out.returncode, "last_line": tail[0] if tail else ""}


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": ENV["OPENBLAS_NUM_THREADS"],
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="written to BENCH_<label>.json")
    args = ap.parse_args(argv)

    workloads = {}
    for w in WORKLOADS:
        runs = {trace: {seed: bench(w, seed, trace) for seed in SEEDS}
                for trace in (0, 1)}
        metrics = runs[0][1]["metrics"]
        workloads[w] = {
            "end_to_end": {m: spread([runs[0][s]["metrics"][m]["value"] for s in SEEDS])
                           | {"unit": metrics[m]["unit"]} for m in metrics},
            "per_layer_seed1": runs[1][1]["metrics"],
            "runs": [{"seed": s, "trace": t, "correct": r["correct"],
                      "attempted": r["attempted"], "failed": r["failed"]}
                     for t, by_seed in runs.items() for s, r in by_seed.items()],
        }
        print(f"{w}: items_per_ref median "
              f"{workloads[w]['end_to_end']['items_per_ref']['median']:.4g}", file=sys.stderr)

    record = {
        "label": args.label, "seeds": list(SEEDS), "seconds": SECONDS,
        "workloads": workloads,
        "tier1": timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors"]),
        "suite_gridN128": timed([sys.executable, "-m", "cstarreg.cli", "suite",
                                 "--gridN", "128"]),
        "machine": machine(),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
