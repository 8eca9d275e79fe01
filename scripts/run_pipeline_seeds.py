#!/usr/bin/env python3
"""Seeded sweep of the partial-isometry pipeline: residual statistics over
random matrices at several perturbation-to-cut ratios. Exits 1 when a worst
residual is above pipeline.CHECK_SCREEN or an approximate polar error is
above 2 delta (+ 1e-9 for rounding)."""

import argparse
import sys

import numpy as np

from cstarreg import opcore, pipeline


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--delta", type=float, default=0.5)
    args = ap.parse_args()

    worst = {}
    errs = []
    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 11
        ratio = (0.2, 0.5, 0.9)[seed % 3]
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= opcore.op_norm(a)
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y /= opcore.op_norm(y)
        x = a + ratio * args.delta * y
        trace = pipeline.construct_partial_isometry(a, x, args.delta)
        for k, v in trace.checks.items():
            worst[k] = max(worst.get(k, 0.0), v)
        _, err = pipeline.approx_polar_from_pipeline(a, x, args.delta)
        errs.append(err)

    print(f"{args.seeds} seeds, delta={args.delta}")
    for k in sorted(worst):
        print(f"  {k:24s} worst residual {worst[k]:.3e}")
    print(f"  approx polar error: median {np.median(errs):.4f}, "
          f"max {max(errs):.4f} (bound {2 * args.delta})")
    failed = sorted(k for k, v in worst.items() if v > pipeline.CHECK_SCREEN)
    if failed:
        print(f"FAIL: {', '.join(failed)} above {pipeline.CHECK_SCREEN:g}")
    if max(errs) > 2 * args.delta + 1e-9:
        print(f"FAIL: approx polar error {max(errs):.6g} above 2 delta")
        failed.append("approx_polar")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
