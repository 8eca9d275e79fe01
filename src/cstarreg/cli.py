"""Scenario runner: gallery sweeps, file-based matrix operations and the
equivalence-report emitter.

Commands: polar | mp | cutdown | lemma3 | dist | theorem | suite.
Exit codes: 0 success, 1 input error, 2 verdict inconsistency.
Fixed seed and config produce byte-identical JSON reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import gallery as gallery_mod
from . import gridalg, harness, opcore, pipeline, regularity, serialize
from .errors import CstarRegError, InputParse, UnknownGalleryName

def seeded_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a / opcore.op_norm(a)


def load_matrix(path: str) -> np.ndarray:
    return serialize.matrix_from_dict(serialize.load_json(path))


def resolve_grid_input(name_or_path: str, grid_n: int) -> gridalg.GridElement:
    if name_or_path in gallery_mod.GALLERY_NAMES:
        return gallery_mod.gallery(name_or_path, grid_n)
    if os.path.exists(name_or_path):
        return serialize.grid_element_from_dict(serialize.load_json(name_or_path))
    raise UnknownGalleryName(
        f"{name_or_path!r} is neither a gallery name nor a readable file")


def _emit(report: dict, cfg: argparse.Namespace) -> None:
    if cfg.fmt == "csv" and "sweep" in report:
        text = "\n".join(serialize.sweep_csv_lines(report["sweep"])) + "\n"
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_polar(cfg: argparse.Namespace) -> int:
    a = load_matrix(cfg.input)
    parts = opcore.polar(a)
    _emit({
        "v": serialize.matrix_to_dict(parts.v),
        "abs": serialize.matrix_to_dict(parts.abs_a),
        "supp_right": serialize.matrix_to_dict(parts.supp_right),
        "supp_left": serialize.matrix_to_dict(parts.supp_left),
        "reconstruction_residual": opcore.op_norm(parts.v @ parts.abs_a - a),
    }, cfg)
    return 0


def cmd_mp(cfg: argparse.Namespace) -> int:
    a = load_matrix(cfg.input)
    mp = regularity.moore_penrose(a)
    _emit({
        "mp_inverse": serialize.matrix_to_dict(mp),
        "penrose_ok": regularity.verify_penrose(a, mp),
    }, cfg)
    return 0


def cmd_cutdown(cfg: argparse.Namespace) -> int:
    if cfg.delta is None:
        raise InputParse("cutdown needs --delta")
    a = load_matrix(cfg.input)
    cut = opcore.cutdown(a, cfg.delta)
    _emit({
        "delta": cfg.delta,
        "cutdown": serialize.matrix_to_dict(cut),
        "contraction": opcore.op_norm(a - cut),
    }, cfg)
    return 0


def cmd_lemma3(cfg: argparse.Namespace) -> int:
    delta = cfg.delta if cfg.delta is not None else 0.5
    rng = np.random.default_rng(cfg.seed)
    a = seeded_matrix(rng, cfg.n)
    y = seeded_matrix(rng, cfg.n)
    beta = 0.5 * delta
    x = a + beta * y
    trace = pipeline.construct_partial_isometry(a, x, delta)
    _emit({
        "seed": cfg.seed,
        "n": cfg.n,
        "beta": trace.beta,
        "gamma": trace.gamma,
        "delta": trace.delta,
        "short_circuit": trace.short_circuit,
        "checks": {k: float(v) for k, v in sorted(trace.checks.items())},
        "max_residual": float(trace.max_residual()),
        "w": serialize.matrix_to_dict(trace.w),
    }, cfg)
    return 0


def cmd_dist(cfg: argparse.Namespace) -> int:
    ge = resolve_grid_input(cfg.input, cfg.grid_n)
    lower, upper = gridalg.dist_to_regular(ge, cfg.tol)
    _emit({
        "element": cfg.input,
        "grid_n": cfg.grid_n,
        "tol": cfg.tol,
        "cond1": {"lower": lower, "upper": upper},
        "sup_norm": gridalg.sup_norm(ge),
    }, cfg)
    return 0


def cmd_theorem(cfg: argparse.Namespace) -> int:
    ge = resolve_grid_input(cfg.input, cfg.grid_n)
    if cfg.deltas:
        deltas = cfg.deltas
    else:
        top = gridalg.sup_norm(ge)
        lo = max(cfg.gamma + 0.05 * (top - cfg.gamma), 0.05)
        deltas = list(np.linspace(lo, top * 0.95, 4))
    report = harness.check_equivalences(ge, cfg.gamma, deltas,
                                        tol_bisect=cfg.tol,
                                        element_name=cfg.input)
    d = report.to_dict()
    d["sweep"] = [
        {"delta": dd, "cond2": c2.holds, "cond3": c3.holds, "cond4": c4.holds,
         "residual": c3.detail.get("max_ramp_residual", c3.detail.get("ramp_residual"))}
        for dd, c2, c3, c4 in zip(report.delta_grid, report.cond2,
                                  report.cond3, report.cond4)
    ]
    _emit(d, cfg)
    return 0 if report.verdict == "consistent" else 2


def cmd_suite(cfg: argparse.Namespace) -> int:
    results = {}
    worst = 0
    for name in ("const-unitary", "linear", "osc", "rankdrop"):
        ge = gallery_mod.gallery(name, cfg.grid_n)
        rep = harness.check_equivalences(ge, 0.0, [0.1, 0.3, 0.6],
                                         tol_bisect=cfg.tol, element_name=name)
        results[name] = rep.to_dict()
        if rep.verdict != "consistent":
            worst = 2
    disk = gallery_mod.gallery("disk-z", max(32, cfg.grid_n // 4))
    rep = harness.check_equivalences(disk, 0.9, [0.95],
                                     tol_bisect=cfg.tol, element_name="disk-z")
    results["disk-z"] = rep.to_dict()
    if rep.verdict != "consistent":
        worst = 2
    _emit({"suite": results, "ok": worst == 0}, cfg)
    return worst


COMMANDS = {
    "polar": cmd_polar,
    "mp": cmd_mp,
    "cutdown": cmd_cutdown,
    "lemma3": cmd_lemma3,
    "dist": cmd_dist,
    "theorem": cmd_theorem,
    "suite": cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cstarreg",
                                description=__doc__.splitlines()[0])
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--input", help="matrix/grid JSON file or gallery name")
    p.add_argument("--delta", type=float)
    p.add_argument("--deltas", help="comma-separated cut levels for theorem")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--gridN", dest="grid_n", type=int, default=256)
    p.add_argument("--n", type=int, default=8, help="matrix size for lemma3")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out_path")
    p.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    return p


# built once: the benchmark and the tests call main many times in one process,
# and a parse leaves no state on the parser
PARSER = build_parser()


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Validate the parsed options; --deltas becomes a list of floats."""
    if args.deltas is not None:
        try:
            args.deltas = [float(x) for x in args.deltas.split(",") if x.strip()]
        except ValueError as exc:
            raise InputParse(f"bad --deltas: {exc}") from exc
        if not args.deltas:
            raise InputParse("--deltas lists no cut level")
    if args.grid_n < 16:
        raise InputParse("--gridN must be at least 16")
    if args.n < 1:
        raise InputParse("--n must be at least 1")
    if not 0.0 < args.tol < np.inf:
        raise InputParse("--tol must be finite and positive")
    levels = [args.gamma, 0.0 if args.delta is None else args.delta, *(args.deltas or [])]
    if not np.all(np.isfinite(levels)):
        raise InputParse("--delta, --deltas and --gamma must be finite")
    return args


def run(cfg: argparse.Namespace) -> int:
    try:
        return COMMANDS[cfg.command](cfg)
    except (CstarRegError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except InputParse as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
