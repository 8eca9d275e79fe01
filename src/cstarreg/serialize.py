"""JSON (de)serialization for matrices and grid elements, plus the CSV sweep
table. Matrix files carry separate real/imaginary parts row-major:

    {"rows": m, "cols": n, "re": [[...]], "im": [[...]]}

Grid element files:

    {"domain": {...}, "shape": [d, d], "points": [matrix, ...]}
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputParse
from .gridalg import NOT_FINITE, GridDomain, GridElement


def matrix_to_dict(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_dict(d: dict) -> np.ndarray:
    try:
        re = np.asarray(d["re"], dtype=np.float64)
        im = np.asarray(d["im"], dtype=np.float64)
        rows, cols = int(d["rows"]), int(d["cols"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParse(f"bad matrix JSON: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise InputParse(f"matrix JSON shape mismatch: {re.shape} vs ({rows}, {cols})")
    # part by part: re + 1j * im would turn an infinite part into a NaN, with a warning
    a = np.empty((rows, cols), dtype=np.complex128)
    a.real, a.imag = re, im
    return a


def domain_to_dict(dom: GridDomain) -> dict:
    if dom.kind == "interval-1d":
        return {"kind": dom.kind, "n_points": dom.n_points}
    return {"kind": dom.kind, "n_radial": dom.n_radial, "n_angular": dom.n_angular}


def domain_from_dict(d: dict) -> GridDomain:
    try:
        if d["kind"] == "interval-1d":
            return GridDomain(kind="interval-1d", n_points=int(d["n_points"]))
        return GridDomain(kind=d["kind"], n_radial=int(d["n_radial"]),
                          n_angular=int(d["n_angular"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParse(f"bad domain JSON: {exc}") from exc


def grid_element_to_dict(ge: GridElement) -> dict:
    d = ge.dim
    return {
        "domain": domain_to_dict(ge.domain),
        "shape": [d, d],
        "points": [matrix_to_dict(m) for m in ge.values],
    }


def grid_element_from_dict(d: dict) -> GridElement:
    if not isinstance(d, dict):
        raise InputParse(f"bad grid element JSON: expected an object, not {type(d).__name__}")
    dom = domain_from_dict(d.get("domain", {}))
    try:
        points = [matrix_from_dict(p) for p in d["points"]]
    except (KeyError, TypeError) as exc:
        raise InputParse(f"bad grid element JSON: {exc}") from exc
    if len(points) != dom.size:
        raise InputParse(f"bad grid element JSON: need {dom.size} points, got {len(points)}")
    shape = d.get("shape", list(points[0].shape) if points else None)
    for k, p in enumerate(points):
        if list(p.shape) != shape:
            raise InputParse(f"bad grid element JSON: point {k} has shape {list(p.shape)}, "
                             f"not {shape}")
    values = np.stack(points)
    if not np.all(np.isfinite(values)):
        raise InputParse(NOT_FINITE)
    return GridElement(domain=dom, values=values)


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputParse(f"cannot read {path}: {exc}") from exc


def sweep_csv_lines(rows) -> list[str]:
    """Per-delta sweep table: delta, cond2, cond3, cond4, residual, where
    residual is condition (3)'s bound on ||w f(|a|) - v f(|a|)||: its largest
    value over the sampled ramps f when (3) holds, the first bound that fails
    when it does not, and empty when no extension decision succeeds."""
    out = ["delta,cond2,cond3,cond4,residual"]
    for r in rows:
        residual = "" if r["residual"] is None else r["residual"]
        out.append(f"{r['delta']},{int(r['cond2'])},{int(r['cond3'])},"
                   f"{int(r['cond4'])},{residual}")
    return out
