"""Decisions and brackets pinned in a file, so that a change that moves one
shows against the stored values and not only against a second run of the
same code.

Pinned exactly: verdicts, the cond2-cond4 flags, the cond4 path,
obstructions (without a witness `modulus`) and inconsistencies. Pinned to
1e-12 relative: brackets and the levels decided at. Witness moduli and ramp
residuals are not pinned; a better witness may move them.

The file is written by running this module:

    PYTHONPATH=src python3 tests/test_pinned_decisions.py

Write it again only for a change that is meant to move a decision, and say
which ones moved.
"""

import json
import math
from pathlib import Path

import numpy as np

from cstarreg import gallery, harness
from cstarreg.gridalg import decide_extension, dist_to_regular, sup_norm

PINNED = Path(__file__).resolve().parent / "data" / "pinned_decisions.json"
RTOL = 1e-12


def _obstruction(obs: dict | None):
    return None if obs is None else {k: v for k, v in obs.items() if k != "modulus"}


def _report(ge, gamma, deltas, tol_bisect=None) -> dict:
    rep = harness.check_equivalences(ge, gamma, deltas, tol_bisect=tol_bisect)
    exact = {
        "verdict": rep.verdict,
        "cond2": [c.holds for c in rep.cond2],
        "cond3": [c.holds for c in rep.cond3],
        "cond4": [c.holds for c in rep.cond4],
        "cond4_path": [c.detail.get("path") for c in rep.cond4],
        "obstructions": [[_obstruction(c.detail.get("obstruction")) for c in cs]
                         for cs in (rep.cond2, rep.cond3, rep.cond4)],
        "inconsistencies": rep.inconsistencies,
    }
    return {"exact": exact, "close": list(rep.cond1)}


def _disk_decisions(ge) -> dict:
    top = sup_norm(ge)
    exact, close = [], list(dist_to_regular(ge, 0.02))
    for frac in (0.25, 0.5, 0.75):
        rep = decide_extension(ge, frac * top)
        exact.append({"exists": rep.exists, "obstruction": _obstruction(rep.obstruction)})
        close.append(rep.delta)
    return {"exact": exact, "close": close}


def pinned_records() -> dict:
    """The records of the pinned file, computed by the code as it stands."""
    records = {}
    for name in ("osc", "osc-bounded", "linear", "const-unitary", "rankdrop"):
        records[f"gallery {name} 128"] = _report(
            gallery.gallery(name, 128), 0.0, [0.25, 0.5, 0.75])
    records["disk-z 32"] = _report(gallery.gallery("disk-z", 32), 0.9, [0.95])
    # the criterion-8 disk fields
    for seed in range(20):
        winding = 1 if seed % 4 == 0 else 0
        ge = gallery.random_scalar_field_2d(16, 64, np.random.default_rng(5000 + seed),
                                            winding=winding)
        records[f"criterion-8 disk {seed}"] = _report(ge, 0.0, [0.5 * sup_norm(ge)])
    # the winding-2 disk file of the CI report step, at theorem's default levels
    ge = gallery.random_scalar_field_2d(32, 128, np.random.default_rng(3), winding=2)
    top = sup_norm(ge)
    records["winding-2 32 x 128"] = _report(
        ge, 0.0, list(np.linspace(0.05 * top, 0.95 * top, 4)), tol_bisect=1e-3)
    for seed in range(16):
        ge = gallery.random_scalar_field_2d(32, 128, np.random.default_rng(2700 + seed),
                                            winding=seed % 4)
        records[f"disk 32 x 128 seed {2700 + seed}"] = _disk_decisions(ge)
    return records


def test_decisions_match_the_pinned_file():
    pinned = json.loads(PINNED.read_text())
    records = pinned_records()
    assert sorted(records) == sorted(pinned)
    for name, rec in records.items():
        # through JSON, as the file holds them: tuples become lists
        assert json.loads(json.dumps(rec["exact"])) == pinned[name]["exact"], name
        for got, want in zip(rec["close"], pinned[name]["close"], strict=True):
            assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), (name, got, want)


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(pinned_records(), indent=1, sort_keys=True) + "\n")
