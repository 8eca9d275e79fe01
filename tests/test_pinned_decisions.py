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
from cstarreg.errors import PhaseUnwrapAliasing, SpectralCollision
from cstarreg.gridalg import (
    GridElement,
    decide_extension,
    disk_domain,
    dist_to_regular,
    interval_domain,
    sup_norm,
)

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


def _disk_decisions(ge, fractions=(0.25, 0.5, 0.75), levels=()) -> dict:
    """dist_to_regular at tol 0.02, then decide_extension at each fraction
    of the sup-norm and at each level; a decision that raises is pinned by
    the name of its exception."""
    top = sup_norm(ge)
    exact, close = [], list(dist_to_regular(ge, 0.02))
    for delta in [frac * top for frac in fractions] + list(levels):
        try:
            rep = decide_extension(ge, delta)
        except (SpectralCollision, PhaseUnwrapAliasing) as exc:
            exact.append({"raises": type(exc).__name__})
            continue
        exact.append({"exists": rep.exists, "obstruction": _obstruction(rep.obstruction)})
        close.append(rep.delta)
    return {"exact": exact, "close": close}


def _with_zeros(ge, rng) -> GridElement:
    """ge times (z - z1) conj(z - z2), with z1, z2 seeded off the centre:
    a charged quad around each, of charge +1 and -1."""
    radii, angles = ge.domain.coordinates()
    z = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    z1, z2 = rng.uniform(0.2, 0.8, 2) * np.exp(2j * np.pi * rng.random(2))
    f = ge.values[:, 0, 0] * (z - z1) * np.conj(z - z2)
    return GridElement(ge.domain, f.reshape(-1, 1, 1))


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
    # holes around charged quads off the centre: the hand-proved
    # (z - 0.3)(z + 0.3), also at the levels of its test, and seeded fields
    # times two seeded zeros, also at low levels, where some decisions alias
    dom = disk_domain(32, 128)
    radii, angles = dom.coordinates()
    z = radii[:, None] * np.exp(1j * angles[None, :])
    ge = GridElement(dom, ((z - 0.3) * (z + 0.3)).reshape(-1, 1, 1))
    records["(z - 0.3)(z + 0.3) 32 x 128"] = _disk_decisions(ge, levels=(0.0895, 0.08))
    for seed in range(2900, 2904):
        rng = np.random.default_rng(seed)
        ge = _with_zeros(gallery.random_scalar_field_2d(32, 128, rng, winding=seed % 4), rng)
        records[f"disk 32 x 128 seed {seed} with zeros"] = _disk_decisions(
            ge, fractions=(0.002, 0.01, 0.03, 0.1, 0.25, 0.5))
    # brackets bisected to float resolution on the CI disk files: winding 2
    # (d2.json), and winding 2 with two seeded zeros off the centre (dz.json)
    ge = gallery.random_scalar_field_2d(32, 128, np.random.default_rng(3), winding=2)
    records["winding-2 32 x 128 bracket at 1e-9"] = {"exact": [],
                                                     "close": list(dist_to_regular(ge, 1e-9))}
    rng = np.random.default_rng(2902)
    ge = _with_zeros(gallery.random_scalar_field_2d(32, 128, rng, winding=2), rng)
    records["disk 32 x 128 seed 2902 with zeros bracket at 1e-9"] = {
        "exact": [], "close": list(dist_to_regular(ge, 1e-9))}
    # scalar interval reports: exp(3i sin 2 pi t), whose witness fails its
    # bound above 10/11 and whose support is empty above 1, seeded fields at
    # the benchmark's fractions, and levels on a sample's |f| (nudged) and
    # above the sup-norm
    t = np.linspace(0.0, 1.0, 128)
    ge = GridElement(interval_domain(128), np.exp(3j * np.sin(2.0 * np.pi * t)).reshape(-1, 1, 1))
    records["exp(3i sin 2 pi t) 128"] = _report(ge, 0.0, [0.5, 0.9, 0.95, 0.99, 1.2])
    for n in (128, 256, 512):
        ge = gallery.random_scalar_field_1d(n, np.random.default_rng(3000 + n))
        records[f"interval {n} seed {3000 + n}"] = _report(
            ge, 0.0, [frac * sup_norm(ge) for frac in (0.25, 0.5, 0.75)], tol_bisect=0.005)
    ge = gallery.random_scalar_field_1d(128, np.random.default_rng(3001))
    mags = np.abs(ge.values[:, 0, 0])
    records["interval 128 seed 3001 nudged and above the sup-norm"] = _report(
        ge, 0.0, [float(mags[40]), float(mags[90]), 1.5 * float(mags.max())])
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
