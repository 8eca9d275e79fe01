"""Acceptance battery: eight end-to-end criteria, each printed as a single
PASS/FAIL line with its runtime. Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete."""

import time

import numpy as np

from cstarreg import gallery, harness, pipeline
from cstarreg.gridalg import (
    GridElement,
    decide_extension,
    dist_to_regular,
    no_polar_decomposition_witness,
    sup_norm,
    uniform_gap_regular,
)
from cstarreg.opcore import abs_of, op_norm, polar
from cstarreg.regularity import (
    block_factorize,
    block_regular_iff,
    conjugate_regular_witness,
    moore_penrose,
    verify_penrose,
)

from conftest import random_complex, random_with_condition
from test_regularity import _block_instance


def _finish(num, label, t0, budget, failures):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"\n[criterion {num}] {status} ({elapsed:.1f}s / budget {budget}s) {label}")
    for f in failures[:5]:
        print(f"    {f}")
    assert not failures, failures[:5]
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_polar_and_mp():
    """500 seeded matrices, sizes 2..16: polar reconstruction, MP inverse
    against the SVD pseudoinverse oracle, all four Penrose identities."""
    t0 = time.perf_counter()
    failures = []
    for seed in range(500):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 15
        a = random_complex(rng, n)
        parts = polar(a)
        if op_norm(parts.v @ parts.abs_a - a) > 1e-10 * (1 + op_norm(a)):
            failures.append(f"seed {seed}: polar reconstruction")
        mp = moore_penrose(a)
        if op_norm(mp - np.linalg.pinv(a)) > 1e-8:
            failures.append(f"seed {seed}: MP vs pinv oracle")
        if not verify_penrose(a, mp):
            failures.append(f"seed {seed}: Penrose identities")
    _finish(1, "polar + Moore-Penrose (500 seeds)", t0, 10.0, failures)


def test_criterion_2_conjugation():
    """200 seeded conjugation instances with condition numbers up to 1e3."""
    t0 = time.perf_counter()
    failures = []
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        n = 2 + seed % 7
        a = random_complex(rng, n)
        b = moore_penrose(a)
        cond_u = 10.0 ** rng.uniform(0, 3)
        cond_v = 10.0 ** rng.uniform(0, 3)
        u = random_with_condition(rng, n, cond_u)
        v = random_with_condition(rng, n, cond_v)
        try:
            c = conjugate_regular_witness(a, b, u, np.linalg.inv(u),
                                          v, np.linalg.inv(v))
        except Exception as exc:
            failures.append(f"seed {seed}: {exc}")
            continue
        uav = u @ a @ v
        tol = 1e-7 * cond_u * cond_v * 1.01
        if op_norm(uav @ c @ uav - uav) > tol * (1 + op_norm(uav)):
            failures.append(f"seed {seed}: propagated witness residual")
    _finish(2, "conjugation propagation (200 seeds)", t0, 5.0, failures)


def test_criterion_3_block_factorization():
    """200 seeded block instances: x = L D factorization and the regularity
    flag of x agrees with the flag of the lower corner."""
    t0 = time.perf_counter()
    failures = []
    for seed in range(200):
        rng = np.random.default_rng(2000 + seed)
        n = 4 + seed % 4
        rank = 1 + seed % (n - 1)
        x, p, q, a_dag = _block_instance(rng, n=n, rank=rank)
        try:
            ell, dd = block_factorize(x, p, q, a_dag)
        except Exception as exc:
            failures.append(f"seed {seed}: {exc}")
            continue
        if op_norm(ell @ dd - x) > 1e-8 * (1 + op_norm(x)):
            failures.append(f"seed {seed}: L D != x")
        x_reg, d_reg = block_regular_iff(x, p, q, a_dag)
        if x_reg != d_reg:
            failures.append(f"seed {seed}: flag disagreement")
    _finish(3, "block factorization (200 seeds)", t0, 5.0, failures)


def test_criterion_4_pipeline():
    """200 seeded pipeline runs at perturbation ratios 0.2/0.5/0.9: every
    intermediate identity within 1e-7, approximate polar error within 2*delta."""
    t0 = time.perf_counter()
    failures = []
    delta = 0.5
    for seed in range(200):
        rng = np.random.default_rng(3000 + seed)
        n = 2 + seed % 11
        ratio = (0.2, 0.5, 0.9)[seed % 3]
        a = random_complex(rng, n)
        a /= op_norm(a)
        y = random_complex(rng, n)
        y /= op_norm(y)
        x = a + ratio * delta * y
        try:
            trace = pipeline.construct_partial_isometry(a, x, delta)
        except Exception as exc:
            failures.append(f"seed {seed}: {exc}")
            continue
        if trace.max_residual() > 1e-7:
            worst = max(trace.checks, key=trace.checks.get)
            failures.append(f"seed {seed}: {worst}={trace.checks[worst]:.2e}")
        err = op_norm(a - trace.w @ abs_of(a))
        if err > 2 * delta + 1e-9:
            failures.append(f"seed {seed}: polar error {err:.3f} > 2 delta")
    _finish(4, "partial-isometry pipeline (200 seeds)", t0, 60.0, failures)


def test_criterion_5_oscillator():
    """t exp(i/t): distance to regular vanishes with the grid, all sweep
    conditions hold, and the phase-variation witness at least doubles per
    4x refinement."""
    t0 = time.perf_counter()
    failures = []
    variations = []
    for n in (256, 1024, 4096):
        ge = gallery.gallery("osc", n)
        lo, up = dist_to_regular(ge, 2.0 / n)
        if not (0.0 <= lo <= up <= 5.0 / n):
            failures.append(f"N={n}: bracket [{lo:.4g}, {up:.4g}] too wide")
        variations.append(no_polar_decomposition_witness(ge))
    ge = gallery.gallery("osc", 1024)
    rep = harness.check_equivalences(ge, 0.0, [0.05, 0.1, 0.2, 0.5],
                                     element_name="osc")
    if rep.verdict != "consistent":
        failures.append(f"verdict {rep.verdict}: {rep.inconsistencies}")
    for conds, label in ((rep.cond2, "2"), (rep.cond3, "3"), (rep.cond4, "4")):
        for c in conds:
            if not c.holds:
                failures.append(f"condition ({label}) failed at delta={c.delta}")
    for i in (1, 2):
        if variations[i] < 2.0 * variations[i - 1]:
            failures.append(f"variation ratio {variations[i] / variations[i - 1]:.2f} < 2")
    _finish(5, "oscillator distance + witness growth", t0, 30.0, failures)


def test_criterion_6_disk():
    """z on the disk: distance bracket around 1, winding obstruction of
    index exactly 1 below the distance, explicit regular approximant above."""
    t0 = time.perf_counter()
    failures = []
    ge = gallery.gallery("disk-z", 128)
    lo, up = dist_to_regular(ge, 0.02)
    if not (0.95 <= lo <= up <= 1.05):
        failures.append(f"bracket [{lo:.4g}, {up:.4g}] outside [0.95, 1.05]")
    for delta in (0.2, 0.5, 0.8):
        rep = decide_extension(ge, delta)
        if rep.exists:
            failures.append(f"delta={delta}: extension should not exist")
        elif rep.obstruction["windings"] != [1]:
            failures.append(f"delta={delta}: windings {rep.obstruction['windings']}")
    x, dist = harness.regular_approximant(ge, 1.02, 0.01)
    if dist > 1.02 + 1e-9:
        failures.append(f"approximant distance {dist:.4g} > 1.02")
    ok, _ = uniform_gap_regular(x, gap_min=0.009)
    if not ok:
        failures.append("approximant failed the gap check")
    _finish(6, "disk winding obstruction", t0, 60.0, failures)


def test_criterion_7_rankdrop():
    """diag(t, 1): not uniform-gap regular on the grid, distance to regular
    vanishes with the grid, extension witnesses exist within the modulus
    bound, explicit approximant diag(max(t, eps), 1) at distance eps."""
    t0 = time.perf_counter()
    failures = []
    n = 256
    ge = gallery.gallery("rankdrop", n)
    ok, _ = uniform_gap_regular(ge)
    if ok:
        failures.append("rankdrop reported uniform-gap regular")
    lo, up = dist_to_regular(ge, 2.0 / n)
    if up > 5.0 / n:
        failures.append(f"distance upper bound {up:.4g} > {5.0 / n:.4g}")
    for delta in (0.1, 0.3, 0.6):
        rep = decide_extension(ge, delta)
        if not rep.exists:
            failures.append(f"delta={delta}: no extension")
        elif rep.witness_modulus > rep.modulus_bound + 1e-9:
            failures.append(f"delta={delta}: modulus above bound")
    eps = 0.05
    t = np.linspace(0.0, 1.0, n)
    vals = np.zeros((n, 2, 2), dtype=np.complex128)
    vals[:, 0, 0] = np.maximum(t, eps)
    vals[:, 1, 1] = 1.0
    x = GridElement(domain=ge.domain, values=vals)
    ok, gap = uniform_gap_regular(x, gap_min=0.9 * eps)
    if not ok:
        failures.append(f"approximant gap {gap:.4g} below {0.9 * eps}")
    dist = sup_norm(GridElement(domain=ge.domain, values=x.values - ge.values))
    if dist > eps + 1e-12:
        failures.append(f"approximant distance {dist:.4g} > {eps}")
    _finish(7, "rank-drop element", t0, 10.0, failures)


def test_criterion_8_equivalence_verdicts():
    """Consistent four-condition verdicts across the whole gallery, 50 random
    1-D fields and 20 random disk fields (winding planted in a quarter)."""
    t0 = time.perf_counter()
    failures = []

    def check(ge, gamma, deltas, name):
        rep = harness.check_equivalences(ge, gamma, deltas, element_name=name)
        if rep.verdict != "consistent":
            failures.append(f"{name}: {rep.inconsistencies[:2]}")

    for name in ("osc", "osc-bounded", "linear", "const-unitary", "rankdrop"):
        check(gallery.gallery(name, 128), 0.0, [0.25, 0.5, 0.75], name)
    check(gallery.gallery("disk-z", 32), 0.9, [0.95], "disk-z")

    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        ge = gallery.random_scalar_field_1d(128, rng)
        top = sup_norm(ge)
        check(ge, 0.0, [0.25 * top, 0.5 * top, 0.75 * top], f"rand1d-{seed}")

    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        winding = 1 if seed % 4 == 0 else 0
        ge = gallery.random_scalar_field_2d(16, 64, rng, winding=winding)
        top = sup_norm(ge)
        check(ge, 0.0, [0.5 * top], f"rand2d-{seed}-w{winding}")

    _finish(8, "equivalence verdicts (gallery + 70 random)", t0, 120.0, failures)
