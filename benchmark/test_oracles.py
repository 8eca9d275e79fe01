"""Closed-form cases for the benchmark's oracles.

    python3 -m pytest benchmark/test_oracles.py
"""

import numpy as np
import pytest

import oracles


def polar_grid(nr, nt):
    r = ((np.arange(nr) + 1.0) / nr)[:, None] * np.ones((1, nt))
    theta = np.ones((nr, 1)) * (2.0 * np.pi * np.arange(nt) / nt)[None, :]
    return r, theta


def test_interval_bracket():
    assert oracles.interval_bracket_ok(0.0, 0.004, tol=0.005, h=0.01)
    assert oracles.interval_bracket_ok(0.0, 0.02, tol=0.005, h=0.01)
    assert not oracles.interval_bracket_ok(1e-3, 0.004, tol=0.005, h=0.01)
    assert not oracles.interval_bracket_ok(0.0, 0.03, tol=0.005, h=0.01)


def test_interval_conditions_skip_the_3h_band():
    deltas = [0.01, 0.2, 0.5]
    assert oracles.interval_conditions_ok(deltas, [False, True, True], [True] * 3,
                                          [True] * 3, h=0.01)
    assert not oracles.interval_conditions_ok(deltas, [True, True, True],
                                              [True, False, True], [True] * 3, h=0.01)


def test_disk_z_distance_is_one():
    r, _ = polar_grid(32, 64)
    assert oracles.disk_distance(r, 1) == 1.0


def test_no_winding_means_distance_zero():
    r, _ = polar_grid(16, 64)
    assert oracles.disk_distance(r, 0) == 0.0


def test_radial_profile_distance_is_its_maximum():
    # every path from ring 0 to the rim crosses every ring
    r, _ = polar_grid(20, 64)
    mags = r * (1.5 - r)
    assert oracles.disk_distance(mags, 2) == pytest.approx(mags.max())


def test_low_channel_sets_the_distance():
    r, _ = polar_grid(16, 64)
    mags = np.ones_like(r)
    mags[:, 5] = 0.3
    assert oracles.disk_distance(mags, 1) == 0.3


def test_diagonal_channel_connects_the_sub_level_set():
    # a 4-connected support cycle cannot cross a diagonal step, so the
    # sub-level set is 8-connected
    mags = np.ones((16, 64))
    for j in range(16):
        mags[j, j] = 0.25
    assert oracles.disk_distance(mags, 1) == 0.25


def test_approximant():
    f = np.full(10, 0.5 + 0.0j)
    assert oracles.approximant_ok(f, np.full(10, 0.55 + 0.0j), delta=0.04, eps=0.02)
    assert not oracles.approximant_ok(f, np.full(10, 0.6 + 0.0j), delta=0.04, eps=0.02)
    assert not oracles.approximant_ok(f, np.full(10, 0.01 + 0.0j), delta=0.5, eps=0.02)
    assert oracles.approximant_ok(f, np.zeros(10, dtype=complex), delta=0.5, eps=0.02)


def test_pipeline_output_on_a_diagonal():
    a = np.diag([1.0, 0.6, 0.2]).astype(complex)
    delta = 0.5
    assert oracles.pipeline_output_ok(a, np.eye(3, dtype=complex), delta)
    # free below the cut: flipping the direction with s = 0.2 < delta is allowed
    assert oracles.pipeline_output_ok(a, np.diag([1.0, 1.0, -1.0]).astype(complex), delta)
    # pinned above the cut
    assert not oracles.pipeline_output_ok(a, np.diag([1.0, -1.0, 1.0]).astype(complex), delta)
    # not a partial isometry
    assert not oracles.pipeline_output_ok(a, np.diag([1.0, 1.0, 0.5]).astype(complex), delta)


def test_pinv_drops_only_what_the_rank_cut_drops():
    pinv, kappa = oracles.pinv_at_rank_cut(np.diag([1.0, 1e-5, 1e-12]))
    assert np.allclose(pinv, np.diag([1.0, 1e5, 0.0]))
    assert kappa == pytest.approx(1e5)


def test_moore_penrose_in_the_rank_cut_band():
    a = np.diag([1.0, 1e-5]).astype(complex)
    assert oracles.moore_penrose_ok(a, np.diag([1.0, 1e5]).astype(complex))
    assert not oracles.moore_penrose_ok(a, np.diag([1.0, 0.0]).astype(complex))


def test_mp_tolerance_grows_with_kappa_and_is_capped():
    assert oracles.mp_tolerance(10.0, 8) < oracles.mp_tolerance(1e3, 8)
    assert oracles.mp_tolerance(1e8, 8) == oracles.MP_TOL_CAP


def test_matrix_with_spectrum():
    s = np.geomspace(1.0, 1e-6, 6)
    a = oracles.matrix_with_spectrum(np.random.default_rng(0), s)
    assert np.allclose(np.linalg.svd(a, compute_uv=False), s, rtol=1e-9, atol=1e-15)
