import math

import numpy as np
import pytest

from cstarreg import gallery, opcore
from cstarreg.errors import PhaseUnwrapAliasing, SpectralCollision
from cstarreg.gridalg import (
    GridElement,
    decide_extension,
    disk_domain,
    dist_to_regular,
    interval_domain,
    lift_cutdown,
    no_polar_decomposition_witness,
    polar_extension,
    polar_extension_1d,
    polar_extension_2d_scalar,
    sup_norm,
    uniform_gap_regular,
)


class TestDomains:
    def test_interval_too_small(self):
        with pytest.raises(ValueError):
            interval_domain(8)

    def test_disk_too_small(self):
        with pytest.raises(ValueError):
            disk_domain(16, 32)

    def test_sizes(self):
        assert interval_domain(100).size == 100
        assert disk_domain(16, 64).size == 16 * 64

    def test_disk_has_no_center_node(self):
        radii, _ = disk_domain(16, 64).coordinates()
        assert radii.min() > 0
        assert radii.max() == pytest.approx(1.0)

    def test_bad_value_shape(self):
        with pytest.raises(ValueError):
            GridElement(domain=interval_domain(16), values=np.zeros((15, 1, 1)))


class TestSpectrum:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_lapack(self, d):
        rng = np.random.default_rng(d)
        vals = rng.standard_normal((64, d, d)) + 1j * rng.standard_normal((64, d, d))
        vals[::7] = 0.0
        ge = GridElement(domain=interval_domain(64), values=vals)
        lapack_s = np.linalg.svd(vals, compute_uv=False)
        # before and after the spectrum is kept
        assert np.max(np.abs(ge.singular_values() - lapack_s)) <= 1e-12
        u, s, vh = ge.spectrum()
        assert np.max(np.abs(s - lapack_s)) <= 1e-12
        assert np.max(np.abs(ge.singular_values() - lapack_s)) <= 1e-12
        assert np.max(np.abs(np.einsum("kij,kj,kjl->kil", u, s, vh) - vals)) <= 1e-12
        eye = np.eye(d)
        assert np.max(np.abs(np.einsum("kji,kjl->kil", u.conj(), u) - eye)) <= 1e-12
        assert np.max(np.abs(np.einsum("kij,klj->kil", vh, vh.conj()) - eye)) <= 1e-12

    def test_scalar_phase(self):
        f = np.array([0.0, 2.0, -0.5, 3e-200, 0.3 + 0.4j, 0.0] * 4)
        ge = GridElement(domain=interval_domain(len(f)), values=f.reshape(-1, 1, 1))
        u, s, vh = ge.spectrum()
        phase = u[:, 0, 0]
        # as LAPACK: phase 1 at zeros, exactly 1 on real positive samples
        assert np.all(phase[f == 0] == 1.0)
        assert np.all(phase[(f.real > 0) & (f.imag == 0)] == 1.0)
        assert np.all(phase[f == -0.5] == -1.0)
        assert np.array_equal(s[:, 0], np.abs(f))
        assert np.all(vh == 1.0)


class TestSupNormAndLifts:
    def test_const(self):
        assert sup_norm(gallery.gallery("const-unitary", 64)) == pytest.approx(1.0)

    def test_linear(self):
        assert sup_norm(gallery.gallery("linear", 64)) == pytest.approx(1.0)

    def test_osc(self):
        assert sup_norm(gallery.gallery("osc", 256)) == pytest.approx(1.0)

    def test_singular_values_of_osc_are_t(self):
        ge = gallery.gallery("osc", 128)
        t = np.linspace(0.0, 1.0, 128)
        assert np.max(np.abs(ge.singular_values()[:, 0] - t)) <= 1e-12

    def test_lift_cutdown_pointwise(self):
        ge = gallery.gallery("osc", 128)
        t = np.linspace(0.0, 1.0, 128)
        out = lift_cutdown(ge, 0.1)
        expected = np.where(t > 0, np.maximum(t - 0.1, 0.0)
                            * np.exp(1j / np.maximum(t, 1e-300)), 0.0)
        assert np.max(np.abs(out.values[:, 0, 0] - expected)) <= 1e-12

    def test_lift_matches_pointwise_op(self):
        ge = gallery.gallery("rankdrop", 32)
        a = np.stack([opcore.cutdown(m, 0.3) for m in ge.values])
        b = lift_cutdown(ge, 0.3)
        assert sup_norm(GridElement(domain=ge.domain, values=a - b.values)) <= 1e-10

    def test_modulus_of_linear(self):
        ge = gallery.gallery("linear", 65)
        assert ge.modulus() == pytest.approx(1.0 / 64)


class TestUniformGap:
    def test_const_unitary_regular(self):
        ok, gap = uniform_gap_regular(gallery.gallery("const-unitary", 256))
        assert ok and gap == pytest.approx(1.0)

    def test_rankdrop_not_regular(self):
        ok, gap = uniform_gap_regular(gallery.gallery("rankdrop", 256))
        assert not ok
        assert gap == pytest.approx(1.0 / 255)

    def test_osc_not_regular(self):
        ok, _ = uniform_gap_regular(gallery.gallery("osc", 256))
        assert not ok

    def test_zero_element_regular(self):
        ge = GridElement(domain=interval_domain(32), values=np.zeros((32, 1, 1)))
        ok, gap = uniform_gap_regular(ge)
        assert ok and gap == np.inf


class TestExtension1d:
    @pytest.mark.parametrize("name", ["linear", "rankdrop", "osc"])
    def test_exists_with_pinned_agreement(self, name):
        ge = gallery.gallery(name, 256)
        rep = decide_extension(ge, 0.3)
        assert rep.exists
        assert rep.witness_modulus <= rep.modulus_bound + 1e-9
        # pointwise: w agrees with the polar part on the supported directions
        u, s, vh = np.linalg.svd(ge.values)
        keeps = s > 0.3
        for k in range(ge.domain.size):
            pinned = u[k][:, keeps[k]] @ vh[k][keeps[k], :]
            got = rep.witness.values[k] @ vh[k][keeps[k], :].conj().T @ vh[k][keeps[k], :]
            assert np.max(np.abs(got - pinned)) <= 1e-7

    def test_witness_is_pointwise_partial_isometry(self):
        ge = gallery.gallery("rankdrop", 128)
        rep = polar_extension_1d(ge, 0.4000001)
        w = rep.witness.values
        prod = np.einsum("kij,klj,klm->kim", w, w.conj(), w)
        assert np.max(np.abs(prod - w)) <= 1e-8

    def test_empty_support(self):
        ge = gallery.gallery("linear", 64)
        rep = polar_extension_1d(ge, 1.5)
        assert rep.exists

    def test_spectral_collision(self):
        ge = gallery.gallery("rankdrop", 64)
        with pytest.raises(SpectralCollision):
            polar_extension_1d(ge, 1.0)

    def test_wrong_domain(self):
        with pytest.raises(ValueError):
            polar_extension_1d(gallery.gallery("disk-z", 32), 0.5)


def _reference_transport(vals, delta):
    """The per-node Procrustes frame transport, for any d, with one LAPACK
    SVD per node pair: the reference for the scalar index fill."""
    npts, d, _ = vals.shape
    u_all, s_all, vh_all = np.linalg.svd(vals)
    keeps = s_all > delta

    def step(k, w_prev):
        u, vh, keep = u_all[k], vh_all[k], keeps[k]
        fixed = u[:, keep] @ vh[keep, :]
        bp = vh[~keep, :].conj().T
        bq = u[:, ~keep]
        if w_prev is None:
            return fixed + bq @ bp.conj().T
        m = bq.conj().T @ w_prev @ bp
        if not m.size:
            return fixed
        mu, _, mvh = np.linalg.svd(m)
        return fixed + bq @ (mu @ mvh) @ bp.conj().T

    w = np.empty_like(vals)
    supported = keeps.any(axis=1)
    if not supported.any():
        w[:] = step(0, None)
        return w
    k0 = int(np.argmax(supported))
    w[k0] = step(k0, None)
    for k in range(k0 + 1, npts):
        w[k] = step(k, w[k - 1])
    for k in range(k0 - 1, -1, -1):
        w[k] = step(k, w[k + 1])
    # interior runs of free nodes: geodesic between the flanking frames
    k = 0
    while k < npts:
        if supported[k]:
            k += 1
            continue
        start = k
        while k < npts and not supported[k]:
            k += 1
        if start == 0 or k == npts:
            continue
        w1, w2, count = w[start - 1], w[k], k - start
        evals, vecs = np.linalg.eig(w1.conj().T @ w2)
        vinv = np.linalg.inv(vecs)
        for i in range(count):
            frac = (i + 1.0) / (count + 1.0)
            uu, _, vv = np.linalg.svd(w1 @ (vecs * np.exp(1j * frac * np.angle(evals))) @ vinv)
            w[start + i] = uu @ vv
    return w


def _reference_bound(ge, delta):
    s = np.linalg.svd(ge.values, compute_uv=False).ravel()
    below = s[s < delta]
    spread = delta - (below.max() if below.size else 0.0)
    cut = np.stack([opcore.cutdown(m, delta) for m in ge.values])
    if spread <= 0:
        return math.inf
    return 10.0 * GridElement(domain=ge.domain, values=cut).modulus() / spread


def _assert_matches_reference(ge, delta):
    rep = polar_extension_1d(ge, delta)
    ref_w = _reference_transport(ge.values, delta)
    ref_mod = GridElement(domain=ge.domain, values=ref_w).modulus()
    ref_bound = _reference_bound(ge, delta)
    assert rep.witness_modulus == pytest.approx(ref_mod, rel=0, abs=1e-12)
    assert rep.modulus_bound == pytest.approx(ref_bound, rel=1e-12)
    assert rep.exists == (ref_mod <= ref_bound + 1e-9)
    if rep.exists:
        assert rep.obstruction is None
        assert np.max(np.abs(rep.witness.values - ref_w)) <= 1e-12
    else:
        assert rep.obstruction["kind"] == "frame-transport"
        assert rep.obstruction["modulus"] == rep.witness_modulus


CUT_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.1)  # 1.1: empty support


class TestScalarTransportMatchesProcrustes:
    @pytest.mark.parametrize("name", ["osc", "osc-bounded", "linear", "const-unitary",
                                      "rankdrop"])
    def test_gallery(self, name):
        ge = gallery.gallery(name, 128)  # 127 intervals: no node at a cut
        top = sup_norm(ge)
        for frac in CUT_FRACTIONS:
            _assert_matches_reference(ge, frac * top)

    def test_random_fields(self):
        for seed in range(50):
            ge = gallery.random_scalar_field_1d(128, np.random.default_rng(4000 + seed))
            top = sup_norm(ge)
            for frac in CUT_FRACTIONS:
                _assert_matches_reference(ge, frac * top)

    def test_linear_witness_is_exactly_one(self):
        rep = polar_extension_1d(gallery.gallery("linear", 128), 0.3)
        assert rep.witness_modulus == 0.0
        assert np.all(rep.witness.values == 1.0)


def _winding_oracle(ge, delta):
    """Independent winding count: summed principal-value angle increments
    along each full grid circle that lies inside the support."""
    dom = ge.domain
    f = ge.values[:, 0, 0].reshape(dom.n_radial, dom.n_angular)
    counts = set()
    for j in range(dom.n_radial):
        ring = f[j]
        if np.all(np.abs(ring) > delta):
            ph = np.angle(ring)
            d = np.diff(np.concatenate([ph, ph[:1]]))
            d = (d + np.pi) % (2.0 * np.pi) - np.pi
            k = int(round(np.sum(d) / (2.0 * np.pi)))
            if k != 0:
                counts.add(abs(k))
    return sorted(counts)


class TestExtension2d:
    def test_disk_z_winding_obstruction(self):
        ge = gallery.gallery("disk-z", 32)
        rep = polar_extension_2d_scalar(ge, 0.5 + 1e-6)
        assert not rep.exists
        assert rep.obstruction["kind"] == "winding"
        assert rep.obstruction["windings"] == [1]

    def test_const_unitary_disk_extends(self):
        dom = disk_domain(16, 64)
        ge = GridElement(domain=dom, values=np.ones((dom.size, 1, 1), complex))
        rep = polar_extension_2d_scalar(ge, 0.5)
        assert rep.exists
        assert np.max(np.abs(rep.witness.values - 1.0)) <= 1e-12

    def test_radial_magnitude_extends(self):
        ge = gallery.gallery("disk-z", 32)
        vals = np.abs(ge.values).astype(complex)
        rep = polar_extension_2d_scalar(GridElement(domain=ge.domain, values=vals),
                                        0.5 + 1e-6)
        assert rep.exists

    def test_dispatcher(self):
        rep = polar_extension(gallery.gallery("disk-z", 32), 0.5 + 1e-6)
        assert not rep.exists

    def test_aliasing_guard(self):
        dom = disk_domain(16, 64)
        _, angles = dom.coordinates()
        f = np.exp(1j * 20 * angles)[None, :] * np.ones((16, 1))
        ge = GridElement(domain=dom, values=f.reshape(-1, 1, 1))
        with pytest.raises(PhaseUnwrapAliasing):
            polar_extension_2d_scalar(ge, 0.5)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_fields_match_winding_oracle(self, seed):
        rng = np.random.default_rng(seed)
        winding = 1 if seed % 3 == 0 else 0
        ge = gallery.random_scalar_field_2d(16, 64, rng, winding=winding)
        delta = 0.5 * sup_norm(ge)
        rep = decide_extension(ge, delta)
        oracle = _winding_oracle(ge, delta)
        if rep.exists:
            assert oracle == []
        else:
            assert rep.obstruction["kind"] == "winding"
            # every ring winding found by the oracle is among the residues
            assert set(oracle) <= set(rep.obstruction["windings"])


class TestDistToRegular:
    def test_osc_distance_vanishes_with_grid(self):
        ge = gallery.gallery("osc", 256)
        lo, up = dist_to_regular(ge, 2.0 / 256)
        assert lo >= 0.0
        assert up <= 5.0 / 256

    def test_disk_z_distance_is_one(self):
        ge = gallery.gallery("disk-z", 32)
        lo, up = dist_to_regular(ge, 0.02)
        assert 0.9 <= lo <= up <= 1.1

    def test_const_unitary_distance_zero(self):
        ge = gallery.gallery("const-unitary", 64)
        lo, up = dist_to_regular(ge, 0.01)
        assert lo == 0.0
        assert up <= 0.01

    def test_bracket_ordering(self):
        ge = gallery.gallery("rankdrop", 128)
        lo, up = dist_to_regular(ge, 0.01)
        assert lo <= up <= lo + 0.011


def _matrix_field(rng, n, d):
    """Trig-polynomial C([0,1], M_d) field, multiplied on the right by
    1 + (t - t0 - 1) p p*, which drops rank at a seeded t0."""
    t = np.linspace(0.0, 1.0, n)[:, None, None]
    vals = np.tile(0.5 * np.eye(d, dtype=complex), (n, 1, 1))
    for k in range(3):
        a, b = (0.3 / (k + 1) ** 2 * (rng.standard_normal((2, d, d))
                                      + 1j * rng.standard_normal((2, d, d))))
        vals = vals + np.cos(np.pi * k * t) * a + np.sin(np.pi * k * t) * b
    p = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    p /= np.linalg.norm(p)
    vals = vals @ (np.eye(d) + (t - rng.uniform(0.2, 0.8) - 1.0) * np.outer(p, p.conj()))
    return GridElement(domain=interval_domain(n), values=vals)


def _monotone_case(kind, seed):
    rng = np.random.default_rng(6000 + seed)
    if kind == "scalar-interval":
        return gallery.random_scalar_field_1d(128, rng)
    if kind == "matrix-interval":
        return _matrix_field(rng, 64, 2 + seed % 2)
    return gallery.random_scalar_field_2d(16, 64, rng, winding=seed % 3)


class TestDecisionMonotone:
    @pytest.mark.parametrize("kind", ["scalar-interval", "matrix-interval", "disk"])
    @pytest.mark.parametrize("seed", range(4))
    def test_existence_monotone_in_cut_level(self, kind, seed):
        """Bisection in dist_to_regular rests on this: once an extension
        exists at a cut level, it exists at every higher level."""
        ge = _monotone_case(kind, seed)
        levels = np.linspace(0.0, 1.1, 34)[1:] * sup_norm(ge)
        flags = [decide_extension(ge, lv).exists for lv in levels]
        first = flags.index(True)
        assert all(flags[first:]), flags

    def test_disk_z_sweep(self):
        ge = gallery.gallery("disk-z", 32)
        flags = [decide_extension(ge, d).exists
                 for d in (0.2 + 1e-6, 0.5 + 1e-6, 0.8 + 1e-6, 1.05)]
        # obstruction active strictly below the distance, gone above
        assert flags == [False, False, False, True]


class TestWitnessVariation:
    def test_linear_has_none(self):
        assert no_polar_decomposition_witness(gallery.gallery("linear", 256)) == 0.0

    def test_bounded_oscillation_stays_bounded(self):
        v = [no_polar_decomposition_witness(gallery.gallery("osc-bounded", n))
             for n in (256, 1024, 4096)]
        assert max(v) <= 1.0 + 1e-9

    def test_osc_grows_under_refinement(self):
        v = [no_polar_decomposition_witness(gallery.gallery("osc", n))
             for n in (256, 1024, 4096)]
        assert v[0] > 10.0
        assert v[1] >= 2.0 * v[0]
        assert v[2] >= 2.0 * v[1]

    def test_wrong_domain(self):
        with pytest.raises(ValueError):
            no_polar_decomposition_witness(gallery.gallery("disk-z", 32))
