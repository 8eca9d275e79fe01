import math
import signal
from collections import Counter, deque
from contextlib import contextmanager
from functools import lru_cache
from operator import mul

import numpy as np
import pytest

from cstarreg import gallery, gridalg, harness, opcore
from cstarreg.errors import PhaseUnwrapAliasing, SpectralCollision
from cstarreg.gridalg import (
    ALIAS_GUARD,
    TOP_HEADROOM,
    WITNESS_MODULUS_MAX,
    GridElement,
    decide_extension,
    disk_domain,
    dist_to_regular,
    from_svd,
    guard_band,
    interval_domain,
    lift_cutdown,
    no_polar_decomposition_witness,
    polar_extension,
    polar_extension_1d,
    polar_extension_2d_scalar,
    sup_norm,
    uniform_gap_regular,
)

from conftest import matrix_field, random_complex, random_with_spectrum


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

    def test_singular_values_ignore_call_order(self):
        # LAPACK's values-only SVD and its full SVD can differ in the last
        # ulp; each quantity is read from a fresh element and from one whose
        # spectrum() ran first
        for seed in range(12):
            vals = matrix_field(np.random.default_rng(seed), 64, 2 + seed % 2).values

            def element(primed):
                ge = GridElement(domain=interval_domain(64), values=vals)
                if primed:
                    ge.spectrum()
                return ge
            assert sup_norm(element(False)) == sup_norm(element(True))
            assert dist_to_regular(element(False), 0.005) == dist_to_regular(element(True), 0.005)

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

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_lift_has_the_bits_of_from_svd(self, seed):
        """For d = 1 the cut-down skips the einsum, with the same bits:
        signed zero parts and nodes below the cut included."""
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        f[:8] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), -1.5, -1.5 - 0j, 2j, -2j, -0.25]
        ge = GridElement(domain=interval_domain(256), values=f.reshape(-1, 1, 1))
        u, s, vh = ge.spectrum()
        for delta in (0.0, 0.3, float(np.median(s)), float(s.max())):
            ref = from_svd(ge.domain, u, np.maximum(s - delta, 0.0), vh)
            assert lift_cutdown(ge, delta).values.tobytes() == ref.values.tobytes()

    def test_modulus_of_linear(self):
        ge = gallery.gallery("linear", 65)
        assert ge.modulus() == pytest.approx(1.0 / 64)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("routine", ["sup_norm", "uniform_gap_regular", "lift_cutdown"])
    def test_values_not_finite_raise(self, routine, d, bad):
        """A NaN or inf sample with d = 1, and an inf one with d = 2, whose
        SVD LAPACK returns as NaN without an error, made sup_norm NaN,
        uniform_gap_regular (True, inf) and lift_cutdown a NaN element. All
        three read s through the guard band now, which refuses them."""
        call = {"sup_norm": sup_norm, "uniform_gap_regular": uniform_gap_regular,
                "lift_cutdown": lambda ge: lift_cutdown(ge, 0.1)}[routine]
        values = np.tile(np.eye(d, dtype=complex), (16, 1, 1))
        values[5, 0, 0] = bad
        with pytest.raises(ValueError, match="grid values must be finite"):
            call(GridElement(domain=interval_domain(16), values=values))


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
    SVD per node pair and one per bridged node: the reference for the
    batched transport of `polar_extension_1d`."""
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


def _assert_matches_reference(ge, delta, check_bound=True):
    """Hold polar_extension_1d to the reference transport at delta; returns
    whether some interior run of nodes keeps no direction (a bridged run).
    Without `check_bound` the decision is held to the element's own bound:
    for d > 1 the per-node cut-downs of `_reference_bound` round differently
    from the batched one."""
    rep = polar_extension_1d(ge, delta)
    ref_w = _reference_transport(ge.values, delta)
    ref_mod = GridElement(domain=ge.domain, values=ref_w).modulus()
    bound = rep.modulus_bound
    if check_bound:
        bound = _reference_bound(ge, delta)
        assert rep.modulus_bound == pytest.approx(bound, rel=1e-12)
    assert rep.witness_modulus == pytest.approx(ref_mod, rel=0, abs=1e-12)
    assert rep.exists == (ref_mod <= bound + opcore.MODULUS_SLACK)
    if rep.exists:
        assert rep.obstruction is None
        assert np.max(np.abs(rep.witness.values - ref_w)) <= 1e-12
    else:
        assert rep.obstruction["kind"] == "frame-transport"
        assert rep.obstruction["modulus"] == rep.witness_modulus
    supported = np.flatnonzero(ge.singular_values()[:, 0] > delta)
    return supported.size > 0 and np.any(np.diff(supported) > 1)


CUT_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.1)  # 1.1: empty support


class TestTransportMatchesProcrustes:
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

    def test_matrix_fields(self):
        """d = 2, 3 with a rank drop: Procrustes steps at the nodes that keep
        some directions, and geodesic bridges over interior free runs."""
        bridged = 0
        for seed in range(12):
            ge = matrix_field(np.random.default_rng(7000 + seed), 64, 2 + seed % 2)
            top = sup_norm(ge)
            for frac in (*np.linspace(0.05, 0.95, 19), 1.1):
                bridged += _assert_matches_reference(ge, frac * top, check_bound=False)
        assert bridged > 0, bridged

    def test_linear_witness_is_exactly_one(self):
        rep = polar_extension_1d(gallery.gallery("linear", 128), 0.3)
        assert rep.witness_modulus == 0.0
        assert np.all(rep.witness.values == 1.0)

    def test_three_free_directions_take_the_svd(self, svd_inputs):
        """d = 4 cut above the second singular value somewhere: nodes that
        keep one direction have an r = 3 free block, polar by LAPACK."""
        shapes = set()
        for seed in range(4):
            ge = matrix_field(np.random.default_rng(7100 + seed), 64, 4)
            ge.spectrum()
            top = sup_norm(ge)
            for frac in np.linspace(0.1, 0.9, 9):
                start = len(svd_inputs)
                polar_extension_1d(ge, frac * top)
                shapes.update(shape for shape, _ in svd_inputs[start:])
                _assert_matches_reference(ge, frac * top, check_bound=False)
        assert (3, 3) in shapes, shapes

    def test_degenerate_free_block(self, svd_inputs):
        """d = 3, one kept direction: at node 32 the kept left direction
        swaps with a free one, so the free block against node 31 is
        [[0, 0], [0, 1]], det = 0, and the SVD fallback closes the step.
        A ramp in the third column then keeps the later frames moving."""
        n = 64
        vals = np.tile(np.diag([1.0, 0.2, 0.1]).astype(complex), (n, 1, 1))
        vals[32:] = np.eye(3)[:, [1, 0, 2]] @ np.diag([1.0, 0.2, 0.1])
        vals[32:] = vals[32:] + 0.004 * np.arange(n - 32)[:, None, None] * np.eye(3)[2]
        ge = GridElement(domain=interval_domain(n), values=vals)
        u, s, vh = ge.spectrum()
        w = gridalg._transport(u, vh, s > 0.5)
        assert ((2, 2), np.array([[0, 0], [0, 1]], dtype=complex).tobytes()) in svd_inputs
        assert w.tobytes() == _reference_frame_transport(u, vh, s > 0.5).tobytes()
        assert np.max(np.abs(w - _reference_transport(vals, 0.5))) <= 1e-12
        eye = np.eye(3)
        assert np.max(np.abs(np.einsum("kji,kjl->kil", w.conj(), w) - eye)) <= 1e-12


def _reference_polar_block(m):
    """The polar factor of a nested-list block as `_reference_frame_transport`
    takes it: m/|m| (1 at 0) for r = 1, the closed form for r = 2 above
    POLAR2_DET_FLOOR, LAPACK's SVD otherwise."""
    if len(m) == 1:
        y = m[0][0]
        return [[y / abs(y) if y else 1.0 + 0j]]
    if len(m) == 2:
        (a, b), (c, d) = m
        det = a * d - b * c
        adet = abs(det)
        fro2 = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
        if adet > gridalg.POLAR2_DET_FLOOR * fro2:
            ph = det / adet
            scale = 1.0 / math.sqrt(fro2 + 2.0 * adet)
            return [[(a + ph * d.conjugate()) * scale, (b - ph * c.conjugate()) * scale],
                    [(c - ph * b.conjugate()) * scale, (d + ph * a.conjugate()) * scale]]
    mu, _, mvh = np.linalg.svd(np.array(m))
    return (mu @ mvh).tolist()


def _reference_frame_transport(u, vh, keeps):
    """The frame-coordinate transport as it ran on nested lists: every entry
    a sum(map(mul, ...)), a dict of carried (m, U) blocks looked up by node,
    one numpy assignment of X per node. `gridalg._transport` must give its
    bytes."""
    npts, d, _ = u.shape
    w = u @ vh
    supported = keeps[:, 0]
    idx = np.arange(npts)
    k0 = int(np.argmax(supported))
    left = np.maximum.accumulate(np.where(supported, idx, k0))
    part = np.flatnonzero(supported & ~keeps[:, -1] & (idx > k0))
    if part.size:
        prev = left[part - 1]
        ts = (u[part].conj().transpose(0, 2, 1) @ u[prev]).tolist()
        scols = (vh[part].conj() @ vh[prev].transpose(0, 2, 1)).tolist()
        kept = keeps[part].sum(axis=1).tolist()
        carried = {}
        for k, p, m, t, cols in zip(part.tolist(), prev.tolist(), kept, ts, scols):
            cols = cols[m:]
            if p in carried:
                mp, up = carried[p]
                cols = [col[:mp] + [sum(map(mul, urow, col[mp:])) for urow in up]
                        for col in cols]
            carried[k] = m, _reference_polar_block([[sum(map(mul, row, col)) for col in cols]
                                                    for row in t[m:]])
        x = np.tile(np.eye(d, dtype=np.complex128), (part.size, 1, 1))
        for i, (m, up) in enumerate(carried.values()):
            x[i, m:, m:] = up
        w[part] = u[part] @ x @ vh[part]
    w = w.reshape(npts, d * d)[left].reshape(npts, d, d)
    right = np.minimum.accumulate(np.where(supported, idx, npts)[::-1])[::-1]
    bridged = (idx > left) & (right < npts)
    if bridged.any():
        lo, hi = left[bridged], right[bridged]
        w[bridged] = gridalg._geodesic(w[lo], w[hi], (idx[bridged] - lo) / (hi - lo))
    return w


def _loop_paths(keeps):
    """Counts of the paths through the transport loop that `keeps` takes:
    partial nodes whose kept count differs from that of the partial node
    chained before them, partial nodes with no partial node chained before
    them, r >= 3 free blocks, and interior runs of fully free nodes."""
    npts, d = keeps.shape
    supported = keeps[:, 0]
    idx = np.arange(npts)
    k0 = int(np.argmax(supported))
    left = np.maximum.accumulate(np.where(supported, idx, k0))
    part = np.flatnonzero(supported & ~keeps[:, -1] & (idx > k0))
    kept = keeps[part].sum(axis=1)
    chained = np.append(False, left[part[1:] - 1] == part[:-1])
    right = np.minimum.accumulate(np.where(supported, idx, npts)[::-1])[::-1]
    return Counter(changes=int(np.count_nonzero(chained[1:] & (kept[1:] != kept[:-1]))),
                   unchained=int(np.count_nonzero(~chained)),
                   r3=int(np.count_nonzero(d - kept >= 3)),
                   bridged=int(np.count_nonzero((idx > left) & (right < npts))))


class TestTransportMatchesLoop:
    """`_transport` against `_reference_frame_transport`, byte for byte."""

    def test_matrix_fields(self):
        """d = 2, 3, 4 fields with a planted rank drop, cut at 19 levels:
        every path of the loop is taken."""
        paths = Counter()
        for seed in range(6):
            for d in (2, 3, 4):
                ge = matrix_field(np.random.default_rng(7300 + seed), 64, d)
                u, s, vh = ge.spectrum()
                for frac in np.linspace(0.05, 0.95, 19):
                    keeps = s > frac * s.max()
                    w = gridalg._transport(u, vh, keeps)
                    assert w.tobytes() == _reference_frame_transport(u, vh, keeps).tobytes()
                    paths.update(_loop_paths(keeps))
        assert min(paths[k] for k in ("changes", "unchained", "r3", "bridged")) > 0, paths

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_nudged_cuts(self, d):
        """Cuts placed on a singular value, which decide_extension moves off
        the spectrum: the witness is the transport at the moved cut."""
        ge = matrix_field(np.random.default_rng(7400 + d), 64, d)
        u, s, vh = ge.spectrum()
        for k in range(4, 64, 12):
            for j in range(d):
                rep = decide_extension(ge, float(s[k, j]))
                assert rep.delta > s[k, j]
                ref = _reference_frame_transport(u, vh, s > rep.delta)
                if rep.exists:
                    assert rep.witness.values.tobytes() == ref.tobytes()
                assert rep.witness_modulus == _reference_modulus(
                    GridElement(domain=ge.domain, values=ref))

    @pytest.mark.parametrize("d", [2, 3])
    def test_negative_zero_parts(self, d):
        """A real field stored with -0.0 imaginary parts, cut at 19 levels:
        the frames have the reference's bytes."""
        n = 64
        t = np.linspace(0.0, 1.0, n)[:, None, None]
        rng = np.random.default_rng(7500 + d)
        a, b = rng.standard_normal((2, d, d))
        vals = np.empty((n, d, d), dtype=complex)
        vals.real = 0.5 * np.eye(d) + np.cos(np.pi * t) * a + np.sin(np.pi * t) * b
        vals.imag[:] = -0.0
        ge = GridElement(domain=interval_domain(n), values=vals)
        u, s, vh = ge.spectrum()
        paths = Counter()
        for frac in np.linspace(0.05, 0.95, 19):
            keeps = s > frac * s.max()
            w = gridalg._transport(u, vh, keeps)
            assert w.tobytes() == _reference_frame_transport(u, vh, keeps).tobytes()
            paths.update(_loop_paths(keeps))
        assert np.signbit(ge.values.imag).all() and paths["unchained"] > 0, paths

    def test_running_sums_are_dots(self):
        """`_heads` against `_dot` on vectors whose parts include -0.0 and
        +0.0: every running sum has the bits of `_dot` on the same prefix,
        signed zeros included. The frames cannot show a signed zero of a
        free block, as each entry of w = u X vh is a sum from +0.0."""
        rng = np.random.default_rng(7600)
        pick = np.array([-0.0, 0.0, -1.5, 0.75, 1e-300, 3.0])
        t, s = np.empty((2, 400, 3), dtype=complex)
        for z in (t, s):
            z.real, z.imag = pick[rng.integers(0, pick.size, (2, 400, 3))]
        ref = np.array([[gridalg._dot(row[:n], col[:n]) for n in range(1, 4)]
                        for row, col in zip(t.tolist(), s.tolist())])
        assert gridalg._heads(t, s)[:, 1:].tobytes() == ref.tobytes()


def _reference_modulus(ge):
    """GridElement.modulus with LAPACK's s1 of every jump, unscreened."""
    left, right = ge.domain.edge_arrays()
    diffs = ge.values[left] - ge.values[right]
    if diffs.size == 0:
        return 0.0
    if ge.dim == 1:
        return float(np.abs(diffs).max())
    return float(np.linalg.svd(diffs, compute_uv=False).max())


def _same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def _rank_one_jump(rng, n, d, at):
    """A smooth d x d field whose jumps are about 1e-9 but one, a rank-one
    jump x y* between nodes at - 1 and at."""
    ge = matrix_field(rng, n, d)
    vals = 1e-7 * ge.values
    vals[at:] += random_complex(rng, d, 1) @ random_complex(rng, d, 1).conj().T
    return GridElement(domain=ge.domain, values=vals)


def _max_jump_edge(ge):
    """The (left, right) nodes of the edge of `edge_arrays` whose scalar
    jump is largest."""
    left, right = ge.domain.edge_arrays()
    k = int(np.argmax(np.abs(ge.values[left, 0, 0] - ge.values[right, 0, 0])))
    return int(left[k]), int(right[k])


class TestScreenedModulus:
    """`GridElement.modulus` against `_reference_modulus`, bit for bit: for
    d > 1 with the SVDs that the screen leaves, for d = 1 read off slices of
    the layout in place of the edge gather."""

    def test_scalar_fields_cut_downs_and_witnesses(self):
        fields = [gallery.random_scalar_field_1d(n, np.random.default_rng(7800 + n))
                  for n in (16, 129)]
        fields += [gallery.random_scalar_field_2d(n, 4 * n, np.random.default_rng(7900 + n),
                                                  winding=n % 3) for n in (16, 32)]
        fields += [gallery.gallery(name, 32) for name in ("osc", "linear", "disk-z")]
        for ge in fields:
            assert _same_bits(ge.modulus(), _reference_modulus(ge))
            for frac in (0.2, 0.5, 0.8):
                rep = polar_extension(ge, gridalg._cleared(ge, frac * sup_norm(ge)))
                cut = lift_cutdown(ge, rep.delta)
                assert _same_bits(cut.modulus(), _reference_modulus(cut))
                if rep.witness is not None:
                    assert _same_bits(rep.witness_modulus, _reference_modulus(rep.witness))

    def test_scalar_maximum_on_the_seam(self):
        """exp(i theta / 2) steps by pi / nt along each ring but by about 2
        across the seam, from column nt - 1 back to column 0."""
        dom = disk_domain(16, 64)
        _, angles = dom.coordinates()
        ge = GridElement(domain=dom, values=np.tile(np.exp(0.5j * angles), 16).reshape(-1, 1, 1))
        assert _max_jump_edge(ge) == (63, 0)
        assert _same_bits(ge.modulus(), _reference_modulus(ge))

    def test_scalar_maximum_on_a_radial_edge_into_the_last_ring(self):
        """A smooth field with -1 at node (nr - 2, 5) and +1 at (nr - 1, 5):
        the jump of 2 between them is the largest."""
        dom = disk_domain(16, 64)
        ge = gallery.random_scalar_field_2d(16, 64, np.random.default_rng(7950))
        f = 0.25 * ge.values[:, 0, 0].reshape(16, 64)
        f[14, 5], f[15, 5] = -1.0, 1.0
        ge = GridElement(domain=dom, values=f.reshape(-1, 1, 1))
        assert _max_jump_edge(ge) == (14 * 64 + 5, 15 * 64 + 5)
        assert _same_bits(ge.modulus(), _reference_modulus(ge))

    @pytest.mark.parametrize("make", [lambda: gallery.gallery("osc", 32),
                                      lambda: gallery.gallery("disk-z", 32)],
                             ids=["interval", "disk"])
    def test_scalar_nan_sample(self, make):
        vals = make().values.copy()
        vals[7, 0, 0] = np.nan
        ge = GridElement(domain=make().domain, values=vals)
        assert math.isnan(ge.modulus()) and math.isnan(_reference_modulus(ge))

    def test_fields_cut_downs_and_witnesses(self):
        for seed in range(6):
            for d in (2, 3, 4):
                ge = matrix_field(np.random.default_rng(7500 + seed), 64, d)
                assert _same_bits(ge.modulus(), _reference_modulus(ge))
                for frac in (0.2, 0.5, 0.8):
                    rep = polar_extension_1d(ge, frac * sup_norm(ge))
                    cut = lift_cutdown(ge, rep.delta)
                    assert _same_bits(cut.modulus(), _reference_modulus(cut))
                    w = gridalg._frame_witness(ge, rep.delta)
                    assert _same_bits(rep.witness_modulus, _reference_modulus(w))

    def test_zero_jumps(self, linalg_calls):
        ge = GridElement(domain=interval_domain(32),
                         values=np.tile(np.diag([1.0, 0.5]).astype(complex), (32, 1, 1)))
        mod = ge.modulus()
        assert linalg_calls["svd"] == 0
        assert _same_bits(mod, _reference_modulus(ge)) and mod == 0.0

    def test_tied_maxima(self):
        """Jumps with the same bytes on every edge, and jumps diag(1, 1/2)
        and diag(1/2, 1) alternating: s1 = 1 on every edge."""
        steps = np.arange(32.0)[:, None, None]
        ramp = GridElement(domain=interval_domain(32),
                           values=steps * np.array([[0.5, 0.25j], [-1.0, 2.0]]))
        zigzag = np.tile(np.zeros((2, 2), dtype=complex), (32, 1, 1))
        zigzag[1::2] = np.diag([1.0, 0.5])
        zigzag[2::4] = np.diag([1.5, 1.5])
        alternating = GridElement(domain=interval_domain(32), values=zigzag)
        for ge in (ramp, alternating):
            assert _same_bits(ge.modulus(), _reference_modulus(ge))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_one_dominant_rank_one_jump(self, d):
        """A rank-one jump has both bounds equal to s1, so rounding can put
        its lower bound above its upper one: only the margin keeps it."""
        for seed in range(20):
            ge = _rank_one_jump(np.random.default_rng(7600 + seed), 64, d, 20 + seed)
            assert _same_bits(ge.modulus(), _reference_modulus(ge))

    def test_one_svd_call_on_the_dominant_jump(self, svd_inputs):
        n = 64
        ge = _rank_one_jump(np.random.default_rng(7700), n, 3, 40)
        start = len(svd_inputs)
        mod = ge.modulus()
        shapes = [shape for shape, _ in svd_inputs[start:]]
        assert len(shapes) == 1 and shapes[0][1:] == (3, 3) and shapes[0][0] < n - 1, shapes
        assert _same_bits(mod, _reference_modulus(ge))

    def test_values_not_finite_still_raise(self):
        vals = gallery.gallery("rankdrop", 32).values.copy()
        vals[5, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            GridElement(domain=interval_domain(32), values=vals).modulus()


EPS = np.finfo(np.float64).eps


def _assert_polar_factor(m):
    """gridalg._polar_block(m) against LAPACK: unitary to rounding, a
    backward-stable polar factor (its adjoint times m Hermitian positive
    semidefinite to eps ||m||), and within 16 eps s1/s2 of u vh of the SVD,
    the scale on which the complex polar factor itself moves under rounding
    of m. Returns the factor."""
    got = np.array(gridalg._polar_block(m.tolist()))
    mu, s, mvh = np.linalg.svd(m)
    r = len(m)
    assert np.max(np.abs(got.conj().T @ got - np.eye(r))) <= 1e-14
    h = got.conj().T @ m
    assert np.max(np.abs(h - h.conj().T)) <= 16 * EPS * s[0]
    assert np.linalg.eigvalsh(0.5 * (h + h.conj().T)).min() >= -16 * EPS * s[0]
    if s[-1] > 0:
        assert np.max(np.abs(got - mu @ mvh)) <= 16 * EPS * s[0] / s[-1]
    return got


class TestPolarBlock:
    def test_scalars(self, rng, linalg_calls):
        for y in [*(rng.standard_normal(50) + 1j * rng.standard_normal(50)), -2.0, 3e-300j]:
            y = complex(y)
            assert gridalg._polar_block([[y]]) == [[y / abs(y)]]
        assert gridalg._polar_block([[0j]]) == [[1.0]]  # as LAPACK
        assert linalg_calls["svd"] == 0

    def test_random_blocks_in_closed_form(self, rng, linalg_calls):
        blocks = [random_complex(rng, 2) * scale for scale in np.geomspace(1e-3, 1e3, 200)]
        factors = [np.array(gridalg._polar_block(m.tolist())) for m in blocks]
        assert linalg_calls["svd"] == 0
        for m, got in zip(blocks, factors):
            assert np.array_equal(_assert_polar_factor(m), got)

    @pytest.mark.parametrize("ratio", np.geomspace(1e-3, 1e-12, 10))
    def test_graded_blocks_in_closed_form(self, rng, linalg_calls, ratio):
        for _ in range(20):
            _, _, m = random_with_spectrum(rng, [1.0, ratio])
            start = linalg_calls["svd"]
            gridalg._polar_block(m.tolist())
            assert linalg_calls["svd"] == start  # above POLAR2_DET_FLOOR
            _assert_polar_factor(m)

    def test_singular_blocks_fall_back_to_a_unitary(self, rng, linalg_calls):
        x, y = random_complex(rng, 2, 1), random_complex(rng, 2, 1)
        blocks = [np.zeros((2, 2), dtype=complex), np.diag([1.0, 0.0]).astype(complex),
                  np.array([[0, 0], [0, 1]], dtype=complex), x @ y.conj().T,
                  np.array([[1, 1], [1, 1]], dtype=complex)]
        for m in blocks:
            start = linalg_calls["svd"]
            _assert_polar_factor(m)
            assert linalg_calls["svd"] == start + 2  # the fallback and the check

    def test_three_by_three_takes_the_svd(self, rng):
        m = random_complex(rng, 3)
        mu, _, mvh = np.linalg.svd(m)
        assert np.array_equal(np.array(gridalg._polar_block(m.tolist())), mu @ mvh)


@pytest.mark.parametrize("d", [2, 3])
def test_transport_svd_calls_do_not_grow_with_n(d, linalg_calls):
    """Only batched factorizations: the same number of SVD calls at 128
    and at 512 nodes."""
    calls = []
    for n in (128, 512):
        ge = matrix_field(np.random.default_rng(7200 + d), n, d)
        ge.spectrum()
        start = linalg_calls["svd"]
        rep = polar_extension_1d(ge, 0.5 * sup_norm(ge))
        calls.append(linalg_calls["svd"] - start)
        kept = (ge.singular_values() > rep.delta).sum(axis=1)
        assert np.count_nonzero((kept > 0) & (kept < d)) > n // 8
    assert calls[0] == calls[1], calls


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


@lru_cache(maxsize=4)
def _adjacency(dom):
    adj = [[] for _ in range(dom.size)]
    left, right = dom.edge_arrays()
    for i, j in zip(left.tolist(), right.tolist()):
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _reference_unwrap(ge, delta):
    """The breadth-first unwrap on the disk and the ring-bridge fill, the
    reference for the face-charge decision and the witness: (windings,
    witness values). The support phase is unwrapped along a BFS spanning
    forest, and every non-tree edge inside the support whose unwrapped ends
    disagree by 2 pi k, k != 0, is a winding residue. Without residues the
    unwrapped phase is bridged along the rings (`_reference_bridge`) and
    exponentiated, with f/|f| on the support."""
    dom = ge.domain
    f = ge.values[:, 0, 0]
    mags = np.abs(f)
    support = (mags > delta).tolist()
    phase = np.angle(f).tolist()
    adj = _adjacency(dom)
    two_pi = 2.0 * math.pi
    unwrapped = [0.0] * dom.size
    visited = [False] * dom.size
    residues = set()
    for start in range(dom.size):
        if not support[start] or visited[start]:
            continue
        visited[start] = True
        unwrapped[start] = phase[start]
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nb in adj[node]:
                if not support[nb]:
                    continue
                step = (phase[nb] - phase[node] + math.pi) % two_pi - math.pi
                if abs(step) > ALIAS_GUARD:
                    raise PhaseUnwrapAliasing(f"nodes {node} and {nb}")
                if visited[nb]:
                    k = round((unwrapped[node] + step - unwrapped[nb]) / two_pi)
                    if k:
                        residues.add(abs(k))
                    continue
                visited[nb] = True
                unwrapped[nb] = unwrapped[node] + step
                queue.append(nb)
    if residues:
        return sorted(residues), None
    if not any(support):
        return [], np.zeros(dom.size, dtype=complex)
    theta = _reference_bridge(unwrapped, support, dom.n_radial, dom.n_angular)
    w = np.exp(1j * np.array(theta))
    supp = mags > delta
    w[supp] = f[supp] / mags[supp]
    return [], w


def _reference_bridge(theta, support, nr, nt):
    """The ring-bridge fill node by node, on flat lists: along each ring
    with support, the free nodes strictly between cyclically consecutive
    supported columns a < b (b taken past the seam as b + nt) step linearly
    from theta at a to theta at b; a ring with no support copies the nearest
    ring with some, the inner one on a tie."""
    rings = {}
    for j in range(nr):
        row = theta[j * nt:(j + 1) * nt]
        cols = [m for m in range(nt) if support[j * nt + m]]
        if not cols:
            continue
        ring = list(row)
        for a, b in zip(cols, cols[1:] + [cols[0] + nt]):
            for k in range(1, b - a):
                ring[(a + k) % nt] = row[a] + (row[b % nt] - row[a]) * (k / (b - a))
        rings[j] = ring
    return [x for j in range(nr)
            for x in rings[min(rings, key=lambda i: (abs(i - j), i))]]


def _assert_matches_unwrap(ge, delta):
    """Same exists and obstruction as the BFS at the level actually decided
    at; the witness is unimodular (zero for an empty support), is f/|f| on
    the support, is the reference witness to 1e-12 and keeps its modulus
    within the bound."""
    try:
        rep = decide_extension(ge, delta)
    except PhaseUnwrapAliasing:
        with pytest.raises(PhaseUnwrapAliasing):
            _reference_unwrap(ge, delta)
        return "aliasing"
    windings, ref_w = _reference_unwrap(ge, rep.delta)
    if windings:
        assert not rep.exists
        assert rep.obstruction == {"kind": "winding", "windings": windings}
        return "winding"
    ref_mod = GridElement(domain=ge.domain, values=ref_w.reshape(-1, 1, 1)).modulus()
    assert rep.exists == (ref_mod <= rep.modulus_bound + opcore.MODULUS_SLACK)
    if not rep.exists:
        assert rep.obstruction["kind"] == "modulus"
        return "modulus"
    assert rep.obstruction is None
    assert rep.witness_modulus <= rep.modulus_bound + opcore.MODULUS_SLACK
    f = ge.values[:, 0, 0]
    w = rep.witness.values[:, 0, 0]
    supp = np.abs(f) > rep.delta
    if supp.any():
        assert np.max(np.abs(np.abs(w) - 1.0)) <= 1e-12
        assert np.max(np.abs(w[supp] - f[supp] / np.abs(f[supp]))) <= 1e-15
        assert np.max(np.abs(w - ref_w)) <= 1e-12
    else:
        assert not w.any()
    return "exists"


LEVELS = np.linspace(0.0, 1.05, 21)[1:]  # fractions of the sup-norm


class TestDecisionMatchesUnwrap:
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_disk_z(self, n):
        ge = gallery.gallery("disk-z", n)
        outcomes = [_assert_matches_unwrap(ge, lv) for lv in LEVELS]
        assert outcomes == ["winding"] * 19 + ["exists"]

    def test_random_fields(self):
        outcomes = Counter()
        for seed in range(100):
            ge = gallery.random_scalar_field_2d(16, 64, np.random.default_rng(7000 + seed),
                                                winding=seed % 4)
            top = sup_norm(ge)
            outcomes.update(_assert_matches_unwrap(ge, lv * top) for lv in LEVELS)
        # both verdicts occur, each often
        assert outcomes["winding"] >= 300 and outcomes["exists"] >= 300, outcomes

    def test_aliasing_on_the_same_inputs(self):
        """Phase steepest where |f| is smallest: the low cut levels take the
        aliased edges into the support, the high ones leave them out."""
        dom = disk_domain(16, 64)
        radii, angles = dom.coordinates()
        r, t = radii[:, None], angles[None, :]
        outcomes = Counter()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            phase = rng.uniform(10.0, 30.0) * r**3 * np.cos(t - rng.uniform(0, 2 * np.pi))
            f = (1.1 - r) * np.exp(1j * phase) * (r * np.exp(1j * t)) ** (seed % 3)
            ge = GridElement(domain=dom, values=f.reshape(-1, 1, 1))
            top = sup_norm(ge)
            outcomes.update(_assert_matches_unwrap(ge, lv * top) for lv in LEVELS)
        assert outcomes["aliasing"] >= 20 and outcomes["aliasing"] < sum(outcomes.values())


def _rim_circulation(f_grid):
    ph = np.angle(f_grid[-1])
    steps = (np.roll(ph, -1) - ph + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(steps.sum() / (2.0 * np.pi)))


class TestFaceCharges:
    def _charges(self, ge):
        kept = gridalg._disk_phase(ge)  # kept whether or not a step aliases
        quads = np.zeros(kept.rad.shape, dtype=np.int64)
        quads.flat[kept.charged] = kept.charges
        return quads, kept.centre

    @pytest.mark.parametrize("seed", range(8))
    def test_total_charge_is_rim_circulation(self, seed):
        rng = np.random.default_rng(seed)
        dom = disk_domain(16, 64)
        if seed % 2:  # phases with charges everywhere
            vals = np.exp(2j * np.pi * rng.random(dom.size))
            ge = GridElement(domain=dom, values=vals.reshape(-1, 1, 1))
        else:
            ge = gallery.random_scalar_field_2d(16, 64, rng, winding=seed % 4)
        quads, centre = self._charges(ge)
        f_grid = ge.values[:, 0, 0].reshape(dom.n_radial, dom.n_angular)
        assert int(quads.sum()) + centre == _rim_circulation(f_grid)
        if seed % 2 == 0:  # smooth phase times z^w: all charge at the centre
            assert centre == seed % 4 and not quads.any()

    def test_orientation(self):
        ge = gallery.gallery("disk-z", 32)
        assert self._charges(ge)[1] == 1
        conj = GridElement(domain=ge.domain, values=ge.values.conj())
        assert self._charges(conj)[1] == -1


def _disk_field(fn, n=32):
    dom = disk_domain(n, 4 * n)
    radii, angles = dom.coordinates()
    z = radii[:, None] * np.exp(1j * angles[None, :])
    return GridElement(domain=dom, values=fn(z).reshape(-1, 1, 1))


def _charged_quad_field():
    """A vortex at the middle of quad (16, 64), its corners set to exact
    quarter turns: every step is at most pi/2, so the quad is charged with
    all corners in the support, a hole on its own."""
    dom = disk_domain(32, 128)
    radii, angles = dom.coordinates()
    z = radii[:, None] * np.exp(1j * angles[None, :])
    corners = [(16, 64), (17, 64), (17, 65), (16, 65)]  # counterclockwise
    z0 = np.mean([z[c] for c in corners])
    f = (z - z0) / np.abs(z - z0)
    turn = int(np.round(np.angle(f[corners[0]]) / (np.pi / 2)))
    for i, c in enumerate(corners):
        f[c] = 1j ** ((turn + i) % 4)
    return GridElement(domain=dom, values=f.reshape(-1, 1, 1))


def _rim_channel(z):
    """(z - 0.08) h with h = 1 - 0.98 s(x) exp(-(y / 0.02)**2) > 0, s a
    smoothstep from 0 at x = 0 to 1 at x <= -0.02."""
    s = np.clip(-z.real / 0.02, 0.0, 1.0)
    return (z - 0.08) * (1.0 - 0.98 * s * s * (3 - 2 * s) * np.exp(-(z.imag / 0.02) ** 2))


# the fields of TestHandProvedWindings given by a formula in z (the other is
# _charged_quad_field)
HAND_PROVED = {
    "z^2": lambda z: z**2,
    "conj(z)": np.conj,
    "(z - 1/2)(z + 1/2)": lambda z: (z - 0.5) * (z + 0.5),
    "(z - 1/2) conj(z + 1/2)": lambda z: (z - 0.5) * np.conj(z + 0.5),
    "z conj(z - 1/2)": lambda z: z * np.conj(z - 0.5),
    "ring-0 arcs": lambda z: z * np.conj(z + 0.08) * (
        1.0 - 0.7 * np.exp(-np.abs(z - 0.03) ** 2 / 4e-4)),
    "(z - 0.3)(z + 0.3)": lambda z: (z - 0.3) * (z + 0.3),
    "rim channel": _rim_channel,
}


class TestHandProvedWindings:
    def _winding(self, ge, delta):
        rep = decide_extension(ge, delta)
        return None if rep.exists else rep.obstruction["windings"]

    def _field(self, formula):
        return _disk_field(HAND_PROVED[formula])

    def test_z_squared(self):
        assert self._winding(self._field("z^2"), 0.3) == [2]

    def test_z_bar(self):
        assert self._winding(self._field("conj(z)"), 0.3) == [1]

    def test_two_holes_of_charge_one(self):
        assert self._winding(self._field("(z - 1/2)(z + 1/2)"), 0.05) == [1]

    def test_opposite_charges_cancel_once_the_holes_merge(self):
        ge = self._field("(z - 1/2) conj(z + 1/2)")
        assert self._winding(ge, 0.05) == [1]
        assert self._winding(ge, 0.4) is None

    def test_centre_charge_cancels_a_quad_charge(self):
        """The centre polygon and the quads are oriented alike: the +1 at
        the centre and the -1 at 1/2 cancel once {|f| <= delta} joins them
        (at delta = 1/16)."""
        ge = self._field("z conj(z - 1/2)")
        assert self._winding(ge, 0.03) == [1]
        assert self._winding(ge, 0.2) is None

    def test_charged_quad_inside_the_support(self):
        ge = _charged_quad_field()
        assert _assert_matches_unwrap(ge, 0.5) == "winding"
        assert self._winding(ge, 0.5) == [1]

    def test_free_arcs_of_ring0_join_through_the_centre(self):
        """Ring 0 has two free arcs: one at a dip of |f| at angle 0, one
        running out to the zero of conj(z + 0.08). They are one hole through
        the centre polygon, holding the centre's +1 and that zero's -1."""
        assert _assert_matches_unwrap(self._field("ring-0 arcs"), 0.002) == "exists"

    def test_holes_joined_only_through_the_centre(self):
        """f = (z - 0.3)(z + 0.3) has one zero of charge +1 in each oval of
        {|f| <= delta}; the ovals meet only at delta = 0.09. At
        delta = 0.0895 each oval reaches inside ring 0 (r = 1/32) on its
        half of the real axis, as 0.09 - 1/32**2 < 0.0895, but not at
        theta = pi/2, as 0.09 + 1/32**2 > 0.0895: ring 0 has two free arcs,
        near 0 and near pi, joined only through the centre polygon, whose
        charge is 0. No support cycle separates them, so the two ovals are
        one hole of charge 2. At delta = 0.08 each oval ends at |z| = 0.1,
        ring 0 lies in the support, and the ovals are two holes of charge 1.
        Neither reaches the rim (|z| <= 0.17**0.5)."""
        ge = self._field("(z - 0.3)(z + 0.3)")
        assert self._winding(ge, 0.0895) == [2]
        assert self._winding(ge, 0.08) == [1]

    def test_hole_reaches_the_rim_only_through_the_centre(self):
        """The rim channel has the phase of z - 0.08, and the centre charge
        is 0. At delta = 0.06 the disk |z - 0.08| <= 0.06 holds the +1 and
        reaches ring 0 near theta = 0 (|1/32 - 0.08| < 0.06). The channel
        h = 0.02 on the negative real axis runs from ring 0 near theta = pi
        to the rim, as |f| <= 1.08 * 0.02 there. The two free arcs of ring 0
        meet only through the centre polygon, so the charged hole reaches
        the rim."""
        assert _assert_matches_unwrap(self._field("rim channel"), 0.06) == "exists"


def _reference_neighbour_table(dom, diagonal):
    """The 4- or 8-neighbour table of the disk nodes, as the floods below
    walked it: (j, m+1), (j, m-1), (j+1, m), (j-1, m), then with `diagonal`
    (j+1, m+1), (j+1, m-1), (j-1, m+1), (j-1, m-1); the angular index wraps
    and a missing radial neighbour is the sentinel `size`."""
    nr, nt = dom.n_radial, dom.n_angular
    idx = np.arange(dom.size).reshape(nr, nt)
    rim = np.full((1, nt), dom.size)
    outer, inner = np.concatenate([idx[1:], rim]), np.concatenate([rim, idx[:-1]])
    columns = [np.roll(idx, -1, axis=1), np.roll(idx, 1, axis=1), outer, inner]
    if diagonal:
        columns += [np.roll(ring, s, axis=1) for ring in (outer, inner) for s in (-1, 1)]
    return np.stack(columns, axis=-1).reshape(dom.size, -1)


def _layers(table, front, open_):
    """Breadth-first layers over `table` from the nodes `front`, which is
    the first layer. A node enters a later layer only while `open_` (one
    flag per node, then a False sentinel) is set for it, and its flag is
    cleared as it enters, so every node is yielded once."""
    open_[front] = False
    slot = np.empty(open_.size, dtype=np.intp)
    while front.size:
        yield front
        nbrs = table[front].ravel()
        nbrs = nbrs[open_[nbrs]]
        # a node reached from several front nodes keeps its last stamp only
        stamp = np.arange(nbrs.size)
        slot[nbrs] = stamp
        front = nbrs[slot[nbrs] == stamp]
        open_[front] = False


def _layered_fill(theta, support, table):
    """The breadth-first fill that the ring bridges replaced: theta
    extended from the support over the free nodes layer by layer, each node
    taking the mean theta of its neighbours filled before its layer."""
    theta = np.append(theta, 0.0)  # read only where filled
    filled = np.append(support, False)
    layers = _layers(table, np.flatnonzero(support), np.append(~support, False))
    next(layers)  # the support itself
    for layer in layers:
        around = table[layer]
        known = filled[around]
        theta[layer] = (theta[around] * known).sum(axis=1) / known.sum(axis=1)
        filled[layer] = True
    return theta[:-1]


def _reference_edge_jumps(dom, phase, support):
    """Integer jumps of the angular and radial edges, recomputed from the
    phase on every call; PhaseUnwrapAliasing for the first aliased edge
    inside the support."""
    left, right = dom.edge_arrays()
    dphi = phase[right] - phase[left]
    step = (dphi + np.pi) % (2.0 * np.pi) - np.pi
    aliased = support[left] & support[right] & (np.abs(step) > ALIAS_GUARD)
    if aliased.any():
        k = int(np.argmax(aliased))
        raise PhaseUnwrapAliasing(
            f"phase jump {abs(step[k]):.3f} > pi/2 between nodes {left[k]} and "
            f"{right[k]}; refine the grid")
    jump = np.rint((step - dphi) / (2.0 * np.pi)).astype(np.int64)
    nr, nt = dom.n_radial, dom.n_angular
    return jump[: nr * nt].reshape(nr, nt), jump[nr * nt:].reshape(nr - 1, nt)


def _reference_blocked_windings(quads, centre, free, table):
    """Blocked windings by one breadth-first flood per charged hole over the
    8-neighbour table: the reference for the run labelling."""
    charged = np.flatnonzero(quads)
    if not charged.size and centre == 0:
        return []
    corners = np.column_stack([charged, table[charged][:, [0, 2, 4]]])
    open_ = np.append(free.ravel(), False)
    free_corner = open_[corners]
    touches = free_corner.any(axis=1)
    values = quads.ravel()[charged]
    windings = set(np.abs(values[~touches]).tolist())
    first = corners[np.arange(charged.size), free_corner.argmax(axis=1)]
    charge = np.zeros(free.size, dtype=np.int64)
    np.add.at(charge, first[touches], values[touches])
    ring0 = np.flatnonzero(free[0])
    if ring0.size:
        charge[ring0[0]] += centre
    elif centre:
        windings.add(abs(centre))
    rim = free.size - free.shape[1]
    for front in [ring0, *np.flatnonzero(charge)[:, None]]:
        if front.size and open_[front[0]]:
            hole = np.concatenate(list(_layers(table, front, open_)))
            total = int(charge[hole].sum())
            if total and hole.max() < rim:
                windings.add(abs(total))
    return sorted(windings)


def _reference_layered_unwrap(phase, ang, rad, support, table):
    """phase + 2 pi n on the support by breadth-first layers over the
    4-neighbour table from the first node of each component, where n = 0:
    the reference for the unwrap by ring runs."""
    jumps = np.stack([ang, -np.roll(ang, 1, axis=1), np.pad(rad, ((0, 1), (0, 0))),
                      -np.pad(rad, ((1, 0), (0, 0)))], axis=-1).reshape(-1, 4)
    turns = np.zeros(support.size, dtype=np.int64)
    todo = np.append(support, False)
    reached = np.zeros_like(todo)
    while todo.any():
        layers = _layers(table, np.array([np.argmax(todo)]), todo)
        reached[next(layers)] = True
        for layer in layers:
            around = table[layer]
            k = reached[around].argmax(axis=1)
            turns[layer] = turns[around[np.arange(layer.size), k]] - jumps[layer, k]
            reached[layer] = True
    return phase + 2.0 * np.pi * turns


def _zero_field(rng, n):
    """A product over seeded points z_k of (z - z_k) or conj(z - z_k): zeros
    of charge +1 and -1 off the centre, whose holes merge as the level
    rises."""
    def fn(z):
        f = np.ones_like(z)
        for _ in range(4):
            zk = rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.random())
            f = f * ((z - zk) if rng.random() < 0.5 else np.conj(z - zk))
        return f
    return _disk_field(fn, n)


def _speckle_field(rng):
    """Seeded modulus and phase at every node of a 16 x 64 disk: charged
    quads and free nodes everywhere, with many holes that touch only
    diagonally."""
    dom = disk_domain(16, 64)
    f = rng.random(dom.size) * np.exp(2j * np.pi * rng.random(dom.size))
    return GridElement(domain=dom, values=f.reshape(-1, 1, 1))


def _seam_pair(z):
    """Zeros of charge +1 and -1 either side of the seam at angles +-0.1: the
    hole that holds both crosses the seam, and its total charge is 0."""
    return (z - 0.5 * np.exp(0.1j)) * np.conj(z - 0.5 * np.exp(-0.1j))


def _run_kernel_cases():
    """(element, levels) pairs: seeded fields of winding 0-3 at three sizes
    and seeded zero and speckle fields, at the 20 LEVELS of the sup-norm;
    disk-z, the seam pair and the hand-proved fields at the same levels and
    at the levels their tests name."""
    for n in (16, 32, 64):
        for seed in range(4):
            rng = np.random.default_rng(9100 + 10 * n + seed)
            yield gallery.random_scalar_field_2d(n, 4 * n, rng, winding=seed), LEVELS
    for seed in range(4):
        yield _zero_field(np.random.default_rng(9200 + seed), 32), LEVELS
        yield _speckle_field(np.random.default_rng(9300 + seed)), LEVELS
    yield gallery.gallery("disk-z", 32), LEVELS
    named = {"ring-0 arcs": [0.002], "(z - 0.3)(z + 0.3)": [0.0895, 0.08],
             "rim channel": [0.06]}
    for formula, fn in HAND_PROVED.items():
        ge = _disk_field(fn)
        yield ge, [*LEVELS, *(lv / sup_norm(ge) for lv in named.get(formula, []))]
    yield _disk_field(_seam_pair), LEVELS
    yield _charged_quad_field(), LEVELS


def _free_shapes(mask):
    """What the rings of an (nr, nt) mask hold: a run across the seam, a
    ring all set, a ring set nowhere."""
    full, empty = mask.all(axis=1), ~mask.any(axis=1)
    return {"seam run": bool((mask[:, 0] & mask[:, -1] & ~full).any()),
            "full ring": bool(full.any()), "empty ring": bool(empty.any())}


class TestRunKernelsMatchFloods:
    """`_blocked_windings` and `_unwrap` by ring runs against the breadth-
    first floods they replace: the same windings, and the same unwrapped
    phase byte for byte wherever no hole is blocked."""

    def test_windings_and_unwrap(self):
        seen = Counter()
        for ge, levels in _run_kernel_cases():
            dom = ge.domain
            f = ge.values[:, 0, 0]
            phase = np.angle(f)
            ang, rad = _reference_edge_jumps(dom, phase, np.zeros(dom.size, dtype=bool))
            quads, centre = rad + ang[1:] - np.roll(rad, -1, axis=1) - ang[:-1], int(ang[0].sum())
            kept = gridalg._disk_phase(ge)
            assert np.array_equal(kept.ang, ang) and np.array_equal(kept.rad, rad)
            top = sup_norm(ge)
            for lv in levels:
                support = np.abs(f) > lv * top
                free = ~support.reshape(dom.n_radial, dom.n_angular)
                windings = _reference_blocked_windings(
                    quads, centre, free, _reference_neighbour_table(dom, True))
                assert gridalg._blocked_windings(kept, free) == windings, (lv, windings)
                seen["blocked" if windings else "free"] += 1
                seen.update(f"free {k}" for k, v in _free_shapes(free).items() if v)
                if windings or support.all() or not support.any():
                    continue
                ref = _reference_layered_unwrap(phase, ang, rad, support,
                                                _reference_neighbour_table(dom, False))
                assert gridalg._unwrap(phase, kept, support).tobytes() == ref.tobytes(), lv
                seen["unwrapped"] += 1
                seen.update(f"support {k}" for k, v in
                            _free_shapes(~free).items() if v)
        for key in ("free seam run", "free full ring", "free empty ring",
                    "support seam run", "support full ring", "support empty ring"):
            assert seen[key] >= 20, seen
        assert seen["blocked"] >= 200 and seen["unwrapped"] >= 200, seen

    def test_seam_pair_merges_across_the_seam(self):
        """Below |z - 0.5 e^{0.1i}| |z - 0.5 e^{-0.1i}| ~ 0.0025 the two
        zeros sit in two holes of charge 1; above it one hole across the
        seam holds both, of charge 0."""
        ge = _disk_field(_seam_pair)
        assert decide_extension(ge, 0.0005).obstruction["windings"] == [1]
        assert decide_extension(ge, 0.05).exists


class TestRingBridges:
    """The disk witness off the support: ring bridges in closed form, and
    never a failed modulus check where the breadth-first fill they replaced
    passed."""

    def test_closed_form(self):
        seen = Counter()
        for ge, levels in _run_kernel_cases():
            nr, nt = ge.domain.n_radial, ge.domain.n_angular
            f = ge.values[:, 0, 0]
            s = np.abs(f)
            for lv in levels:
                try:
                    rep = decide_extension(ge, lv * s.max())
                except PhaseUnwrapAliasing:
                    continue
                if not rep.exists:
                    continue
                support = s > rep.delta
                w = rep.witness.values[:, 0, 0]
                if not support.any():
                    continue
                assert np.max(np.abs(np.abs(w) - 1.0)) <= 1e-12
                # u of spectrum() on the support, bit for bit
                assert w[support].tobytes() == gridalg._unit(f, s)[support].tobytes()
                if support.all():
                    continue
                supp = support.reshape(nr, nt)
                theta = gridalg._bridge(
                    gridalg._unwrap(np.angle(f), gridalg._disk_phase(ge), support), supp)
                assert w[~support].tobytes() == np.exp(1j * theta[~support]).tobytes()
                theta = theta.reshape(nr, nt)
                has = np.flatnonzero(supp.any(axis=1))
                for j in range(nr):
                    if not supp[j].any():
                        near = min(has, key=lambda i: (abs(i - j), i))
                        assert np.array_equal(theta[j], theta[near])
                        seen["copied ring"] += 1
                        continue
                    cols = np.flatnonzero(supp[j])
                    for a, b in zip(cols, [*cols[1:], cols[0] + nt]):
                        if b - a > 1:
                            run = theta[j, np.arange(a, b + 1) % nt]
                            step = (run[-1] - run[0]) / (b - a)
                            assert np.max(np.abs(np.diff(run) - step)) <= 1e-12
                            seen["seam run" if b >= nt else "bridged run"] += 1
        assert min(seen["copied ring"], seen["seam run"], seen["bridged run"]) >= 1000, seen

    def test_passes_where_the_layered_fill_passed(self):
        """On the probes of TestDecisionMatchesUnwrap.test_random_fields,
        the breadth-first witness, f/|f| on the support, passes its modulus
        bound only where the ring witness does; the ring witness passes at
        some probes where it failed."""
        seen = Counter()
        for seed in range(100):
            ge = gallery.random_scalar_field_2d(16, 64, np.random.default_rng(7000 + seed),
                                                winding=seed % 4)
            table = _reference_neighbour_table(ge.domain, False)
            f = ge.values[:, 0, 0]
            top = sup_norm(ge)
            for lv in LEVELS:
                try:
                    rep = decide_extension(ge, lv * top)
                except PhaseUnwrapAliasing:
                    continue
                support = np.abs(f) > rep.delta
                if (rep.obstruction or {}).get("kind") == "winding" or support.all() \
                        or not support.any():
                    continue
                theta = gridalg._unwrap(np.angle(f), gridalg._disk_phase(ge), support)
                layered = np.exp(1j * _layered_fill(theta, support, table))
                layered[support] = f[support] / np.abs(f[support])
                mod = GridElement(domain=ge.domain, values=layered.reshape(-1, 1, 1)).modulus()
                passed = mod <= rep.modulus_bound + opcore.MODULUS_SLACK
                assert rep.exists or not passed, (seed, lv)
                seen[(passed, rep.exists)] += 1
        assert seen[(True, True)] >= 1000 and seen[(False, True)] >= 20, seen


class TestMatrixDisk:
    @pytest.mark.parametrize("decide", [
        lambda ge: polar_extension(ge, 0.75), lambda ge: decide_extension(ge, 0.75),
        lambda ge: dist_to_regular(ge, 0.05)])
    def test_refused(self, decide):
        """The disk procedure is scalar only. polar_extension refuses a 2 x 2
        disk element before its cut, dist_to_regular after it, in
        `_decide_at`."""
        dom = disk_domain(16, 64)
        ge = GridElement(dom, np.tile(np.diag([1.0, 0.5]).astype(complex), (dom.size, 1, 1)))
        with pytest.raises(ValueError, match="needs a scalar disk element"):
            decide(ge)


class TestCutLevelProvenance:
    def test_level_kept_off_the_guard_band(self):
        rep = decide_extension(gallery.gallery("disk-z", 32), 0.3 + 1e-6)
        assert rep.delta == 0.3 + 1e-6

    @pytest.mark.parametrize("name, level", [("disk-z", 0.5), ("rankdrop", 1.0)])
    def test_cut_inside_guard_band_reports_moved_level(self, name, level):
        ge = gallery.gallery(name, 32)
        eta = guard_band(ge)
        with pytest.raises(SpectralCollision):
            polar_extension(ge, level)
        rep = decide_extension(ge, level)
        assert level + eta < rep.delta <= level + 3.0 * eta

    @pytest.mark.parametrize("name, level", [("disk-z", 0.5), ("rankdrop", 1.0),
                                             ("rankdrop", 0.3)])
    def test_one_polar_extension_per_decision(self, monkeypatch, name, level):
        """The level is cleared before the extension is built, so a colliding
        level costs no failed attempt."""
        levels = []
        orig = gridalg.polar_extension

        def recorded(ge, delta):
            levels.append(delta)
            return orig(ge, delta)
        monkeypatch.setattr(gridalg, "polar_extension", recorded)
        rep = decide_extension(gallery.gallery(name, 32), level)
        assert levels == [rep.delta]


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

    def test_stops_at_float_resolution(self, monkeypatch):
        """With tol_bisect below the float spacing at the distance, disk-z
        decided 0.9999999799999999 over and over; the bisection now stops
        within a guard band of the distance, its upper end a level that was
        decided as it stands. It used to end at two adjacent floats whose
        upper one was moved up to 1.00000006 before it was decided, so the
        bracket missed the smallest rim modulus. The cap on decisions turns
        a stall into a failure."""
        calls = Counter()
        orig = gridalg._extends

        def capped(ge, delta):
            calls["decisions"] += 1
            if calls["decisions"] > 200:
                raise RuntimeError("the bisection does not stop")
            return orig(ge, delta)
        monkeypatch.setattr(gridalg, "_extends", capped)
        ge = gallery.gallery("disk-z", 32)
        lo, up = dist_to_regular(ge, 1e-17)
        rim = np.abs(ge.values[-ge.domain.n_angular:, 0, 0]).min()
        assert lo <= rim <= up and up - lo <= 4.0 * guard_band(ge)
        rep = decide_extension(ge, up)
        assert rep.exists and rep.delta == up
        assert not decide_extension(ge, lo).exists

    @pytest.mark.parametrize("name, tol", [("disk-z", -1.0), ("linear", 0.0),
                                           ("linear", math.nan), ("linear", math.inf)])
    def test_rejects_tolerance_not_finite_positive(self, name, tol):
        """Below 0 the bisection on disk-z stalls on adjacent floats, at 0 it
        collapses the bracket of linear to (0, 0), NaN fails the first probe
        and inf returns (0, inf). The alarm turns a stall into a failure."""
        with _stall_alarm(10.0):
            with pytest.raises(ValueError, match="tol_bisect"):
                dist_to_regular(gallery.gallery(name, 32), tol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["osc", "rankdrop", "disk-z"])
    def test_rejects_values_not_finite(self, name, bad):
        """A NaN sample made the bracket (0, nan) on osc and disk-z and
        raised LinAlgError on rankdrop; an inf sample left hi = inf, so the
        bisection on osc never returned. Both are a ValueError now, from
        dist_to_regular and from decide_extension."""
        good = gallery.gallery(name, 32)
        values = good.values.copy()
        values[5, 0, 0] = bad
        with _stall_alarm(10.0):
            for decide in (lambda ge: dist_to_regular(ge, 0.02),
                           lambda ge: decide_extension(ge, 0.5)):
                with pytest.raises(ValueError, match="finite"):
                    decide(GridElement(domain=good.domain, values=values))


@contextmanager
def _stall_alarm(seconds):
    """Turns a call that does not return within `seconds` into a failure."""
    def stalled(signum, frame):
        raise TimeoutError("the call did not return")
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _reference_bisection(ge, tol_bisect):
    """dist_to_regular as plain bisection from (0, hi) on every domain: the
    reference for the lowest rung. Decides through the module, so a
    monkeypatched decide_extension reaches it too."""
    hi = sup_norm(ge) + max(tol_bisect, TOP_HEADROOM * guard_band(ge))
    assert gridalg.decide_extension(ge, hi).exists
    lo = 0.0
    while hi - lo > tol_bisect:
        mid = 0.5 * (lo + hi)
        if gridalg.decide_extension(ge, mid).exists:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _rung(ge, tol_bisect):
    rung = sup_norm(ge) + max(tol_bisect, TOP_HEADROOM * guard_band(ge))
    while rung > tol_bisect:
        rung *= 0.5
    return rung


def _asymmetric_zeros(z):
    return (z - 0.5001) * (z + 0.21)


# the rung's phase step aliases on these disk fields at these tolerances, at a
# level the bisection never probes
ALIASING_RUNGS = [(HAND_PROVED["(z - 0.3)(z + 0.3)"], 0.005), (_rim_channel, 0.02),
                  (_rim_channel, 0.005), (_asymmetric_zeros, 0.005)]


def _rung_cases():
    """The 1-D gallery, the criterion-8 fields, seeded matrix fields, disk-z,
    seeded disk fields of winding 0-3, the hand-proved disk fields and the
    fields of ALIASING_RUNGS."""
    for name in ("osc", "osc-bounded", "linear", "const-unitary", "rankdrop"):
        yield gallery.gallery(name, 128)
    for seed in range(50):  # the criterion-8 fields
        yield gallery.random_scalar_field_1d(128, np.random.default_rng(4000 + seed))
    for seed in range(16):
        yield matrix_field(np.random.default_rng(7300 + seed), 128, 2 + seed % 2)
    for n in (32, 64, 128):
        yield gallery.gallery("disk-z", n)
    for seed in range(20):  # the criterion-8 disk fields
        yield gallery.random_scalar_field_2d(16, 64, np.random.default_rng(5000 + seed),
                                             winding=1 if seed % 4 == 0 else 0)
    for seed in range(8):
        yield gallery.random_scalar_field_2d(32, 128, np.random.default_rng(8100 + seed),
                                             winding=seed % 4)
    for fn in HAND_PROVED.values():
        yield _disk_field(fn)
    yield _charged_quad_field()
    yield _disk_field(_asymmetric_zeros)


def _tolerances(ge):
    h2 = 2.0 * ge.domain.max_spacing()
    return (h2, 0.005) if ge.domain.kind == "interval-1d" else (0.02, h2, 0.005)


class TestLowestRung:
    def test_brackets_match_bisection(self):
        for ge in _rung_cases():
            for tol in _tolerances(ge):
                assert dist_to_regular(ge, tol) == _reference_bisection(ge, tol)

    @pytest.mark.parametrize("fn, tol", ALIASING_RUNGS,
                             ids=["ovals-0.005", "rim-0.02", "rim-0.005", "asymmetric-0.005"])
    def test_aliasing_rung_bisects(self, fn, tol):
        ge = _disk_field(fn)
        with pytest.raises(PhaseUnwrapAliasing):
            decide_extension(ge, _rung(ge, tol))
        assert dist_to_regular(ge, tol) == _reference_bisection(ge, tol)

    def test_one_decision_on_the_interval(self, monkeypatch):
        levels = []
        orig = gridalg._extends

        def recorded(ge, delta):
            levels.append(delta)
            return orig(ge, delta)
        monkeypatch.setattr(gridalg, "_extends", recorded)
        lo, up = dist_to_regular(gallery.gallery("osc", 128), 0.01)
        assert lo == 0.0 and levels == [up] and up <= 0.01

    @pytest.mark.parametrize("below, at_rung", [(True, "fails"), (False, "fails"),
                                                 (True, "collides"), (True, "aliases")])
    def test_failing_rung_bisects(self, monkeypatch, below, at_rung):
        """A rung that fails, collides or aliases hands over to the
        bisection: the bracket is the reference's, whether extensions also
        fail below 0.3 or only at the rung. The same rule patches the
        bisection's decision routine and, for the reference,
        decide_extension."""
        ge = gallery.gallery("rankdrop", 128)
        tol = 0.005
        rung = _rung(ge, tol)
        raised = {"collides": SpectralCollision, "aliases": PhaseUnwrapAliasing}

        def patch(name, failure):
            orig = getattr(gridalg, name)

            def patched(ge, delta):
                if delta == rung and at_rung in raised:
                    raise raised[at_rung]("at the rung")
                if delta == rung or below and delta < 0.3:
                    return failure
                return orig(ge, delta)
            monkeypatch.setattr(gridalg, name, patched)
        patch("_extends", False)
        patch("decide_extension", gridalg.ExtensionReport(
            exists=False, witness=None, obstruction={"kind": "patched"}))
        got = dist_to_regular(ge, tol)
        assert got == _reference_bisection(ge, tol)
        if below:
            assert 0.3 - tol <= got[0] < 0.3
        else:
            assert got[0] == rung

    def test_disk_decisions_unchanged(self, monkeypatch):
        """Never more decisions than the bisection, and one on a disk field
        at distance 0 (winding 0)."""
        counts = []
        for name in ("_extends", "decide_extension"):
            def counted(ge, delta, orig=getattr(gridalg, name)):
                counts[-1] += 1
                return orig(ge, delta)
            monkeypatch.setattr(gridalg, name, counted)
        winding0 = gallery.random_scalar_field_2d(32, 128, np.random.default_rng(8100))
        for ge, tol in [(gallery.gallery("disk-z", 32), 0.02),
                        (_disk_field(_rim_channel), 0.005), (winding0, 0.02)]:
            counts.append(0)
            dist_to_regular(ge, tol)
            counts.append(0)
            _reference_bisection(ge, tol)
            assert counts[-2] <= counts[-1], counts
        assert counts[-2] == 1  # the winding-0 field


class TestKeptPhaseData:
    def test_second_decision_computes_no_phase_data(self, monkeypatch):
        calls = Counter()
        for name in ("_wrapped_steps", "_face_charges"):
            def counted(*args, name=name, orig=getattr(gridalg, name)):
                calls[name] += 1
                return orig(*args)
            monkeypatch.setattr(gridalg, name, counted)
        ge = gallery.random_scalar_field_2d(32, 128, np.random.default_rng(8100), winding=1)
        top = sup_norm(ge)
        decide_extension(ge, 0.5 * top)
        assert calls == {"_wrapped_steps": 1, "_face_charges": 1}
        decide_extension(ge, 0.3 * top)
        decide_extension(ge, 0.9 * top)
        dist_to_regular(ge, 0.02)
        assert calls == {"_wrapped_steps": 1, "_face_charges": 1}

    def test_kept_arrays_are_compact(self):
        """Under 4 bytes per node on a 32 x 128 element: the kept data must
        not grow the memory of a pool of elements by the float phase."""
        for winding in range(4):
            ge = gallery.random_scalar_field_2d(32, 128, np.random.default_rng(8200 + winding),
                                                winding=winding)
            kept = gridalg._disk_phase(ge)
            held = sum(x.nbytes for x in kept if isinstance(x, np.ndarray))
            assert held < 4 * ge.domain.size, held

    @pytest.mark.parametrize("fn, tol, n", [*((fn, tol, 32) for fn, tol in ALIASING_RUNGS),
                                            *((lambda z, k=k: z**k, 0.02, 16)
                                              for k in (18, 20, 24, 28))])
    def test_aliasing_messages_match_reference(self, fn, tol, n):
        """At the aliasing rungs of test_aliasing_rung_bisects, and along the
        levels of z^k on 16 x 64 nodes, whose angular step k pi / 32 is over
        pi/2, the error is raised where the reference raises it, with the
        same message."""
        ge = _disk_field(fn, n)
        levels = [_rung(ge, tol), *(lv * sup_norm(ge) for lv in LEVELS)]
        raised = 0
        for level in levels:
            delta = gridalg._cleared(ge, level)
            f = ge.values[:, 0, 0]
            try:
                _reference_edge_jumps(ge.domain, np.angle(f), np.abs(f) > delta)
            except PhaseUnwrapAliasing as exc:
                with pytest.raises(PhaseUnwrapAliasing) as got:
                    decide_extension(ge, level)
                assert str(got.value) == str(exc)
                raised += 1
                continue
            decide_extension(ge, level)
        assert raised >= 1


def _same_decision(ge, delta, held):
    """decide_extension(ge, delta), once the bisection's decision routine
    `_extends` is seen to agree with it: the same flag, or the same
    exception (then None). `held` counts, per domain kind, the levels at
    which `_extends` built its witness, which it may only do below a modulus
    bound of WITNESS_MODULUS_MAX. Every witness that decide_extension builds
    has a modulus of at most WITNESS_MODULUS_MAX, to rounding: the premise
    on which `_extends` skips the witness above that bound."""
    try:
        rep = decide_extension(ge, delta)
    except (SpectralCollision, PhaseUnwrapAliasing) as exc:
        with pytest.raises(type(exc)):
            gridalg._extends(ge, delta)
        return None
    orig = gridalg._held_to_bound

    def counted(witness, bound, *rest):
        assert bound < WITNESS_MODULUS_MAX
        held[ge.domain.kind] += 1
        return orig(witness, bound, *rest)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridalg, "_held_to_bound", counted)
        assert gridalg._extends(ge, delta) == rep.exists, (delta, rep.obstruction)
    if rep.obstruction is None or rep.obstruction["kind"] != "winding":  # a witness was built
        assert rep.witness_modulus <= WITNESS_MODULUS_MAX + 1e-12
    return rep


class TestOneReadPerDecision:
    @pytest.mark.parametrize("make", [
        lambda: gallery.random_scalar_field_2d(32, 128, np.random.default_rng(8100)),
        lambda: gallery.gallery("rankdrop", 128)], ids=["disk-32x128", "rankdrop"])
    def test_one_collision_test_and_two_reads(self, monkeypatch, make):
        """One `_extends` call tests its level against the spectrum once and
        reads the singular values twice, once for the cut and once for the
        guard band (it read them five times, with two collision tests)."""
        ge = make()
        level = 0.5 * sup_norm(ge)
        calls = Counter()

        def counted(name, orig):
            def wrapper(*args):
                calls[name] += 1
                return orig(*args)
            return wrapper
        monkeypatch.setattr(GridElement, "singular_values",
                            counted("reads", GridElement.singular_values))
        monkeypatch.setattr(opcore, "_collides", counted("collides", opcore._collides))
        gridalg._extends(ge, level)
        assert calls["collides"] == 1 and calls["reads"] <= 2, calls

    @pytest.mark.parametrize("make", [
        lambda: gallery.random_scalar_field_2d(32, 128, np.random.default_rng(8100)),
        lambda: gallery.gallery("rankdrop", 128)], ids=["disk-32x128", "rankdrop"])
    def test_one_read_per_entry_point(self, monkeypatch, make):
        """`_extends`, `polar_extension` and `decide_extension` each read
        the singular values once and test the level once: decide_extension
        holds its element, so its `polar_extension` does not test the level
        it cleared again. No scalar decision rebuilds the spectrum. They
        read 2, 2 and 4 times, and each scalar one called `spectrum()`
        once; before it held its element, decide_extension read twice and
        tested twice."""
        ge = make()
        level = gridalg._cleared(ge, 0.5 * sup_norm(ge))
        calls = _count_reads(monkeypatch)
        for decide in (gridalg._extends, polar_extension, decide_extension):
            calls.clear()
            decide(ge, level)
            assert calls["reads"] == 1 and calls["collides"] == 1, (decide, calls)
            assert calls["spectrum"] == 0 or not ge.is_scalar, (decide, calls)

    def test_one_read_per_bisection_step(self, monkeypatch):
        """dist_to_regular reads the singular values at most once more than
        it decides, never rebuilds the scalar spectrum (14 reads and 2
        `spectrum()` calls for 6 decisions), and tests each level against
        the spectrum once: its decisions do not test the levels it cleared
        again (12 collision tests for 6 decisions)."""
        ge = gallery.random_scalar_field_2d(32, 128, np.random.default_rng(3), winding=2)
        calls = _count_reads(monkeypatch)
        monkeypatch.setattr(gridalg, "_extends", _counted(calls, "decisions", gridalg._extends))
        dist_to_regular(ge, 0.02)
        assert calls["decisions"] > 1 and calls["spectrum"] == 0, calls
        assert calls["reads"] <= 1 + calls["decisions"], calls
        assert calls["collides"] == calls["decisions"], calls


class TestOneSpectrumPerReport:
    @pytest.mark.parametrize("make, gamma, fractions", [
        (lambda: gallery.gallery("osc", 128), 0.0, (0.25, 0.5, 0.75)),
        (lambda: gallery.random_scalar_field_1d(256, np.random.default_rng(8300)),
         0.0, (0.25, 0.5, 0.75)),
        (lambda: gallery.gallery("disk-z", 32), 0.3, (0.5, 0.95))],
        ids=["osc-128", "random-256", "disk-z-32"])
    def test_one_build_and_one_read_per_report(self, monkeypatch, make, gamma, fractions):
        """One check_equivalences builds the scalar spectrum of its element
        once and reads the singular values at most once more than it
        decides, on any element (the derived elements of the no-witness
        paths read their own): the element's own values are read once.
        osc at 128 built it 10 times and read 9 times. The element keeps
        no hold and no scalar spectrum afterwards."""
        ge = make()
        deltas = [f * sup_norm(ge) for f in fractions]
        calls = Counter()

        def unit(f, s):
            calls["builds"] += np.shares_memory(f, ge.values)
            return orig_unit(f, s)

        def read(self):
            calls["reads"] += 1
            calls["own reads"] += self is ge
            return orig_read(self)
        orig_unit, orig_read = gridalg._unit, GridElement.singular_values
        monkeypatch.setattr(gridalg, "_unit", unit)
        monkeypatch.setattr(GridElement, "singular_values", read)
        monkeypatch.setattr(gridalg, "_decide_at", _counted(calls, "decisions", gridalg._decide_at))
        rep = harness.check_equivalences(ge, gamma, deltas)
        assert rep.verdict == "consistent"
        assert calls["builds"] == 1 and calls["own reads"] == 1, calls
        assert calls["reads"] <= 1 + calls["decisions"], calls
        assert ge._svd is None and ge._hold is None

    def test_hold_dropped_when_the_report_raises(self):
        ge = gallery.gallery("osc", 64)
        with pytest.raises(ValueError, match="exceed gamma"):
            harness.check_equivalences(ge, 0.5, [0.3, 0.7])
        assert ge._svd is None and ge._hold is None


def _counted(calls, name, orig):
    def wrapper(*args):
        calls[name] += 1
        return orig(*args)
    return wrapper


def _count_reads(monkeypatch):
    """A Counter of the `singular_values()` reads ("reads"), `spectrum()`
    calls and `opcore._collides` tests made from here on."""
    calls = Counter()
    monkeypatch.setattr(GridElement, "singular_values",
                        _counted(calls, "reads", GridElement.singular_values))
    monkeypatch.setattr(GridElement, "spectrum", _counted(calls, "spectrum", GridElement.spectrum))
    monkeypatch.setattr(opcore, "_collides", _counted(calls, "collides", opcore._collides))
    return calls


class TestExtendsMatchesDecision:
    def test_every_level_of_the_bisection(self):
        """The rung and every level of the plain bisection, on every rung
        case and tolerance; the witness is built and held to its bound on
        both domains at some of them."""
        held = Counter()
        for ge in _rung_cases():
            for tol in _tolerances(ge):
                _same_decision(ge, _rung(ge, tol), held)
                lo, hi = 0.0, sup_norm(ge) + max(tol, TOP_HEADROOM * guard_band(ge))
                assert _same_decision(ge, hi, held).exists
                while hi - lo > tol:
                    mid = 0.5 * (lo + hi)
                    if _same_decision(ge, mid, held).exists:
                        hi = mid
                    else:
                        lo = mid
        assert held["interval-1d"] > 0 and held["disk-2d-polar"] > 0, held

    @pytest.mark.parametrize("kind", ["interval-1d", "disk-2d-polar"])
    def test_witness_over_its_bound(self, kind):
        """f = exp(3i Re z) (exp(3i sin 2 pi t) on the interval) at delta =
        0.95: nothing lies below delta, so the bound is 10 (1 - delta) /
        delta = 0.53 times the modulus of the cut-down's phase, which is the
        witness. Both routines build it, and it fails its bound."""
        if kind == "interval-1d":
            dom = interval_domain(128)
            phase = 3.0 * np.sin(2.0 * np.pi * dom.coordinates())
        else:
            dom = disk_domain(32, 128)
            radii, angles = dom.coordinates()
            phase = 3.0 * np.outer(radii, np.cos(angles)).ravel()
        ge = GridElement(domain=dom, values=np.exp(1j * phase).reshape(-1, 1, 1))
        held = Counter()
        rep = _same_decision(ge, 0.95, held)
        assert not rep.exists and rep.obstruction["kind"] in ("frame-transport", "modulus")
        assert held == {kind: 1}


def _monotone_case(kind, seed):
    rng = np.random.default_rng(6000 + seed)
    if kind == "scalar-interval":
        return gallery.random_scalar_field_1d(128, rng)
    if kind == "matrix-interval":
        return matrix_field(rng, 64, 2 + seed % 2)
    return gallery.random_scalar_field_2d(16, 64, rng, winding=seed % 3)


class TestDecisionMonotone:
    @pytest.mark.parametrize("kind", ["scalar-interval", "matrix-interval", "disk"])
    @pytest.mark.parametrize("seed", range(4))
    def test_existence_monotone_in_cut_level(self, kind, seed):
        """Bisection in dist_to_regular rests on this: once an extension
        exists at a cut level, it exists at every higher level. Its decision
        routine agrees with decide_extension at every level."""
        ge = _monotone_case(kind, seed)
        levels = np.linspace(0.0, 1.1, 34)[1:] * sup_norm(ge)
        flags = [_same_decision(ge, lv, Counter()).exists for lv in levels]
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
