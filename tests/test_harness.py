import json
import math

import numpy as np
import pytest

from cstarreg import gallery, gridalg, opcore
from cstarreg.errors import NoWitness
from cstarreg.gridalg import (
    ExtensionReport,
    GridElement,
    decide_extension,
    dist_to_regular,
    from_svd,
    interval_domain,
    lift_cutdown,
    sup_norm,
    uniform_gap_regular,
)
from cstarreg.harness import (
    BRACKET_BAND,
    RAMP_PLATEAUS,
    RAMP_ROUNDING,
    RAMP_SLOPES,
    RAMP_TOL,
    ConditionResult,
    EquivalenceReport,
    _decide_polar_decomposable,
    _min_positive_singular,
    _ramp_bounds,
    _scalar_ramps,
    check_condition3,
    check_condition4,
    check_equivalences,
    regular_approximant,
)

from conftest import matrix_field


def _reference_condition3(ge, delta, cond2):
    """Condition (3) as a loop over the 25 sampled ramps: per ramp f, the
    sup over the nodes of ||w f(|a|) - v f(|a|)||, with v f(|a|) the element
    u f(s) vh and w the condition-(2) witness, or without one the witness of
    the one decision shared by every ramp. Returns (holds, residuals of shape
    (slopes, plateaus), w), or (False, None, None) when that decision fails."""
    u, s, vh = ge.spectrum()
    has_witness = cond2 is not None and cond2.exists and cond2.witness is not None
    if has_witness:
        w = cond2.witness.values
    else:
        f0 = np.minimum(np.maximum(s - delta, 0.0) * RAMP_SLOPES[0], RAMP_PLATEAUS[-1])
        shared = _decide_polar_decomposable(from_svd(ge.domain, u, f0, vh))
        if not shared.exists:
            return False, None, None
        w = shared.witness.values
    holds = True
    residuals = np.empty((RAMP_SLOPES.size, RAMP_PLATEAUS.size))
    for i, slope in enumerate(RAMP_SLOPES):
        for j, plateau in enumerate(RAMP_PLATEAUS):
            fs = np.minimum(np.maximum(s - delta, 0.0) * slope, plateau)
            fabs = np.einsum("kji,kj,kjl->kil", vh.conj(), fs, vh)
            diff = w @ fabs - from_svd(ge.domain, u, fs, vh).values
            residuals[i, j] = sup_norm(GridElement(domain=ge.domain, values=diff))
            if has_witness and residuals[i, j] > RAMP_TOL * (1.0 + fs.max()):
                holds = False
    return holds, residuals, w


def _reference_condition4(ge, delta):
    """Condition (4) as an independent decision: the extension machinery on
    the cut-down at half its smallest positive singular value."""
    rep = _decide_polar_decomposable(lift_cutdown(ge, delta))
    detail = {} if rep.obstruction is None else {"obstruction": rep.obstruction}
    return rep.exists, detail


def _direct_cut_residual(ge, delta, w):
    """sup over the nodes of ||w (|a| - delta)_+ - v (|a| - delta)_+||."""
    u, s, vh = ge.spectrum()
    cut = np.maximum(s - delta, 0.0)
    cut_abs = np.einsum("kji,kj,kjl->kil", vh.conj(), cut, vh)
    diff = w @ cut_abs - from_svd(ge.domain, u, cut, vh).values
    return sup_norm(GridElement(domain=ge.domain, values=diff))


def _gallery_cases():
    for name in ("osc", "osc-bounded", "linear", "const-unitary", "rankdrop"):
        for n in (64, 128, 256):
            ge = gallery.gallery(name, n)
            yield ge, np.linspace(0.1, 0.9, 5) * sup_norm(ge)


def _criterion_8_cases():
    for name in ("osc", "osc-bounded", "linear", "const-unitary", "rankdrop"):
        yield gallery.gallery(name, 128), [0.25, 0.5, 0.75]
    # winding 1 blocks every level below 1, so only verdicts are compared
    yield gallery.gallery("disk-z", 32), [0.5, 0.95]
    for seed in range(50):
        ge = gallery.random_scalar_field_1d(128, np.random.default_rng(4000 + seed))
        yield ge, np.array([0.25, 0.5, 0.75]) * sup_norm(ge)
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        ge = gallery.random_scalar_field_2d(16, 64, rng, winding=1 if seed % 4 == 0 else 0)
        yield ge, [0.5 * sup_norm(ge)]


def _matrix_cases():
    for seed in range(16):
        ge = matrix_field(np.random.default_rng(7000 + seed), 64, 2 + seed % 2)
        yield ge, np.linspace(0.1, 0.9, 5) * sup_norm(ge)


def _disk_z_cases():
    for n in (32, 64):
        # below the distance 1 (2) fails; above the sup-norm the support is empty
        yield gallery.gallery("disk-z", n), [0.3, 0.5, 0.95, 1.05]


def _rank_drop_cases():
    """Seeded interval fields with d = 1, 2, 3: a scalar field times t - t0,
    which vanishes at a seeded t0, and `matrix_field`'s planted drop."""
    for seed in range(8):
        rng = np.random.default_rng(8000 + seed)
        for d in (1, 2, 3):
            if d == 1:
                ge = gallery.random_scalar_field_1d(128, rng)
                t = np.linspace(0.0, 1.0, 128)[:, None, None]
                ge = GridElement(domain=ge.domain, values=ge.values * (t - rng.uniform(0.2, 0.8)))
            else:
                ge = matrix_field(rng, 128, d)
            yield ge, np.linspace(0.1, 0.9, 5) * sup_norm(ge)


class TestCondition3Bound:
    @pytest.mark.parametrize("cases", [_gallery_cases, _criterion_8_cases, _matrix_cases],
                             ids=["gallery", "criterion-8", "matrix-fields"])
    def test_bound_covers_every_sampled_ramp(self, cases):
        bounded = 0
        for ge, deltas in cases():
            for delta in deltas:
                rep2 = decide_extension(ge, delta)
                holds, residuals, w = _reference_condition3(ge, delta, rep2)
                assert check_condition3(ge, delta, rep2).holds == holds
                if residuals is not None:
                    (bounds, _), (cut, _) = _bounds(ge, delta, w)
                    assert np.all(bounds >= residuals)
                    assert cut >= _direct_cut_residual(ge, delta, w)
                    bounded += 1
        assert bounded > 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_nudged_cut_weights_each_direction_by_its_own_ramp(self, d):
        # decide_extension moves the cut 0.6 to 0.60000004. On osc at 256
        # nodes, node 153 has s = 0.6 + 1 ulp: above the ramps' delta, so
        # f(s) > 0 there, but free for the witness, where |w - v| = 0.011.
        # Its own f(s) is below 1e-13. Weighted by the largest f over the
        # nodes (d = 1), or by f(0.9) at the same node for diag(osc, 0.9)
        # (d = 2), it would fail condition (3).
        osc = gallery.gallery("osc", 256)
        vals = np.zeros((256, d, d), dtype=complex)
        vals[:, 0, 0] = osc.values[:, 0, 0]
        vals[:, 1:, 1:] = 0.9 * np.eye(d - 1)
        ge = GridElement(domain=osc.domain, values=vals)
        rep2 = decide_extension(ge, 0.6)
        assert rep2.delta > 0.6
        c3 = check_condition3(ge, 0.6, rep2)
        assert c3.holds and c3.detail["max_ramp_residual"] < 1e-12
        assert _reference_condition3(ge, 0.6, rep2)[0]
        # the cut ramp (t - 0.6)_+ weights that direction by its own s - 0.6 too
        c4 = check_condition4(ge, 0.6, c3)
        assert c4.holds and c4.detail["path"] == "witness"
        assert _direct_cut_residual(ge, 0.6, rep2.witness.values) <= c4.detail["cut_residual"] < 1e-12
        assert check_equivalences(ge, 0.0, [0.6]).verdict == "consistent"


def _reference_ramp_bounds(ge, delta, w):
    """`_ramp_bounds` with the norm of every prefix of miss factorized, at
    every node and every j, weighted or not. `_ramp_bounds` must give its
    bytes."""
    u, s, vh = ge.spectrum()
    prefixes = (w @ vh.conj().transpose(0, 2, 1) - u)[:, None] * np.tri(ge.dim)[:, None, :]
    c = (np.abs(prefixes[..., 0, 0]) if ge.is_scalar
         else np.linalg.svd(prefixes, compute_uv=False)[..., 0]) + RAMP_ROUNDING

    def bound(f):
        steps = f.copy()
        steps[..., :-1] -= f[..., 1:]
        return (steps * c).sum(axis=-1).max(axis=-1), f[..., 0].max(axis=-1)

    cut = np.maximum(s - delta, 0.0)
    return (bound(np.minimum(cut * RAMP_SLOPES[:, None, None, None], RAMP_PLATEAUS[:, None, None])),
            bound(cut))


def _bounds(ge, delta, w):
    """`_ramp_bounds`, or for d = 1 `_scalar_ramps` at the one level delta,
    as `_reference_ramp_bounds` gives them: ((bounds, norms), (cut, cut_norm)),
    the first two of shape (slopes, plateaus)."""
    if ge.is_scalar:
        u, s, _ = ge.spectrum()
        top = _scalar_ramps(u[:, 0, 0], s[:, 0], np.array([delta]), w.reshape(1, -1))[0]
    else:
        top = _ramp_bounds(ge, delta, w)
    shape, n = (RAMP_SLOPES.size, RAMP_PLATEAUS.size), RAMP_SLOPES.size * RAMP_PLATEAUS.size
    return (top[:n].reshape(shape), top[n + 1:-1].reshape(shape)), (top[n], top[-1])


def _same_ramp_bounds(got, ref):
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes()
               for pair_got, pair_ref in zip(got, ref) for x, y in zip(pair_got, pair_ref))


class TestRampBoundsMatchEveryPrefix:
    """`_ramp_bounds` against `_reference_ramp_bounds`, byte for byte."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_seeded_fields(self, d, svd_inputs):
        for seed in range(4):
            rng = np.random.default_rng(8100 + seed)
            ge = gallery.random_scalar_field_1d(64, rng) if d == 1 else matrix_field(rng, 64, d)
            _, s, _ = ge.spectrum()
            for delta in np.linspace(0.1, 0.9, 5) * sup_norm(ge):
                w = decide_extension(ge, delta).witness.values
                start = len(svd_inputs)
                got = _bounds(ge, delta, w)
                # one SVD of the weighted prefixes, none for d = 1
                factorized = [shape[0] for shape, _ in svd_inputs[start:]]
                if d == 1:
                    assert factorized == []
                else:
                    assert len(factorized) == 1
                    assert factorized[0] <= np.count_nonzero(s > delta)
                assert _same_ramp_bounds(got, _reference_ramp_bounds(ge, delta, w))

    def test_screen_drops_most_prefixes(self, svd_inputs):
        """Over the seeded d = 2, 3 fields of `test_seeded_fields` fewer
        than half of the prefixes above delta are factorized."""
        factorized = above = 0
        for d in (2, 3):
            for seed in range(4):
                ge = matrix_field(np.random.default_rng(8100 + seed), 64, d)
                _, s, _ = ge.spectrum()
                for delta in np.linspace(0.1, 0.9, 5) * sup_norm(ge):
                    w = decide_extension(ge, delta).witness.values
                    start = len(svd_inputs)
                    _bounds(ge, delta, w)
                    factorized += sum(shape[0] for shape, _ in svd_inputs[start:])
                    above += np.count_nonzero(s > delta)
        assert 2 * factorized < above, (factorized, above)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nudged_cut(self, d):
        """diag(osc, 0.9, ...) cut at 0.6, which decide_extension moves off
        node 153's s = 0.6 + 1 ulp: that column is free in the witness but
        above the ramps' delta, so its prefix carries a weight."""
        osc = gallery.gallery("osc", 256)
        vals = np.zeros((256, d, d), dtype=complex)
        vals[:, 0, 0] = osc.values[:, 0, 0]
        vals[:, 1:, 1:] = 0.9 * np.eye(d - 1)
        ge = GridElement(domain=osc.domain, values=vals)
        rep = decide_extension(ge, 0.6)
        assert rep.delta > 0.6
        got = _bounds(ge, 0.6, rep.witness.values)
        assert _same_ramp_bounds(got, _reference_ramp_bounds(ge, 0.6, rep.witness.values))

    def test_witness_off_u_at_supported_nodes(self):
        """d = 1 with a witness that is not u at some nodes above the cut,
        so that the ramps are taken there as well as at the node of
        largest s."""
        for seed in range(4):
            ge = gallery.random_scalar_field_1d(64, np.random.default_rng(8300 + seed))
            _, s, _ = ge.spectrum()
            for delta in np.linspace(0.1, 0.9, 5) * sup_norm(ge):
                w = decide_extension(ge, delta).witness.values.copy()
                above = np.flatnonzero(s[:, 0] > delta)
                turned = above[:: 3]
                w[turned] *= np.exp(1j * np.linspace(0.01, 0.5, turned.size))[:, None, None]
                assert _same_ramp_bounds(_bounds(ge, delta, w),
                                         _reference_ramp_bounds(ge, delta, w))

    @pytest.mark.parametrize("d", [2, 3])
    def test_matrix_witness_turned_at_low_nodes(self, d):
        """d > 1 with the witness turned on the right at nodes above the cut
        whose s is low, by more the lower s is, so that some ramp's maximum
        sits off the node of largest s and the screen must keep it."""
        for seed in range(4):
            ge = matrix_field(np.random.default_rng(8400 + seed), 64, d)
            _, s, _ = ge.spectrum()
            for delta in np.linspace(0.1, 0.7, 4) * sup_norm(ge):
                w = decide_extension(ge, delta).witness.values
                above = np.flatnonzero(s[:, 0] > delta)
                low = above[s[above, 0] < np.median(s[above, 0])]
                turned = w.copy()
                angle = 0.5 * (1.0 - s[low, 0] / s[:, 0].max())
                turned[low] = turned[low] * np.exp(1j * angle[:, None, None] * np.arange(d))
                got = _bounds(ge, delta, turned)
                assert not _same_ramp_bounds(got, _bounds(ge, delta, w))
                assert _same_ramp_bounds(got, _reference_ramp_bounds(ge, delta, turned))

    def test_constant_matrix_unitary(self):
        """A constant 2 x 2 unitary: every node ties in every ramp."""
        vals = np.tile(np.array([[0.6, 0.8j], [0.8j, 0.6]]), (64, 1, 1))
        ge = GridElement(domain=interval_domain(64), values=vals)
        for delta in (0.1, 0.5, 0.9):
            w = decide_extension(ge, delta).witness.values
            assert _same_ramp_bounds(_bounds(ge, delta, w),
                                     _reference_ramp_bounds(ge, delta, w))
            w = w * np.exp(0.3j * np.linspace(0.0, 1.0, 64))[:, None, None]
            assert _same_ramp_bounds(_bounds(ge, delta, w),
                                     _reference_ramp_bounds(ge, delta, w))

    def test_tied_singular_values(self):
        """const-unitary: every s is 1, so every node has the largest s."""
        ge = gallery.gallery("const-unitary", 64)
        for delta in (0.1, 0.5, 0.9):
            w = decide_extension(ge, delta).witness.values
            assert _same_ramp_bounds(_bounds(ge, delta, w),
                                     _reference_ramp_bounds(ge, delta, w))
            w = w * np.exp(0.3j * np.linspace(0.0, 1.0, 64))[:, None, None]
            assert _same_ramp_bounds(_bounds(ge, delta, w),
                                     _reference_ramp_bounds(ge, delta, w))

    def test_negative_zero_parts(self):
        """A real field stored with -0.0 imaginary parts, which u keeps:
        on the support the witness has the bytes of the stacked product
        u @ vh, which turns them into +0.0, and the bounds match."""
        t = np.linspace(0.0, 1.0, 128)
        vals = np.empty((128, 1, 1), dtype=complex)
        vals.real[:, 0, 0] = np.cos(7.0 * t) + 0.3 * t
        vals.imag[:] = -0.0
        ge = GridElement(domain=interval_domain(128), values=vals)
        u, s, vh = ge.spectrum()
        assert np.signbit(u.imag).all()
        for delta in (0.05, 0.3, 0.6, 0.9):
            cut = decide_extension(ge, delta).delta
            keeps = s[:, 0] > cut
            w = gridalg._frame_witness(ge, cut).values
            assert w[keeps].tobytes() == (u @ vh)[keeps].tobytes()
            assert not np.signbit(w.imag[keeps]).any()
            assert _same_ramp_bounds(_bounds(ge, delta, w),
                                     _reference_ramp_bounds(ge, delta, w))

    def test_nothing_above_the_cut(self, svd_inputs):
        ge = matrix_field(np.random.default_rng(8200), 64, 3)
        ge.spectrum()
        w = gridalg._frame_witness(ge, 2.0 * sup_norm(ge)).values
        start = len(svd_inputs)
        got = _bounds(ge, 2.0 * sup_norm(ge), w)
        assert svd_inputs[start:] == []
        assert _same_ramp_bounds(got, _reference_ramp_bounds(ge, 2.0 * sup_norm(ge), w))


class TestNanCutLevel:
    """A NaN cut level passed every separation check: decisions returned
    False on osc and True on disk-z, raised LinAlgError on rankdrop, and
    condition (4) held on osc. A negative level passed them too, and
    lift_cutdown built u (|f| + 0.5) on disk-z, while opcore.cutdown refused
    it. Both are a ValueError through every routine, from one check."""

    LEVELS = ((math.nan, "nan"), (-0.5, "nonnegative, got -0.5"))

    @pytest.mark.parametrize("name", ["osc", "rankdrop", "disk-z"])
    def test_refused_by_every_decision(self, name):
        ge = gallery.gallery(name, 32)
        routines = [decide_extension, gridalg._extends, gridalg.polar_extension, lift_cutdown,
                    lambda ge, delta: regular_approximant(ge, delta, 0.01),
                    lambda ge, delta: check_condition3(ge, delta, None),
                    check_condition4]
        for level, match in self.LEVELS:
            for routine in routines:
                with pytest.raises(ValueError, match=match):
                    routine(ge, level)

    def test_refused_by_the_level_checks(self):
        s = np.array([0.2, 0.8])
        for level, match in self.LEVELS:
            with pytest.raises(ValueError, match=match):
                opcore.check_clear(level, s, 1e-8)
            with pytest.raises(ValueError, match=match):
                opcore.clear_of(level, s, 1e-8)
        with pytest.raises(ValueError, match="nonnegative"):
            opcore.cutdown(np.eye(2), math.nan)
        with pytest.raises(ValueError, match="nonnegative, got -0.5"):
            opcore.cutdown(np.eye(2), -0.5)


class TestCondition4FromWitness:
    @pytest.mark.parametrize("cases", [_gallery_cases, _criterion_8_cases, _matrix_cases,
                                       _disk_z_cases, _rank_drop_cases],
                             ids=["gallery", "criterion-8", "matrix-fields", "disk-z",
                                  "rank-drops"])
    def test_flags_match_independent_decision(self, cases):
        witnessed = decided = 0
        for ge, deltas in cases():
            for delta in deltas:
                rep2 = decide_extension(ge, delta)
                c3 = check_condition3(ge, delta, rep2)
                c4 = check_condition4(ge, delta, c3)
                holds, detail = _reference_condition4(ge, delta)
                assert c4.holds == holds
                if rep2.exists:
                    assert c4.detail["path"] == "witness"
                    # below ||a|| - delta = 10 the cut ramp is the sampled
                    # ramp of slope 1 and plateau 10, bit for bit
                    (bounds, _), (cut, _) = _bounds(ge, delta, rep2.witness.values)
                    assert RAMP_SLOPES[1] == 1.0 and RAMP_PLATEAUS[-1] == 10.0
                    assert cut == bounds[1, -1] == c4.detail["cut_residual"]
                    witnessed += 1
                else:
                    assert c4.detail == {"path": "decision", **detail}
                    decided += 1
                # without a witness to read, the decision runs as before
                alone = check_condition4(ge, delta)
                assert (alone.holds, alone.detail) == (holds, {"path": "decision", **detail})
        assert witnessed > 0
        if cases is _disk_z_cases:
            assert decided > 0

    def test_witness_path_needs_the_same_level(self):
        ge = gallery.gallery("linear", 64)
        c3 = check_condition3(ge, 0.5, decide_extension(ge, 0.5))
        assert check_condition4(ge, 0.5, c3).detail["path"] == "witness"
        assert check_condition4(ge, 0.4, c3).detail["path"] == "decision"
        # (3) decided without a witness leaves (4) its own decision
        c3 = check_condition3(ge, 0.5, None)
        assert "cut_residual" not in c3.detail
        assert check_condition4(ge, 0.5, c3).detail == {"path": "decision"}


class TestCondition4PlantedFault:
    """A witness that breaks w e_delta = v e_delta at one interior node must
    fail (4) on the witness path; one changed only on the free directions
    must not."""

    DELTA = 0.5
    NODE = 20

    def _field(self):
        # s = (1, 0.3 + 0.1 t, 0.2 t): every node keeps one direction of three
        rng = np.random.default_rng(11)
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        t = np.linspace(0.0, 1.0, 64)
        s = np.stack([np.ones_like(t), 0.3 + 0.1 * t, 0.2 * t], axis=-1)
        vals = np.einsum("ij,kj,jl->kil", q1, s, q2.conj().T)
        return GridElement(domain=interval_domain(64), values=vals)

    def _rotated(self, ge, plane):
        """(2)'s report, and one whose witness has the frame columns `plane`
        of w vh* rotated by 0.1 rad at one interior node."""
        rep2 = decide_extension(ge, self.DELTA)
        w = rep2.witness.values.copy()
        _, _, vh = ge.spectrum()
        i, j = plane
        g = np.eye(3, dtype=complex)
        g[[i, i, j, j], [i, j, i, j]] = np.cos(0.1), -np.sin(0.1), np.sin(0.1), np.cos(0.1)
        k = self.NODE
        w[k] = w[k] @ vh[k].conj().T @ g @ vh[k]
        witness = GridElement(domain=ge.domain, values=w)
        return rep2, ExtensionReport(exists=True, witness=witness, obstruction=None)

    def test_rotated_kept_column_fails(self):
        ge = self._field()
        rep2, faulty = self._rotated(ge, (0, 1))
        assert check_condition4(ge, self.DELTA, check_condition3(ge, self.DELTA, rep2)).holds
        c4 = check_condition4(ge, self.DELTA, check_condition3(ge, self.DELTA, faulty))
        assert not c4.holds and c4.detail["path"] == "witness"
        assert c4.detail["cut_residual"] > RAMP_TOL
        assert c4.detail["cut_residual"] >= _direct_cut_residual(ge, self.DELTA,
                                                                 faulty.witness.values)

    def test_rotated_free_columns_hold(self):
        ge = self._field()
        rep2, faulty = self._rotated(ge, (1, 2))
        c4 = check_condition4(ge, self.DELTA, check_condition3(ge, self.DELTA, faulty))
        assert c4.holds and c4.detail["path"] == "witness"
        assert c4.detail == check_condition4(ge, self.DELTA,
                                             check_condition3(ge, self.DELTA, rep2)).detail


class TestCheckEquivalences:
    def test_const_unitary_all_hold(self):
        ge = gallery.gallery("const-unitary", 64)
        rep = check_equivalences(ge, 0.0, [0.1, 0.3, 0.6], element_name="const-unitary")
        assert rep.verdict == "consistent"
        assert all(c.holds for c in rep.cond2 + rep.cond3 + rep.cond4)
        lo, up = rep.cond1
        assert lo == 0.0 and up <= 2.0 / 63 + 1e-12

    def test_osc_consistent(self):
        ge = gallery.gallery("osc", 256)
        rep = check_equivalences(ge, 0.0, [0.05, 0.1, 0.2, 0.5], element_name="osc")
        assert rep.verdict == "consistent"
        assert all(c.holds for c in rep.cond2)

    def test_disk_z_consistent_with_obstruction(self):
        ge = gallery.gallery("disk-z", 32)
        rep = check_equivalences(ge, 0.3, [0.5, 0.95], element_name="disk-z")
        assert rep.verdict == "consistent"
        # at delta = 0.5 < dist = 1 all four conditions fail together
        assert not rep.cond2[0].holds
        assert not rep.cond3[0].holds
        assert not rep.cond4[0].holds
        assert rep.cond2[0].detail["obstruction"]["windings"] == [1]

    def test_rejects_delta_below_gamma(self):
        ge = gallery.gallery("linear", 64)
        with pytest.raises(ValueError):
            check_equivalences(ge, 0.5, [0.3, 0.7])

    @pytest.mark.parametrize("gamma, deltas", [(0.0, [0.2, np.nan]), (np.nan, [0.2]),
                                               (0.0, [0.2, np.inf]), (-np.inf, [0.2])])
    def test_rejects_non_finite_levels(self, gamma, deltas):
        ge = gallery.gallery("osc", 64)
        with pytest.raises(ValueError, match="must be finite"):
            check_equivalences(ge, gamma, deltas)

    def test_report_dict_shape(self):
        ge = gallery.gallery("linear", 64)
        rep = check_equivalences(ge, 0.0, [0.2, 0.5], element_name="linear")
        d = rep.to_dict()
        assert d["element"] == "linear"
        assert d["deltas"] == [0.2, 0.5]
        assert len(d["cond2"]) == len(d["cond3"]) == len(d["cond4"]) == 2
        assert d["verdict"] in ("consistent", "inconsistent")


def _reference_report(ge, gamma, deltas, tol):
    """check_equivalences assembled from the public calls, each on a fresh
    copy of ge, so that no call reads what another one held."""
    def fresh():
        return GridElement(domain=ge.domain, values=ge.values.copy())
    deltas = sorted(float(d) for d in deltas)
    h = ge.domain.max_spacing()
    lower, upper = dist_to_regular(fresh(), tol)
    cond2, cond3, cond4, broken = [], [], [], []
    for delta in deltas:
        rep2 = decide_extension(fresh(), delta)
        c2 = ConditionResult(delta=delta, holds=rep2.exists,
                             detail={"modulus": rep2.witness_modulus, "bound": rep2.modulus_bound,
                                     **({"obstruction": rep2.obstruction}
                                        if rep2.obstruction else {})})
        c3 = check_condition3(fresh(), delta, rep2)
        c4 = check_condition4(fresh(), delta, c3)
        cond2.append(c2)
        cond3.append(c3)
        cond4.append(c4)
        for failed, name in ((c2.holds and not c3.holds, "(2)=>(3)"),
                             (c3.holds and not c4.holds, "(3)=>(4)"),
                             (delta > upper + BRACKET_BAND * h and not c4.holds,
                              "cond4 above bracket"),
                             (lower > 0 and delta < lower - BRACKET_BAND * h and c4.holds,
                              "cond4 below bracket")):
            if failed:
                broken.append({"delta": delta, "broken": name})
    return EquivalenceReport(
        element="element", gamma=gamma, delta_grid=deltas, cond1=(lower, upper), cond2=cond2,
        cond3=cond3, cond4=cond4, verdict="inconsistent" if broken else "consistent",
        inconsistencies=broken)


def _interval_report_cases():
    for name in ("osc", "osc-bounded", "linear", "const-unitary", "rankdrop"):
        ge = gallery.gallery(name, 128)
        yield ge, np.linspace(0.1, 0.9, 5) * sup_norm(ge)
    for ge, deltas in _criterion_8_cases():
        if ge.domain.kind == "interval-1d":
            yield ge, deltas
    for n in (128, 256, 512):
        for seed in range(3):
            ge = gallery.random_scalar_field_1d(n, np.random.default_rng(8400 + seed))
            yield ge, np.array([0.25, 0.5, 0.75]) * sup_norm(ge)


class TestReportMatchesPublicCalls:
    def test_interval_reports(self):
        """The report on a held element has the bytes of the one assembled
        from the public calls on fresh copies: the 1-D gallery at 128, the
        criterion-8 interval fields and seeded scalar fields at 128, 256 and
        512 nodes."""
        for ge, deltas in _interval_report_cases():
            tol = 2.0 * ge.domain.max_spacing()
            got = check_equivalences(ge, 0.0, deltas, tol_bisect=tol).to_dict()
            ref = _reference_report(ge, 0.0, deltas, tol).to_dict()
            assert json.dumps(got, sort_keys=True) == json.dumps(ref, sort_keys=True)


def _reference_scalar_decision(ge, delta):
    """decide_extension on a scalar interval element as `_report`,
    `_modulus_bound` and the d = 1 `_transport` ran it, one level at a
    time: the level cleared off s = |f|, the bound
    10 modulus(u (s - delta)_+ + 0.0) / spread, and the witness u + 0.0 on
    the support, an index fill off it and the closed-form geodesic over
    interior free runs, held to the bound."""
    f = ge.values[:, 0, 0]
    s = np.abs(f)
    u = np.ones(f.shape, dtype=complex)
    np.divide(f.real, s, out=u.real, where=s > 0)
    np.divide(f.imag, s, out=u.imag, where=s > 0)
    delta = opcore.clear_of(delta, s, opcore.eta_sep(float(s.max(initial=0.0))))
    spread = delta - float(s[s < delta].max(initial=0.0))
    cut = u * np.maximum(s - delta, 0.0) + 0.0
    bound = 10.0 * float(np.abs(cut[1:] - cut[:-1]).max()) / spread if spread > 0 else math.inf
    supported, idx = s > delta, np.arange(s.size)
    left = np.maximum.accumulate(np.where(supported, idx, int(np.argmax(supported))))
    right = np.minimum.accumulate(np.where(supported, idx, s.size)[::-1])[::-1]
    w = (u + 0.0)[left]
    bridged = (idx > left) & (right < s.size)
    if bridged.any():
        w1, w2 = w[left[bridged]], w[right[bridged]]
        frac = (idx[bridged] - left[bridged]) / (right[bridged] - left[bridged])
        w[bridged] = w1 * np.exp(1j * frac * np.angle(w1.conj() * w2))
    mod = float(np.abs(w[1:] - w[:-1]).max())
    exists = mod <= bound + opcore.MODULUS_SLACK
    return ExtensionReport(
        exists=exists, witness=GridElement(ge.domain, w.reshape(-1, 1, 1)) if exists else None,
        obstruction=None if exists else {"kind": "frame-transport", "modulus": mod},
        witness_modulus=mod, modulus_bound=bound, delta=delta)


def _reference_scalar_decomposable(ge):
    """`_decide_polar_decomposable` by `_reference_scalar_decision`."""
    return _reference_scalar_decision(ge, _min_positive_singular(np.abs(ge.values).ravel()) / 2.0)


def _reference_scalar_condition3(ge, delta, rep2):
    """check_condition3 on a scalar element as it ran one level at a time,
    with the d = 1 `_ramp_bounds`: the ramps at the probed delta, at the
    nodes above it where w != u and at one node of largest s."""
    rep = rep2
    if not rep2.exists:
        u, s, vh = ge.spectrum()
        f0 = np.minimum(np.maximum(s - delta, 0.0) * RAMP_SLOPES[0], RAMP_PLATEAUS[-1])
        rep = _reference_scalar_decomposable(from_svd(ge.domain, u, f0, vh))
        if not rep.exists:
            return ConditionResult(delta=delta, holds=False, detail={"obstruction": rep.obstruction})
    u, s, _ = ge.spectrum()
    miss = rep.witness.values[:, 0, 0] - u[:, 0, 0]
    at = np.append(np.flatnonzero((miss != 0) & (s[:, 0] > delta)), np.argmax(s[:, 0]))
    c = np.abs(miss[at])[:, None] + RAMP_ROUNDING
    cut = np.maximum(s[at] - delta, 0.0)
    ramps = np.minimum(cut * RAMP_SLOPES[:, None, None, None], RAMP_PLATEAUS[:, None, None])
    bounds, norms = (ramps * c).sum(axis=-1).max(axis=-1), ramps[..., 0].max(axis=-1)
    failed = rep2.exists & (bounds > RAMP_TOL * (1.0 + norms))
    detail = ({"ramp_residual": float(bounds[failed][0])} if failed.any()
              else {"max_ramp_residual": float(bounds.max())})
    if rep2.exists:
        detail["cut_residual"] = float((cut * c).sum(axis=-1).max())
        detail["cut_bound"] = RAMP_TOL * (1.0 + float(cut[..., 0].max()))
    return ConditionResult(delta=delta, holds=not failed.any(), detail=detail)


def _reference_scalar_report(ge, gamma, deltas, tol):
    """check_equivalences on a scalar interval element decided one level
    at a time by the references above; the bracket from dist_to_regular on
    a fresh copy."""
    deltas = sorted(float(d) for d in deltas)
    h = ge.domain.max_spacing()
    lower, upper = dist_to_regular(GridElement(ge.domain, ge.values.copy()), tol)
    cond2, cond3, cond4, broken = [], [], [], []
    for delta in deltas:
        rep2 = _reference_scalar_decision(ge, delta)
        c2 = ConditionResult(delta=delta, holds=rep2.exists,
                             detail={"modulus": rep2.witness_modulus, "bound": rep2.modulus_bound,
                                     **({"obstruction": rep2.obstruction}
                                        if rep2.obstruction else {})})
        c3 = _reference_scalar_condition3(ge, delta, rep2)
        if "cut_residual" in c3.detail:
            residual, bound = c3.detail["cut_residual"], c3.detail["cut_bound"]
            c4 = ConditionResult(delta=delta, holds=residual <= bound,
                                 detail={"path": "witness", "cut_residual": residual,
                                         "cut_bound": bound})
        else:
            rep4 = _reference_scalar_decomposable(lift_cutdown(ge, delta))
            c4 = ConditionResult(delta=delta, holds=rep4.exists, detail={
                "path": "decision", **({"obstruction": rep4.obstruction}
                                       if rep4.obstruction else {})})
        cond2.append(c2)
        cond3.append(c3)
        cond4.append(c4)
        for failed, name in ((c2.holds and not c3.holds, "(2)=>(3)"),
                             (c3.holds and not c4.holds, "(3)=>(4)"),
                             (delta > upper + BRACKET_BAND * h and not c4.holds,
                              "cond4 above bracket"),
                             (lower > 0 and delta < lower - BRACKET_BAND * h and c4.holds,
                              "cond4 below bracket")):
            if failed:
                broken.append({"delta": delta, "broken": name})
    return EquivalenceReport(
        element="element", gamma=gamma, delta_grid=deltas, cond1=(lower, upper), cond2=cond2,
        cond3=cond3, cond4=cond4, verdict="inconsistent" if broken else "consistent",
        inconsistencies=broken)


def _report_bytes(rep):
    """The report's dict and the details of (3) and (4), as JSON."""
    return json.dumps([rep.to_dict(), [c.detail for c in rep.cond3 + rep.cond4]], sort_keys=True)


def _decision_bytes(rep):
    witness = None if rep.witness is None else rep.witness.values.tobytes().hex()
    return json.dumps([rep.exists, rep.obstruction, rep.witness_modulus, rep.modulus_bound,
                       rep.delta, witness], sort_keys=True)


def _unimodular(n=128):
    """exp(3i sin 2 pi t): |f| = 1, so with nothing below delta the bound
    10 modulus(cut-down) / delta falls below the witness modulus above about
    10/11, and (3) and (4) take the no-witness path there."""
    t = np.linspace(0.0, 1.0, n)
    return GridElement(interval_domain(n), np.exp(3j * np.sin(2.0 * np.pi * t)).reshape(-1, 1, 1))


class TestScalarLevelAxisMatchesPerLevel:
    """check_equivalences and decide_extension on scalar interval elements,
    decided over a level axis, against `_reference_scalar_report` and
    `_reference_scalar_decision`, byte for byte."""

    def _check(self, ge, deltas, tol=None):
        deltas = [float(d) for d in deltas]
        tol = 2.0 * ge.domain.max_spacing() if tol is None else tol
        got = check_equivalences(ge, 0.0, deltas, tol_bisect=tol)
        assert _report_bytes(got) == _report_bytes(_reference_scalar_report(ge, 0.0, deltas, tol))
        for delta in deltas:
            assert (_decision_bytes(decide_extension(ge, delta))
                    == _decision_bytes(_reference_scalar_decision(ge, delta)))
        return got

    @pytest.mark.parametrize("n", [32, 128, 257])
    def test_gallery(self, n):
        for name in ("osc", "osc-bounded", "linear", "const-unitary"):
            ge = gallery.gallery(name, n)
            self._check(ge, list(np.linspace(0.1, 0.9, 5) * sup_norm(ge)))

    @pytest.mark.parametrize("n", [33, 128, 512])
    def test_seeded_fields(self, n):
        for seed in range(40):
            ge = gallery.random_scalar_field_1d(n, np.random.default_rng(8700 + seed))
            self._check(ge, [frac * sup_norm(ge) for frac in (0.25, 0.5, 0.75)], tol=0.005)

    def test_nudged_and_above_the_sup_norm(self):
        """Levels on a sample's |f|, which are moved off it, and above the
        sup-norm, where the support is empty."""
        nudged = above = 0
        for seed in range(8):
            ge = gallery.random_scalar_field_1d(128, np.random.default_rng(8800 + seed))
            mags = np.abs(ge.values[:, 0, 0])
            deltas = [float(mags[20 + 9 * seed]), float(mags[77]), 1.5 * float(mags.max())]
            rep = self._check(ge, deltas)
            cut = [decide_extension(ge, d).delta for d in rep.delta_grid]
            nudged += sum(c > d for c, d in zip(cut, rep.delta_grid))
            above += rep.cond2[-1].holds and rep.cond2[-1].detail["modulus"] == 0.0
        assert nudged >= 8 and above == 8

    def test_duplicate_and_no_levels(self):
        ge = gallery.random_scalar_field_1d(128, np.random.default_rng(8900))
        top = sup_norm(ge)
        rep = self._check(ge, [0.5 * top, 0.25 * top, 0.5 * top, 0.25 * top])
        assert rep.cond2[0].detail == rep.cond2[1].detail and rep.cond3[2] == rep.cond3[3]
        rep = self._check(ge, [])
        assert rep.cond2 == rep.cond3 == rep.cond4 == []

    def test_failing_witness(self):
        """exp(3i sin 2 pi t) at 0.5 and 0.9, where (2) holds, and at 0.95
        and 0.99, where its witness fails the bound and (3) and (4) decide
        without one."""
        rep = self._check(_unimodular(), [0.5, 0.9, 0.95, 0.99])
        assert [c.holds for c in rep.cond2] == [True, True, False, False]
        assert [c.detail["path"] for c in rep.cond4] == ["witness", "witness", "decision",
                                                         "decision"]
        assert all("cut_residual" not in c.detail for c in rep.cond3[2:])


class TestRegularApproximant:
    def test_osc(self):
        n = 256
        ge = gallery.gallery("osc", n)
        x, dist = regular_approximant(ge, 0.1, 0.01)
        ok, gap = uniform_gap_regular(x, gap_min=0.009)
        assert ok and gap >= 0.009
        assert dist <= 0.11 + 1.0 / n

    def test_rankdrop(self):
        ge = gallery.gallery("rankdrop", 128)
        x, dist = regular_approximant(ge, 0.2, 0.05)
        assert dist <= 0.25 + 1e-9
        ok, _ = uniform_gap_regular(x, gap_min=0.045)
        assert ok

    def test_approximant_matches_phase(self):
        ge = gallery.gallery("osc", 256)
        x, _ = regular_approximant(ge, 0.1, 0.01)
        # above the cut the approximant keeps the original phase exactly
        f = ge.values[:, 0, 0]
        g = x.values[:, 0, 0]
        mask = np.abs(f) > 0.1
        ph_err = np.abs(np.angle(g[mask] / f[mask]))
        assert ph_err.max() <= 1e-10

    def test_obstruction_blocks_witness(self):
        ge = gallery.gallery("disk-z", 32)
        with pytest.raises(NoWitness):
            regular_approximant(ge, 0.5 + 1e-6, 0.01)

    def test_rejects_nonpositive_eps(self):
        ge = gallery.gallery("linear", 64)
        with pytest.raises(ValueError):
            regular_approximant(ge, 0.2, 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_eps(self, eps):
        ge = gallery.gallery("linear", 64)
        with pytest.raises(ValueError, match="finite and positive"):
            regular_approximant(ge, 0.2, eps)

    def test_distance_beats_naive_bound(self):
        ge = gallery.gallery("linear", 64)
        x, dist = regular_approximant(ge, 0.3, 0.05)
        assert dist <= 0.3 + 0.05 + 1e-9
        assert sup_norm(GridElement(domain=ge.domain, values=x.values)) > 0
