import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarreg.errors import BadOrdering, EigenvalueTooCloseToCut, NotHermitian, SpectralCollision
from cstarreg.opcore import (
    MAX_NUDGES,
    TAU_RANK,
    SVDFrame,
    abs_of,
    apply_function,
    clear_of,
    cutdown,
    hermitian_eig,
    identity_fn,
    make_h_pair,
    op_norm,
    op_norms,
    polar,
    proof_f,
    spectral_projection,
)

from conftest import random_complex, random_with_spectrum


def complex_matrices(n_min=2, n_max=6):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.integers(0, 2**31 - 1).map(
            lambda seed: random_complex(np.random.default_rng(seed), n)))


class TestOpNorms:
    def test_equals_op_norm_bit_for_bit(self, rng):
        mats = [random_complex(rng, *shape) for shape in ((8, 8), (3, 5), (8, 8), (5, 3), (3, 5))]
        mats += [np.zeros((8, 8)), np.zeros((0, 4)), np.zeros((4, 0)), np.ones((1, 1))]
        assert op_norms(mats) == [op_norm(m) for m in mats]

    def test_empty_list(self):
        assert op_norms([]) == []

    @pytest.mark.parametrize("bad", (np.nan, np.inf, 1j * np.nan, -1j * np.inf))
    def test_rejects_non_finite_entries(self, rng, bad):
        """The op_norm message, not LAPACK's, and never a NaN norm that
        max() would keep or drop depending on its position."""
        a = random_complex(rng, 3)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            op_norms([np.eye(2), a, random_complex(rng, 3)])


class TestOpNorm:
    def test_zero(self):
        assert op_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert op_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_matches_svd_oracle(self, rng):
        a = random_complex(rng, 4)
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert op_norm(a) == pytest.approx(top, rel=1e-12)


class TestHermitianEig:
    def test_diagonal(self):
        sd = hermitian_eig(np.diag([2.0, 0.0]))
        assert np.allclose(sd.values, [0.0, 2.0])
        assert np.allclose(np.abs(sd.frame), np.eye(2)[:, ::-1])

    def test_swap_matrix(self):
        sd = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(sd.values, [-1.0, 1.0])

    def test_values_match_charpoly_roots(self, rng):
        """Characteristic polynomial via Faddeev-LeVerrier traces, roots via
        the companion matrix: a path independent of the Hermitian solver."""
        a = random_complex(rng, 6)
        h = a + a.conj().T
        n = 6
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[0] = 1.0
        m = np.zeros((n, n), dtype=complex)
        for k in range(1, n + 1):
            m = h @ m + coeffs[k - 1] * np.eye(n)
            coeffs[k] = -np.trace(h @ m) / k
        roots = np.sort(np.roots(coeffs).real)
        assert np.allclose(hermitian_eig(h).values, roots, atol=1e-9)

    def test_reconstruction(self, rng):
        a = random_complex(rng, 5)
        h = a + a.conj().T
        sd = hermitian_eig(h)
        rebuilt = (sd.frame * sd.values) @ sd.frame.conj().T
        assert op_norm(rebuilt - h) <= 1e-10 * (1 + op_norm(h))
        assert op_norm(sd.frame.conj().T @ sd.frame - np.eye(5)) <= 1e-12

    def test_rejects_nonhermitian(self, rng):
        with pytest.raises(NotHermitian):
            hermitian_eig(random_complex(rng, 3))


class TestAbsOf:
    def test_diagonal_signs(self):
        assert np.allclose(abs_of(np.diag([-2.0, 3.0])), np.diag([2.0, 3.0]))

    def test_zero(self):
        assert np.allclose(abs_of(np.zeros((2, 2))), 0.0)

    def test_eigenvalues_are_singular_values(self, rng):
        a = random_complex(rng, 4)
        sv = np.sort(np.linalg.svd(a, compute_uv=False))
        ev = hermitian_eig(abs_of(a)).values
        assert np.allclose(ev, sv, atol=1e-10)

    def test_squares_to_a_star_a(self, rng):
        a = random_complex(rng, 4)
        m = abs_of(a)
        assert op_norm(m @ m - a.conj().T @ a) <= 1e-10 * (1 + op_norm(a) ** 2)


class TestPolar:
    def test_zero(self):
        parts = polar(np.zeros((2, 2)))
        assert np.allclose(parts.v, 0.0)
        assert np.allclose(parts.abs_a, 0.0)

    def test_diagonal(self):
        parts = polar(np.diag([2.0, 0.0]))
        assert np.allclose(parts.v, np.diag([1.0, 0.0]))
        assert np.allclose(parts.abs_a, np.diag([2.0, 0.0]))

    def test_reconstruction_and_support(self, rng):
        a = random_complex(rng, 5)
        parts = polar(a)
        assert op_norm(parts.v @ parts.abs_a - a) <= 1e-10 * (1 + op_norm(a))
        supp = spectral_projection(parts.abs_a, 1e-9 * op_norm(a))
        assert op_norm(parts.v.conj().T @ parts.v - supp) <= 1e-8

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            polar(np.array([[np.nan + 0j]]))

    def test_rectangular(self, rng):
        a = random_complex(rng, 5, 3)
        parts = polar(a)
        assert op_norm(parts.v @ parts.abs_a - a) <= 1e-10 * (1 + op_norm(a))

    @settings(max_examples=40, deadline=None)
    @given(complex_matrices())
    def test_partial_isometry_law(self, a):
        v = polar(a).v
        assert op_norm(v @ v.conj().T @ v - v) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(complex_matrices())
    def test_support_projections(self, a):
        parts = polar(a)
        assert op_norm(parts.v.conj().T @ parts.v - parts.supp_right) <= 1e-10
        assert op_norm(parts.v @ parts.v.conj().T - parts.supp_left) <= 1e-10

    def test_isometry_is_the_v_of_polar(self, rng):
        """isometry() has the bits of polar().v, which keeps its formula."""
        for shape in ((6, 4), (4, 6), (5, 5)):
            frame = SVDFrame.of(random_complex(rng, *shape))
            ur, _, wr = frame.above(TAU_RANK * frame.norm)
            assert frame.isometry().tobytes() == frame.polar().v.tobytes()
            assert frame.isometry().tobytes() == (ur @ wr.conj().T).tobytes()


def _ramp(delta):
    return lambda t: np.maximum(t - delta, 0.0)


class TestApplyFunction:
    def test_ramp_cutdown(self):
        out = apply_function(np.diag([3.0, 0.5]), _ramp(1.0))
        assert np.allclose(out, np.diag([2.0, 0.0]))

    def test_identity(self, rng):
        a = random_complex(rng, 4)
        h = a + a.conj().T
        assert op_norm(apply_function(h, identity_fn) - h) <= 1e-10 * (1 + op_norm(h))

    def test_proof_f_values(self):
        # f is 1/gamma below gamma and 1/t above
        out = apply_function(np.diag([0.25, 2.0]), proof_f(0.5))
        assert np.allclose(out, np.diag([2.0, 0.5]))

    def test_commutes_with_argument(self, rng):
        a = random_complex(rng, 4)
        h = a @ a.conj().T
        out = apply_function(h, _ramp(0.3))
        assert op_norm(out @ h - h @ out) <= 1e-9 * (1 + op_norm(h)) ** 2

    def test_homomorphism_on_products(self, rng):
        a = random_complex(rng, 5)
        h = a @ a.conj().T
        def f(t):
            return np.interp(t, [0.0, 1.0, 3.0], [0.0, 2.0, 0.5])

        def g(t):
            return np.interp(t, [0.0, 2.0, 4.0], [1.0, 0.0, 1.0])

        lhs = apply_function(h, lambda t: f(t) * g(t))
        rhs = apply_function(h, f) @ apply_function(h, g)
        assert op_norm(lhs - rhs) <= 1e-9 * (1 + op_norm(h)) ** 2


class TestSpectralProjection:
    def test_diagonal(self):
        assert np.allclose(spectral_projection(np.diag([3.0, 1.0]), 2.0),
                           np.diag([1.0, 0.0]))

    def test_above_norm_is_zero(self):
        assert np.allclose(spectral_projection(np.diag([3.0, 1.0]), 5.0), 0.0)

    def test_collision_raises(self):
        with pytest.raises(EigenvalueTooCloseToCut):
            spectral_projection(np.diag([3.0, 1.0]), 1.0)

    def test_idempotent_and_commutes(self, rng):
        a = random_complex(rng, 5)
        h = a @ a.conj().T
        p = spectral_projection(h, 0.5 * op_norm(h))
        assert op_norm(p @ p - p) <= 1e-10
        assert op_norm(p @ h - h @ p) <= 1e-10 * op_norm(h)


class TestClearOf:
    ETA = 1e-3

    def test_clear_level_is_kept(self):
        assert clear_of(0.5, np.array([0.2, 0.8]), self.ETA) == 0.5

    def test_steps_up_past_a_collision(self):
        assert clear_of(0.5, np.array([0.5, 0.9]), self.ETA) == 0.5 + 2.0 * self.ETA

    def test_raises_after_max_nudges(self):
        eta = self.ETA
        s = 0.5 + 2.0 * eta * np.arange(MAX_NUDGES)  # one value on each level tried
        with pytest.raises(SpectralCollision):
            clear_of(0.5, s, eta)
        # without the last value, the last level tried is clear
        assert abs(clear_of(0.5, s[:-1], eta) - s[-1]) <= 1e-12

    def test_stays_below(self):
        with pytest.raises(SpectralCollision):
            clear_of(0.5, np.array([0.5]), self.ETA, below=0.5 + 2.0 * self.ETA)
        assert clear_of(0.5, np.array([0.5]), self.ETA, below=0.5 + 3.0 * self.ETA) > 0.5


class TestCutdown:
    def test_above_norm(self, rng):
        a = random_complex(rng, 3)
        assert op_norm(cutdown(a, op_norm(a) + 0.1)) <= 1e-12

    def test_diagonal(self):
        assert np.allclose(cutdown(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]))

    def test_zero_cut_is_identity(self, rng):
        a = random_complex(rng, 4)
        assert op_norm(cutdown(a, 0.0) - a) <= 1e-10 * (1 + op_norm(a))

    @settings(max_examples=40, deadline=None)
    @given(complex_matrices(), st.floats(0.0, 5.0))
    def test_contraction(self, a, delta):
        assert op_norm(a - cutdown(a, delta)) <= delta + 1e-10

    def test_monotone_approach(self, rng):
        a = random_complex(rng, 4)
        dists = [op_norm(a - cutdown(a, d)) for d in (0.5, 0.25, 0.1, 0.01)]
        assert dists == sorted(dists, reverse=True)


# geometric spectra down to 1e-12 (below the rank cut) and exact rank drops
ILL_SPECTRA = [
    tuple(np.geomspace(1.0, 1e-12, 8)),
    tuple(np.geomspace(1.0, 1e-12, 4)),
    (1.0, 0.5, 1e-3, 1e-6, 0.0, 0.0),
    (1.0, 1e-2, 1e-4, 0.0),
]


def _gap_at(s, level):
    """Distance between the nearest singular values either side of level."""
    above, below = s[s > level], s[s <= level]
    return above.min() - (below.max() if below.size else 0.0)


@pytest.mark.parametrize("spectrum", ILL_SPECTRA, ids=lambda s: f"n{len(s)}-{min(s):.0e}")
class TestSVDFrameIllConditioned:
    """Readouts against the construction a = q1 diag(s) q2*. Functions of
    |a| and the cut-down move with the backward error of one SVD, about
    eps ||a|| (||a|| = 1 here); singular bases above a level move by
    eps ||a|| / gap at that level (Wedin), so those bounds carry the gap."""

    SEEDS = range(10)

    def test_abs_of_and_abs_star(self, spectrum):
        # eigh(a*a) was off by about 1e-8 here: the squared spectrum loses
        # every singular value below sqrt(eps)
        s = np.asarray(spectrum)
        for seed in self.SEEDS:
            q1, q2, a = random_with_spectrum(np.random.default_rng(seed), s)
            assert op_norm(abs_of(a) - (q2 * s) @ q2.conj().T) <= 1e-13
            abs_star = SVDFrame.of(a).fn_abs_star(identity_fn)
            assert op_norm(abs_star - (q1 * s) @ q1.conj().T) <= 1e-13

    def test_cutdown(self, spectrum):
        s = np.asarray(spectrum)
        for seed in self.SEEDS:
            q1, q2, a = random_with_spectrum(np.random.default_rng(seed), s)
            for delta in (0.0, 0.3 * s[1], 0.5 * (s[0] + s[1])):
                exact = (q1 * np.maximum(s - delta, 0.0)) @ q2.conj().T
                assert op_norm(cutdown(a, delta) - exact) <= 1e-13

    def test_polar(self, spectrum):
        s = np.asarray(spectrum)
        keep = s > TAU_RANK * s[0]
        bound = 1e-13 / _gap_at(s, TAU_RANK * s[0])
        for seed in self.SEEDS:
            q1, q2, a = random_with_spectrum(np.random.default_rng(seed), s)
            parts = polar(a)
            assert op_norm(parts.v - q1[:, keep] @ q2[:, keep].conj().T) <= bound
            assert op_norm(parts.supp_right - q2[:, keep] @ q2[:, keep].conj().T) <= bound
            assert op_norm(parts.supp_left - q1[:, keep] @ q1[:, keep].conj().T) <= bound

    def test_projections_between_each_pair(self, spectrum):
        s = np.asarray(spectrum)
        for seed in self.SEEDS:
            q1, q2, a = random_with_spectrum(np.random.default_rng(seed), s)
            frame = SVDFrame.of(a)
            for i in range(len(s) - 1):
                if s[i + 1] == s[i]:
                    continue
                level = 0.5 * (s[i] + s[i + 1])
                ur, sr, wr = frame.above(level)
                bound = 1e-13 / _gap_at(s, level)
                assert np.allclose(sr, s[: i + 1], rtol=0.0, atol=1e-15)
                e, f = wr @ wr.conj().T, ur @ ur.conj().T
                assert op_norm(e - q2[:, : i + 1] @ q2[:, : i + 1].conj().T) <= bound
                assert op_norm(f - q1[:, : i + 1] @ q1[:, : i + 1].conj().T) <= bound
                # the bases are paired: a maps W_r onto U_r diag(s_r)
                assert op_norm(a @ wr - ur * sr) <= 1e-13


class TestHPair:
    def test_reading_the_definition(self):
        h1, h2 = make_h_pair(0.2, 0.3, 0.5)
        assert h1(np.array([0.1]))[0] == 1.0
        assert h2(np.array([0.25]))[0] == 1.0
        assert h1(np.array([0.4]))[0] == 0.0

    def test_product_identity_on_grid(self):
        h1, h2 = make_h_pair(0.2, 0.3, 0.5)
        t = np.linspace(0.0, 1.0, 10**4)
        assert np.max(np.abs(h1(t) * h2(t) - h1(t))) == 0.0

    def test_complementary_product_vanishes(self):
        h1, h2 = make_h_pair(0.1, 0.45, 0.9)
        t = np.linspace(0.0, 1.5, 10**4)
        assert np.max(np.abs(h1(t) * (1.0 - h2(t)))) == 0.0

    def test_bad_ordering(self):
        with pytest.raises(BadOrdering):
            make_h_pair(0.3, 0.2, 0.5)
