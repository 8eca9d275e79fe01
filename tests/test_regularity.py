import numpy as np
import pytest

from cstarreg.errors import (
    CornerNotInvertible,
    NotAWitness,
    NotInvertible,
    OffDiagonalNotZero,
    ShapeMismatch,
)
from cstarreg import regularity
from cstarreg.opcore import op_norm
from cstarreg.regularity import (
    PENROSE_TOL,
    block_factorize,
    block_regular_iff,
    conjugate_regular_witness,
    gap_certificate,
    is_regular,
    moore_penrose,
    verify_penrose,
)

from conftest import (
    random_complex,
    random_projection,
    random_with_condition,
    random_with_spectrum,
)

# spectra with singular values between the polar rank cut (1e-9 ||a||) and
# 3.2e-5 ||a||: a cut at 1e-9 ||a||^2 on the eigenvalues of a*a drops them
BAND_SPECTRA = [
    (1.0, 1e-5),
    tuple(np.geomspace(1.0, 1e-5, 8)),
    tuple(np.geomspace(1.0, 1e-7, 8)),
    tuple(np.geomspace(1.0, 1e-8, 8)),
    (1.0, 1e-4, 1e-8, 1e-12),
]


class TestIsRegular:
    def test_projection(self, rng):
        p = random_projection(rng, 4, 2)
        rep = is_regular(p)
        assert rep.is_regular
        assert rep.gap.epsilon == pytest.approx(1.0, abs=1e-8)

    def test_zero_has_infinite_gap(self):
        rep = is_regular(np.zeros((3, 3)))
        assert rep.is_regular
        assert rep.gap.epsilon == np.inf

    def test_witness_identity(self, rng):
        a = random_complex(rng, 5)
        rep = is_regular(a)
        b = rep.mp_inverse
        assert op_norm(a @ b @ a - a) <= 1e-8 * (1 + op_norm(a))


class TestMoorePenrose:
    def test_projection_is_its_own_inverse(self, rng):
        p = random_projection(rng, 5, 3)
        assert op_norm(moore_penrose(p) - p) <= 1e-10

    def test_diagonal(self):
        assert np.allclose(moore_penrose(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_matches_pinv_oracle(self, rng):
        a = random_complex(rng, 5, 3)
        assert op_norm(moore_penrose(a) - np.linalg.pinv(a)) <= 1e-8

    def test_rank_deficient_matches_pinv(self, rng):
        a = random_complex(rng, 6, 2) @ random_complex(rng, 2, 6)
        assert op_norm(moore_penrose(a) - np.linalg.pinv(a)) <= 1e-8

    @pytest.mark.parametrize("spectrum", BAND_SPECTRA, ids=lambda s: f"n{len(s)}-{min(s):.0e}")
    def test_band_spectra_match_pinv_at_rank_cut(self, rng, spectrum):
        n = len(spectrum)
        q1, _ = np.linalg.qr(random_complex(rng, n))
        q2, _ = np.linalg.qr(random_complex(rng, n))
        a = (q1 * np.asarray(spectrum)) @ q2.conj().T
        mp = moore_penrose(a)
        oracle = np.linalg.pinv(a, 1e-9)  # the polar rank cut, relative to ||a||
        # fixed bounds: forming |a| costs about eps * kappa <= 2e-8 here,
        # while a dropped singular value gives errors of order 1 in both
        assert op_norm(mp - oracle) <= 1e-6 * op_norm(oracle)
        assert op_norm(a @ mp - a @ oracle) <= 1e-6

    def test_lives_in_generated_algebra(self, rng):
        """The MP inverse lies in the *-algebra generated by a: project it
        onto span{(a*a)^k a*, k=0..n-1} and check the residual vanishes."""
        n = 5
        q1, _ = np.linalg.qr(random_complex(rng, n))
        q2, _ = np.linalg.qr(random_complex(rng, n))
        s = rng.uniform(0.3, 1.0, n)
        a = (q1 * s) @ q2.conj().T
        mp = moore_penrose(a)
        h = a.conj().T @ a
        basis = []
        m = a.conj().T
        for _ in range(n):
            basis.append(m.reshape(-1))
            m = h @ m
        coeffs, *_ = np.linalg.lstsq(np.array(basis).T, mp.reshape(-1), rcond=None)
        resid = op_norm((np.array(basis).T @ coeffs - mp.reshape(-1)).reshape(n, n))
        assert resid <= 1e-6


class TestVerifyPenrose:
    def test_projection_pair(self, rng):
        p = random_projection(rng, 4, 2)
        assert verify_penrose(p, p)

    def test_zero_is_not_an_inverse(self, rng):
        a = random_complex(rng, 3)
        assert not verify_penrose(a, np.zeros((3, 3)))

    def test_mp_passes(self, rng):
        a = random_complex(rng, 6, 4)
        assert verify_penrose(a, moore_penrose(a))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            verify_penrose(random_complex(rng, 3, 2), random_complex(rng, 3, 2))

    def test_uniqueness_up_to_tolerance(self, rng):
        """Two matrices passing verify_penrose for the same a agree up to a
        modest multiple of the tolerance."""
        tol = PENROSE_TOL
        for _ in range(10):
            a = random_complex(rng, 4)
            b1 = moore_penrose(a)
            b2 = np.linalg.pinv(a)
            assert verify_penrose(a, b1) and verify_penrose(a, b2)
            bound = 100 * tol * (1 + op_norm(a)) * (1 + op_norm(b1) + op_norm(b2))
            assert op_norm(b1 - b2) <= bound

    @pytest.mark.parametrize("shape", ((3, 2), (2, 3)))
    def test_batched_norms_equal_op_norm(self, rng, monkeypatch, shape):
        """The eight norms, stacked by shape (a and aba - a, b and bab - b,
        the m x m and the n x n residuals), are the bits op_norm gives."""
        seen = []

        def spy(mats):
            mats = list(mats)
            norms = orig(mats)
            seen.extend(zip(mats, norms))
            return norms
        orig = regularity.op_norms
        monkeypatch.setattr(regularity, "op_norms", spy)
        a = random_complex(rng, *shape)
        assert verify_penrose(a, moore_penrose(a))
        assert not verify_penrose(a, moore_penrose(a) + 1e-3 * random_complex(rng, *shape[::-1]))
        assert len(seen) == 16 and len({m.shape for m, _ in seen}) == 4
        assert all(norm == op_norm(m) for m, norm in seen)


class TestVerifyPenroseScaling:
    """Each residual is scaled by the norms of its own degree, so the test
    neither accepts an inverse that drops singular values in the band
    between the rank cut and 3.2e-5 ||a||, nor rejects a correct inverse
    because ||a^+|| is large."""

    def test_accepts_mp_on_wide_spectrum(self):
        # 11 of these 50 were rejected with one tolerance 1e-8 (1 + ||a|| + ||b||)
        for seed in range(50):
            _, _, a = random_with_spectrum(np.random.default_rng(seed), (1.0, 1e-4, 1e-8, 1e-12))
            assert verify_penrose(a, moore_penrose(a)), seed

    def test_accepts_mp_and_pinv_on_gaussians(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a = random_complex(rng, 2 + seed % 15)
            assert verify_penrose(a, moore_penrose(a)), seed
            assert verify_penrose(a, np.linalg.pinv(a)), seed

    @pytest.mark.parametrize("spectrum", BAND_SPECTRA[:4], ids=lambda s: f"n{len(s)}-{min(s):.0e}")
    def test_rejects_inverse_truncated_in_band(self, rng, spectrum):
        # the inverse that keeps only singular values above 3.2e-5 ||a||;
        # three of these four were accepted before
        _, _, a = random_with_spectrum(rng, spectrum)
        assert not verify_penrose(a, np.linalg.pinv(a, 3.2e-5))
        assert verify_penrose(a, moore_penrose(a))

    def test_accepts_mp_dropping_a_value_below_rank_cut(self):
        # a^+ drops 1e-10 <= TAU_RANK ||a||, so ||aba - a|| = 1e-10
        a = np.diag([1.0, 1e-10]).astype(complex)
        b = moore_penrose(a)
        assert np.allclose(b, np.diag([1.0, 0.0]), rtol=0, atol=1e-15)
        assert verify_penrose(a, b)

    @pytest.mark.parametrize("n, tail", ((8, 2), (16, 3)))
    def test_accepts_mp_on_tails_below_rank_cut(self, n, tail):
        # kept part geometric from 1 down to 10^-U(1,4), tail at 10^-U(10,12)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            kept = np.geomspace(1.0, 10.0 ** -rng.uniform(1.0, 4.0), n - tail)
            low = 10.0 ** -rng.uniform(10.0, 12.0, tail)
            _, _, a = random_with_spectrum(rng, np.concatenate([kept, low]))
            assert verify_penrose(a, moore_penrose(a)), seed
            # dropping the smallest kept value (>= 1e-4) still fails
            assert not verify_penrose(a, np.linalg.pinv(a, 1.1 * kept[-1])), seed

    def test_zero_pair(self):
        z = np.zeros((3, 2))
        assert verify_penrose(z, z.T)
        assert not verify_penrose(z, np.ones((2, 3)))


class TestFactorizations:
    def test_moore_penrose_is_one_svd(self, rng, linalg_calls):
        moore_penrose(random_complex(rng, 6))
        assert linalg_calls == {"svd": 1, "eigh": 0}

    def test_gap_certificate_is_one_svd(self, rng, linalg_calls):
        a = random_complex(rng, 6, 4)
        gap = gap_certificate(a)
        assert linalg_calls == {"svd": 1, "eigh": 0}
        assert gap == is_regular(a).gap

    def test_is_regular_is_one_svd(self, rng, linalg_calls):
        is_regular(random_complex(rng, 6, 4))
        assert linalg_calls == {"svd": 1, "eigh": 0}


class TestConjugation:
    def test_identity_conjugators(self, rng):
        a = random_complex(rng, 4)
        b = moore_penrose(a)
        eye = np.eye(4)
        c = conjugate_regular_witness(a, b, eye, eye, eye, eye)
        assert op_norm(c - b) <= 1e-12

    def test_scalar_scaling(self, rng):
        p = random_projection(rng, 3, 2)
        eye = np.eye(3)
        c = conjugate_regular_witness(p, p, 2 * eye, 0.5 * eye, eye, eye)
        # witness for 2p is p/2
        assert op_norm(c - 0.5 * p) <= 1e-10

    def test_random_conjugation(self, rng):
        for _ in range(5):
            a = random_complex(rng, 5)
            b = moore_penrose(a)
            u = random_with_condition(rng, 5, 1e3)
            v = random_with_condition(rng, 5, 1e2)
            c = conjugate_regular_witness(a, b, u, np.linalg.inv(u), v, np.linalg.inv(v))
            uav = u @ a @ v
            assert op_norm(uav @ c @ uav - uav) <= 1e-7 * 1e5 * (1 + op_norm(uav))

    def test_rejects_wrong_inverse(self, rng):
        a = random_complex(rng, 3)
        b = moore_penrose(a)
        eye = np.eye(3)
        with pytest.raises(NotInvertible):
            conjugate_regular_witness(a, b, 2 * eye, eye, eye, eye)

    def test_rejects_non_witness(self, rng):
        a = random_complex(rng, 3)
        eye = np.eye(3)
        with pytest.raises(NotAWitness):
            conjugate_regular_witness(a, np.zeros((3, 3)), eye, eye, eye, eye)

    def test_rejects_bad_condition(self, rng):
        a = random_complex(rng, 4)
        b = moore_penrose(a)
        u = random_with_condition(rng, 4, 1e8)
        eye = np.eye(4)
        with pytest.raises(NotInvertible):
            conjugate_regular_witness(a, b, u, np.linalg.inv(u), eye, eye, tol=1e-2)


def _block_instance(rng, n=6, rank=3):
    """x with q x (1-p) = 0: x = q x p + (1-q) x p + (1-q) x (1-p) for random
    projections p, q of equal rank and an invertible corner."""
    qu, _ = np.linalg.qr(random_complex(rng, n))
    wu, _ = np.linalg.qr(random_complex(rng, n))
    p = wu[:, :rank] @ wu[:, :rank].conj().T
    q = qu[:, :rank] @ qu[:, :rank].conj().T
    s = rng.uniform(0.5, 2.0, rank)
    corner = (qu[:, :rank] * s) @ wu[:, :rank].conj().T
    corner_dag = (wu[:, :rank] / s) @ qu[:, :rank].conj().T
    eye = np.eye(n)
    noise = random_complex(rng, n)
    x = corner + (eye - q) @ noise @ p + (eye - q) @ noise @ (eye - p)
    return x, p, q, corner_dag


class TestBlockFactorize:
    def test_trivial_projections(self, rng):
        a = random_complex(rng, 3)
        a_dag = np.linalg.inv(a)
        eye = np.eye(3)
        ell, dd = block_factorize(a, eye, eye, a_dag)
        assert op_norm(ell - eye) <= 1e-10
        assert op_norm(dd - a) <= 1e-10

    def test_factorization_identity(self, rng):
        for _ in range(5):
            x, p, q, a_dag = _block_instance(rng)
            ell, dd = block_factorize(x, p, q, a_dag)
            assert op_norm(ell @ dd - x) <= 1e-8 * (1 + op_norm(x))

    def test_l_inverse(self, rng):
        x, p, q, a_dag = _block_instance(rng)
        ell, _ = block_factorize(x, p, q, a_dag)
        eye = np.eye(6)
        ell_inv = eye - (eye - q) @ x @ p @ a_dag  # 1 - c a^+
        assert op_norm(ell @ ell_inv - eye) <= 1e-8

    def test_off_diagonal_rejected(self, rng):
        x, p, q, a_dag = _block_instance(rng)
        x_bad = x + q @ random_complex(rng, 6) @ (np.eye(6) - p)
        with pytest.raises(OffDiagonalNotZero):
            block_factorize(x_bad, p, q, a_dag)

    def test_corner_not_invertible(self, rng):
        x, p, q, _ = _block_instance(rng)
        with pytest.raises(CornerNotInvertible):
            block_factorize(x, p, q, np.zeros((6, 6)))

    def test_flag_agreement(self, rng):
        for _ in range(20):
            x, p, q, a_dag = _block_instance(rng, n=5, rank=2)
            x_reg, d_reg = block_regular_iff(x, p, q, a_dag)
            assert x_reg == d_reg

    def test_gap_bounds_through_the_factorization(self):
        """The quantitative form of criterion 3's flag agreement, on its 200
        seeded instances. Write eps(y) for the smallest singular value of y
        above the rank cut. D = a + d with a = q x p and d = (1-q) x (1-p)
        acting between orthogonal pairs of subspaces, so the singular values
        of D are those of a and of d together and eps(D) = min(eps(a),
        eps(d)) =: m. With x = L D and L invertible, x and D have the same
        rank, and the r-th singular value of a product obeys
        s_r(L D) >= s_min(L) s_r(D) = s_r(D) / ||L^-1|| and, from
        D = L^-1 x, s_r(D) >= s_r(x) / ||L||. So
        eps(x) >= m / ||L^-1|| and m >= eps(x) / ||L||. The first of these
        came within 1% of equality on these seeds, so a gap certificate off
        by more than that fails."""
        ratios = []
        for seed in range(200):
            rng = np.random.default_rng(2000 + seed)
            n = 4 + seed % 4
            rank = 1 + seed % (n - 1)
            x, p, q, a_dag = _block_instance(rng, n=n, rank=rank)
            ell, dd = block_factorize(x, p, q, a_dag)
            eye = np.eye(n)
            eps_a = is_regular(q @ x @ p).gap.epsilon
            eps_d = is_regular((eye - q) @ x @ (eye - p)).gap.epsilon
            eps_dd = is_regular(dd).gap.epsilon
            eps_x = is_regular(x).gap.epsilon
            m = min(eps_a, eps_d)
            inv_norm = op_norm(np.linalg.inv(ell))
            assert abs(eps_dd - m) <= 1e-12 * m, seed
            assert eps_x >= m / inv_norm, seed
            assert m >= eps_x / op_norm(ell), seed
            ratios.append(eps_x * inv_norm / m)
        assert min(ratios) < 1.1  # the bound is tight on this set
