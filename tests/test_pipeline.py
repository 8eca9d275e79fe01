import numpy as np
import pytest

from cstarreg.errors import SpectralCollision, TooFar
from cstarreg.opcore import abs_of, eta_sep, op_norm
from cstarreg.pipeline import approx_polar_from_pipeline, construct_partial_isometry

from conftest import random_complex, random_with_spectrum


def _instance(seed, n, ratio, delta=0.5):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n)
    a /= op_norm(a)
    y = random_complex(rng, n)
    y /= op_norm(y)
    x = a + ratio * delta * y
    return a, x


class TestShortCircuit:
    def test_x_equals_a(self, rng):
        a = random_complex(rng, 4)
        trace = construct_partial_isometry(a, a.copy(), 0.3 * op_norm(a))
        assert trace.short_circuit
        assert trace.max_residual() <= 1e-10

    def test_w_matches_v_above_cut(self, rng):
        a = random_complex(rng, 4)
        trace = construct_partial_isometry(a, a.copy(), 0.3 * op_norm(a))
        assert op_norm(trace.w @ trace.e_delta - trace.v @ trace.e_delta) <= 1e-10


FINAL_CHECKS = {"partial_isometry", "final_we_delta", "final_f_delta_w"}
BLOCK_CHECKS = {"cross_term", *(f"block_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))}
FULL_CHECKS = FINAL_CHECKS | BLOCK_CHECKS | {
    "y_unit_norm", "x_decomposition", "beta_g_sup_bound", "t_invertible",
    "corner_identity", "f_gamma_b", "f_gamma_v", "abs_c_e1", "f1_abs_cstar"}


class TestCheckKeys:
    """The residuals lemma3 reports: 3 on the short circuit, 22 on the full
    path. Both paths share one tail, so neither may drop or add one."""

    def test_short_circuit_keys(self, rng):
        a = random_complex(rng, 4)
        trace = construct_partial_isometry(a, a.copy(), 0.3 * op_norm(a))
        assert trace.short_circuit
        assert set(trace.checks) == FINAL_CHECKS

    def test_full_path_keys(self):
        a, x = _instance(3, 6, 0.5)
        trace = construct_partial_isometry(a, x, 0.5)
        assert not trace.short_circuit
        assert len(FULL_CHECKS) == 22 and set(trace.checks) == FULL_CHECKS


class TestHandCase:
    def test_diagonal_example(self):
        a = np.diag([3.0, 0.1]).astype(complex)
        x = np.diag([3.0, 0.0]).astype(complex)
        trace = construct_partial_isometry(a, x, 0.5)
        assert not trace.short_circuit
        assert trace.beta == pytest.approx(0.1)
        assert np.allclose(trace.e_delta, np.diag([1.0, 0.0]))
        assert trace.max_residual() <= 1e-12
        assert np.allclose(trace.w @ trace.e_delta, np.diag([1.0, 0.0]))


class TestRandomInstances:
    @pytest.mark.parametrize("seed", range(20))
    def test_all_residuals_small(self, seed):
        n = 2 + seed % 7
        ratio = (0.2, 0.5, 0.9)[seed % 3]
        a, x = _instance(seed, n, ratio)
        trace = construct_partial_isometry(a, x, 0.5)
        assert trace.max_residual() <= 1e-7, trace.checks

    def test_block_shape(self):
        a, x = _instance(3, 6, 0.5)
        trace = construct_partial_isometry(a, x, 0.5)
        assert max(trace.checks[k] for k in BLOCK_CHECKS) <= 1e-7

    def test_beta_g_bound_is_tight(self):
        a, x = _instance(7, 5, 0.9)
        trace = construct_partial_isometry(a, x, 0.5)
        assert trace.checks["beta_g_sup_bound"] <= 1e-12

    def test_partial_isometry_agrees_with_v(self):
        a, x = _instance(11, 4, 0.5)
        trace = construct_partial_isometry(a, x, 0.5)
        assert op_norm(trace.w @ trace.e_delta - trace.v @ trace.e_delta) <= 1e-7
        assert op_norm(trace.f_delta @ trace.w - trace.f_delta @ trace.v) <= 1e-7


class TestTailBelowRankCut:
    @pytest.mark.parametrize("seed", range(4))
    def test_x_with_a_tail_value_is_regular(self, seed):
        """x has one singular value at 10^-U(10,12), which x^+ drops at the
        rank cut; x still passes the regularity check."""
        rng = np.random.default_rng(seed)
        spectrum = np.append(np.geomspace(1.0, 0.05, 5), 10.0 ** -rng.uniform(10.0, 12.0))
        _, _, x = random_with_spectrum(rng, spectrum)
        y = random_complex(rng, 6)
        a = x + 0.2 * y / op_norm(y)
        trace = construct_partial_isometry(a, x, 0.5)
        assert not trace.short_circuit
        assert trace.max_residual() <= 1e-7, trace.checks


class TestFailureModes:
    def test_too_far(self):
        a, _ = _instance(0, 3, 0.5)
        rng = np.random.default_rng(99)
        y = random_complex(rng, 3)
        y /= op_norm(y)
        with pytest.raises(TooFar):
            construct_partial_isometry(a, a + 0.6 * y, 0.5)

    def test_boundary_beta_equals_delta(self):
        a = np.diag([2.0, 0.0]).astype(complex)
        x = np.diag([2.0, 0.5]).astype(complex)
        with pytest.raises(TooFar):
            construct_partial_isometry(a, x, 0.5)

    @pytest.mark.parametrize("offset", (0.0, 0.5, -0.9))
    def test_cut_inside_guard_band(self, offset):
        a = np.diag([1.0, 0.4, 0.1]).astype(complex)
        x = a + 0.05 * np.eye(3)
        with pytest.raises(SpectralCollision):
            construct_partial_isometry(a, x, 0.4 + offset * eta_sep(1.0))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            construct_partial_isometry(random_complex(rng, 3), random_complex(rng, 4), 0.5)


class TestApproxPolar:
    def test_bound_holds(self):
        for seed in range(6):
            delta = 0.5
            a, x = _instance(seed, 4, 0.5, delta)
            w, err = approx_polar_from_pipeline(a, x, delta)
            assert err <= 2 * delta + 1e-9
            assert op_norm(w @ w.conj().T @ w - w) <= 1e-8

    def test_exact_when_x_is_a(self, rng):
        a = random_complex(rng, 4)
        a /= op_norm(a)
        w, err = approx_polar_from_pipeline(a, a.copy(), 0.2)
        # w is the exact polar part, so the error is just the cut tail
        assert err <= op_norm(a - w @ abs_of(a)) + 1e-12
        assert err <= 0.2 + 1e-9


class TestFactorizations:
    def test_one_svd_per_operand(self, linalg_calls):
        """x (inside is_regular), a and c, each factorized once; every
        function of |a|, |a*|, |c| and |c*| is read off those frames."""
        a, x = _instance(5, 6, 0.5)
        trace = construct_partial_isometry(a, x, 0.5)
        assert not trace.short_circuit
        assert linalg_calls == {"svd": 3, "eigh": 0}

    def test_short_circuit_reuses_the_frame_of_x(self, rng, svd_inputs):
        """x inside is_regular and a; c = x is read off the frame of x."""
        a = random_complex(rng, 6)
        x = a + 1e-14 * random_complex(rng, 6)
        trace = construct_partial_isometry(a, x, 0.3 * op_norm(a))
        assert trace.short_circuit
        assert len(svd_inputs) == 2
        assert len(set(svd_inputs)) == 2

    def test_approx_polar_reads_abs_a_off_the_trace(self, linalg_calls):
        a, x = _instance(5, 6, 0.5)
        w, err = approx_polar_from_pipeline(a, x, 0.5)
        assert linalg_calls == {"svd": 3, "eigh": 0}
        assert err == pytest.approx(op_norm(a - w @ abs_of(a)), rel=1e-12)
