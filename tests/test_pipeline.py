import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cstarreg import opcore, pipeline
from cstarreg.errors import SpectralCollision, TooFar
from cstarreg.opcore import (
    SVDFrame,
    abs_of,
    as_matrix,
    eta_sep,
    identity_fn,
    make_h_pair,
    op_norm,
    proof_f,
    proof_g,
)
from cstarreg.pipeline import (
    CHECK_SCREEN,
    EXACT_MATCH_TOL,
    PipelineTrace,
    approx_polar_from_pipeline,
    construct_partial_isometry,
)

from conftest import random_complex, random_with_spectrum


def _svd_projections(frame: SVDFrame, level):
    """Right/left spectral projections e, f of |a| and |a*| above `level`,
    read from one SVD frame so the left/right bases stay paired."""
    ur, _, wr = frame.above(level)
    return wr @ wr.conj().T, ur @ ur.conj().T


def _reference_checks(a, x, delta: float) -> PipelineTrace:
    """construct_partial_isometry with every residual taken as the 2-norm of
    an n x n projection sandwich f_i M e_j in the ambient algebra: the
    independent reference for the sub-block norms in the frame of a."""
    a = as_matrix(a)
    x = as_matrix(x)
    n = a.shape[0]
    if a.shape != x.shape or a.shape[0] != a.shape[1]:
        raise ValueError("pipeline expects square matrices of equal shape")
    eye = np.eye(n)

    beta = op_norm(a - x)
    if beta >= delta:
        raise TooFar(f"||a - x|| = {beta:.6g} >= delta = {delta:.6g}")

    frame_a = SVDFrame.of(a)
    parts = frame_a.polar()
    v = parts.v
    abs_a = parts.abs_a
    eta = opcore.eta_sep(frame_a.norm)

    opcore.check_clear(delta, frame_a.s, eta)
    e_delta, f_delta = _svd_projections(frame_a, delta)

    checks: dict[str, float] = {}
    short_circuit = beta <= EXACT_MATCH_TOL * (1.0 + frame_a.norm)
    if short_circuit:
        # a = x to rounding: c := x
        gamma = (beta + delta) / 2.0
        frame_c = SVDFrame.of(x)
    else:
        gamma = opcore.clear_of((beta + delta) / 2.0, frame_a.s, eta, below=delta)
        e_gamma, f_gamma = _svd_projections(frame_a, gamma)

        y = (x - a) / beta

        g_abs = frame_a.fn_abs(proof_g(gamma))
        f_abs = frame_a.fn_abs(proof_f(gamma))

        # sup |beta*g| over [0, inf) is beta/gamma < 1, so 1 + beta g(|a|) v* y
        # is invertible; the operator norm is only bounded by that sup
        checks["beta_g_sup_bound"] = max(op_norm(beta * g_abs) - beta / gamma, 0.0)
        t_mat = eye + beta * (g_abs @ v.conj().T @ y)
        t_inv = np.linalg.inv(t_mat)
        checks["t_invertible"] = op_norm(t_mat @ t_inv - eye)

        b = x @ t_inv @ f_abs

        # corner identity f_gamma x = v e_gamma |a| (1 + beta g(|a|) v* y)
        checks["corner_identity"] = op_norm(f_gamma @ x - v @ e_gamma @ abs_a @ t_mat)
        checks["f_gamma_b"] = op_norm(f_gamma @ b - v @ e_gamma)

        mu1 = (gamma + delta) / 2.0
        h1, h2 = make_h_pair(gamma, mu1, delta)
        h1_left = frame_a.fn_abs_star(h1)
        h2_right = frame_a.fn_abs(h2)
        c = b - h1_left @ b @ (eye - h2_right)

        checks.update(block_shape_residuals(
            c, b, v, h1_left, h2_right, e_delta, e_gamma, f_delta, f_gamma, eye))

        frame_c = SVDFrame.of(c)
        e1, f1 = e_delta, f_delta
        checks["abs_c_e1"] = op_norm(frame_c.fn_abs(identity_fn) @ e1 - e1)
        checks["f1_abs_cstar"] = op_norm(f1 @ frame_c.fn_abs_star(identity_fn) - f1)

    w = frame_c.polar().v
    checks["partial_isometry"] = op_norm(w @ w.conj().T @ w - w)
    checks["final_we_delta"] = op_norm(w @ e_delta - v @ e_delta)
    checks["final_f_delta_w"] = op_norm(f_delta @ w - f_delta @ v)

    return PipelineTrace(
        beta=beta, gamma=gamma, delta=delta, w=w, v=v, abs_a=abs_a,
        short_circuit=short_circuit, checks=checks,
    )


def block_shape_residuals(c, b, v, h1_left, h2_right, e_delta, e_gamma, f_delta, f_gamma, eye):
    """Residuals of the nine blocks of c against its expected shape

        [ v e1    0          0    ]
        [ 0       v e2       0    ]
        [ 0       b32 h2     b33  ]

    plus the vanishing cross term h1(|a*|) v e2 (1 - h2(|a|))."""
    e1 = e_delta
    e2 = e_gamma - e_delta
    e3 = eye - e_gamma
    f1 = f_delta
    f2 = f_gamma - f_delta
    f3 = eye - f_gamma
    b32 = f3 @ b @ e2
    b33 = f3 @ b @ e3
    return {
        "block_11": op_norm(f1 @ c @ e1 - v @ e1),
        "block_12": op_norm(f1 @ c @ e2),
        "block_13": op_norm(f1 @ c @ e3),
        "block_21": op_norm(f2 @ c @ e1),
        "block_22": op_norm(f2 @ c @ e2 - v @ e2),
        "block_23": op_norm(f2 @ c @ e3),
        "block_31": op_norm(f3 @ c @ e1),
        "block_32": op_norm(f3 @ c @ e2 - b32 @ h2_right),
        "block_33": op_norm(f3 @ c @ e3 - b33),
        "cross_term": op_norm(h1_left @ v @ e2 @ (eye - h2_right)),
    }


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
        e_delta, _ = _svd_projections(SVDFrame.of(a), trace.delta)
        assert op_norm(trace.w @ e_delta - trace.v @ e_delta) <= 1e-10


FINAL_CHECKS = {"partial_isometry", "final_we_delta", "final_f_delta_w"}
BLOCK_CHECKS = {"cross_term", *(f"block_{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))}
FULL_CHECKS = FINAL_CHECKS | BLOCK_CHECKS | {
    "beta_g_sup_bound", "t_invertible", "corner_identity", "f_gamma_b", "abs_c_e1",
    "f1_abs_cstar"}


class TestCheckKeys:
    """The residuals lemma3 reports: 3 on the short circuit, 19 on the full
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
        assert len(FULL_CHECKS) == 19 and set(trace.checks) == FULL_CHECKS


class TestHandCase:
    def test_diagonal_example(self):
        a = np.diag([3.0, 0.1]).astype(complex)
        x = np.diag([3.0, 0.0]).astype(complex)
        trace = construct_partial_isometry(a, x, 0.5)
        assert not trace.short_circuit
        assert trace.beta == pytest.approx(0.1)
        e_delta, _ = _svd_projections(SVDFrame.of(a), 0.5)
        assert np.allclose(e_delta, np.diag([1.0, 0.0]))
        assert trace.max_residual() <= 1e-12
        assert np.allclose(trace.w @ e_delta, np.diag([1.0, 0.0]))


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
        e_delta, f_delta = _svd_projections(SVDFrame.of(a), 0.5)
        assert op_norm(trace.w @ e_delta - trace.v @ e_delta) <= 1e-7
        assert op_norm(f_delta @ trace.w - f_delta @ trace.v) <= 1e-7


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

    def test_gamma_nudged_off_a_singular_value(self):
        """gamma = (0.1 + 0.5) / 2 lands on the singular value 0.3 and
        moves up by one step of 2 eta."""
        a = np.diag([1.0, 0.3, 0.1]).astype(complex)
        trace = construct_partial_isometry(a, a + 0.1 * np.eye(3), 0.5)
        eta = eta_sep(1.0)
        assert trace.gamma == (trace.beta + 0.5) / 2.0 + 2.0 * eta
        assert abs(trace.gamma - (0.3 + 2.0 * eta)) <= 1e-15
        assert trace.max_residual() <= 1e-10

    def test_gamma_cannot_pass_delta(self):
        """gamma starts on delta - 3 eta, steps to delta - eta, still within
        eta of delta - 1.5 eta, and the next step would reach delta."""
        delta, eta = 0.5, eta_sep(1.0)
        a = np.diag([1.0, delta - 3.0 * eta, delta - 1.5 * eta]).astype(complex)
        with pytest.raises(SpectralCollision):
            construct_partial_isometry(a, a + (delta - 6.0 * eta) * np.eye(3), delta)

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
        """a and c, each factorized once; every function of |a|, |a*|, |c|
        and |c*| is read off those frames."""
        a, x = _instance(5, 6, 0.5)
        trace = construct_partial_isometry(a, x, 0.5)
        assert not trace.short_circuit
        assert linalg_calls == {"svd": 2, "eigh": 0}

    def test_full_path_factorizes_a_and_c_never_x(self, svd_inputs):
        """The SVD inputs, by their bytes, are a and then the c that the
        sandwich reference builds on its own; x is never factorized."""
        a, x = _instance(5, 6, 0.5)
        assert not construct_partial_isometry(a, x, 0.5).short_circuit
        seen = list(svd_inputs)
        svd_inputs.clear()
        _reference_checks(a, x, 0.5)
        assert seen == svd_inputs and len(seen) == 2
        assert seen[0] == (a.shape, a.tobytes())
        assert (x.shape, x.tobytes()) not in seen

    def test_short_circuit_reuses_the_frame_of_x(self, rng, svd_inputs):
        """a, then x: c = x is read off the frame of x."""
        a = random_complex(rng, 6)
        x = a + 1e-14 * random_complex(rng, 6)
        trace = construct_partial_isometry(a, x, 0.3 * op_norm(a))
        assert trace.short_circuit
        assert svd_inputs == [(a.shape, a.tobytes()), (x.shape, x.tobytes())]

    def test_builds_only_the_polar_parts_it_reads(self, monkeypatch):
        """v and |a| of a and the v of c, with the bits of polar(); the
        support projections are never built."""
        a, x = _instance(5, 6, 0.5)
        parts_a = SVDFrame.of(a).polar()

        def refuse(self):
            raise AssertionError("polar() builds parts the pipeline does not read")

        monkeypatch.setattr(SVDFrame, "polar", refuse)
        trace = construct_partial_isometry(a, x, 0.5)
        assert not trace.short_circuit
        assert trace.v.tobytes() == parts_a.v.tobytes()
        assert trace.abs_a.tobytes() == parts_a.abs_a.tobytes()

    def test_approx_polar_reads_abs_a_off_the_trace(self, linalg_calls):
        a, x = _instance(5, 6, 0.5)
        w, err = approx_polar_from_pipeline(a, x, 0.5)
        assert linalg_calls == {"svd": 2, "eigh": 0}
        assert err == pytest.approx(op_norm(a - w @ abs_of(a)), rel=1e-12)


def _matches_reference(a, x, delta):
    """The trace of construct_partial_isometry against _reference_checks: w
    bit for bit, beta, gamma and short_circuit exactly, and every check
    within 1e-13 (1 + ||a||) absolute; the residuals are rounding, so a
    relative gate would mean nothing."""
    trace = construct_partial_isometry(a, x, delta)
    ref = _reference_checks(a, x, delta)
    assert trace.w.tobytes() == ref.w.tobytes()
    assert (trace.beta, trace.gamma, trace.short_circuit) == (
        ref.beta, ref.gamma, ref.short_circuit)
    assert set(trace.checks) == set(ref.checks)
    tol = 1e-13 * (1.0 + op_norm(a))
    gaps = {k: abs(trace.checks[k] - ref.checks[k]) for k in ref.checks}
    assert max(gaps.values()) <= tol, gaps
    return trace, ref


class TestFrameResidualsMatchSandwiches:
    SIZES = (2, 3, 5, 8, 13, 21, 34, 64)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded(self, seed):
        # 8 sizes against 3 ratios: every pair within the first 24 seeds
        n, ratio = self.SIZES[seed % 8], (0.2, 0.5, 0.9)[seed % 3]
        trace, _ = _matches_reference(*_instance(seed, n, ratio), 0.5)
        assert not trace.short_circuit

    @pytest.mark.parametrize("n", (6, 16, 32))
    @pytest.mark.parametrize("ratio", (0.2, 0.9))
    def test_geometric_spectrum(self, n, ratio):
        rng = np.random.default_rng(n)
        _, _, a = random_with_spectrum(rng, np.geomspace(1.0, 1e-12, n))
        y = random_complex(rng, n)
        _matches_reference(a, a + ratio * 0.5 * y / op_norm(y), 0.5)

    @pytest.mark.parametrize("x_is_a", (False, True))
    def test_exact_rank_drop(self, x_is_a):
        rng = np.random.default_rng(7)
        _, _, a = random_with_spectrum(rng, [1.0, 0.7, 0.45, 0.3, 0.0, 0.0])
        y = random_complex(rng, 6)
        x = a.copy() if x_is_a else a + 0.2 * y / op_norm(y)
        assert _matches_reference(a, x, 0.5)[0].short_circuit == x_is_a

    def test_zero(self):
        y = random_complex(np.random.default_rng(3), 4)
        trace, _ = _matches_reference(np.zeros((4, 4)), 0.3 * y / op_norm(y), 0.5)
        assert not trace.short_circuit

    @pytest.mark.parametrize("x", ([[0.8]], [[0.7 + 0.1j]], [[0.0]]))
    def test_one_by_one(self, x):
        _matches_reference(np.array([[0.8]]), np.array(x), 0.9)

    @pytest.mark.parametrize("delta", (1.2, 1.5))
    def test_delta_above_the_norm(self, delta):
        """No singular value above delta (k_delta = 0); at 1.5, beta = 0.5
        puts gamma on ||a|| = 1, it is nudged above and k_gamma = 0 too."""
        a, _ = _instance(4, 8, 0.5)
        y = random_complex(np.random.default_rng(5), 8)
        beta = delta - 1.0
        _matches_reference(a, a + beta * y / op_norm(y), delta)
        assert not _svd_projections(SVDFrame.of(a), delta)[0].any()

    def test_nudged_gamma(self):
        """gamma = (0.1 + 0.5) / 2 lands within rounding of the singular
        value 0.3 and clear_of moves it."""
        rng = np.random.default_rng(11)
        _, _, a = random_with_spectrum(rng, [1.0, 0.8, 0.3, 0.1, 0.02])
        u, _ = np.linalg.qr(random_complex(rng, 5))
        trace, _ = _matches_reference(a, a + 0.1 * u, 0.5)
        assert trace.gamma > (trace.beta + 0.5) / 2.0


_INV = np.linalg.inv


def _h1_past_mu1(gamma, mu1, delta):
    """h1 reaching 0 only at delta breaks h1 h2 = h1 on [mu1, delta]."""
    _, h2 = opcore.make_h_pair(gamma, mu1, delta)
    return (lambda t: np.clip((delta - t) / (delta - gamma), 0.0, 1.0)), h2


def _h2_is_h1(gamma, mu1, delta):
    """h2 = h1 leaves 1 - h2 nonzero where h1 is, on (gamma, mu1)."""
    h1, _ = opcore.make_h_pair(gamma, mu1, delta)
    return h1, h1


def _h2_from_half_gamma(gamma, mu1, delta):
    """h2 falling from gamma / 2 scales the corner below gamma too."""
    h1, _ = opcore.make_h_pair(gamma, mu1, delta)
    return h1, lambda t: np.clip((delta - t) / (delta - gamma / 2.0), 0.0, 1.0)


def _h1_zero(gamma, mu1, delta):
    """h1 = 0 makes c = b: the corner below delta is never cut."""
    _, h2 = opcore.make_h_pair(gamma, mu1, delta)
    return np.zeros_like, h2


def _scaled(fn, below, above):
    """The proof function fn(gamma) times `below` on [0, gamma] and times
    `above` past gamma."""
    def mutant(gamma):
        base = fn(gamma)
        return lambda t: np.where(t <= gamma, below, above) * base(t)
    return mutant


def _inverse_off(m):
    return _INV(m) + 1e-4 * np.ones_like(m)


# what a fault in t^-1, or in g through t, reaches: b = x t^-1 f(|a|), c and w
T_FAULT = {"f_gamma_b", "block_11", "block_12", "block_13", "block_21", "block_22",
           "block_23", "abs_c_e1", "f1_abs_cstar", "final_we_delta", "final_f_delta_w"}

# One planted fault per construction step, with the exact set of checks it
# lifts above 1e-7 on TestPlantedSpectrum._planted() at delta = 0.5.
MUTATIONS = [
    pytest.param("make_h_pair", _h1_past_mu1, {"block_22", "cross_term"}, id="h1-past-mu1"),
    pytest.param("make_h_pair", _h2_is_h1, {"block_22", "cross_term"}, id="h2-is-h1"),
    pytest.param("make_h_pair", _h2_from_half_gamma, {"block_22", "block_33", "cross_term"},
                 id="h2-from-half-gamma"),
    pytest.param("make_h_pair", _h1_zero,
                 {"abs_c_e1", "block_31", "block_32", "f1_abs_cstar", "final_f_delta_w",
                  "final_we_delta"}, id="c-is-b"),
    pytest.param("inv", _inverse_off, T_FAULT | {"t_invertible"}, id="t-inverse-off"),
    pytest.param("proof_g", _scaled(opcore.proof_g, 1.0, 1.01), T_FAULT | {"corner_identity"},
                 id="g-above-gamma"),
    pytest.param("proof_f", _scaled(opcore.proof_f, 1.0, 1.01),
                 {"abs_c_e1", "block_11", "block_22", "f1_abs_cstar", "f_gamma_b"},
                 id="f-above-gamma"),
    pytest.param("proof_g", _scaled(opcore.proof_g, 3.0, 1.0), {"beta_g_sup_bound"},
                 id="g-below-gamma"),
]


class TestPlantedSpectrum:
    """beta = 0.1 and delta = 0.5 give gamma = 0.3 and mu1 = 0.4, and a has
    singular values in (0, gamma], (gamma, mu1), [mu1, delta] and
    (delta, ||a||], so every block of c is non-empty. A construction fault
    must flag the same checks in the frame form and in the sandwich form."""

    SPECTRUM = (1.0, 0.7, 0.45, 0.41, 0.35, 0.33, 0.2, 0.05)

    @staticmethod
    def _planted():
        rng = np.random.default_rng(2)
        _, _, a = random_with_spectrum(rng, TestPlantedSpectrum.SPECTRUM)
        y = random_complex(rng, len(TestPlantedSpectrum.SPECTRUM))
        return a, a + 0.1 * y / op_norm(y)

    def _flags(self, a, x):
        """Checks above 1e-7, the same in both forms, whose values also
        agree to rounding: with the same b, c and w the sub-block and the
        sandwich are one norm in exact arithmetic, faulty or not."""
        flagged = [{k for k, v in trace.checks.items() if v > 1e-7}
                   for trace in _matches_reference(a, x, 0.5)]
        assert flagged[0] == flagged[1]
        return flagged[0]

    def test_every_block_is_populated(self):
        a, x = self._planted()
        trace, _ = _matches_reference(a, x, 0.5)
        gamma, mu1, s = trace.gamma, (trace.gamma + 0.5) / 2.0, np.array(self.SPECTRUM)
        assert abs(gamma - 0.3) <= 1e-12
        for lo, hi in ((0.0, gamma), (gamma, mu1), (mu1, 0.5), (0.5, 1.0)):
            assert np.any((s > lo) & (s < hi))
        assert trace.max_residual() <= 1e-12

    @pytest.mark.parametrize("name, mutant, flagged", MUTATIONS)
    def test_mutation_table(self, monkeypatch, name, mutant, flagged):
        """The fault is installed where the construction and the reference
        read it: np.linalg for inv, pipeline and this module otherwise."""
        if name == "inv":
            monkeypatch.setattr(np.linalg, "inv", mutant)
        else:
            monkeypatch.setattr(pipeline, name, mutant)
            monkeypatch.setitem(globals(), name, mutant)
        assert self._flags(*self._planted()) == flagged

    def test_table_covers_every_check(self):
        """Each check is lifted by some fault, except partial_isometry: w is
        the polar part of c whatever c is, and the check is the lemma's
        conclusion that criterion 4 relies on."""
        lifted = set().union(*(row.values[2] for row in MUTATIONS))
        assert lifted == FULL_CHECKS - {"partial_isometry"}


class TestNonFiniteResiduals:
    def test_nan_from_a_broken_inverse(self, monkeypatch):
        """A NaN that reaches the construction is op_norm's ValueError, not a
        LAPACK failure and not a max_residual that depends on key order."""
        inv = np.linalg.inv

        def broken(m):
            out = inv(m)
            out[0, 0] = np.nan
            return out
        monkeypatch.setattr(np.linalg, "inv", broken)
        a, x = _instance(0, 6, 0.5)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            construct_partial_isometry(a, x, 0.5)


def _unitary(rng, n):
    q, _ = np.linalg.qr(random_complex(rng, n))
    return q


def _screen_agrees(a, x, delta):
    """The checks above CHECK_SCREEN are those whose exact sandwich norm in
    _reference_checks is above it, and each value bounds that norm to
    rounding: it is the same 2-norm above the screen and a Frobenius norm
    below it."""
    trace, ref = construct_partial_isometry(a, x, delta), _reference_checks(a, x, delta)
    flagged = [{k for k, v in t.checks.items() if v > CHECK_SCREEN} for t in (trace, ref)]
    assert flagged[0] == flagged[1]
    tol = 1e-13 * (1.0 + op_norm(a))
    for k, v in trace.checks.items():
        assert ref.checks[k] <= v + tol, k
    return flagged[0]


class TestCheckScreen:
    """pipeline._check_norms: a Frobenius norm at or below the screen
    (||M||_2 <= ||M||_F), the exact 2-norm above it."""

    def test_diffuse_block_reports_its_exact_norm(self):
        """A 64 x 64 block with 2-norm 5e-8 has Frobenius norm 8 x 5e-8: the
        screen does not clear it, the 2-norm does."""
        m = 5e-8 * _unitary(np.random.default_rng(0), 64)
        assert np.linalg.norm(m) > CHECK_SCREEN
        (value,) = pipeline._check_norms([m])
        assert value == op_norm(m)
        assert value <= CHECK_SCREEN

    def test_below_the_screen_bounds_the_exact_norm(self):
        rng = np.random.default_rng(1)
        small = 1e-9 * random_complex(rng, 8, 5)
        mats = [small, 5e-8 * _unitary(rng, 64), np.zeros((0, 3), complex), small[:1, :1]]
        values = pipeline._check_norms(mats)
        assert op_norm(small) < values[0] == pytest.approx(np.linalg.norm(small), rel=1e-14)
        assert values[0] <= CHECK_SCREEN
        assert values[1] == op_norm(mats[1])
        assert values[2] == 0.0
        assert values[3] == pytest.approx(abs(small[0, 0]), rel=1e-14)

    def test_overflowing_frobenius_takes_the_exact_path(self):
        """Finite entries near 1e200 square to inf; the 2-norm is finite."""
        m = 1e200 * random_complex(np.random.default_rng(2), 4)
        assert np.isfinite(m).all()
        (value,) = pipeline._check_norms([m])
        assert value == op_norm(m) and np.isfinite(value)

    @pytest.mark.parametrize("name, mutant, flagged", MUTATIONS)
    def test_mutation_flags_match_exact_norms(self, monkeypatch, name, mutant, flagged):
        if name == "inv":
            monkeypatch.setattr(np.linalg, "inv", mutant)
        else:
            monkeypatch.setattr(pipeline, name, mutant)
            monkeypatch.setitem(globals(), name, mutant)
        assert _screen_agrees(*TestPlantedSpectrum._planted(), 0.5) == flagged

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_flags_match_exact_norms(self, seed):
        n = TestFrameResidualsMatchSandwiches.SIZES[seed % 8]
        assert _screen_agrees(*_instance(seed, n, (0.2, 0.5, 0.9)[seed % 3]), 0.5) == set()

    @pytest.mark.parametrize("n", (6, 16, 32))
    @pytest.mark.parametrize("ratio", (0.2, 0.9))
    def test_geometric_flags_match_exact_norms(self, n, ratio):
        rng = np.random.default_rng(n)
        _, _, a = random_with_spectrum(rng, np.geomspace(1.0, 1e-12, n))
        y = random_complex(rng, n)
        assert _screen_agrees(a, a + ratio * 0.5 * y / op_norm(y), 0.5) == set()


def _seeds_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline_seeds.py"
    spec = importlib.util.spec_from_file_location("run_pipeline_seeds", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSeedsScript:
    def test_passes_on_a_correct_pipeline(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["run_pipeline_seeds.py", "--seeds", "3"])
        assert _seeds_script().main() == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_fails_on_a_residual_above_the_screen(self, monkeypatch, capsys):
        """t^-1 off by 1e-4 lifts f_gamma_b and the block checks."""
        monkeypatch.setattr("sys.argv", ["run_pipeline_seeds.py", "--seeds", "3"])
        monkeypatch.setattr(np.linalg, "inv", _inverse_off)
        assert _seeds_script().main() == 1
        assert "FAIL: " in capsys.readouterr().out
