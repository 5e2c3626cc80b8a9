import math
import warnings

import numpy as np
import pytest

from garchmc import _kernels_py, model
from garchmc.exceptions import InvalidParameterError, NumericOverflowError


def loglik_oracle(theta, y, sigma1_sq):
    """Brute-force per-observation Gaussian log-densities, summed."""
    a, b, w = theta
    s = sigma1_sq
    total = 0.0
    for t in range(len(y)):
        if t > 0:
            s = w + a * y[t - 1] ** 2 + b * s
        total += -0.5 * math.log(2.0 * math.pi * s) - y[t] ** 2 / (2.0 * s)
    return total


class TestCheckConstraints:
    def test_valid(self):
        assert model.check_constraints((0.1, 0.8, 0.01))

    def test_boundary_sum_rejected(self):
        assert not model.check_constraints((0.5, 0.5, 0.01))

    def test_zero_omega_rejected(self):
        assert not model.check_constraints((0.1, 0.8, 0.0))

    def test_negative_components_rejected(self):
        assert not model.check_constraints((-0.1, 0.8, 0.01))
        assert not model.check_constraints((0.1, -0.8, 0.01))

    def test_non_finite_raises(self):
        with pytest.raises(InvalidParameterError):
            model.check_constraints((float("nan"), 0.8, 0.01))
        with pytest.raises(InvalidParameterError):
            model.check_constraints((0.1, float("inf"), 0.01))

    def test_param_vector_accepted(self):
        assert model.check_constraints(model.ParamVector(0.1, 0.8, 0.01))


class TestComputeVolatility:
    def test_hand_recursion_two_obs(self):
        out = model.compute_volatility((0.1, 0.8, 0.01), [0.5, -0.3], 0.05)
        np.testing.assert_allclose(out, [0.05, 0.075], rtol=1e-14)

    def test_hand_recursion_three_obs(self):
        out = model.compute_volatility((0.1, 0.8, 0.01), [0.5, -0.3, 0.0], 0.05)
        np.testing.assert_allclose(out, [0.05, 0.075, 0.079], rtol=1e-14)

    def test_tiny_coefficients_pin_at_omega(self):
        y = np.linspace(-1, 1, 50)
        out = model.compute_volatility((1e-14, 1e-14, 0.5), y, 0.5)
        np.testing.assert_allclose(out, 0.5, rtol=1e-10)

    def test_outputs_bounded_below_by_omega(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.uniform(0.01, 0.4, 2)
            w = rng.uniform(0.001, 0.1)
            y = rng.standard_normal(100)
            out = model.compute_volatility((a, b, w), y, w + 0.01)
            assert np.all(out[1:] >= w)
            assert np.all(out > 0)

    def test_invalid_theta_raises(self):
        with pytest.raises(InvalidParameterError):
            model.compute_volatility((0.5, 0.6, 0.01), [0.1, 0.2], 0.05)

    def test_deterministic(self):
        y = np.random.default_rng(2).standard_normal(200)
        a = model.compute_volatility((0.1, 0.8, 0.01), y, 0.05)
        b = model.compute_volatility((0.1, 0.8, 0.01), y, 0.05)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 250, 2000])
@pytest.mark.parametrize("beta", [0.0, 0.5, 0.999999])
def test_fallback_volatility_is_the_plain_float_recursion(n, beta):
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n)
    alpha, omega, s = 0.3 * (1.0 - beta), 0.05, 0.7
    want = [s]
    for yt in y[:-1].tolist():
        s = (omega + alpha * (yt * yt)) + beta * s
        want.append(s)
    assert np.array_equal(_kernels_py.volatility(y, alpha, beta, omega, 0.7), want)


class TestLogLikelihood:
    def test_standard_normal_at_zero(self):
        got = model.log_likelihood((0.1, 0.8, 0.01), [0.0], 1.0)
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-14)

    def test_direct_substitution(self):
        got = model.log_likelihood((0.1, 0.8, 0.01), [2.0], 4.0)
        assert got == pytest.approx(-0.5 * math.log(8 * math.pi) - 0.5, rel=1e-14)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(0.01, 0.4)
            b = rng.uniform(0.01, 0.95 - a)
            w = rng.uniform(0.001, 0.5)
            n = rng.integers(1, 11)
            y = rng.standard_normal(n)
            s1 = rng.uniform(0.01, 2.0)
            got = model.log_likelihood((a, b, w), y, s1)
            want = loglik_oracle((a, b, w), y, s1)
            assert got == pytest.approx(want, rel=1e-12)

    def test_overflow_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError):
                model.log_likelihood((1e-8, 1e-8, 1e-300), [1e200, 1e200], 1e-300)


class TestLogPosterior:
    def test_outside_region_is_log_zero(self):
        lp = model.log_posterior((0.6, 0.6, 0.01), [0.1, 0.2], 0.05)
        assert lp == model.LOG_ZERO

    def test_inside_region_equals_likelihood(self):
        y = [0.5, -0.3, 0.2]
        lp = model.log_posterior((0.1, 0.8, 0.01), y, 0.05)
        ll = model.log_likelihood((0.1, 0.8, 0.01), y, 0.05)
        assert lp == ll

    def test_log_differences_equal_likelihood_differences(self):
        y = np.random.default_rng(4).standard_normal(30)
        t1, t2 = (0.1, 0.8, 0.01), (0.05, 0.9, 0.02)
        dp = model.log_posterior(t1, y, 0.05) - model.log_posterior(t2, y, 0.05)
        dl = model.log_likelihood(t1, y, 0.05) - model.log_likelihood(t2, y, 0.05)
        assert dp == dl

    def test_fast_closure_matches(self):
        y = np.random.default_rng(5).standard_normal(50)
        target = model.make_log_posterior(y, 0.3)
        theta = np.array([0.1, 0.8, 0.01])
        assert target(theta) == model.log_posterior(theta, y, 0.3)
        assert target(np.array([0.6, 0.6, 0.01])) == model.LOG_ZERO


BLOCK = _kernels_py.BLOCK


class TestLogLikelihoodBatch:
    @pytest.mark.parametrize("beta", [1e-9, 0.5, 0.999999])
    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 250, 2000])
    def test_rows_match_scalar_kernel(self, n, beta):
        # omega >= 0.2 and sigma1_sq = 1 keep every s_t above 1/(2 pi), so all
        # terms log(2 pi s) + y^2/s are positive and the relative comparison
        # is not spoilt by cancellation in the sum.
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n)
        for k in (0, 1, 7, 1000):
            thetas = np.column_stack([
                rng.uniform(0.0, 1.0 - beta, k), np.full(k, beta), rng.uniform(0.2, 1.0, k),
            ])
            got = _kernels_py.log_likelihood_batch(y, thetas, 1.0)
            want = np.array([_kernels_py.log_likelihood(y, *row, 1.0) for row in thetas])
            assert got.shape == (k,)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(1, 11)
            y = rng.standard_normal(n)
            s1 = rng.uniform(0.01, 2.0)
            a = rng.uniform(0.01, 0.4, 4)
            b = rng.uniform(0.01, 0.95 - a)
            w = rng.uniform(0.001, 0.5, 4)
            thetas = np.column_stack([a, b, w])
            got = _kernels_py.log_likelihood_batch(y, thetas, s1)
            for value, theta in zip(got, thetas):
                assert value == pytest.approx(loglik_oracle(theta, y, s1), rel=1e-12)


class TestBatchLogPosterior:
    def test_outside_rows_are_exactly_log_zero(self):
        y = np.random.default_rng(8).standard_normal(300)
        thetas = np.array([
            [0.1, 0.8, 0.01],
            [0.6, 0.6, 0.01],       # alpha + beta > 1
            [0.5, 0.5, 0.01],       # alpha + beta == 1
            [0.1, 0.8, 0.0],        # omega == 0
            [-0.1, 0.8, 0.01],
            [0.1, -0.8, 0.01],
            [0.1, 1e300, 0.01],     # would overflow if it were scored
            [np.nan, 0.8, 0.01],
            [0.05, 0.9, 0.02],
        ])
        got = model.make_batch_log_posterior(y, 0.3)(thetas)
        inside = np.array([True, False, False, False, False, False, False, False, True])
        assert np.all(got[~inside] == model.LOG_ZERO)
        np.testing.assert_array_equal(
            got[inside], _kernels_py.log_likelihood_batch(y, thetas[inside], 0.3)
        )
        target = model.make_log_posterior(y, 0.3)
        for value, theta in zip(got, thetas):
            assert value == pytest.approx(target(theta), rel=1e-14)

    def test_overflow_raises(self):
        score = model.make_batch_log_posterior([1e200, 1e200], 1e-300)
        thetas = np.array([[0.1, 0.8, 0.01], [1e-8, 1e-8, 1e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError):
                score(thetas)

