import math
import os
import threading
import time
import warnings

import numpy as np
import pytest

from garchmc import _kernels_py, backend, model
from garchmc.exceptions import GarchMCError, NumericOverflowError


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


class TestInSupport:
    def test_valid(self):
        assert model.in_support(0.1, 0.8, 0.01)

    def test_boundary_sum_rejected(self):
        assert not model.in_support(0.5, 0.5, 0.01)

    def test_zero_omega_rejected(self):
        assert not model.in_support(0.1, 0.8, 0.0)

    def test_negative_components_rejected(self):
        assert not model.in_support(-0.1, 0.8, 0.01)
        assert not model.in_support(0.1, -0.8, 0.01)

    def test_non_finite_alpha_or_beta_lies_outside(self):
        nan, inf = float("nan"), float("inf")
        for theta in [(nan, 0.8, 0.01), (0.1, nan, 0.01), (0.1, 0.8, nan),
                      (inf, 0.8, 0.01), (0.1, inf, 0.01), (-inf, 0.8, 0.01)]:
            assert not model.in_support(*theta), theta


class TestComputeVolatility:
    """The volatility recursion of the likelihood kernel."""

    def test_hand_recursion_two_obs(self):
        out = _kernels_py.volatility([0.5, -0.3], 0.1, 0.8, 0.01, 0.05)
        np.testing.assert_allclose(out, [0.05, 0.075], rtol=1e-14)

    def test_hand_recursion_three_obs(self):
        out = _kernels_py.volatility([0.5, -0.3, 0.0], 0.1, 0.8, 0.01, 0.05)
        np.testing.assert_allclose(out, [0.05, 0.075, 0.079], rtol=1e-14)

    def test_tiny_coefficients_pin_at_omega(self):
        y = np.linspace(-1, 1, 50)
        out = _kernels_py.volatility(y, 1e-14, 1e-14, 0.5, 0.5)
        np.testing.assert_allclose(out, 0.5, rtol=1e-10)

    def test_outputs_bounded_below_by_omega(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.uniform(0.01, 0.4, 2)
            w = rng.uniform(0.001, 0.1)
            y = rng.standard_normal(100)
            out = _kernels_py.volatility(y, a, b, w, w + 0.01)
            assert np.all(out[1:] >= w)
            assert np.all(out > 0)

    def test_deterministic(self):
        y = np.random.default_rng(2).standard_normal(200)
        a = _kernels_py.volatility(y, 0.1, 0.8, 0.01, 0.05)
        b = _kernels_py.volatility(y, 0.1, 0.8, 0.01, 0.05)
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


#: The kernels the posteriors call: compiled, or the numpy twin.
KERNELS = backend.kernels


def log_post_at(theta, y, sigma1_sq):
    """The scalar posterior that scores the samplers' start points, at one
    point."""
    return model.log_posterior(y, sigma1_sq, np.asarray(theta, dtype=np.float64))


class TestLogLikelihood:
    """The log-likelihood, read through the scalar posterior inside the
    support."""

    def test_standard_normal_at_zero(self):
        got = log_post_at((0.1, 0.8, 0.01), [0.0], 1.0)
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-14)

    def test_direct_substitution(self):
        got = log_post_at((0.1, 0.8, 0.01), [2.0], 4.0)
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
            got = log_post_at((a, b, w), y, s1)
            want = loglik_oracle((a, b, w), y, s1)
            assert got == pytest.approx(want, rel=1e-12)


class TestLogPosterior:
    def test_outside_region_is_log_zero(self):
        lp = log_post_at((0.6, 0.6, 0.01), [0.1, 0.2], 0.05)
        assert lp == model.LOG_ZERO

    def test_inside_region_equals_likelihood(self):
        y = [0.5, -0.3, 0.2]
        lp = log_post_at((0.1, 0.8, 0.01), y, 0.05)
        ll = KERNELS.log_likelihood(np.array(y), 0.1, 0.8, 0.01, 0.05)
        assert lp == ll

    def test_log_differences_equal_likelihood_differences(self):
        y = np.random.default_rng(4).standard_normal(30)
        t1, t2 = (0.1, 0.8, 0.01), (0.05, 0.9, 0.02)
        dp = log_post_at(t1, y, 0.05) - log_post_at(t2, y, 0.05)
        dl = KERNELS.log_likelihood(y, *t1, 0.05) - KERNELS.log_likelihood(y, *t2, 0.05)
        assert dp == dl


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


def test_kernels_raise_typed_overflow():
    # y_0^2 / sigma1_sq overflows: the kernels raise the package's own error,
    # which callers may catch as a GarchMCError or as a FloatingPointError.
    y = np.array([0.5, -1.0, 2.0])
    theta = np.array([0.1, 0.8, 0.01])
    with np.errstate(all="ignore"):
        for call in (lambda: _kernels_py.log_likelihood(y, *theta, 1e-310),
                     lambda: _kernels_py.log_likelihood_batch(y, theta[None], 1e-310)):
            with pytest.raises(NumericOverflowError) as info:
                call()
            assert isinstance(info.value, GarchMCError)
            assert isinstance(info.value, FloatingPointError)


def test_empty_series_scores_negative_zero(either_kernels):
    theta = (0.1, 0.8, 0.01)
    for series in [[], np.empty(0)]:
        got = either_kernels.log_likelihood(series, *theta, 0.05)
        assert got == 0.0 and math.copysign(1.0, got) == -1.0
    got = either_kernels.log_likelihood_batch([], np.array([theta, theta]), 0.05)
    assert got.tolist() == [0.0, 0.0] and np.signbit(got).all()


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
        got = model.log_posterior_batch(y, 0.3, thetas)
        inside = np.array([True, False, False, False, False, False, False, False, True])
        assert np.all(got[~inside] == model.LOG_ZERO)
        np.testing.assert_array_equal(
            got[inside], KERNELS.log_likelihood_batch(y, thetas[inside], 0.3)
        )
        for value, theta in zip(got, thetas):
            assert value == pytest.approx(model.log_posterior(y, 0.3, theta), rel=1e-14)

    def test_overflow_raises(self):
        thetas = np.array([[0.1, 0.8, 0.01], [1e-8, 1e-8, 1e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError):
                model.log_posterior_batch([1e200, 1e200], 1e-300, thetas)

    def test_scalar_twin_overflow_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # The scalar posterior leaves numpy's error state to its caller.
            with np.errstate(all="ignore"), pytest.raises(NumericOverflowError):
                model.log_posterior([1e200, 1e200], 1e-300, np.array([1e-8, 1e-8, 1e-300]))


def test_rw_chain_passes_y_in_the_series_slot(either_kernels, monkeypatch):
    # Both modules hand a wrapper the one C-contiguous float64 array they
    # read y through: a list's one conversion, and such an array itself.
    loglik = either_kernels.log_likelihood

    def series_of_calls(y):
        """The series argument of each of 5 wrapper calls by rw_chain."""
        calls = []

        def recorded(*args):
            assert len(args) == 5 and args[4] == 0.7
            calls.append(args[0])
            return loglik(*args)

        rng = np.random.default_rng(0)
        shifts = np.array([0.05, 0.05, 0.01]) * (rng.random((5, 3)) - 0.5)
        with monkeypatch.context() as m:
            m.setattr(either_kernels, "log_likelihood", recorded)
            either_kernels.rw_chain(y, 0.7, np.array([0.1, 0.8, 0.01]), model.LOG_ZERO, shifts,
                                    rng.random(5))
        assert len(calls) == 5
        return calls

    y_list = [0.5, -0.3]
    calls = series_of_calls(y_list)
    assert calls[0].dtype == np.float64 and calls[0].flags.c_contiguous
    assert np.array_equal(calls[0], y_list)
    assert all(series is calls[0] for series in calls)
    y_array = np.array(y_list)
    assert all(series is y_array for series in series_of_calls(y_array))


def test_valid_call_after_overflow_is_fresh():
    y = np.array([0.5, -1.0, 2.0, 1.5])
    # s_1 is about 3e-320, so y_1^2 / s_1 overflows.
    overflow = np.array([1e-320, 1e-320, 1e-320])
    valid = np.array([0.1, 0.8, 0.01])
    with np.errstate(all="ignore"):
        for _ in range(2):
            with pytest.raises(NumericOverflowError):
                model.log_posterior(y, 1.0, overflow)
            assert (model.log_posterior(y, 1.0, valid)
                    == KERNELS.log_likelihood(y, *valid, 1.0))


def test_lists_are_accepted(either_kernels):
    y = [0.5, -0.3, 0.2, 1.1]
    theta = (0.1, 0.8, 0.01)
    want = either_kernels.log_likelihood(np.array(y), *theta, 0.05)
    assert either_kernels.log_likelihood(y, *theta, 0.05) == want
    assert np.array_equal(either_kernels.log_likelihood_batch(y, [list(theta)], 0.05),
                          either_kernels.log_likelihood_batch(np.array(y), np.array([theta]), 0.05))


class TestCompiledKernels:
    """The compiled kernels against the numpy twin, which is the reference:
    within rtol 1e-13 everywhere, since only the order of the sums differs
    and how the log(s_t) and the y_t^2/s_t are taken: the compiled kernel
    takes one log per candidate, of its product of s_t carried as a
    significand and a power of two, and one divide per two steps, over
    s_t*s_{t+1}, and redoes a chunk step by step only when its product could
    leave the normal range or its quadratic sum is not finite. The compiled
    scalar kernel equals the compiled batch row exactly, as both run one
    body: the scalar kernel in four lanes of two-double vectors, the batch
    kernel in eight lanes of four-double vectors where the CPU has AVX2.
    Checked on the first and the last 20 rows, where the batch kernel's last
    group may be short."""

    RTOL = 1e-13

    def check(self, kernels, y, thetas, sigma1_sq):
        got = kernels.log_likelihood_batch(y, thetas, sigma1_sq)
        np.testing.assert_allclose(
            got, _kernels_py.log_likelihood_batch(y, thetas, sigma1_sq), rtol=self.RTOL, atol=0.0)
        ends = np.r_[0:min(len(thetas), 20), max(len(thetas) - 20, 20):len(thetas)]
        for value, theta in zip(got[ends], thetas[ends]):
            scalar = kernels.log_likelihood(y, *theta, sigma1_sq)
            assert scalar == value
            assert scalar == pytest.approx(
                _kernels_py.log_likelihood(y, *theta, sigma1_sq), rel=self.RTOL)

    @pytest.mark.parametrize("beta", [1e-9, 0.5, 0.999999])
    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 250, 2000])
    def test_batch_cases_match_twin(self, compiled, n, beta):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n)
        for k in (0, 1, 7, 1000):
            thetas = np.column_stack([
                rng.uniform(0.0, 1.0 - beta, k), np.full(k, beta), rng.uniform(0.2, 1.0, k),
            ])
            self.check(compiled, y, thetas, 1.0)

    def test_brute_force_cases_match_twin_and_oracle(self, compiled):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(1, 11)
            y = rng.standard_normal(n)
            s1 = rng.uniform(0.01, 2.0)
            a = rng.uniform(0.01, 0.4, 4)
            b = rng.uniform(0.01, 0.95 - a)
            w = rng.uniform(0.001, 0.5, 4)
            thetas = np.column_stack([a, b, w])
            self.check(compiled, y, thetas, s1)
            for value, theta in zip(compiled.log_likelihood_batch(y, thetas, s1), thetas):
                assert value == pytest.approx(loglik_oracle(theta, y, s1), rel=1e-12)

    def test_tiny_variances_take_one_log_per_step(self, compiled):
        # Returns of 1e-12 give s_t near 1e-25, below the 2^-62 at which a
        # chunk's product is redone step by step; the tiny first half of the
        # series takes that path, the unit-scale second half does not.
        rng = np.random.default_rng(9)
        y = rng.standard_normal(400) * np.repeat([1e-12, 1.0], 200)
        thetas = np.column_stack([rng.uniform(0.01, 0.1, 50), rng.uniform(0.5, 0.999999, 50),
                                  np.full(50, 1e-26)])
        self.check(compiled, y[:200], thetas, 1e-24)
        self.check(compiled, y, thetas, 1e-24)

    @pytest.mark.parametrize("scale, n, k", [
        (1e-150, 2000, 1003),  # s_t near 1e-300, below 2^-62: every chunk is redone
        (1e150, 2000, 1003),   # s_t near 1e300: every chunk's product overflows, redone
        (1e-6, 100000, 50),    # s_t near 1e-12: every chunk carries, twos nears -4 million
    ])
    def test_scaled_series_match_twin(self, compiled, scale, n, k):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(n) * scale
        thetas = np.column_stack([rng.uniform(0.01, 0.3, k), rng.uniform(0.5, 0.69, k),
                                  rng.uniform(0.2, 1.0, k) * scale ** 2])
        self.check(compiled, y, thetas, scale ** 2)

    def test_chunks_straddling_the_redo_threshold_match_twin(self, compiled):
        # Returns of scale 2^-31 and an unconditional variance of 1.5 * 2^-62
        # move s_t back and forth across 2^-62, the least s_t that a chunk of
        # _kernels.c's CHUNK = 16 steps takes in its product: some chunks are
        # redone step by step between chunks that carry their product on.
        safe_min, chunk = 2.0 ** -62, 16
        rng = np.random.default_rng(13)
        y = rng.standard_normal(2000) * 2.0 ** -31
        a, b = rng.uniform(0.1, 0.3, 1003), rng.uniform(0.5, 0.69, 1003)
        thetas = np.column_stack([a, b, (1.0 - a - b) * 1.5 * safe_min])
        for theta in thetas[:3]:
            s = _kernels_py.volatility(y, *theta, safe_min).reshape(-1, chunk)
            straddle = (s.min(axis=1) < safe_min) & (s.max(axis=1) >= safe_min)
            carried = s.min(axis=1) >= safe_min
            assert straddle.any() and carried.any()
        self.check(compiled, y, thetas, safe_min)

    @pytest.mark.parametrize("spike, last", [(86.25, 255.5), (85.75, 256.5)],
                             ids=["pair-product-overflows", "numerator-overflows"])
    def test_spikes_in_one_pair_of_a_finite_chunk_match_twin(self, compiled, spike, last):
        # The compiled kernel divides once per two steps: (y_t^2*s_{t+1} +
        # y_{t+1}^2*s_t) / (s_t*s_{t+1}). Steps 14 and 15, the last pair of
        # the first 16-step chunk, hold spikes near 2^512, while the chunk's
        # product of s_t stays finite, since steps 0 to 12 sit at 2^-60. With
        # alpha = 2^340 and beta = 2^-900 the spikes come from single returns
        # and die out at once. In the first case the pair's product
        # overflows, so a quotient over it would lose step 15's term of
        # 2^-1.5; in the second the product is finite but the numerator
        # overflows. Either chunk must be redone with a divide per step.
        y = np.zeros(64)
        y[12:16] = 2.0 ** -20, 2.0 ** spike, 2.0 ** spike, 2.0 ** last
        y[17:] = np.random.default_rng(17).standard_normal(47) * 2.0 ** -200
        spiky, s1 = (2.0 ** 340, 2.0 ** -900, 2.0 ** -60), 2.0 ** -60
        s = _kernels_py.volatility(y, *spiky, s1)
        assert np.log2(s[14:16]) == pytest.approx([2 * spike + 340] * 2)
        with np.errstate(over="ignore"):
            overflows = [s[14] * s[15] == math.inf, y[15] ** 2 * s[14] == math.inf]
        assert overflows == [spike > 86, spike < 86]
        assert math.isfinite(math.prod(s[:16]))
        thetas = np.array([spiky] * 3 + [(0.1, 0.8, 2.0 ** -60)] + [spiky] * 5)
        self.check(compiled, y, thetas, s1)

    def test_non_finite_totals_raise_typed_overflow(self, compiled):
        y = [0.5, -1.0, 2.0]
        cases = [
            (y, (0.1, 0.8, 0.01), 1e-310),      # y_0^2 / sigma1_sq overflows
            (y, (-5.0, 0.5, 0.01), 1.0),        # a negative s_1
            ([1.0] * 3, (-2.0, 0.0, 0.5), 1.0),  # s = 1, -1.5, -1.5: a positive product
        ]
        with np.errstate(all="ignore"):
            for y, theta, s1 in cases:
                for kernels in (_kernels_py, compiled):
                    with pytest.raises(NumericOverflowError):
                        kernels.log_likelihood(y, *theta, s1)
                    with pytest.raises(NumericOverflowError):
                        kernels.log_likelihood_batch(y, np.array([theta, (0.1, 0.8, 0.01)]), s1)


def thread_count():
    """The threads of this process."""
    return len(os.listdir("/proc/self/task"))


def settled_thread_count(want, timeout_s=1.0):
    """thread_count() once it reads want, or after timeout_s: a joined
    thread can stay listed in /proc/self/task while the kernel reaps it."""
    deadline = time.monotonic() + timeout_s
    while (count := thread_count()) != want and time.monotonic() < deadline:
        time.sleep(0.001)
    return count


def batch_case(k, n, seed=0):
    """(y, thetas) of k candidates on n returns; y_0 = 1, so that the row
    (-5.0, 0.5, 0.01) has a negative s_1 and a NaN total."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    y[0] = 1.0
    thetas = np.column_stack([rng.uniform(0.01, 0.1, k), rng.uniform(0.5, 0.89, k),
                              rng.uniform(0.2, 1.0, k)])
    return y, thetas


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
class TestBatchThreads:
    """The compiled batch kernel scores its candidates in contiguous ranges,
    one per thread, on as many threads as the process may use CPUs, when
    each gets enough candidate-steps: 1003 candidates at n = 2000 do; the
    other batches here stay on the calling thread."""

    OVERFLOW = (-5.0, 0.5, 0.01)

    @pytest.mark.parametrize("k, n, tiny", [
        *(pytest.param(k, n, False, id=f"{k}-{n}")
          for k in (1, 2, 3, 17, 1003) for n in (1, 17, 250, 2000)),
        # Returns of scale 2^-40 and an omega of 2^-70 in every third row:
        # rows whose s_t fall below 2^-62 after their first chunks, which are
        # redone step by step, share each group of lanes with rows whose s_t
        # stay above omega >= 0.2 and skip the check; each thread's range
        # (501 and 502 rows on two CPUs, 1003 on one) ends in a short group.
        pytest.param(1003, 2000, True, id="1003-2000-tiny-omega"),
    ])
    def test_rows_equal_scalar_calls_bit_for_bit(self, compiled, k, n, tiny):
        y, thetas = batch_case(k, n)
        if tiny:
            y *= 2.0 ** -40
            thetas[::3, 2] = 2.0 ** -70
        got = compiled.log_likelihood_batch(y, thetas, 1.0)
        want = np.array([compiled.log_likelihood(y, *theta, 1.0) for theta in thetas])
        assert got.tobytes() == want.tobytes()

    def test_large_batch_runs_on_more_threads(self, compiled):
        # A second thread exists only within a call, so a worker scores
        # batches while this thread counts the process's threads, until it
        # has seen the kernel's helper or the worker has made 2000 calls.
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("the process may use one CPU only")
        y, thetas = batch_case(1003, 2000)
        before = thread_count()
        seen = threading.Event()

        def score():
            for _ in range(2000):
                if seen.is_set():
                    return
                compiled.log_likelihood_batch(y, thetas, 1.0)

        worker = threading.Thread(target=score)
        worker.start()
        most = before
        while worker.is_alive() and most < before + 2:
            most = max(most, thread_count())
        seen.set()
        worker.join(timeout=60)
        assert most >= before + 2

    @pytest.mark.parametrize("row", [0, -1], ids=["first-range", "last-range"])
    def test_overflow_in_either_range_raises_and_leaves_no_thread(self, compiled, row):
        y, thetas = batch_case(1003, 2000)
        before = thread_count()
        compiled.log_likelihood_batch(y, thetas, 1.0)
        assert settled_thread_count(before) == before
        thetas[row] = self.OVERFLOW
        with np.errstate(all="ignore"), pytest.raises(NumericOverflowError):
            compiled.log_likelihood_batch(y, thetas, 1.0)
        assert settled_thread_count(before) == before

    def test_concurrent_calls_equal_serial_calls(self, compiled):
        # Three callers at once, each on its own batch.
        cases = [batch_case(1003, n, seed) for seed, n in enumerate((2000, 250, 2000))]
        want = [compiled.log_likelihood_batch(y, thetas, 1.0).tobytes() for y, thetas in cases]
        start = threading.Barrier(len(cases))
        got = [[] for _ in cases]

        def score(i):
            y, thetas = cases[i]
            start.wait()
            for _ in range(10):
                got[i].append(compiled.log_likelihood_batch(y, thetas, 1.0).tobytes())

        workers = [threading.Thread(target=score, args=(i,)) for i in range(len(cases))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert got == [[bits] * 10 for bits in want]
