import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

from garchmc import data, diagnostics, samplers
from garchmc.exceptions import DegenerateSeriesError


def ar1(phi, n, seed=0):
    eps = np.random.default_rng(seed).standard_normal(n)
    return lfilter([1.0], [1.0, -phi], eps)


def acf_oracle(x, t_max):
    """Independent double-loop autocorrelation estimate."""
    x = np.asarray(x, float)
    n = x.size
    xc = x - x.mean()
    var = np.dot(xc, xc) / n
    out = np.empty(t_max + 1)
    for t in range(t_max + 1):
        out[t] = np.dot(xc[: n - t], xc[t:]) / (n - t) / var
    return out


class TestAcf:
    def test_lag_zero_is_exactly_one(self):
        rho = diagnostics.acf(np.random.default_rng(1).standard_normal(1000), 50)
        assert rho[0] == 1.0

    def test_alternating_series(self):
        x = np.tile([1.0, -1.0], 500)
        rho = diagnostics.acf(x, 10)
        assert rho[1] == pytest.approx(-1.0, abs=1e-9)

    def test_white_noise_is_uncorrelated(self):
        x = np.random.default_rng(2).standard_normal(1000000)
        rho = diagnostics.acf(x, 100)
        assert np.max(np.abs(rho[1:])) < 0.005

    def test_ar1_matches_geometric_decay(self):
        x = ar1(0.9, 1000000, seed=3)
        rho = diagnostics.acf(x, 20)
        np.testing.assert_allclose(rho, 0.9 ** np.arange(21), atol=0.02)

    def test_matches_brute_force_oracle(self):
        x = ar1(0.8, 4000, seed=4)
        rho = diagnostics.acf(x, 100)
        np.testing.assert_allclose(rho, acf_oracle(x, 100), atol=1e-10)

    @pytest.mark.parametrize("t_max", [100, 200, 1000], ids=["default-bound", "above", "n-1"])
    def test_no_wrap_at_any_lag_bound(self, t_max):
        # N = 1001: the default bound is 100, and N + t_max - 1 (1100, 1200,
        # 2000) is itself an FFT length, so a pad one short would wrap
        # x[0] * x[-1], made large here, into lag t_max.
        x = ar1(0.5, 1001, seed=21)
        x[0], x[-1] = 50.0, -50.0
        assert min(x.size // 10, diagnostics.LAG_CAP) == 100
        np.testing.assert_allclose(diagnostics.acf(x, t_max), acf_oracle(x, t_max),
                                   rtol=0, atol=1e-10)

    def test_bounded_by_one(self):
        x = ar1(0.95, 20000, seed=5)
        rho = diagnostics.acf(x, 500)
        assert np.max(np.abs(rho)) <= 1.0 + 1e-9

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateSeriesError):
            diagnostics.acf(np.ones(100), 10)

    def test_bad_lag_bound_raises(self):
        with pytest.raises(ValueError):
            diagnostics.acf(np.random.default_rng(6).standard_normal(10), 10)


class TestTauInt:
    def test_iid_series(self):
        x = np.random.default_rng(7).standard_normal(1000000)
        tau, t_star, err, plateau = diagnostics.tau_int(diagnostics.acf(x, 100), x.size)
        assert plateau
        assert 2 * tau == pytest.approx(1.0, abs=0.1)

    def test_ar1_geometric_sum(self):
        x = ar1(0.9, 1000000, seed=8)
        tau, t_star, err, plateau = diagnostics.tau_int(diagnostics.acf(x, 1000), x.size)
        assert plateau
        assert tau == pytest.approx(9.5, rel=0.10)
        assert err < tau

    def test_no_plateau_carries_lower_bound(self):
        x = ar1(0.999, 5000, seed=9)
        rho = diagnostics.acf(x, 100)
        tau, t_star, err, plateau = diagnostics.tau_int(rho, x.size)
        assert not plateau
        assert t_star == 100
        assert tau == pytest.approx(0.5 + rho[1:].sum(), rel=1e-12)
        assert tau > 1.0
        assert err == pytest.approx(math.sqrt(2.0 * 201 / 5000) * tau, rel=1e-12)

    def test_thinning_reduces_tau(self):
        x = ar1(0.9, 1000000, seed=10)
        tau_full, *_ = diagnostics.tau_int(diagnostics.acf(x, 1000), x.size)
        tau_thin, *_ = diagnostics.tau_int(diagnostics.acf(x[::10], 1000), x[::10].size)
        assert tau_thin < tau_full

    def test_duplication_roughly_doubles_tau(self):
        x = ar1(0.9, 200000, seed=11)
        tau, *_ = diagnostics.tau_int(diagnostics.acf(x, 1000), x.size)
        tau_dup, *_ = diagnostics.tau_int(diagnostics.acf(np.repeat(x, 2), 2000), 2 * x.size)
        assert tau_dup / tau == pytest.approx(2.0, rel=0.15)


def summarize_all_accepted(draws):
    return diagnostics.summarize(draws, np.ones(draws.shape[0], bool))


class TestSummarize:
    def test_iid_chain_stat_error(self):
        rng = np.random.default_rng(12)
        draws = 0.5 + 0.1 * rng.standard_normal((50000, 3))
        rep = summarize_all_accepted(draws)
        for name in ("alpha", "beta", "omega"):
            p = rep["params"][name]
            assert p["stat_error"] == pytest.approx(p["stddev"] / np.sqrt(50000), rel=0.15)
            assert p["two_tau_int"] >= 1.0 - 1e-6 - 0.15

    def test_report_shape_and_keys(self):
        rng = np.random.default_rng(13)
        draws = rng.standard_normal((5000, 3)) * [0.01, 0.02, 0.005] + [0.03, 0.94, 0.011]
        rep = summarize_all_accepted(draws)
        assert list(rep) == ["acceptance", "n_draws", "params"]
        for name in ("alpha", "beta", "omega"):
            entry = rep["params"][name]
            for key in ("mean", "stddev", "stat_error", "two_tau_int", "two_tau_int_err"):
                assert key in entry
        text = diagnostics.report_text(rep, "Posterior summary")
        for row in ("mean", "standard deviation", "statistical error", "2tau_int"):
            assert row in text

    def test_short_chain_rejected(self):
        draws = np.random.default_rng(14).standard_normal((500, 3))
        with pytest.raises(ValueError):
            summarize_all_accepted(draws)

    def test_no_plateau_flagged_not_fatal(self):
        x = ar1(0.9995, 2000, seed=15)
        draws = np.column_stack([x, x + 1.0, x + 2.0])
        rep = summarize_all_accepted(draws)
        assert not rep["params"]["alpha"]["plateau_found"]
        assert rep["params"]["alpha"]["two_tau_int"] > 0

    def test_constant_column_reports_no_tau(self):
        draws = np.random.default_rng(19).standard_normal((2000, 3))
        draws[:, 1] = 0.5
        entry = summarize_all_accepted(draws)["params"]["beta"]
        assert entry["mean"] == 0.5 and entry["stddev"] == 0.0 and entry["stat_error"] == 0.0
        assert entry["t_star"] == 0 and entry["plateau_found"] is False
        for key in ("two_tau_int", "two_tau_int_err", "two_tau_int_err_jk"):
            assert math.isnan(entry[key]), key

    def test_anticorrelated_column_reports_nan_stat_error(self):
        rng = np.random.default_rng(20)
        draws = rng.standard_normal((2000, 3))
        draws[:, 2] = np.tile([1.0, -1.0], 1000) + 0.01 * rng.standard_normal(2000)
        rep = summarize_all_accepted(draws)
        entry = rep["params"]["omega"]
        tau, t_star, _, plateau = diagnostics.tau_int(diagnostics.bounded_acf(draws[:, 2]), 2000)
        assert tau < 0.0
        assert entry["two_tau_int"] == 2.0 * tau
        assert (entry["t_star"], entry["plateau_found"]) == (t_star, plateau)
        assert math.isnan(entry["stat_error"])
        assert "nan" in diagnostics.report_text(rep, "anticorrelated")


def leave_one_block_out_taus(x):
    """tau_int of x with each of 10 contiguous blocks removed in turn, and
    whether each of those subseries found a plateau."""
    out = []
    for i in range(10):
        sub = own_series_replicate(x, i)
        tau, _, _, plateau = diagnostics.tau_int(diagnostics.bounded_acf(sub), sub.size)
        out.append((tau, plateau))
    return out


def own_series_replicate(x, i):
    """x with block i of 10 contiguous blocks removed."""
    edges = np.linspace(0, x.size, 11, dtype=int)
    return np.concatenate([x[: edges[i]], x[edges[i + 1]:]])


def with_noise_block(phi, n, sd):
    """AR(1) series whose block 3 of 10 is white noise of standard deviation
    sd: noise far wider than the AR(1) part sets a whole-series lag bound far
    below the bound of the replicate without that block."""
    x = ar1(phi, n, seed=50)
    blk = n // 10
    x[3 * blk: 4 * blk] = sd * np.random.default_rng(51).standard_normal(blk)
    return x


@functools.cache
def adaptive_chain():
    y = data.generate_synthetic((0.05, 0.9, 0.01), 2000, 3)
    sched = samplers.AdaptiveSchedule(burn_in=1000, pilot=1000, refit_interval=1000, total=10000)
    return samplers.run_adaptive(y, sched, seed=4).draws


@functools.cache
def bench_kernels():
    """``benchmarks/bench_kernels.py`` loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def whole_acf(x):
    """The ACF of x to ``_top_lag``, as ``summarize`` hands it to the
    jackknife."""
    return diagnostics.acf(x, diagnostics._top_lag(x.size))


def corrected_replicates(x, monkeypatch):
    """The (ACF, length) of every leave-one-block-out series of x from the
    whole series' lag sums, with ``bounded_acf`` barred so that none of them
    comes from its own series."""

    def barred(_):
        raise AssertionError("a replicate left the correction route")

    with monkeypatch.context() as m:
        m.setattr(diagnostics, "bounded_acf", barred)
        return list(diagnostics._replicate_acfs(x, whole_acf(x)))


def own_series_replicate_acfs(x):
    """Yield (ACF, length) of each leave-one-block-out series of x, each by
    ``bounded_acf`` on its own values: the reference for the replicates of
    ``_replicate_acfs``."""
    for i in range(diagnostics.JACKKNIFE_BLOCKS):
        sub = own_series_replicate(x, i)
        yield diagnostics.bounded_acf(sub), sub.size


def own_series_tau_err(x, monkeypatch):
    """``_jackknife_tau_err`` of x with every replicate's ACF from its own
    series."""
    with monkeypatch.context() as m:
        m.setattr(diagnostics, "_replicate_acfs", lambda x, rho: own_series_replicate_acfs(x))
        return diagnostics._jackknife_tau_err(x, None)


class TestJackknife:
    def test_matches_reference(self, monkeypatch):
        x = ar1(0.7, 20000, seed=30)
        t = np.array([tau for tau, _ in leave_one_block_out_taus(x)])
        m = t.size
        want = math.sqrt((m - 1) / m * np.sum((t - t.mean()) ** 2))
        got = own_series_tau_err(x, monkeypatch)
        assert got == want

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_agrees_with_windowed_error(self, phi, seed):
        # Two estimates of one error: their ratio stays near 1 (0.70-1.20 on
        # these series), while a jackknife missing its (m-1) factor gives a
        # third of that.
        x = ar1(phi, 100000, seed)
        _, _, err, plateau = diagnostics.tau_int(diagnostics.bounded_acf(x), x.size)
        jk = diagnostics._jackknife_tau_err(x, whole_acf(x))
        assert plateau
        assert 0.5 <= jk / err <= 2.0

    def test_subseries_without_plateau_gives_nan(self):
        x = ar1(0.98, 3000, seed=1)
        assert diagnostics.tau_int(diagnostics.bounded_acf(x), x.size)[3]
        assert not all(plateau for _, plateau in leave_one_block_out_taus(x))
        assert math.isnan(diagnostics._jackknife_tau_err(x, whole_acf(x)))

    @pytest.mark.parametrize("make", [
        lambda: ar1(0.5, 1000, seed=40),
        lambda: ar1(0.5, 1009, seed=41),  # blocks of 100 and 101
        lambda: ar1(0.999, 111112, seed=42),  # every bound at LAG_CAP
        lambda: adaptive_chain()[:, 0],
        lambda: adaptive_chain()[:, 1],
        lambda: adaptive_chain()[:, 2],
        lambda: with_noise_block(0.97, 30000, 300.0),  # replicate 3 grows to _top_lag
        lambda: with_noise_block(0.6, 5000, 10.0),  # replicate 3 grows to its bound
        lambda: ar1(0.98, 3000, seed=1),  # replicates without a plateau
    ], ids=["n1000", "n1009", "lag-cap", "adaptive-alpha", "adaptive-beta",
            "adaptive-omega", "grow-to-top", "grow-to-bound", "no-plateau"])
    def test_each_replicate_matches_its_own_series(self, make, monkeypatch):
        x = make()
        for i, (rho, size) in enumerate(corrected_replicates(x, monkeypatch)):
            sub = own_series_replicate(x, i)
            want = diagnostics.bounded_acf(sub)
            tau, t_star, _, plateau = diagnostics.tau_int(rho, size)
            tau_want, t_star_want, _, plateau_want = diagnostics.tau_int(want, size)
            # To the own series' window where it finds one, else to its bound.
            length = t_star_want if plateau_want else want.size - 1
            assert (size, rho.size - 1) == (sub.size, length), i
            assert (t_star, plateau) == (t_star_want, plateau_want), i
            assert tau == pytest.approx(tau_want, rel=1e-12, abs=0.0), i

    @pytest.mark.parametrize("phi, n, sd", [(0.97, 30000, 300.0), (0.6, 5000, 10.0)])
    def test_lag_range_grows_past_its_start(self, phi, n, sd, monkeypatch):
        # The lag range starts at twice the whole series' window; replicate
        # 3, without the noise, finds its own window past that.
        x = with_noise_block(phi, n, sd)
        _, whole_t_star, _, _ = diagnostics.tau_int(diagnostics.bounded_acf(x), x.size)
        rho, _ = corrected_replicates(x, monkeypatch)[3]
        assert rho.size - 1 > 2 * whole_t_star

    def test_lag_sums_stop_near_the_windows(self, monkeypatch):
        # The bench's long-range draws have lag bound N/10 = 6000, while each
        # replicate's window lies near lag 20: lag sums to the replicates'
        # bounds would take ranges of 5400.
        lag_sums = diagnostics._lag_sums
        ranges = []

        def recorded(v, t_max):
            ranges.append(t_max)
            return lag_sums(v, t_max)

        draws = bench_kernels().long_range_draws(np.random.default_rng(1), 60000)
        for x in draws.T:
            rho = whole_acf(x)
            ranges.clear()
            with monkeypatch.context() as m:
                m.setattr(diagnostics, "_lag_sums", recorded)
                replicates = list(diagnostics._replicate_acfs(x, rho))
            t_stars = [diagnostics.tau_int(r, size)[1] for r, size in replicates]
            assert max(ranges) < 4 * max(t_stars)

    def test_jackknife_matches_the_own_series_one(self, monkeypatch):
        x = ar1(0.7, 20000, seed=30)
        got = diagnostics._jackknife_tau_err(x, whole_acf(x))
        assert got == pytest.approx(own_series_tau_err(x, monkeypatch), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("level", [0.5, 0.1])
    def test_constant_replicate_gives_nan(self, level):
        # Replicate 3 is constant. Its own series decides that exactly, as
        # before: 0.5 is its exact mean, so its variance is zero; 0.1 is not,
        # and its ACF finds no window.
        x = np.full(5000, level)
        x[1500:2000] = np.random.default_rng(5).standard_normal(500)
        rho = diagnostics.acf(x, diagnostics._top_lag(x.size))
        assert math.isnan(diagnostics._jackknife_tau_err(x, rho))
        replicates = diagnostics._replicate_acfs(x, rho)
        for _ in range(3):
            next(replicates)
        sub = own_series_replicate(x, 3)
        if level == 0.5:
            with pytest.raises(DegenerateSeriesError):
                next(replicates)
        else:
            assert np.array_equal(next(replicates)[0], diagnostics.bounded_acf(sub))

    def test_replicate_without_variance_from_its_own_series(self):
        # Replicate 3 keeps 1e-18 of the whole series' sum of squares, below
        # any digit the whole series' sums carry.
        x = 1e-9 * ar1(0.5, 5000, seed=6)
        x[1500:2000] = np.random.default_rng(7).standard_normal(500)
        rho = diagnostics.acf(x, diagnostics._top_lag(x.size))
        got = [r for r, _ in diagnostics._replicate_acfs(x, rho)]
        assert np.array_equal(got[3], diagnostics.bounded_acf(own_series_replicate(x, 3)))


def test_default_lag_bound_caps():
    x = np.random.default_rng(16).standard_normal(100000)
    bound = diagnostics.bounded_acf(x).size - 1
    assert 1 <= bound <= 10000


@pytest.mark.parametrize("x", [
    np.random.default_rng(17).standard_normal(5000),  # bound from the 0.01 crossing
    ar1(0.9995, 2000, seed=18),  # no crossing: bound N/10
], ids=["crossing", "n_over_10"])
def test_bounded_acf_is_bitwise_acf_to_the_bound(x):
    rho = diagnostics.bounded_acf(x)
    assert np.array_equal(rho, diagnostics.acf(x, rho.size - 1))


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    for target in range(1, 20001):
        assert diagnostics._next_fast_len(target) == next_fast_len(target), target
