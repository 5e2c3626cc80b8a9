import math

import numpy as np
import pytest
from scipy.signal import lfilter

from garchmc import diagnostics
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
    edges = np.linspace(0, x.size, 11, dtype=int)
    out = []
    for i in range(10):
        sub = np.concatenate([x[: edges[i]], x[edges[i + 1]:]])
        tau, _, _, plateau = diagnostics.tau_int(diagnostics.bounded_acf(sub), sub.size)
        out.append((tau, plateau))
    return out


class TestJackknife:
    def test_matches_reference(self):
        x = ar1(0.7, 20000, seed=30)
        t = np.array([tau for tau, _ in leave_one_block_out_taus(x)])
        m = t.size
        want = math.sqrt((m - 1) / m * np.sum((t - t.mean()) ** 2))
        got = diagnostics._jackknife_tau_err(x)
        assert got == want

    @pytest.mark.parametrize("phi", [0.5, 0.9])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_agrees_with_windowed_error(self, phi, seed):
        # Two estimates of one error: their ratio stays near 1 (0.70-1.20 on
        # these series), while a jackknife missing its (m-1) factor gives a
        # third of that.
        x = ar1(phi, 100000, seed)
        _, _, err, plateau = diagnostics.tau_int(diagnostics.bounded_acf(x), x.size)
        jk = diagnostics._jackknife_tau_err(x)
        assert plateau
        assert 0.5 <= jk / err <= 2.0

    def test_subseries_without_plateau_gives_nan(self):
        x = ar1(0.98, 3000, seed=1)
        assert diagnostics.tau_int(diagnostics.bounded_acf(x), x.size)[3]
        assert not all(plateau for _, plateau in leave_one_block_out_taus(x))
        assert math.isnan(diagnostics._jackknife_tau_err(x))


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
