import itertools
import math
import sys
import types
import warnings

import numpy as np
import pytest

from garchmc import _kernels_py, backend, data, diagnostics, model, proposal, samplers
from garchmc.exceptions import DataValidationError, NumericOverflowError, TuningFailureError

LOG_ZERO = model.LOG_ZERO


def std_normal_target(theta):
    return -0.5 * float(theta[0]) ** 2


def rw_step(current, d, target, rng):
    """One random-walk step of widths d through the production batch kernel."""
    _, accepted, theta, _ = samplers._rw_chain(
        current, target(current), 1, d, target, rng
    )
    return theta, bool(accepted[0])


def small_series(seed=5, n=400):
    return data.generate_synthetic((0.05, 0.9, 0.01), n, seed)


class TestMetropolisStep:
    def test_flat_target_always_accepts(self):
        rng = np.random.default_rng(0)
        d = np.ones(3)
        cur = np.zeros(3)
        for _ in range(100):
            cur, accepted = rw_step(cur, d, lambda t: 0.0, rng)
            assert accepted

    def test_zero_mass_candidate_always_rejected(self):
        rng = np.random.default_rng(1)
        d = np.ones(3)
        start = np.zeros(3)

        def target(theta):
            return 0.0 if np.array_equal(theta, start) else LOG_ZERO

        for _ in range(100):
            nxt, accepted = rw_step(start, d, target, rng)
            assert not accepted
            assert np.array_equal(nxt, start)

    def test_acceptance_frequency_at_fixed_log_ratio(self):
        # every candidate is exactly ln 2 below the current point
        rng = np.random.default_rng(2)
        d = np.ones(1)
        start = np.zeros(1)

        def target(theta):
            return 0.0 if theta[0] == 0.0 else -math.log(2.0)

        hits = sum(
            rw_step(start, d, target, rng)[1] for _ in range(100000)
        )
        assert hits / 100000 == pytest.approx(0.5, abs=0.01)

    def test_no_overflow_for_huge_log_ratio_deficit(self):
        rng = np.random.default_rng(3)
        d = np.ones(1)

        def target(theta):
            return 0.0 if theta[0] == 0.0 else -700.0

        nxt, accepted = rw_step(np.zeros(1), d, target, rng)
        assert not accepted


class TestTuneMetropolis:
    def test_in_band_returned_unchanged(self):
        # width 3 yields ~0.71 acceptance on a standard normal: already in band
        d = np.array([3.0])
        tuned = samplers.tune_metropolis(
            d, std_normal_target, np.random.default_rng(4), np.zeros(1)
        )
        np.testing.assert_allclose(tuned, d)

    def test_large_width_is_reduced(self):
        d = np.array([500.0])
        tuned = samplers.tune_metropolis(
            d, std_normal_target, np.random.default_rng(5), np.zeros(1)
        )
        assert tuned[0] < 500.0

    def test_wide_and_narrow_starts_converge(self):
        a = samplers.tune_metropolis(
            np.array([1.0]), std_normal_target, np.random.default_rng(6), np.zeros(1)
        )
        b = samplers.tune_metropolis(
            np.array([100.0]), std_normal_target, np.random.default_rng(7), np.zeros(1)
        )
        ratio = b[0] / a[0]
        assert 0.25 <= ratio <= 4.0

    def test_failure_carries_last_acceptance(self):
        def needle_target(theta):
            return 0.0 if abs(theta[0]) < 1e-30 else LOG_ZERO

        d = np.array([1.0])
        with pytest.raises(TuningFailureError) as exc:
            samplers.tune_metropolis(d, needle_target, np.random.default_rng(8), np.zeros(1))
        assert str(exc.value).startswith("acceptance 0.000 not in [0.5, 0.85]")


class TestIndependenceStep:
    def test_proposal_equals_target_accepts_everything(self, independence_chain):
        prop = proposal.StudentTProposal(np.array([0.0]), np.array([[1.0]]), 10.0)
        rng = np.random.default_rng(9)
        _, accepted = independence_chain(
            lambda t: float(prop.log_density(t)), prop, np.array([0.3]), 10000, rng
        )
        assert accepted.mean() == 1.0

    def test_zero_mass_candidate_rejected(self, independence_chain):
        prop = proposal.StudentTProposal(np.array([0.0]), np.array([[1.0]]), 10.0)
        rng = np.random.default_rng(10)
        start = np.array([0.25])

        def target(theta):
            return 0.0 if theta[0] == 0.25 else LOG_ZERO

        draws, flags = independence_chain(target, prop, start, 50, rng)
        for nxt, accepted in zip(draws, flags):
            assert not accepted
            assert np.array_equal(nxt, start)

    def test_one_dimensional_harness_recovers_target(self, independence_chain):
        prop = proposal.StudentTProposal(np.array([0.0]), np.array([[1.0]]), 10.0)
        rng = np.random.default_rng(11)
        draws, _ = independence_chain(
            std_normal_target, prop, np.array([0.0]), 200000, rng
        )
        x = draws[:, 0]
        assert x.mean() == pytest.approx(0.0, abs=0.02)
        assert x.var() == pytest.approx(1.0, rel=0.03)


def reference_independence_batch(theta, log_p, log_g, prop, target, n_steps, rng):
    """Independence MH written out with one scalar target call per candidate,
    consuming the random numbers in the order the production kernel does."""
    cands = prop.sample(rng, n_steps)
    log_g_cands = prop.log_density(cands)
    u = rng.random(n_steps)
    draws, flags = [], []
    for cand, log_g_cand, u_i in zip(cands, log_g_cands, u):
        log_p_cand = target(cand)
        accept = False
        if log_p_cand != LOG_ZERO:
            delta = (log_p_cand - log_p) + (log_g - log_g_cand)
            accept = delta >= 0.0 or u_i < math.exp(delta)
        if accept:
            theta, log_p, log_g = cand, log_p_cand, log_g_cand
        draws.append(theta)
        flags.append(accept)
    return np.array(draws), np.array(flags)


def each_kernel_module(monkeypatch):
    """Each kernel module built here in turn, set as ``backend.kernels``: the
    compiled one where a C compiler was found, then the numpy twin. The
    step-by-step reference tests run in both inside one test each, so their
    names stay one per case."""
    modules = [backend.kernels] if backend.KERNEL == "c" else []
    for kernels in modules + [_kernels_py]:
        monkeypatch.setattr(backend, "kernels", kernels)
        yield kernels


def test_batch_scoring_matches_per_candidate_scoring(monkeypatch):
    for _ in each_kernel_module(monkeypatch):
        check_batch_scoring_matches_per_candidate_scoring()


def check_batch_scoring_matches_per_candidate_scoring():
    y = small_series()
    s1 = float(np.var(y))
    target = model.make_log_posterior(y, s1)
    # Wide enough that some candidates leave the constraint region.
    prop = proposal.StudentTProposal(
        np.array([0.05, 0.9, 0.01]), np.diag([0.03, 0.04, 0.006]) ** 2, 10.0
    )
    theta = np.array([0.05, 0.9, 0.01])
    draws, accepted, *_ = samplers._independence_batch(
        theta, target(theta), 2000, prop, model.make_batch_log_posterior(y, s1),
        np.random.default_rng(12),
    )
    want_draws, want_accepted = reference_independence_batch(
        theta, target(theta), float(prop.log_density(theta)), prop, target, 2000,
        np.random.default_rng(12),
    )
    cands = prop.sample(np.random.default_rng(12), 2000)
    assert not model.in_support(*cands.T).all()
    assert 0 < accepted.sum() < 2000
    assert np.array_equal(draws, want_draws)
    assert np.array_equal(accepted, want_accepted)


def reference_rw_chain(theta, log_p, n_steps, d, target, rng):
    """Random-walk Metropolis written out one step at a time on numpy arrays,
    consuming the random numbers in the order the production kernel does."""
    shifts = d * (rng.random((n_steps, theta.size)) - 0.5)
    u = rng.random(n_steps)
    draws, flags = [], []
    for shift, u_i in zip(shifts, u):
        cand = theta + shift
        log_p_cand = target(cand)
        accept = False
        if log_p_cand != LOG_ZERO:
            delta = log_p_cand - log_p
            accept = delta >= 0.0 or u_i < math.exp(delta)
        if accept:
            theta, log_p = cand, log_p_cand
        draws.append(theta)
        flags.append(accept)
    return np.array(draws), np.array(flags), theta, log_p


CHUNK = _kernels_py._RW_CHUNK


@pytest.mark.parametrize("n_steps", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_rw_chain_matches_step_by_step_reference(n_steps, monkeypatch):
    for _ in each_kernel_module(monkeypatch):
        check_rw_chain_matches_step_by_step_reference(n_steps)


def check_rw_chain_matches_step_by_step_reference(n_steps):
    y = small_series()
    posterior = model.make_log_posterior(y, float(np.var(y)))
    scores = []

    def target(theta):
        scores.append(posterior(theta))
        return scores[-1]

    # Wide enough that some candidates leave the constraint region.
    d = np.array([0.1, 0.1, 0.02])
    theta = np.array([0.05, 0.9, 0.01])
    got = samplers._rw_chain(theta, target(theta), n_steps, d, target, np.random.default_rng(13))
    want = reference_rw_chain(theta, posterior(theta), n_steps, d, posterior,
                              np.random.default_rng(13))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    if n_steps > CHUNK:
        assert 0 < got[1].sum() < n_steps
        assert LOG_ZERO in scores


@pytest.mark.parametrize("n_steps", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_rw_chain_rejecting_every_candidate_stays_put(n_steps, monkeypatch):
    for _ in each_kernel_module(monkeypatch):
        check_rw_chain_rejecting_every_candidate_stays_put(n_steps)


def check_rw_chain_rejecting_every_candidate_stays_put(n_steps):
    theta = np.array([0.05, 0.9, 0.01])
    d = np.ones(3)

    def target(_):
        return LOG_ZERO

    got = samplers._rw_chain(theta, 0.0, n_steps, d, target, np.random.default_rng(14))
    want = reference_rw_chain(theta, 0.0, n_steps, d, target, np.random.default_rng(14))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert not got[1].any()
    assert np.array_equal(got[0], np.tile(theta, (n_steps, 1)))


GARCH_START = np.array([0.05, 0.9, 0.01])


def garch_posteriors(n=400):
    y = small_series(n=n)
    s1 = float(np.var(y))
    return model.make_log_posterior(y, s1), model.make_batch_log_posterior(y, s1)


def wide_proposal(mean):
    """A Student-t proposal around mean wide enough that some GARCH
    candidates leave the constraint region."""
    return proposal.StudentTProposal(np.asarray(mean), np.diag([0.03, 0.04, 0.006]) ** 2, 10.0)


def assert_same_independence_batch(theta, log_p, n_steps, prop, target, score, seed):
    got = samplers._independence_batch(theta, log_p, n_steps, prop, score,
                                       np.random.default_rng(seed))
    want_draws, want_accepted = reference_independence_batch(
        theta, log_p, float(prop.log_density(theta)), prop, target, n_steps,
        np.random.default_rng(seed))
    assert np.array_equal(got[0], want_draws)
    assert np.array_equal(got[1], want_accepted)
    return got


class TestAcceptLoopEdges:
    """Edge cases of both accept loops in each kernel module, against the
    step-by-step references."""

    def test_zero_steps_return_the_entry_state(self, either_kernels):
        target, score = garch_posteriors()
        log_p = target(GARCH_START)
        draws, accepted, theta, end_log_p = samplers._rw_chain(
            GARCH_START, log_p, 0, np.ones(3), target, np.random.default_rng(15))
        assert draws.shape == (0, 3) and accepted.shape == (0,) and accepted.dtype == bool
        assert np.array_equal(theta, GARCH_START) and theta is not GARCH_START
        assert end_log_p == log_p
        draws, accepted, theta, end_log_p = samplers._independence_batch(
            GARCH_START, log_p, 0, wide_proposal(GARCH_START), score, np.random.default_rng(15))
        assert draws.shape == (0, 3) and accepted.shape == (0,)
        assert np.array_equal(theta, GARCH_START) and end_log_p == log_p

    def test_nan_score_rejects(self, either_kernels):
        def nan_target(_):
            return math.nan

        got = samplers._rw_chain(GARCH_START, 0.0, 300, np.ones(3), nan_target,
                                 np.random.default_rng(16))
        want = reference_rw_chain(GARCH_START, 0.0, 300, np.ones(3), nan_target,
                                  np.random.default_rng(16))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert not got[1].any() and got[3] == 0.0
        got = assert_same_independence_batch(
            GARCH_START, 0.0, 300, wide_proposal(GARCH_START), nan_target,
            lambda cands: np.full(len(cands), math.nan), 16)
        assert not got[1].any()

    def test_start_scoring_minus_inf_moves_to_the_first_candidate_inside(self, either_kernels):
        target, score = garch_posteriors()
        outside = np.array([0.05, 0.96, 0.01])
        assert target(outside) == LOG_ZERO
        d = np.array([0.1, 0.1, 0.02])
        got = samplers._rw_chain(outside, LOG_ZERO, 400, d, target, np.random.default_rng(17))
        want = reference_rw_chain(outside, LOG_ZERO, 400, d, target, np.random.default_rng(17))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        first = int(np.argmax(got[1]))
        assert 0 < first and model.in_support(*got[0][first])
        assert np.isfinite(got[3])
        got = assert_same_independence_batch(outside, LOG_ZERO, 400, wide_proposal(GARCH_START),
                                             target, score, 17)
        assert got[1].any() and np.isfinite(got[3])

    def test_one_parameter(self, either_kernels):
        d = np.array([2.0])
        theta = np.array([0.3])
        got = samplers._rw_chain(theta, std_normal_target(theta), 700, d, std_normal_target,
                                 np.random.default_rng(18))
        want = reference_rw_chain(theta, std_normal_target(theta), 700, d, std_normal_target,
                                  np.random.default_rng(18))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert 0 < got[1].sum() < 700
        prop = proposal.StudentTProposal(np.array([0.5]), np.array([[2.0]]), 10.0)
        got = assert_same_independence_batch(
            theta, std_normal_target(theta), 700, prop, std_normal_target,
            lambda cands: -0.5 * cands[:, 0] ** 2, 18)
        assert 0 < got[1].sum() < 700


def raising_at(step):
    """A target that scores 0.0 and raises NumericOverflowError at its call
    number ``step`` (from 0), and every ``step + 1`` calls after."""
    calls = itertools.count()

    def target(_):
        if next(calls) % (step + 1) == step:
            raise NumericOverflowError("raised by the target")
        return 0.0

    return target


class TestAcceptLoopErrors:
    THETA = np.array([0.05, 0.9, 0.01])

    def test_target_error_propagates(self, either_kernels):
        seen = []
        target = raising_at(4)

        def counted(cand):
            seen.append(cand)
            return target(cand)

        with pytest.raises(NumericOverflowError, match="raised by the target"):
            either_kernels.rw_chain(counted, self.THETA, 0.0, np.zeros((10, 3)), np.zeros(10))
        assert len(seen) == 5

    def test_non_numeric_score_raises_type_error(self, either_kernels):
        with pytest.raises(TypeError):
            either_kernels.rw_chain(lambda _: None, self.THETA, 0.0, np.zeros((3, 3)),
                                    np.zeros(3))

    @pytest.mark.parametrize("theta, shifts, u", [
        (THETA, np.zeros((3, 3)), np.zeros(4)),
        (THETA, np.zeros((3, 2)), np.zeros(3)),
        (THETA[:2], np.zeros((3, 3)), np.zeros(3)),
    ], ids=["u", "shifts", "theta"])
    def test_rw_chain_mismatched_lengths_raise(self, either_kernels, theta, shifts, u):
        with pytest.raises(ValueError):
            either_kernels.rw_chain(lambda _: 0.0, theta, 0.0, shifts, u)

    @pytest.mark.parametrize("lengths", [(3, 3, 4), (3, 4, 3), (4, 3, 3)],
                             ids=["u", "log_g_cands", "log_p_cands"])
    def test_independence_accept_mismatched_lengths_raise(self, either_kernels, lengths):
        with pytest.raises(ValueError):
            either_kernels.independence_accept(*(np.zeros(k) for k in lengths), 0.0, 0.0)

    def test_compiled_rw_chain_leaks_no_reference_on_error(self, compiled):
        theta = self.THETA.copy()
        shifts, u = np.zeros((10, 3)), np.zeros(10)
        target = raising_at(3)
        before = sys.getrefcount(target), sys.getrefcount(theta)
        for _ in range(10_000):
            try:
                compiled.rw_chain(target, theta, 0.0, shifts, u)
            except NumericOverflowError:
                pass
        assert (sys.getrefcount(target), sys.getrefcount(theta)) == before


class TestRunAdaptive:
    def test_single_batch_schedule(self):
        y = small_series()
        sched = samplers.AdaptiveSchedule(burn_in=200, pilot=100, refit_interval=500, total=500)
        res = samplers.run_adaptive(y, sched, seed=1)
        assert len(res.draws) == 500
        assert len(res.history) == 1
        assert res.trace.shape == (1,)

    def test_chain_respects_constraints_and_length(self):
        y = small_series()
        sched = samplers.AdaptiveSchedule(burn_in=300, pilot=200, refit_interval=250, total=1500)
        res = samplers.run_adaptive(y, sched, seed=2)
        assert len(res.draws) == 1500
        assert len(res.history) == 6
        d = res.draws
        assert np.all(d > 0) and np.all(d[:, 0] + d[:, 1] < 1)

    def test_deterministic(self):
        y = small_series()
        sched = samplers.AdaptiveSchedule(burn_in=200, pilot=100, refit_interval=200, total=600)
        a = samplers.run_adaptive(y, sched, seed=3)
        b = samplers.run_adaptive(y, sched, seed=3)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.accepted, b.accepted)

    def test_partial_final_batch(self):
        y = small_series()
        sched = samplers.AdaptiveSchedule(burn_in=200, pilot=100, refit_interval=400, total=900)
        res = samplers.run_adaptive(y, sched, seed=5)
        assert len(res.draws) == 900
        assert res.trace.shape == (3,)


class TestRunMetropolis:
    def test_deterministic_and_total_length(self):
        y = small_series()
        sched = samplers.AdaptiveSchedule(burn_in=300, pilot=100, refit_interval=500, total=2000)
        a = samplers.run_metropolis(y, sched, seed=6)
        b = samplers.run_metropolis(y, sched, seed=6)
        assert len(a.draws) == 2000
        assert np.array_equal(a.draws, b.draws)
        assert a.trace.shape == (4,)

    def test_tuned_acceptance_above_floor(self):
        y = small_series(n=600)
        sched = samplers.AdaptiveSchedule(burn_in=500, pilot=100, refit_interval=1000, total=4000)
        res = samplers.run_metropolis(y, sched, seed=7)
        assert 0.4 < res.accepted.mean() < 0.9

    @pytest.mark.parametrize("run", [samplers.run_metropolis, samplers.run_adaptive])
    def test_zero_variance_returns_refused(self, run):
        sched = samplers.AdaptiveSchedule(burn_in=10, pilot=10, refit_interval=10, total=10)
        with pytest.raises(DataValidationError, match="positive variance"):
            run(np.zeros(10), sched)

    @pytest.mark.parametrize("run", [samplers.run_metropolis, samplers.run_adaptive])
    def test_overflow_is_typed_error_without_warnings(self, run, monkeypatch):
        # The real kernels, called with sigma1_sq = 1e-320, so y_0^2 / sigma1_sq
        # overflows.
        real = model.kernels
        monkeypatch.setattr(model, "kernels", types.SimpleNamespace(
            Workspace=real.Workspace,
            log_likelihood=lambda series, a, b, w, s: real.log_likelihood(series, a, b, w, 1e-320),
            log_likelihood_batch=lambda y, thetas, s: real.log_likelihood_batch(y, thetas, 1e-320),
        ))
        sched = samplers.AdaptiveSchedule(burn_in=10, pilot=10, refit_interval=10, total=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError):
                run(np.array([1.0, -1.0, 1.0]), sched)


class TestCrossSamplerAgreement:
    def test_posterior_means_agree_within_combined_errors(self):
        y = small_series(seed=5, n=500)
        sched = samplers.AdaptiveSchedule(burn_in=1000, pilot=500, refit_interval=500, total=20000)
        res_a = samplers.run_adaptive(y, sched, seed=8)
        res_m = samplers.run_metropolis(y, sched, seed=8)
        rep_a = diagnostics.summarize(res_a.draws, res_a.accepted)
        rep_m = diagnostics.summarize(res_m.draws, res_m.accepted)
        for name in ("alpha", "beta", "omega"):
            a, m = rep_a["params"][name], rep_m["params"][name]
            combined = math.sqrt(a["stat_error"]**2 + m["stat_error"]**2)
            assert abs(a["mean"] - m["mean"]) <= 3.0 * combined, name


class TestStatisticalErrorConsistency:
    def test_cross_chain_spread_matches_reported_error(self):
        y = small_series(seed=5, n=400)
        sched = samplers.AdaptiveSchedule(burn_in=500, pilot=500, refit_interval=500, total=8000)
        means = {n: [] for n in ("alpha", "beta", "omega")}
        errs = {n: [] for n in ("alpha", "beta", "omega")}
        for seed in range(16):
            res = samplers.run_adaptive(y, sched, seed=100 + seed)
            rep = diagnostics.summarize(res.draws, res.accepted)
            for n in means:
                means[n].append(rep["params"][n]["mean"])
                errs[n].append(rep["params"][n]["stat_error"])
        for n in means:
            spread = np.std(means[n], ddof=1)
            reported = np.median(errs[n])
            assert 0.5 <= spread / reported <= 2.0, (n, spread, reported)
