import collections
import functools
import itertools
import math
import sys
import warnings

import numpy as np
import pytest

from garchmc import _kernels_py, backend, data, diagnostics, model, proposal, samplers
from garchmc.exceptions import DataValidationError, NumericOverflowError, TuningFailureError

LOG_ZERO = model.LOG_ZERO
#: The returns handed to ``rw_chain`` where a stand-in likelihood ignores them.
STUB_Y = np.zeros(3)
#: A point well inside the support, from which steps of widths below 0.1 stay
#: inside.
INSIDE = np.array([0.25, 0.25, 0.5])


def std_normal_target(theta):
    return -0.5 * float(theta[0]) ** 2


def stub_likelihood(monkeypatch, kernels, score):
    """Set a stand-in as the scalar likelihood of ``kernels`` that scores the
    triple (a, b, w) as score(a, b, w); ``rw_chain`` then scores each
    candidate inside the support with it, and ``model.log_posterior`` too
    while ``kernels`` is ``backend.kernels``."""
    monkeypatch.setattr(kernels, "log_likelihood",
                        lambda series, a, b, w, sigma1_sq: score(a, b, w))


def rw_step(current, d, rng):
    """One random-walk step of widths d through ``backend.kernels.rw_chain``,
    scored by the likelihood set on ``backend.kernels``."""
    _, accepted, theta, _ = samplers._rw_chain(
        STUB_Y, 1.0, current, model.log_posterior(STUB_Y, 1.0, current), 1, d, rng
    )
    return theta, bool(accepted[0])


def small_series(seed=5, n=400):
    return data.generate_synthetic((0.05, 0.9, 0.01), n, seed)


class TestMetropolisStep:
    """Single steps on stand-in likelihoods, with widths small enough that
    every candidate stays inside the support."""

    D = np.full(3, 1e-3)

    def test_flat_target_always_accepts(self, monkeypatch):
        stub_likelihood(monkeypatch, backend.kernels, lambda a, b, w: 0.0)
        rng = np.random.default_rng(0)
        cur = INSIDE
        for _ in range(100):
            cur, accepted = rw_step(cur, self.D, rng)
            assert accepted

    def test_zero_mass_candidate_always_rejected(self, monkeypatch):
        start = tuple(INSIDE)
        stub_likelihood(monkeypatch, backend.kernels,
                        lambda *theta: 0.0 if theta == start else LOG_ZERO)
        rng = np.random.default_rng(1)
        for _ in range(100):
            nxt, accepted = rw_step(INSIDE, self.D, rng)
            assert not accepted
            assert np.array_equal(nxt, INSIDE)

    def test_acceptance_frequency_at_fixed_log_ratio(self, monkeypatch):
        # every candidate is exactly ln 2 below the current point
        start = tuple(INSIDE)
        stub_likelihood(monkeypatch, backend.kernels,
                        lambda *theta: 0.0 if theta == start else -math.log(2.0))
        rng = np.random.default_rng(2)
        hits = sum(
            rw_step(INSIDE, self.D, rng)[1] for _ in range(100000)
        )
        assert hits / 100000 == pytest.approx(0.5, abs=0.01)

    def test_no_overflow_for_huge_log_ratio_deficit(self, monkeypatch):
        start = tuple(INSIDE)
        stub_likelihood(monkeypatch, backend.kernels,
                        lambda *theta: 0.0 if theta == start else -700.0)
        rng = np.random.default_rng(3)
        nxt, accepted = rw_step(INSIDE, self.D, rng)
        assert not accepted


class TestTuneMetropolis:
    """Tuning on a stand-in likelihood that is a normal of standard deviation
    SD in alpha around its start and flat in beta and omega, which keep
    width 0 and so stay put: alpha's walk is the one-parameter walk on a
    standard normal, scaled by SD."""

    SD = 0.01

    @pytest.fixture(autouse=True)
    def normal_in_alpha(self, monkeypatch):
        centre = INSIDE[0]
        stub_likelihood(monkeypatch, backend.kernels,
                        lambda a, b, w: -0.5 * ((a - centre) / self.SD) ** 2)

    def tune(self, width, seed):
        return samplers.tune_metropolis(STUB_Y, 1.0, np.array([width * self.SD, 0.0, 0.0]),
                                        np.random.default_rng(seed), INSIDE,
                                        model.log_posterior(STUB_Y, 1.0, INSIDE))

    def test_in_band_returned_unchanged(self):
        # width 3 yields ~0.71 acceptance on a standard normal: already in band
        tuned = self.tune(3.0, 4)
        np.testing.assert_allclose(tuned, [3.0 * self.SD, 0.0, 0.0])

    def test_large_width_is_reduced(self):
        tuned = self.tune(500.0, 5)
        assert tuned[0] < 500.0 * self.SD

    def test_wide_and_narrow_starts_converge(self):
        a = self.tune(1.0, 6)
        b = self.tune(100.0, 7)
        ratio = b[0] / a[0]
        assert 0.25 <= ratio <= 4.0

    def test_failure_carries_last_acceptance(self, monkeypatch):
        centre = INSIDE[0]
        stub_likelihood(monkeypatch, backend.kernels,
                        lambda a, b, w: 0.0 if abs(a - centre) < 1e-30 else LOG_ZERO)
        with pytest.raises(TuningFailureError) as exc:
            self.tune(100.0, 8)
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
    target = functools.partial(model.log_posterior, y, s1)
    # Wide enough that some candidates leave the constraint region.
    prop = proposal.StudentTProposal(
        np.array([0.05, 0.9, 0.01]), np.diag([0.03, 0.04, 0.006]) ** 2, 10.0
    )
    theta = np.array([0.05, 0.9, 0.01])
    draws, accepted, *_ = samplers._independence_batch(
        theta, target(theta), 2000, prop, functools.partial(model.log_posterior_batch, y, s1),
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
    return reference_steps(theta, log_p, shifts, u, target)


def reference_steps(theta, log_p, shifts, u, target):
    """The steps of ``reference_rw_chain`` on given random numbers: step i
    proposes theta + shifts[i], scores it by ``target`` and accepts by u[i]."""
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
        check_rw_chain_matches_step_by_step_reference(n_steps, monkeypatch)


def recording(monkeypatch, kernels):
    """Wrap the scalar likelihood of ``kernels`` so that each call's triple
    (a, b, w) is appended to the returned list."""
    calls, loglik = [], kernels.log_likelihood

    def recorded(series, a, b, w, sigma1_sq):
        calls.append((a, b, w))
        return loglik(series, a, b, w, sigma1_sq)

    monkeypatch.setattr(kernels, "log_likelihood", recorded)
    return calls


def check_rw_chain_matches_step_by_step_reference(n_steps, monkeypatch):
    # The reference scores each candidate by model.log_posterior, so it calls
    # the likelihood on exactly the candidates that in_support admits.
    y = small_series()
    s1 = float(np.var(y))
    posterior = functools.partial(model.log_posterior, y, s1)
    calls = recording(monkeypatch, backend.kernels)
    # Wide enough that some candidates leave the constraint region.
    d = np.array([0.1, 0.1, 0.02])
    theta = np.array([0.05, 0.9, 0.01])
    log_p = posterior(theta)
    want = reference_rw_chain(theta, log_p, n_steps, d, posterior, np.random.default_rng(13))
    want_calls = calls[1:]
    calls.clear()
    got = samplers._rw_chain(y, s1, theta, log_p, n_steps, d, np.random.default_rng(13))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert calls == want_calls
    if n_steps > CHUNK:
        assert 0 < got[1].sum() < n_steps
        assert len(calls) < n_steps


@pytest.mark.parametrize("n_steps", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_rw_chain_rejecting_every_candidate_stays_put(n_steps, monkeypatch):
    for kernels in each_kernel_module(monkeypatch):
        stub_likelihood(monkeypatch, kernels, lambda a, b, w: LOG_ZERO)
        check_rw_chain_rejecting_every_candidate_stays_put(n_steps)


def check_rw_chain_rejecting_every_candidate_stays_put(n_steps):
    theta = np.array([0.05, 0.9, 0.01])
    d = np.ones(3)
    target = functools.partial(model.log_posterior, STUB_Y, 1.0)
    got = samplers._rw_chain(STUB_Y, 1.0, theta, 0.0, n_steps, d, np.random.default_rng(14))
    want = reference_rw_chain(theta, 0.0, n_steps, d, target, np.random.default_rng(14))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert not got[1].any()
    assert np.array_equal(got[0], np.tile(theta, (n_steps, 1)))


GARCH_START = np.array([0.05, 0.9, 0.01])


def garch_posteriors(n=400):
    """Returns of length n, their variance, and their scalar and batch
    posteriors."""
    y = small_series(n=n)
    s1 = float(np.var(y))
    return (y, s1, functools.partial(model.log_posterior, y, s1),
            functools.partial(model.log_posterior_batch, y, s1))


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
        y, s1, target, score = garch_posteriors()
        log_p = target(GARCH_START)
        draws, accepted, theta, end_log_p = samplers._rw_chain(
            y, s1, GARCH_START, log_p, 0, np.ones(3), np.random.default_rng(15))
        assert draws.shape == (0, 3) and accepted.shape == (0,) and accepted.dtype == bool
        assert np.array_equal(theta, GARCH_START) and theta is not GARCH_START
        assert end_log_p == log_p
        draws, accepted, theta, end_log_p = samplers._independence_batch(
            GARCH_START, log_p, 0, wide_proposal(GARCH_START), score, np.random.default_rng(15))
        assert draws.shape == (0, 3) and accepted.shape == (0,)
        assert np.array_equal(theta, GARCH_START) and end_log_p == log_p

    def test_nan_score_rejects(self, either_kernels, monkeypatch):
        def nan_target(_):
            return math.nan

        stub_likelihood(monkeypatch, either_kernels, lambda a, b, w: math.nan)
        got = samplers._rw_chain(STUB_Y, 1.0, GARCH_START, 0.0, 300, np.ones(3),
                                 np.random.default_rng(16))
        want = reference_rw_chain(GARCH_START, 0.0, 300, np.ones(3),
                                  functools.partial(model.log_posterior, STUB_Y, 1.0),
                                  np.random.default_rng(16))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert not got[1].any() and got[3] == 0.0
        got = assert_same_independence_batch(
            GARCH_START, 0.0, 300, wide_proposal(GARCH_START), nan_target,
            lambda cands: np.full(len(cands), math.nan), 16)
        assert not got[1].any()

    def test_start_scoring_minus_inf_moves_to_the_first_candidate_inside(self, either_kernels):
        y, s1, target, score = garch_posteriors()
        outside = np.array([0.05, 0.96, 0.01])
        assert target(outside) == LOG_ZERO
        d = np.array([0.1, 0.1, 0.02])
        got = samplers._rw_chain(y, s1, outside, LOG_ZERO, 400, d, np.random.default_rng(17))
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
        # The random walk runs on the GARCH triple only; the independence
        # loop takes any dimension.
        theta = np.array([0.3])
        prop = proposal.StudentTProposal(np.array([0.5]), np.array([[2.0]]), 10.0)
        got = assert_same_independence_batch(
            theta, std_normal_target(theta), 700, prop, std_normal_target,
            lambda cands: -0.5 * cands[:, 0] ** 2, 18)
        assert 0 < got[1].sum() < 700


def raising_at(step):
    """A stand-in scalar likelihood that scores 0.0 and raises
    NumericOverflowError at its call number ``step`` (from 0), and every
    ``step + 1`` calls after."""
    calls = itertools.count()

    def log_likelihood(series, a, b, w, sigma1_sq):
        if next(calls) % (step + 1) == step:
            raise NumericOverflowError("raised by the likelihood")
        return 0.0

    return log_likelihood


class TestAcceptLoopErrors:
    THETA = np.array([0.05, 0.9, 0.01])

    def test_target_error_propagates(self, either_kernels, monkeypatch):
        seen = []
        loglik = raising_at(4)

        def counted(*args):
            seen.append(args)
            return loglik(*args)

        monkeypatch.setattr(either_kernels, "log_likelihood", counted)
        with pytest.raises(NumericOverflowError, match="raised by the likelihood"):
            either_kernels.rw_chain(STUB_Y, 1.0, self.THETA, 0.0, np.zeros((10, 3)), np.zeros(10))
        assert len(seen) == 5

    def test_non_numeric_score_raises_type_error(self, either_kernels, monkeypatch):
        stub_likelihood(monkeypatch, either_kernels, lambda a, b, w: None)
        with pytest.raises(TypeError):
            either_kernels.rw_chain(STUB_Y, 1.0, self.THETA, 0.0, np.zeros((3, 3)), np.zeros(3))

    @pytest.mark.parametrize("theta, shifts, u", [
        (THETA, np.zeros((3, 3)), np.zeros(4)),
        (THETA, np.zeros((3, 2)), np.zeros(3)),
        (THETA[:2], np.zeros((3, 3)), np.zeros(3)),
    ], ids=["u", "shifts", "theta"])
    def test_rw_chain_mismatched_lengths_raise(self, either_kernels, theta, shifts, u):
        with pytest.raises(ValueError):
            either_kernels.rw_chain(STUB_Y, 1.0, theta, 0.0, shifts, u)

    @pytest.mark.parametrize("lengths", [(3, 3, 4), (3, 4, 3), (4, 3, 3)],
                             ids=["u", "log_g_cands", "log_p_cands"])
    def test_independence_accept_mismatched_lengths_raise(self, either_kernels, lengths):
        with pytest.raises(ValueError):
            either_kernels.independence_accept(*(np.zeros(k) for k in lengths), 0.0, 0.0)

    def test_compiled_rw_chain_leaks_no_reference_on_error(self, compiled, monkeypatch):
        theta, y = self.THETA.copy(), STUB_Y.copy()
        shifts, u = np.zeros((10, 3)), np.zeros(10)
        loglik = raising_at(3)
        monkeypatch.setattr(compiled, "log_likelihood", loglik)
        before = sys.getrefcount(loglik), sys.getrefcount(theta), sys.getrefcount(y)
        for _ in range(10_000):
            try:
                compiled.rw_chain(y, 1.0, theta, 0.0, shifts, u)
            except NumericOverflowError:
                pass
        assert (sys.getrefcount(loglik), sys.getrefcount(theta), sys.getrefcount(y)) == before


#: Edge values that each coordinate of a candidate takes in turn.
EDGES = (0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf)


def edge_candidates():
    """INSIDE with each of EDGES in each coordinate in turn; then alpha+beta
    exactly 1, one below 1 that rounds to 1 in the sum (1 - 2^-54 is a tie,
    and rounds to even), one just below 1, and INSIDE itself."""
    cands = []
    for j, value in itertools.product(range(3), EDGES):
        cands.append(INSIDE.copy())
        cands[-1][j] = value
    cands += [[0.5, 0.5, 0.5], [0.5, 0.5 - 2.0 ** -54, 0.5], [0.5, 0.5 - 2.0 ** -53, 0.5], INSIDE]
    return np.array(cands)


def test_rw_chain_scores_exactly_the_candidates_inside_the_support(either_kernels, monkeypatch):
    cands = edge_candidates()
    inside = model.in_support(*cands.T)
    assert inside.tolist() == ([False, False, True, False, False, False] * 2
                               + [False, False, True, False, True, False]
                               + [False, False, True, True])
    calls = []

    def run(start, log_p, shifts, score):
        """rw_chain and the reference, each with its likelihood calls; the
        stand-in records each call's triple."""
        stub_likelihood(monkeypatch, either_kernels,
                        lambda *theta: calls.append(theta) or score(*theta))
        u = np.random.default_rng(19).random(len(shifts))
        got = either_kernels.rw_chain(STUB_Y, 1.0, start, log_p, shifts, u)
        got_calls = calls[:]
        calls.clear()
        want = reference_steps(start, log_p, shifts, u,
                               functools.partial(model.log_posterior, STUB_Y, 1.0))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert got_calls == calls
        calls.clear()
        return got, got_calls

    # From (-0.0, -0.0, -0.0), outside the support, candidate i is exactly
    # cands[i], since x + (-0.0) is x for every x, -0.0 included. A score of
    # -inf accepts none, so the state stays there.
    start = np.full(3, -0.0)
    assert (start + cands).tobytes() == cands.tobytes()
    got, got_calls = run(start, LOG_ZERO, cands, lambda a, b, w: LOG_ZERO)
    assert np.array(got_calls).tobytes() == cands[inside].tobytes()
    assert not got[1].any()
    # Quarter steps from INSIDE towards each candidate, with finite scores:
    # some are accepted, and the steps after them start from there.
    got, got_calls = run(INSIDE, -1.0, (cands - INSIDE) / 4, lambda a, b, w: -(a + b + w))
    assert 0 < got[1].sum() and 0 < len(got_calls) < len(cands)


def forwarding(monkeypatch, kernels):
    """Set as the scalar likelihood of ``kernels`` a wrapper that forwards
    each call to the one there now: the compiled ``rw_chain`` then takes its
    per-step path, one Python call per candidate inside the support, as it
    does under the benchmark tracer's wrapper."""
    loglik = kernels.log_likelihood
    monkeypatch.setattr(kernels, "log_likelihood", lambda *args: loglik(*args))


def both_paths(compiled, monkeypatch, *args):
    """The outcome of ``compiled.rw_chain(*args)`` on its fused path, after
    asserting that its per-step path has the same one: both return the same
    bits of draws, flags, end state and log-density, or both raise
    NumericOverflowError, which is then the outcome."""
    outcomes = []
    for wrapped in (False, True):
        with monkeypatch.context() as patch:
            if wrapped:
                forwarding(patch, compiled)
            try:
                outcomes.append(compiled.rw_chain(*args))
            except NumericOverflowError:
                outcomes.append(NumericOverflowError)
    fused, per_step = (o if o is NumericOverflowError else [np.asarray(x).tobytes() for x in o]
                       for o in outcomes)
    assert fused == per_step
    return outcomes[0]


def lanes_outside_support(start, draws, accepted, shifts):
    """How many steps of the compiled ``rw_chain`` took each speculative lane
    of a pass, A, R or AA, while it held a candidate outside the support:
    a pass opens at a candidate inside the support and decides the next
    step from lane A after an accept or R after a reject, and the step
    after that from lane AA when both accept."""
    states = np.vstack([start, draws])  # the state before each step
    inside = [model.in_support(*c) for c in states[:-1] + shifts]
    counts = dict.fromkeys(("A", "R", "AA"), 0)
    i, n = 0, len(shifts)
    while i < n:
        lanes = ["A" if accepted[i] else "R"] if inside[i] and i + 1 < n else []
        if lanes == ["A"] and accepted[i + 1] and i + 2 < n:
            lanes.append("AA")
        for m, lane in enumerate(lanes, start=1):
            counts[lane] += not inside[i + m]
        i += 1 + len(lanes)
    return counts


class TestFusedRandomWalk:
    """The compiled ``rw_chain`` on its own likelihood, whose steps run in
    passes of two or three with no Python call, against the same call with
    a forwarding wrapper set as its likelihood."""

    #: Step widths from which chains on 250 returns accept from about 0.95
    #: of their steps down to below 0.1; the widest leave the support often.
    WIDTHS = (3e-4, 3e-3, 1e-2, 4e-2, 0.3)

    @pytest.mark.parametrize("n_steps", [0, 1, 2, 301])
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_same_bits_as_the_per_step_path(self, compiled, monkeypatch, seed, n_steps):
        y = small_series(seed, n=250)
        s1 = float(np.var(y))
        log_p = compiled.log_likelihood(y, *GARCH_START, s1)
        rng = np.random.default_rng(seed)
        rates, outside = [], collections.Counter()
        for width in self.WIDTHS:
            shifts = width * rng.standard_normal((n_steps, 3)) * [1.0, 1.0, 0.2]
            u = rng.random(n_steps)
            draws, accepted, *_ = both_paths(compiled, monkeypatch, y, s1, GARCH_START, log_p,
                                             shifts, u)
            rates.append(accepted.mean() if n_steps else 0.0)
            outside.update(lanes_outside_support(GARCH_START, draws, accepted, shifts))
        if n_steps == 301:
            assert min(rates) < 0.1 and max(rates) > 0.9
            assert min(outside[lane] for lane in ("A", "R", "AA")) > 0, outside

    #: ``_kernels.c`` scores a chunk of 16 steps at once when its least s_t
    #: is at least SAFE_MIN, 2^-62, and step by step otherwise, where the
    #: product of its s_t could be subnormal. Returns whose scale steps from
    #: 1e-10 to 1e-8 halfway, with omega 1e-21, put the chunks of the first
    #: half below it and those of the second above; a sigma1_sq of 1e-300,
    #: with y_0 = 0, puts the first chunk below.
    @pytest.mark.parametrize("scales, omega, s1", [((1e-10, 1e-8), 1e-21, None),
                                                   ((1.0, 1.0), 0.01, 1e-300)],
                             ids=["omega-below-safe-min", "sigma1_sq-below-safe-min"])
    def test_same_bits_near_the_least_variance(self, compiled, monkeypatch, scales, omega, s1):
        y = small_series(5, n=256) * np.repeat(scales, 128)
        y[0] = 0.0
        s1 = float(np.var(y)) if s1 is None else s1
        start = np.array([0.05, 0.9, omega])
        variances = [s1]
        for t in range(1, len(y)):
            variances.append((y[t - 1] * y[t - 1] * start[0] + start[2]) + start[1] * variances[-1])
        lows = [min(variances[t:t + 16]) for t in range(0, len(y), 16)]
        assert min(lows) < 2.0 ** -62 <= max(lows)
        log_p = compiled.log_likelihood(y, *start, s1)
        rng = np.random.default_rng(9)
        for width in (1e-4, 1e-3):
            shifts = width * rng.standard_normal((301, 3)) * [1.0, 1.0, omega]
            _, accepted, *_ = both_paths(compiled, monkeypatch, y, s1, start, log_p, shifts,
                                         rng.random(301))
            assert 0.0 < accepted.mean() < 1.0

    #: Returns, a state and shifts for which the likelihood of lane A is not
    #: finite: from omega 1e307 and beta 0.1, step i proposes beta 0.5 and
    #: step i + 1 adds 0.45 more. At beta 0.95 the variance tends to
    #: omega / 0.05, which overflows; at 0.5, and at the 0.55 that step i + 1
    #: proposes after a rejection, it stays finite.
    OVERFLOW_START = np.array([0.001, 0.1, 1e307])
    RISKY_SHIFTS = [[0.0, 0.4, 0.0], [0.0, 0.45, 0.0]]
    #: For each lane, shifts after which it alone reaches beta 0.95, and the
    #: steps whose shifts take OVERFLOW_START there. Lane R gets there after
    #: step i rejects; after it accepts, lane A's 1.35 is outside the
    #: support. Lane AA gets there after steps i and i + 1 accept; every
    #: other path stays at 0.7 or below.
    RISKY = {"A": (RISKY_SHIFTS, [0, 1]),
             "R": ([[0.0, 0.4, 0.0], [0.0, 0.85, 0.0]], [1]),
             "AA": ([[0.0, 0.3, 0.0], [0.0, 0.3, 0.0], [0.0, 0.25, 0.0]], [0, 1, 2])}

    @pytest.mark.parametrize("lane, u_risky, raises", [
        ("A", [0.0], True), ("A", [0.9], False), ("R", [0.0], False), ("R", [0.9], True),
        ("AA", [0.0, 0.0], True), ("AA", [0.0, 0.9], False), ("AA", [0.9, 0.0], False),
    ], ids=["step-i-accepts", "step-i-rejects", "lane-R-step-i-accepts",
            "lane-R-step-i-rejects", "lane-AA-both-accept", "lane-AA-step-i-plus-1-rejects",
            "lane-AA-step-i-rejects"])
    @pytest.mark.parametrize("lead", [0, 1, 2, 3])
    def test_non_finite_lane_2_raises_only_when_used(self, compiled, monkeypatch, lead, lane,
                                                     u_risky, raises):
        # ``lead`` steps of zero shift, each accepted, come first, so that
        # step i opens a pass or is lane A or AA of one; three more follow.
        # u of 0.0 accepts a risky step and 0.9 rejects it.
        y = np.random.default_rng(3).standard_normal(200)
        theta = self.OVERFLOW_START
        log_p = compiled.log_likelihood(y, *theta, 1.0)
        risky, path = self.RISKY[lane]
        shifts = np.array([[0.0] * 3] * lead + risky + [[0.0] * 3] * 3)
        u = np.full(len(shifts), 0.5)
        u[lead:lead + len(u_risky)] = u_risky
        with pytest.raises(NumericOverflowError):
            compiled.log_likelihood(y, *functools.reduce(np.add, [risky[j] for j in path], theta),
                                    1.0)
        # The same outcome on every prefix: both raise at the same step.
        for steps in range(len(shifts) + 1):
            fused = both_paths(compiled, monkeypatch, y, 1.0, theta, log_p, shifts[:steps],
                               u[:steps])
        assert (fused is NumericOverflowError) == raises

    def test_overflow_leaks_no_reference(self, compiled):
        y = np.random.default_rng(3).standard_normal(200)
        theta = self.OVERFLOW_START.copy()
        shifts, u = np.array(self.RISKY_SHIFTS), np.zeros(2)
        before = sys.getrefcount(theta), sys.getrefcount(y), sys.getrefcount(shifts)
        for _ in range(2000):
            with pytest.raises(NumericOverflowError):
                compiled.rw_chain(y, 1.0, theta, -math.inf, shifts, u)
        assert (sys.getrefcount(theta), sys.getrefcount(y), sys.getrefcount(shifts)) == before


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
        kernels = backend.kernels
        loglik, batch = kernels.log_likelihood, kernels.log_likelihood_batch
        monkeypatch.setattr(kernels, "log_likelihood",
                            lambda series, a, b, w, s: loglik(series, a, b, w, 1e-320))
        monkeypatch.setattr(kernels, "log_likelihood_batch",
                            lambda y, thetas, s: batch(y, thetas, 1e-320))
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
