"""Random-walk Metropolis and adaptive independence MH on one driver.

The batch kernels ``_rw_chain`` and ``_independence_batch`` take and
return the chain state (theta, log_p) alike. They draw the random numbers;
the per-step accept loops run in the kernel module that ``backend`` picks,
``rw_chain`` and ``independence_accept`` of the compiled ``_kernels.c`` or
of its numpy twin ``_kernels_py``, which write the accept rule once each.
``_rw_chain`` walks the GARCH posterior of the returns y: the kernel tests
each candidate for the support and scores one inside with the scalar
likelihood's operations, the twin once per step and the compiled module in
passes that score the candidates of up to three steps at once.
Independence candidates do not depend on the chain state, so
``_independence_batch`` is dimension-agnostic and takes a batch scorer,
mapping a (k, p) array of candidates to their (k,) log-densities in one
call. The one driver, ``_run``, wires them to the
GARCH posterior: ``run_metropolis`` and ``run_adaptive`` differ only in the
kernel that fills each retained batch.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import backend, model, proposal
from .exceptions import DataValidationError, DegenerateSampleError, TuningFailureError
from .rng import named_rng

#: Random-walk half-window width every parameter starts tuning from.
TUNE_START_WIDTH = 0.05
#: Acceptance band step-size tuning aims for.
TUNE_ACCEPT_FLOOR = 0.5
TUNE_ACCEPT_CEIL = 0.85
TUNE_BLOCK_STEPS = 500
TUNE_MAX_BLOCKS = 20


@dataclass(frozen=True)
class AdaptiveSchedule:
    """Run schedule; defaults follow the empirical protocol."""

    burn_in: int = 3000
    pilot: int = 1000
    refit_interval: int = 1000
    total: int = 100000

    def __post_init__(self):
        # Each message starts with the offending field's name, which the CLI
        # reports as its flag.
        for name in ("burn_in", "pilot", "refit_interval", "total"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.refit_interval > self.total:
            raise ValueError(f"refit_interval {self.refit_interval} exceeds total {self.total}")


def _rw_chain(y, sigma1_sq, theta, log_p, n_steps, d, rng):
    """Run n_steps of random walk on the posterior of y from the GARCH triple
    theta; returns the (n_steps, 3) draws, their flags and the end state, a
    new float64 array, and its log-density.

    The random numbers are drawn for the whole run up front.
    """
    shifts = d * (rng.random((n_steps, len(theta))) - 0.5)
    u = rng.random(n_steps)
    return backend.kernels.rw_chain(y, sigma1_sq, theta, log_p, shifts, u)


def tune_metropolis(y, sigma1_sq, d, rng, theta0, log_p0):
    """Scale the random-walk widths d, from theta0 of log-density log_p0,
    until block acceptance lands in [TUNE_ACCEPT_FLOOR, TUNE_ACCEPT_CEIL];
    returns the tuned widths.

    Runs 500-step pilot blocks; halves every width when acceptance is below
    the floor, doubles when above the ceiling, gives up after 20 blocks.
    """
    theta, log_p = np.asarray(theta0, dtype=np.float64), log_p0
    acc = float("nan")
    for _ in range(TUNE_MAX_BLOCKS):
        _, flags, theta, log_p = _rw_chain(y, sigma1_sq, theta, log_p, TUNE_BLOCK_STEPS, d, rng)
        acc = float(flags.mean())
        if TUNE_ACCEPT_FLOOR <= acc <= TUNE_ACCEPT_CEIL:
            return d
        d = d / 2.0 if acc < TUNE_ACCEPT_FLOOR else d * 2.0
    raise TuningFailureError(
        f"acceptance {acc:.3f} not in [{TUNE_ACCEPT_FLOOR}, {TUNE_ACCEPT_CEIL}] "
        f"after {TUNE_MAX_BLOCKS} blocks"
    )


def _independence_batch(theta, log_p, n_steps, prop, score, rng):
    """Run n_steps of independence MH under ``prop`` from the length-p state
    theta; returns the (n_steps, p) draws, their flags and the end state, a
    row of a new float64 array.

    Row 0 of ``states`` is the state and row j + 1 candidate j; all are
    scored by ``prop`` in one call, the candidates by ``score`` ((k, p) to
    (k,) log-densities), before the kernels' ``independence_accept``, which
    returns only flags. Step i's state is its last accept's row, or row 0.
    """
    states = np.vstack([theta, prop.sample(rng, n_steps)])
    log_g = prop.log_density(states)
    u = rng.random(n_steps)
    accepted, log_p = backend.kernels.independence_accept(
        score(states[1:]), log_g[1:], u, log_p, log_g[0])
    index = np.maximum.accumulate(np.where(accepted, np.arange(1, n_steps + 1), 0))
    return states[index], accepted, states[index[-1] if n_steps else 0], log_p


def _tuned_widths(y, sigma1_sq, theta0, log_p0, rng):
    """Tune scalar widths, rescale per-parameter from a pilot block, retune."""
    d = tune_metropolis(y, sigma1_sq, np.full(theta0.size, TUNE_START_WIDTH), rng, theta0,
                        log_p0)
    draws, _, _, _ = _rw_chain(y, sigma1_sq, theta0, log_p0, 1000, d, rng)
    stds = draws.std(axis=0)
    if np.all(stds > 0.0):
        scale = stds / math.exp(np.mean(np.log(stds)))
        d = tune_metropolis(y, sigma1_sq, d * scale, rng, theta0, log_p0)
    return d


def _batch_sizes(total, interval):
    sizes = [interval] * (total // interval)
    if total % interval:
        sizes.append(total % interval)
    return sizes


@dataclass
class RunResult:
    """A finished run: the retained (k, p) draws with their (k,) accept
    flags, acceptance per batch and fitted proposals (empty for Metropolis)."""

    draws: np.ndarray
    accepted: np.ndarray
    trace: np.ndarray
    history: list


def _data(y):
    """Contiguous float64 returns and their variance, the sigma1_sq the
    volatility recursion starts from.

    Returns without a positive variance (flat prices, a single return) leave
    the GARCH scale unidentified and sigma1_sq zero, so they are refused.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    var = float(np.var(y))
    if not var > 0.0:
        raise DataValidationError(f"returns need a positive variance, got {var} over {y.size} values")
    return y, var


def _run(y, sigma1_sq, sched, seed, step):
    """The sampler driver shared by both schemes, on data from ``_data``.

    Tunes random-walk widths, discards sched.burn_in random-walk draws, then
    retains sched.total draws in refit_interval-sized batches, each filled by
    ``step``, which has the signature of ``_rw_chain``. Returns the retained
    draws, their accept flags and the acceptance of each batch.
    """
    # The likelihood kernels raise NumericOverflowError on a non-finite
    # likelihood; numpy's warnings on the way there would only precede it.
    with np.errstate(all="ignore"):
        # A stationary, constraint-interior start scaled to the data variance.
        theta0 = np.array([0.05, 0.90, sigma1_sq * (1.0 - 0.95)])
        log_p0 = model.log_posterior(y, sigma1_sq, theta0)
        d = _tuned_widths(y, sigma1_sq, theta0, log_p0, named_rng(seed, "tuning"))
        _, _, theta, log_p = _rw_chain(y, sigma1_sq, theta0, log_p0, sched.burn_in, d,
                                       named_rng(seed, "burnin"))

        rng = named_rng(seed, "sampling")
        parts = []
        for k in _batch_sizes(sched.total, sched.refit_interval):
            draws, accepted, theta, log_p = step(y, sigma1_sq, theta, log_p, k, d, rng)
            parts.append((draws, accepted))
    draws, accepted = (np.concatenate(col) for col in zip(*parts))
    trace = np.array([float(a.mean()) for _, a in parts])
    return draws, accepted, trace


def run_metropolis(y, sched, seed=0):
    """Tuned random-walk Metropolis run: burn-in discarded, total retained.

    Returns a RunResult with one trace entry per refit_interval-sized batch
    of retained draws and an empty proposal history.
    """
    return RunResult(*_run(*_data(y), sched, seed, _rw_chain), [])


def run_adaptive(y, sched, nu=proposal.DEFAULT_NU, seed=0):
    """Adaptive scheme: tuned Metropolis pilot, then independence MH with the
    Student-t proposal re-fitted every refit_interval draws from all retained
    post-burn-in draws (pilot included).

    Returns a RunResult of sched.total independence-MH draws whose history
    holds one fitted proposal per refit.
    """
    y, sigma1_sq = _data(y)
    score = functools.partial(model.log_posterior_batch, y, sigma1_sq)
    history = []
    acc = proposal.SampleAccumulator()

    def step(y, sigma1_sq, theta, log_p, n_steps, d, rng):
        if not history:
            pilot, _, theta, log_p = _rw_chain(y, sigma1_sq, theta, log_p, sched.pilot, d, rng)
            acc.add_batch(pilot)
        try:
            history.append(proposal.fit(acc, nu))
        except DegenerateSampleError as exc:
            raise DegenerateSampleError(f"batch {len(history)}: {exc}") from exc
        draws, accepted, theta, log_p = _independence_batch(
            theta, log_p, n_steps, history[-1], score, rng
        )
        acc.add_batch(draws)
        return draws, accepted, theta, log_p

    return RunResult(*_run(y, sigma1_sq, sched, seed, step), history)
