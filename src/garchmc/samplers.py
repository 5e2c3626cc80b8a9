"""Random-walk Metropolis and adaptive independence MH on one driver.

The batch kernels ``_rw_chain`` and ``_independence_batch`` are
dimension-agnostic and both accept through ``_accept``. ``_rw_chain`` takes a
target: any callable returning a log-density (or ``model.LOG_ZERO`` outside
its support) for a 1-D parameter array. Independence candidates do not depend
on the chain state, so ``_independence_batch`` takes a batch scorer instead,
mapping a (k, p) array of candidates to their (k,) log-densities in one call.
The one driver, ``_run``, wires them to the GARCH posterior:
``run_metropolis`` and ``run_adaptive`` differ only in the kernel that fills
each retained batch.
"""
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model, proposal
from .exceptions import DataValidationError, DegenerateSampleError, TuningFailureError
from .rng import named_rng

LOG_ZERO = model.LOG_ZERO

#: Acceptance band used by step-size tuning (floor comes from the config).
TUNE_ACCEPT_CEIL = 0.85
TUNE_BLOCK_STEPS = 500
TUNE_MAX_BLOCKS = 20


@dataclass
class Chain:
    """Ordered draws with parallel accept flags."""

    draws: np.ndarray       # (k, p)
    accepted: np.ndarray    # (k,) bool

    def __len__(self):
        return self.draws.shape[0]

    @property
    def acceptance_rate(self):
        return float(self.accepted.mean())


@dataclass(frozen=True)
class AdaptiveSchedule:
    """Run schedule; defaults follow the empirical protocol."""

    burn_in: int = 3000
    pilot: int = 1000
    refit_interval: int = 1000
    total: int = 100000

    def __post_init__(self):
        if min(self.burn_in, self.pilot, self.refit_interval, self.total) <= 0:
            raise ValueError("all schedule fields must be positive")
        if self.refit_interval > self.total:
            raise ValueError("refit_interval must not exceed total")


@dataclass(frozen=True)
class MetropolisConfig:
    """Per-parameter uniform proposal half-window widths."""

    d: np.ndarray = field(default_factory=lambda: np.full(3, 0.05))
    target_acceptance_floor: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=np.float64))
        if np.any(self.d <= 0.0):
            raise ValueError("all proposal widths must be positive")
        if not 0.0 < self.target_acceptance_floor < 1.0:
            raise ValueError("target_acceptance_floor must lie in (0, 1)")


def _accept(delta, u):
    """Metropolis-Hastings rule for log acceptance ratio delta and u ~ U(0, 1)."""
    return delta >= 0.0 or u < math.exp(delta)


def _rw_chain(theta, log_p, n_steps, d, target, rng):
    """Run n_steps of random walk; returns draws, flags and the end state."""
    p = theta.size
    draws = np.empty((n_steps, p))
    accepted = np.zeros(n_steps, dtype=bool)
    shifts = d * (rng.random((n_steps, p)) - 0.5)
    u = rng.random(n_steps)
    for i in range(n_steps):
        cand = theta + shifts[i]
        log_p_cand = target(cand)
        if log_p_cand != LOG_ZERO and _accept(log_p_cand - log_p, u[i]):
            theta = cand
            log_p = log_p_cand
            accepted[i] = True
        draws[i] = theta
    return draws, accepted, theta, log_p


def tune_metropolis(cfg, target, rng, theta0):
    """Scale d until block acceptance lands in [floor, 0.85].

    Runs 500-step pilot blocks; halves every width when acceptance is below
    the floor, doubles when above the ceiling, gives up after 20 blocks.
    """
    theta = np.asarray(theta0, dtype=np.float64)
    log_p = target(theta)
    d = cfg.d.copy()
    acc = float("nan")
    for _ in range(TUNE_MAX_BLOCKS):
        _, flags, theta, log_p = _rw_chain(theta, log_p, TUNE_BLOCK_STEPS, d, target, rng)
        acc = float(flags.mean())
        if cfg.target_acceptance_floor <= acc <= TUNE_ACCEPT_CEIL:
            return replace(cfg, d=d)
        d = d / 2.0 if acc < cfg.target_acceptance_floor else d * 2.0
    raise TuningFailureError(
        f"acceptance {acc:.3f} not in [{cfg.target_acceptance_floor}, {TUNE_ACCEPT_CEIL}] "
        f"after {TUNE_MAX_BLOCKS} blocks", last_acceptance=acc,
    )


def _independence_batch(theta, log_p, log_g, prop, score, n_steps, rng):
    """Run n_steps of independence MH; all candidates are drawn and scored
    (``score``: (k, p) candidates to (k,) log-densities) before the accept loop."""
    cands = prop.sample(rng, n_steps)
    log_g_cands = prop.log_density(cands)
    u = rng.random(n_steps)
    log_p_cands = score(cands)
    p = theta.size
    draws = np.empty((n_steps, p))
    accepted = np.zeros(n_steps, dtype=bool)
    for i in range(n_steps):
        log_p_cand = log_p_cands[i]
        if log_p_cand != LOG_ZERO:
            delta = (log_p_cand - log_p) + (log_g - log_g_cands[i])
            if _accept(delta, u[i]):
                theta = cands[i]
                log_p = log_p_cand
                log_g = log_g_cands[i]
                accepted[i] = True
        draws[i] = theta
    return draws, accepted, theta, log_p, log_g


def _initial_theta(y):
    """Stationary, constraint-interior start scaled to the data variance."""
    return np.array([0.05, 0.90, float(np.var(y)) * (1.0 - 0.95)])


def _tuned_config(target, theta0, cfg, rng):
    """Tune scalar widths, rescale per-parameter from a pilot block, retune."""
    cfg = tune_metropolis(cfg, target, rng, theta0)
    log_p = target(theta0)
    draws, _, _, _ = _rw_chain(theta0, log_p, 1000, cfg.d, target, rng)
    stds = draws.std(axis=0)
    if np.all(stds > 0.0):
        scale = stds / math.exp(np.mean(np.log(stds)))
        cfg = tune_metropolis(replace(cfg, d=cfg.d * scale), target, rng, theta0)
    return cfg


def _batch_sizes(total, interval):
    sizes = [interval] * (total // interval)
    if total % interval:
        sizes.append(total % interval)
    return sizes


def _rng_state_token(rng):
    """JSON-serializable snapshot of a Generator's bit-generator state."""
    state = rng.bit_generator.state
    return {
        "bit_generator": state["bit_generator"],
        "state": {k: int(v) if np.isscalar(v) else list(map(int, v))
                  for k, v in state["state"].items()},
        "has_uint32": int(state.get("has_uint32", 0)),
        "uinteger": int(state.get("uinteger", 0)),
    }


@dataclass
class RunResult:
    """A finished run: retained chain, acceptance per batch, fitted proposals
    (empty for Metropolis) and the resumption checkpoint payload."""

    chain: Chain
    trace: np.ndarray
    history: list
    checkpoint: dict


def _data(y, sigma1_sq):
    """Contiguous float64 returns and sigma1_sq, defaulting to their variance.

    Returns without a positive variance (flat prices, a single return) leave
    the GARCH scale unidentified and the default sigma1_sq zero, so they are
    refused.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    var = float(np.var(y))
    if not var > 0.0:
        raise DataValidationError(f"returns need a positive variance, got {var} over {y.size} values")
    return y, var if sigma1_sq is None else sigma1_sq


def _run(y, sigma1_sq, sched, seed, step, history):
    """The sampler driver shared by both schemes, on data from ``_data``.

    Tunes random-walk widths, discards sched.burn_in random-walk draws, then
    retains sched.total draws in refit_interval-sized batches, each filled by
    ``step``, which has the signature of ``_rw_chain``. ``history`` is the
    list the step appends fitted proposals to.
    """
    target = model.make_log_posterior(y, sigma1_sq)
    theta0 = _initial_theta(y)
    d = _tuned_config(target, theta0, MetropolisConfig(), named_rng(seed, "tuning")).d
    _, _, theta, log_p = _rw_chain(
        theta0, target(theta0), sched.burn_in, d, target, named_rng(seed, "burnin")
    )

    rng = named_rng(seed, "sampling")
    parts = []
    for k in _batch_sizes(sched.total, sched.refit_interval):
        draws, accepted, theta, log_p = step(theta, log_p, k, d, target, rng)
        parts.append((draws, accepted))
    chain = Chain(*(np.concatenate(col) for col in zip(*parts)))
    checkpoint = {
        "position": len(chain),
        "theta": theta.tolist(),
        "rng_state": _rng_state_token(rng),
        "proposal": history[-1].to_dict() if history else None,
        "schedule": {
            "burn_in": sched.burn_in,
            "pilot": sched.pilot,
            "refit_interval": sched.refit_interval,
            "total": sched.total,
        },
    }
    trace = np.array([float(a.mean()) for _, a in parts])
    return RunResult(chain, trace, history, checkpoint)


def run_metropolis(y, sched, seed=0, sigma1_sq=None):
    """Tuned random-walk Metropolis run: burn-in discarded, total retained.

    Returns a RunResult with one trace entry per refit_interval-sized batch
    of retained draws and an empty proposal history.
    """
    return _run(*_data(y, sigma1_sq), sched, seed, _rw_chain, [])


def run_adaptive(y, sched, nu=10.0, seed=0, sigma1_sq=None, freeze_after=None):
    """Adaptive scheme: tuned Metropolis pilot, then independence MH with the
    Student-t proposal re-fitted every refit_interval draws from all retained
    post-burn-in draws (pilot included), until freeze_after refits if given.

    Returns a RunResult of sched.total independence-MH draws whose history
    holds one fitted proposal per refit.
    """
    y, sigma1_sq = _data(y, sigma1_sq)
    score = model.make_batch_log_posterior(y, sigma1_sq)
    history = []
    acc = proposal.SampleAccumulator()
    log_g = None

    def step(theta, log_p, n_steps, d, target, rng):
        nonlocal log_g
        if not history:
            pilot, _, theta, log_p = _rw_chain(theta, log_p, sched.pilot, d, target, rng)
            acc.add_batch(pilot)
        if not history or freeze_after is None or len(history) < freeze_after:
            try:
                history.append(proposal.fit(acc, nu))
            except DegenerateSampleError as exc:
                raise DegenerateSampleError(f"batch {len(history)}: {exc}") from exc
            log_g = float(history[-1].log_density(theta))
        draws, accepted, theta, log_p, log_g = _independence_batch(
            theta, log_p, log_g, history[-1], score, n_steps, rng
        )
        acc.add_batch(draws)
        return draws, accepted, theta, log_p

    return _run(y, sigma1_sq, sched, seed, step, history)
