"""Autocorrelation functions, integrated autocorrelation times, and the
per-parameter summary report that a run writes as ``report.json``.

tau_int(T) = 1/2 + sum_{i<=T} ACF(i); the reported value is read at the
self-consistent window T* = smallest T with T >= c*tau_int(T), where c is
WINDOW_FACTOR.
"""
import math

import numpy as np

from .exceptions import DegenerateSeriesError

#: Hard cap on the lag bound used by summarize().
LAG_CAP = 10000
WINDOW_FACTOR = 5.0
JACKKNIFE_BLOCKS = 10
#: Fewest draws summarize() accepts.
MIN_DRAWS = 1000

PARAM_NAMES = ("alpha", "beta", "omega")


def _next_fast_len(target):
    """Smallest 2,3,5,7,11-smooth integer >= target: scipy.fft's default
    FFT length, which fixes the ACF's rounding."""
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _top_lag(n):
    """The lag bound bounded_acf starts from for a series of length n."""
    return min(n // 10, LAG_CAP)


def acf(x, t_max):
    """Autocorrelation function up to lag t_max.

    Lag-t autocovariances are averaged over the N-t available pairs and
    normalized by the full-series variance, so ACF(0) = 1 exactly.

    The series is zero-padded to the FFT length
    ``_next_fast_len(N + max(t_max, _top_lag(N)))``. In the
    circular lag-t sum over L >= N + t points, a term wraps round only where
    i + t >= L, i.e. i >= N, which is padding; so lags up to t_max are the
    linear sums. Every t_max up to the default bound gets one FFT length,
    which depends on N alone.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    t_max = int(t_max)
    if not n > t_max >= 1:
        raise ValueError(f"need series length > t_max >= 1, got N={n}, t_max={t_max}")
    xc = x - x.mean()
    nfft = _next_fast_len(n + max(t_max, _top_lag(n)))
    f = np.fft.rfft(xc, nfft)
    sums = np.fft.irfft(f * np.conj(f), nfft)[: t_max + 1]
    var = sums[0] / n
    if not var > 0.0 or not np.isfinite(var):
        raise DegenerateSeriesError("series variance is zero or non-finite")
    acov = sums / (n - np.arange(t_max + 1))
    return acov / var


def tau_int(rho, n):
    """Integrated autocorrelation time read at the self-consistent window,
    from ``rho`` = ACF(0..t_max) of a series of length n.

    Returns (tau, T*, uncertainty, plateau) with the standard
    windowed-estimator variance sqrt(2*(2T*+1)/N) * tau. When no window
    qualifies, plateau is False and tau is the partial sum at T* = t_max, a
    lower bound.
    """
    partial = 0.5 + np.cumsum(rho[1:])  # tau_int(T) for T = 1..t_max
    ok = np.nonzero(np.arange(1, rho.size) >= WINDOW_FACTOR * partial)[0]
    plateau = ok.size > 0
    i = int(ok[0]) if plateau else partial.size - 1
    t_star = i + 1
    tau = float(partial[i])
    err = math.sqrt(2.0 * (2.0 * t_star + 1.0) / n) * abs(tau)
    return tau, t_star, err, plateau


def bounded_acf(x):
    """ACF up to the default lag bound min(N/10, 10 * first lag with
    ACF < 0.01), capped at LAG_CAP.

    The ACF that finds the bound is computed to ``_top_lag(N)``, and
    ``acf`` pads every lag bound up to that to one FFT length, which depends
    on N alone. So its prefix is bit-identical to ``acf(x, bound)`` and is
    returned as is.
    """
    n = np.asarray(x).size
    t_hi = _top_lag(n)
    if t_hi < 1:
        raise ValueError("series too short for autocorrelation analysis")
    rho = acf(x, t_hi)
    below = np.nonzero(rho[1:] < 0.01)[0]
    if below.size:
        t_hi = min(t_hi, 10 * (int(below[0]) + 1))
    return rho[: t_hi + 1]


def _jackknife_tau_err(x):
    """Blocked jackknife error of tau_int over 10 contiguous segments."""
    edges = np.linspace(0, x.size, JACKKNIFE_BLOCKS + 1, dtype=int)
    estimates = []
    for i in range(JACKKNIFE_BLOCKS):
        sub = np.concatenate([x[: edges[i]], x[edges[i + 1]:]])
        try:
            t, _, _, plateau = tau_int(bounded_acf(sub), sub.size)
        except DegenerateSeriesError:
            return float("nan")
        if not plateau:
            return float("nan")
        estimates.append(t)
    estimates = np.array(estimates)
    m = JACKKNIFE_BLOCKS
    return float(np.sqrt((m - 1.0) / m * np.sum((estimates - estimates.mean()) ** 2)))


def summarize(draws, accepted):
    """The ``report.json`` dict of a chain of (k, p) draws with their (k,)
    accept flags: acceptance, draw count and, per parameter, mean, stddev,
    stat error (NaN where 2tau_int is negative) and 2tau_int with its
    windowed and jackknife errors."""
    k = draws.shape[0]
    if k < MIN_DRAWS:
        raise ValueError(f"chain too short to summarize: {k} < {MIN_DRAWS}")
    params = {}
    for j, name in enumerate(PARAM_NAMES):
        x = draws[:, j]
        std = float(x.std())
        try:
            rho = bounded_acf(x)
        except DegenerateSeriesError:
            tau = err = err_jk = float("nan")
            t_star, plateau, stat_error = 0, False, 0.0
        else:
            tau, t_star, err, plateau = tau_int(rho, k)
            # An anticorrelated series can read a negative tau_int, which
            # gives no error estimate.
            stat_error = std * math.sqrt(2.0 * tau / k) if tau >= 0.0 else float("nan")
            err_jk = _jackknife_tau_err(x)
        params[name] = {
            "mean": float(x.mean()), "stddev": std, "stat_error": stat_error,
            "two_tau_int": 2.0 * tau, "two_tau_int_err": 2.0 * err,
            "two_tau_int_err_jk": 2.0 * err_jk,
            "t_star": t_star, "plateau_found": plateau,
        }
    return {"acceptance": float(accepted.mean()), "n_draws": k, "params": params}


def report_text(report, title):
    """The fixed-width text table of a ``summarize`` dict."""
    params = report["params"]
    names = list(params)
    rows = [
        ("mean", [f"{params[n]['mean']:.5g}" for n in names]),
        ("standard deviation", [f"{params[n]['stddev']:.3g}" for n in names]),
        ("statistical error", [f"{params[n]['stat_error']:.2g}" for n in names]),
        ("2tau_int", [
            f"{params[n]['two_tau_int']:.3g} +/- {params[n]['two_tau_int_err']:.2g}"
            + ("" if params[n]["plateau_found"] else " (no plateau; lower bound)")
            for n in names
        ]),
    ]
    width = max(len(r[0]) for r in rows) + 2
    col = max(12, max(len(v) for _, vals in rows for v in vals) + 2)
    lines = [title, " " * width + "".join(n.ljust(col) for n in names)]
    for label, vals in rows:
        lines.append(label.ljust(width) + "".join(v.ljust(col) for v in vals))
    lines.append(f"acceptance{'':{width - 10}}{report['acceptance']:.4f}")
    lines.append(f"draws{'':{width - 5}}{report['n_draws']}")
    return "\n".join(lines)
