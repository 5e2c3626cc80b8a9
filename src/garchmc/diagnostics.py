"""Autocorrelation functions, integrated autocorrelation times, and the
per-parameter summary report that a run writes as ``report.json``.

tau_int(T) = 1/2 + sum_{i<=T} ACF(i); the reported value is read at the
self-consistent window T* = smallest T with T >= c*tau_int(T), where c is
WINDOW_FACTOR. Its blocked-jackknife error takes each leave-one-block-out
series' lag sums from the whole series' ones plus corrections over the
removed block (``_corrected_acf``), so only the whole series gets a
full-length FFT.
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
#: Least share of the whole series' centred sum of squares that a jackknife
#: replicate keeps for its lag sums to be taken from the whole series' ones.
_MIN_KEPT_SHARE = 1e-4

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


def _lag_sums(v, t_max):
    """Lag sums sum_i v[i] * v[i+t] for t = 0..t_max, from one FFT pair
    zero-padded to ``_next_fast_len(len(v) + t_max)``: in the circular lag-t
    sum over L >= len(v) + t points, a term wraps round only where it meets
    the padding, so every lag up to t_max is the linear sum."""
    nfft = _next_fast_len(v.size + t_max)
    f = np.fft.rfft(v, nfft)
    return np.fft.irfft(f * np.conj(f), nfft)[: t_max + 1]


def _normalized(sums, n):
    """ACF from the centred lag sums of a series of length n: each lag's sum
    averaged over its n-t pairs, over the lag-0 average."""
    var = sums[0] / n
    if not var > 0.0 or not np.isfinite(var):
        raise DegenerateSeriesError("series variance is zero or non-finite")
    acov = sums / (n - np.arange(sums.size))
    return acov / var


def acf(x, t_max):
    """Autocorrelation function up to lag t_max.

    Lag-t autocovariances are averaged over the N-t available pairs and
    normalized by the full-series variance, so ACF(0) = 1 exactly.

    The lag sums come from one FFT pair of the centred series to lag
    ``max(t_max, _top_lag(N))``, so every t_max up to the default bound gets
    one FFT length, which depends on N alone.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    t_max = int(t_max)
    if not n > t_max >= 1:
        raise ValueError(f"need series length > t_max >= 1, got N={n}, t_max={t_max}")
    sums = _lag_sums(x - x.mean(), max(t_max, _top_lag(n)))
    return _normalized(sums[: t_max + 1], n)


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


def _lag_bound(rho, top):
    """The default lag bound: min(top, 10 * first lag with ACF < 0.01), or top
    where ``rho`` never falls below 0.01."""
    below = np.nonzero(rho[1:] < 0.01)[0]
    return min(top, 10 * (int(below[0]) + 1)) if below.size else top


def bounded_acf(x):
    """ACF up to the default lag bound min(N/10, 10 * first lag with
    ACF < 0.01), capped at LAG_CAP.

    The ACF that finds the bound is computed to ``_top_lag(N)``, and
    ``acf`` pads every lag bound up to that to one FFT length, which depends
    on N alone. So its prefix is bit-identical to ``acf(x, bound)`` and is
    returned as is.
    """
    t_hi = _top_lag(np.asarray(x).size)
    if t_hi < 1:
        raise ValueError("series too short for autocorrelation analysis")
    rho = acf(x, t_hi)
    return rho[: _lag_bound(rho, t_hi) + 1]


def _corrected_acf(xc, whole, a, b, t_max):
    """ACF to its default lag bound of xc with the block [a, b) removed, from
    ``whole`` = the lag sums of xc to at least the replicate's ``_top_lag``,
    starting from lag range t_max. None where the replicate keeps less than
    _MIN_KEPT_SHARE of whole[0].

    The replicate's lag sums, still centred on the mean of xc, are whole's
    minus those of the window W = the block with t_max points of xc on each
    side, plus those of W with the block cut out (its two margins joined at
    the seam). No other pair changes, because t_max <= ``_top_lag`` of the
    replicate's length stays below the block length for N >= MIN_DRAWS.
    They are then re-centred on the replicate's own mean, which needs only
    its first and last t_max values. The lag range grows to the replicate's
    own bound where its 0.01 crossing needs more lags, or to its
    ``_top_lag`` where it has none; so the bound and the ACF are those of
    ``bounded_acf`` on the replicate, up to rounding.
    """
    n, shift = xc.size, b - a
    size = n - shift
    top = _top_lag(size)
    kept = xc[:a].sum() + xc[b:].sum()  # the replicate's sum of xc
    delta = kept / size
    t_max = min(top, t_max)
    while True:
        lo, hi = max(0, a - t_max), min(n, b + t_max)
        sums = (whole[: t_max + 1] - _lag_sums(xc[lo:hi], t_max)
                + _lag_sums(np.concatenate((xc[lo:a], xc[b:hi])), t_max))
        # Re-centring needs the sums of the replicate's first t and last t
        # values; its index j is xc's index j below a and j + shift above.
        j = np.arange(t_max)
        last = size - 1 - j
        ends = np.cumsum(xc[np.where(j < a, j, j + shift)]
                         + xc[np.where(last < a, last, last + shift)])
        sums += (delta * np.concatenate(([0.0], ends)) - 2.0 * delta * kept
                 + (size - np.arange(t_max + 1)) * delta * delta)
        if not sums[0] > _MIN_KEPT_SHARE * whole[0]:
            return None
        rho = _normalized(sums, size)
        bound = _lag_bound(rho, top)
        if bound <= t_max:
            return rho[: bound + 1]
        t_max = bound


def _replicate_acfs(x, rho):
    """Yield (ACF to its default lag bound, length) of each leave-one-block-out
    series of x in turn, from ``rho`` = ``acf(x, _top_lag(N))``.

    Each comes from ``_corrected_acf`` on the whole series' lag sums,
    starting from twice the whole series' lag bound. A replicate it refuses
    (one that keeps almost none of the variance, a constant one among them:
    its corrections would cancel most digits of the whole series' sums) is
    computed by ``bounded_acf`` on its own values.
    """
    n = x.size
    edges = np.linspace(0, n, JACKKNIFE_BLOCKS + 1, dtype=int).tolist()
    xc = x - x.mean()
    # The lag sums of xc. Not np.dot: OpenBLAS threads a dot this long, and
    # its idle worker then spins for about 0.1 s of CPU.
    whole = rho * (n - np.arange(rho.size)) * np.mean(xc * xc)
    start = 2 * _lag_bound(rho, rho.size - 1)
    for a, b in zip(edges[:-1], edges[1:]):
        rho_i = _corrected_acf(xc, whole, a, b, start)
        if rho_i is None:
            rho_i = bounded_acf(np.concatenate((x[:a], x[b:])))
        yield rho_i, n - (b - a)


def _jackknife_tau_err(x, rho):
    """Blocked jackknife error of tau_int over 10 contiguous segments, each
    replicate's ACF from ``_replicate_acfs(x, rho)``. NaN at the first
    replicate that finds no plateau or is degenerate."""
    estimates = []
    try:
        for rho_i, size in _replicate_acfs(x, rho):
            t, _, _, plateau = tau_int(rho_i, size)
            if not plateau:
                return float("nan")
            estimates.append(t)
    except DegenerateSeriesError:
        return float("nan")
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
            rho = acf(x, _top_lag(k))
        except DegenerateSeriesError:
            tau = err = err_jk = float("nan")
            t_star, plateau, stat_error = 0, False, 0.0
        else:
            tau, t_star, err, plateau = tau_int(rho[: _lag_bound(rho, rho.size - 1) + 1], k)
            # An anticorrelated series can read a negative tau_int, which
            # gives no error estimate.
            stat_error = std * math.sqrt(2.0 * tau / k) if tau >= 0.0 else float("nan")
            err_jk = _jackknife_tau_err(x, rho)
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
