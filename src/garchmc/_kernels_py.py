"""The GARCH(1,1) likelihood kernels, numpy plus one BLAS call, the two
Metropolis-Hastings accept loops and the chain.csv text.

The volatility recursion s_t = drive_t + beta*s_{t-1} is the transposed
solve U^T s = drive with U unit upper bidiagonal (superdiagonal -beta), so it
is delegated to BLAS ``dtbsv`` instead of a Python-level loop. The
transposed form takes each step as a length-1 dot product, which rounds
exactly like the plain recursion; the ``lower=1`` form fuses the multiply
and add and does not.

``log_likelihood`` scores one parameter set, for the random-walk steps;
``log_likelihood_batch`` scores many parameter rows at once, for the
independence sampler's candidate batches. Arguments are positional, the
returns y first; each call allocates its own buffers. A non-finite total
raises ``NumericOverflowError``. ``chain_text`` writes the
rows of chain.csv with Python's ``"%.17g"``. The module imports only
numpy and ``garchmc.exceptions``; ``scipy.linalg.blas`` is imported by the
first ``volatility`` call, so a run on the compiled kernels of
``_kernels.c`` imports no scipy.

The accept loops ``rw_chain`` and ``independence_accept`` both accept
through ``_accept`` and step on Python floats: the random walk scores each
candidate inside the support once per step, and the independence loop runs
on candidates already scored and returns only its accept flags and the end
log-density.
"""
import math
import operator

import numpy as np

from .exceptions import NumericOverflowError

#: Time steps per block of the batched recursion; two (BLOCK, k) float64
#: buffers of a 1000-candidate batch stay in cache.
BLOCK = 32
LOG_2PI = math.log(2.0 * math.pi)
#: Steps per chunk in which ``rw_chain`` converts its random numbers to
#: Python floats; a whole batch at once would hold p + 1 float objects per step.
_RW_CHUNK = 256


def volatility(y, alpha, beta, omega, sigma1_sq):
    """Run the squared-volatility recursion forward from sigma1_sq over the
    returns y; returns a new array."""
    from scipy.linalg.blas import dtbsv

    y = np.asarray(y, dtype=np.float64)
    drive = np.empty(y.shape[0])
    if not len(drive):
        return drive  # BLAS refuses an empty solve
    drive[0] = sigma1_sq
    lag, steps = y[:-1], drive[1:]
    np.multiply(lag, lag, out=steps)
    np.multiply(steps, alpha, out=steps)
    np.add(steps, omega, out=steps)
    band = np.empty((2, len(drive)), order="F")
    band[0] = -beta
    band[1] = 1.0
    return dtbsv(1, band, drive, lower=0, trans=1, diag=1, overwrite_x=1)


def log_likelihood(y, alpha, beta, omega, sigma1_sq):
    """Sum of Gaussian log-densities of the returns y along the volatility
    recursion. An empty series scores -0.0, as in the batch kernel and
    ``_kernels.c``."""
    y = np.asarray(y, dtype=np.float64)
    sig = volatility(y, alpha, beta, omega, sigma1_sq)
    terms = np.multiply(sig, 2.0 * math.pi)
    np.log(terms, out=terms)
    np.divide(np.multiply(y, y), sig, out=sig)  # y^2/s over s, which is read no more
    np.add(terms, sig, out=terms)
    total = -0.5 * float(np.add.reduce(terms))
    if not math.isfinite(total):
        raise NumericOverflowError("non-finite GARCH log-likelihood")
    return total


def log_likelihood_batch(y, thetas, sigma1_sq):
    """Log-likelihoods of the k rows (alpha, beta, omega) of thetas, shape (k,).

    The recursion runs time-outer and candidate-inner: each numpy call
    advances all k candidates by one step, rounding exactly as ``volatility``
    does. Steps are taken BLOCK at a time into preallocated buffers, and after
    each block log(s) + y^2/s is added into per-candidate totals, so a total
    differs from ``log_likelihood`` only in summation order.
    """
    y = np.asarray(y, dtype=np.float64)
    thetas = np.asarray(thetas, dtype=np.float64)
    n, k = y.shape[0], thetas.shape[0]
    alpha, beta, omega = (np.ascontiguousarray(col) for col in thetas.T)
    y2 = y * y
    y2_lag = np.concatenate(([0.0], y2[:-1]))
    sig = np.empty((min(BLOCK, n), k))
    terms = np.empty_like(sig)
    rows = list(sig)
    step = np.empty(k)
    block_sum = np.empty(k)
    total = np.zeros(k)
    # s_t = drive_t + beta*s_{t-1} with drive_t = omega + alpha*y_{t-1}^2,
    # except drive_0 = sigma1_sq, which the zero s_{-1} leaves unchanged.
    carry = np.zeros(k)
    for t0 in range(0, n, BLOCK):
        m = min(BLOCK, n - t0)
        s, ts = sig[:m], terms[:m]
        np.multiply(y2_lag[t0:t0 + m, None], alpha, out=s)
        np.add(s, omega, out=s)
        if t0 == 0:
            s[0] = sigma1_sq
        prev = carry
        for row in rows[:m]:
            np.multiply(beta, prev, out=step)
            np.add(row, step, out=row)
            prev = row
        np.copyto(carry, prev)
        np.log(s, out=ts)
        np.divide(y2[t0:t0 + m, None], s, out=s)
        np.add(ts, s, out=ts)
        np.sum(ts, axis=0, out=block_sum)
        total += block_sum
    total += n * LOG_2PI
    total *= -0.5
    if not np.isfinite(total).all():
        raise NumericOverflowError("non-finite GARCH log-likelihood")
    return total


def chain_text(draws, accepted):
    """The chain.csv rows of the (k, p) draws and their k accept flags: one
    ``%.17g,...,%.17g,0|1`` line per row.

    A rejected step repeats the state before it, so the parameter text is
    formatted for the first row and each row whose bits differ from the row
    before (compared as int64, which keeps 0.0 and -0.0 apart), and reused
    for the rest.
    """
    draws = np.ascontiguousarray(draws, dtype=np.float64)
    accepted = np.asarray(accepted)
    if draws.ndim != 2:
        raise ValueError(f"expected 2 dimension(s), got {draws.ndim}")
    if accepted.shape != draws.shape[:1]:
        raise ValueError(f"expected {len(draws)} accept flags, one per row of draws")
    bits = draws.view(np.int64)
    fresh = np.ones(len(draws), dtype=bool)
    fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    heads = [("%.17g," * draws.shape[1]) % row for row in map(tuple, draws[fresh].tolist())]
    runs = (np.cumsum(fresh) - 1).tolist()
    return "".join([heads[r] + ("1\n" if a else "0\n") for r, a in zip(runs, accepted.tolist())])


def _accept(delta, u):
    """Metropolis-Hastings rule for log acceptance ratio delta and u ~ U(0, 1).

    A candidate outside the support scores -inf, and delta = -inf always
    rejects: -inf >= 0 is false, and u < exp(-inf) = 0 is false for every u
    in [0, 1). A NaN delta rejects too."""
    return delta >= 0.0 or u < math.exp(delta)


def rw_chain(y, sigma1_sq, theta, log_p, shifts, u):
    """Random-walk Metropolis on the returns y from the GARCH triple theta of
    log-density log_p: step i proposes theta + shifts[i] and accepts by u[i].
    Returns the (n, 3) draws, their (n,) accept flags, the end state as a new
    float64 array and its log-density.

    A candidate outside the support of ``garchmc.model.in_support`` scores
    -inf with no call. One inside is scored by this module's
    ``log_likelihood``, looked up once per call so that a wrapper set there
    sees every call, on y as one C-contiguous float64 array: y itself when it
    is one, as in ``_kernels.c``. The random numbers are converted to floats
    _RW_CHUNK steps at a time; each chunk's states are written into the
    draws in one slice.
    """
    theta, shifts, u = (np.asarray(x, dtype=np.float64) for x in (theta, shifts, u))
    if theta.shape != (3,) or u.ndim != 1 or shifts.shape != (u.size, 3):
        raise ValueError(f"theta must have length 3 and shifts shape (len(u), 3), got "
                         f"{theta.shape}, {shifts.shape} and {u.shape}")
    loglik = log_likelihood
    y = np.ascontiguousarray(y, dtype=np.float64)
    log_p = float(log_p)
    n_steps = u.size
    draws = np.empty(shifts.shape)
    theta = theta.tolist()
    hits = []
    for start in range(0, n_steps, _RW_CHUNK):
        stop = min(start + _RW_CHUNK, n_steps)
        states = []
        for i, shift, u_i in zip(range(start, stop), shifts[start:stop].tolist(),
                                 u[start:stop].tolist()):
            cand = list(map(operator.add, theta, shift))
            a, b, w = cand
            if a > 0.0 and b > 0.0 and w > 0.0 and a + b < 1.0:
                log_p_cand = loglik(y, a, b, w, sigma1_sq)
            else:
                log_p_cand = -math.inf
            if _accept(log_p_cand - log_p, u_i):
                theta = cand
                log_p = log_p_cand
                hits.append(i)
            states.append(theta)
        draws[start:stop] = states
    accepted = np.zeros(n_steps, dtype=bool)
    accepted[hits] = True
    return draws, accepted, np.array(theta, dtype=np.float64), log_p


def independence_accept(log_p_cands, log_g_cands, u, log_p, log_g):
    """Independence MH over k candidates scored log_p_cands by the target and
    log_g_cands by the proposal, from a state scored log_p and log_g; step i
    accepts by u[i]. Returns the (k,) accept flags and the end state's
    log-density; the caller knows which candidate each flag takes.

    The loop runs on Python floats and records only the steps that accept.
    """
    log_p_cands, log_g_cands, u = (np.asarray(x, dtype=np.float64)
                                   for x in (log_p_cands, log_g_cands, u))
    k = u.size
    if u.ndim != 1 or log_p_cands.shape != u.shape or log_g_cands.shape != u.shape:
        raise ValueError(f"log_p_cands, log_g_cands and u must have one length, got "
                         f"{log_p_cands.shape}, {log_g_cands.shape} and {u.shape}")
    log_p, log_g = float(log_p), float(log_g)
    hits = []
    for i, log_p_cand, log_g_cand, u_i in zip(range(k), log_p_cands.tolist(),
                                              log_g_cands.tolist(), u.tolist()):
        if _accept((log_p_cand - log_p) + (log_g - log_g_cand), u_i):
            log_p = log_p_cand
            log_g = log_g_cand
            hits.append(i)
    accepted = np.zeros(k, dtype=bool)
    accepted[hits] = True
    return accepted, log_p
