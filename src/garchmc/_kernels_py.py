"""The GARCH(1,1) likelihood kernels, numpy plus one BLAS call, and the
chain.csv text.

The volatility recursion s_t = drive_t + beta*s_{t-1} is the transposed
solve U^T s = drive with U unit upper bidiagonal (superdiagonal -beta), so it
is delegated to BLAS ``dtbsv`` instead of a Python-level loop. The
transposed form takes each step as a length-1 dot product, which rounds
exactly like the plain recursion; the ``lower=1`` form fuses the multiply
and add and does not.

``log_likelihood`` scores one parameter set, for the random-walk steps;
``log_likelihood_batch`` scores many parameter rows at once, for the
independence sampler's candidate batches. Arguments are positional, the
series first; a scalar call's series is y or a ``Workspace`` of y: y^2, the
band of the solve and every buffer, built once per series. The posterior
closure passes one for all its calls; given y, a call builds a throwaway. A
non-finite total raises ``NumericOverflowError``. ``chain_text`` writes the
rows of chain.csv with Python's ``"%.17g"``. The module imports only
numpy and ``garchmc.exceptions``; ``scipy.linalg.blas`` is imported by the
first ``volatility`` call, so a run on the compiled kernels of
``_kernels.c`` imports no scipy.
"""
import math

import numpy as np

from .exceptions import NumericOverflowError

#: Time steps per block of the batched recursion; two (BLOCK, k) float64
#: buffers of a 1000-candidate batch stay in cache.
BLOCK = 32
LOG_2PI = math.log(2.0 * math.pi)


class Workspace:
    """What a scalar call needs that depends on the series y alone: y^2, the
    (2, n) band of the solve with its unit row set, and the drive and terms
    buffers.

    A workspace belongs to one caller, such as one posterior closure: each
    call overwrites its buffers, so it is not thread-safe. ``--chains`` runs
    its chains in processes, each with its own closure.
    """

    def __init__(self, y):
        y = np.asarray(y, dtype=np.float64)
        n = y.shape[0]
        self.y2 = y * y
        self.drive = np.empty(n)
        self.band = np.empty((2, n), order="F")
        self.band[1] = 1.0
        self.beta_row = self.band[0]
        self.terms = np.empty(n)


def volatility(series, alpha, beta, omega, sigma1_sq):
    """Run the squared-volatility recursion forward from sigma1_sq.

    ``series`` is y or a ``Workspace`` built on y. The result is the
    workspace's drive buffer, which its next call overwrites.
    """
    from scipy.linalg.blas import dtbsv

    ws = series if isinstance(series, Workspace) else Workspace(series)
    drive = ws.drive
    if not len(drive):
        return drive  # BLAS refuses an empty solve
    drive[0] = sigma1_sq
    np.multiply(ws.y2[:-1], alpha, out=drive[1:])
    np.add(drive[1:], omega, out=drive[1:])
    ws.beta_row.fill(-beta)
    return dtbsv(1, ws.band, drive, lower=0, trans=1, diag=1, overwrite_x=1)


def log_likelihood(series, alpha, beta, omega, sigma1_sq):
    """Sum of Gaussian log-densities along the volatility recursion; ``series``
    is as for ``volatility``. An empty series scores -0.0, as in the batch
    kernel and ``_kernels.c``."""
    ws = series if isinstance(series, Workspace) else Workspace(series)
    sig = volatility(ws, alpha, beta, omega, sigma1_sq)
    terms = ws.terms
    np.multiply(sig, 2.0 * math.pi, out=terms)
    np.log(terms, out=terms)
    np.divide(ws.y2, sig, out=sig)  # y^2/s over s, which is read no more
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
