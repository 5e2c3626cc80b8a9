"""Pure-Python (numpy plus one BLAS call) fallback for the compiled kernels.

The volatility recursion s_t = drive_t + beta*s_{t-1} is the transposed
solve U^T s = drive with U unit upper bidiagonal (superdiagonal -beta), so it
is delegated to BLAS ``dtbsv`` instead of a Python-level loop. The
transposed form takes each step as a length-1 dot product, which rounds
exactly like the plain recursion; the ``lower=1`` form fuses the multiply
and add and does not.

``log_likelihood_batch`` scores many parameter rows at once for the
independence sampler's candidate batches; it has no compiled twin and is used
whichever backend serves the scalar kernels.
"""
import math

import numpy as np
from scipy.linalg.blas import dtbsv

#: Time steps per block of the batched recursion; two (BLOCK, k) float64
#: buffers of a 1000-candidate batch stay in cache.
BLOCK = 32
LOG_2PI = math.log(2.0 * math.pi)


def volatility(y, alpha, beta, omega, sigma1_sq):
    """Run the squared-volatility recursion forward from sigma1_sq."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    drive = np.empty(n, dtype=np.float64)
    drive[0] = sigma1_sq
    drive[1:] = omega + alpha * y[:-1] ** 2
    band = np.empty((2, n), dtype=np.float64, order="F")
    band[0] = -beta
    band[1] = 1.0
    return dtbsv(1, band, drive, lower=0, trans=1, diag=1, overwrite_x=1)


def log_likelihood(y, alpha, beta, omega, sigma1_sq):
    """Sum of Gaussian log-densities along the volatility recursion."""
    y = np.asarray(y, dtype=np.float64)
    sig = volatility(y, alpha, beta, omega, sigma1_sq)
    total = -0.5 * np.sum(np.log(2.0 * np.pi * sig) + y * y / sig)
    if not np.isfinite(total):
        raise FloatingPointError("non-finite GARCH log-likelihood")
    return float(total)


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
        raise FloatingPointError("non-finite GARCH log-likelihood")
    return total
