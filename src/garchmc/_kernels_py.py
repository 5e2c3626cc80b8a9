"""Pure-Python (numpy plus one BLAS call) fallback for the compiled kernels.

The volatility recursion s_t = drive_t + beta*s_{t-1} is the transposed
solve U^T s = drive with U unit upper bidiagonal (superdiagonal -beta), so it
is delegated to BLAS ``dtbsv`` instead of a Python-level loop. The
transposed form takes each step as a length-1 dot product, which rounds
exactly like the plain recursion; the ``lower=1`` form fuses the multiply
and add and does not.
"""
import numpy as np
from scipy.linalg.blas import dtbsv


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
