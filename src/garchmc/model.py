"""The GARCH(1,1) support check and the flat-prior posterior.

Parameters are plain (alpha, beta, omega) triples in that order. Return and
volatility series are plain float64 ndarrays. The numeric work is done by
the kernels of ``backend.kernels``, the switch every module reads, looked up
at each call. ``log_posterior`` scores one point, a chain's start; the
random walk scores its candidates inside the kernels' ``rw_chain``, which
applies the same support rule. ``log_posterior_batch`` scores the
independence sampler's candidates.
"""
import numpy as np

from . import backend

#: Log-posterior of any point outside the constraint region.
LOG_ZERO = float("-inf")


def in_support(a, b, w):
    """alpha>0, beta>0, omega>0 and alpha+beta<1, all strict; elementwise on
    arrays. NaN and an infinite alpha or beta lie outside, an infinite omega inside."""
    return (a > 0.0) & (b > 0.0) & (w > 0.0) & (a + b < 1.0)


def log_posterior(y, sigma1_sq, theta):
    """Flat-prior log-posterior of the (alpha, beta, omega) triple theta: the
    scalar kernel's log-likelihood inside the support, LOG_ZERO outside.

    It scores the points a chain starts from; the kernels' ``rw_chain``
    applies the same rule to each candidate in its loop. A non-finite
    likelihood raises NumericOverflowError; call under
    ``np.errstate(all="ignore")``, as the sampler driver does, to keep
    numpy's warnings from preceding it.
    """
    a, b, w = theta
    if not in_support(a, b, w):
        return LOG_ZERO
    return backend.kernels.log_likelihood(y, a, b, w, sigma1_sq)


def log_posterior_batch(y, sigma1_sq, thetas):
    """Batch twin of ``log_posterior``: the (k,) log-posteriors of the (k, 3)
    parameter rows thetas, from one batch-kernel call.

    Rows outside the constraint region get exactly LOG_ZERO and are not
    scored; a non-finite likelihood inside it raises NumericOverflowError.
    """
    out = np.full(thetas.shape[0], LOG_ZERO)
    # numpy's warnings would only precede the kernel's NumericOverflowError.
    with np.errstate(all="ignore"):
        inside = in_support(*thetas.T)
        out[inside] = backend.kernels.log_likelihood_batch(y, thetas[inside], sigma1_sq)
    return out
