"""The GARCH(1,1) support check and the flat-prior posterior.

Parameters are plain (alpha, beta, omega) triples in that order. Return and
volatility series are plain float64 ndarrays. The numeric work is done by
the kernels of ``backend.kernels``, the switch every module reads: the
scalar closure looks them up when it is made, the batch closure at each
call. The scalar closure scores each step through one kernel ``Workspace``
that it builds when it is made, passed positionally in the kernel's series
slot where y would go, so whatever the kernel keeps per series is set up
once per run, not once per step.
"""
import numpy as np

from . import backend

#: Log-posterior of any point outside the constraint region.
LOG_ZERO = float("-inf")


def in_support(a, b, w):
    """alpha>0, beta>0, omega>0 and alpha+beta<1, all strict; elementwise on
    arrays. NaN and an infinite alpha or beta lie outside, an infinite omega inside."""
    return (a > 0.0) & (b > 0.0) & (w > 0.0) & (a + b < 1.0)


def make_log_posterior(y, sigma1_sq):
    """Flat-prior log-posterior of any length-3 sequence of floats (a list,
    a tuple or an array): the log-likelihood inside the support, LOG_ZERO
    outside.

    The scalar kernel is looked up once, here, and the closure's own kernel
    workspace is built here; the closure, like its workspace, is not
    thread-safe. A non-finite likelihood raises NumericOverflowError; call
    under ``np.errstate(all="ignore")``, as the sampler driver does, to keep
    numpy's warnings from preceding it.
    """
    loglik = backend.kernels.log_likelihood
    # An infinite y^2 makes every call raise; the warning would only precede it.
    with np.errstate(over="ignore"):
        workspace = backend.kernels.Workspace(y)

    def log_post(theta):
        a, b, w = theta
        if not in_support(a, b, w):
            return LOG_ZERO
        return loglik(workspace, a, b, w, sigma1_sq)

    return log_post


def make_batch_log_posterior(y, sigma1_sq):
    """Batch twin of ``make_log_posterior``: a (k, 3) array of parameter rows
    in, the (k,) log-posteriors out, from one batch-kernel call.

    Rows outside the constraint region get exactly LOG_ZERO and are not
    scored; a non-finite likelihood inside it raises NumericOverflowError.
    """

    def log_post_batch(thetas):
        out = np.full(thetas.shape[0], LOG_ZERO)
        # numpy's warnings would only precede the kernel's NumericOverflowError.
        with np.errstate(all="ignore"):
            inside = in_support(*thetas.T)
            out[inside] = backend.kernels.log_likelihood_batch(y, thetas[inside], sigma1_sq)
        return out

    return log_post_batch
