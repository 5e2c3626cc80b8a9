"""GARCH(1,1) parameters, volatility recursion, likelihood and posterior.

Parameter order is fixed as (alpha, beta, omega) everywhere. Return and
volatility series are plain float64 ndarrays. The numeric work is done by
the scalar and batch kernels of ``_kernels_py``, reached through
``backend.kernels``.
"""
import math
from dataclasses import dataclass

import numpy as np

from .backend import kernels
from .exceptions import InvalidParameterError, NumericOverflowError

#: Log-posterior of any point outside the constraint region.
LOG_ZERO = float("-inf")


@dataclass(frozen=True)
class ParamVector:
    """GARCH(1,1) parameter triple in the fixed order (alpha, beta, omega)."""

    alpha: float
    beta: float
    omega: float

    def as_array(self):
        return np.array([self.alpha, self.beta, self.omega], dtype=np.float64)


def _components(theta):
    if isinstance(theta, ParamVector):
        return theta.alpha, theta.beta, theta.omega
    a, b, w = (float(v) for v in theta)
    return a, b, w


def check_constraints(theta):
    """True iff alpha>0, beta>0, omega>0 and alpha+beta<1 (all strict)."""
    a, b, w = _components(theta)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(w)):
        raise InvalidParameterError(f"non-finite parameter components: {(a, b, w)}")
    return a > 0.0 and b > 0.0 and w > 0.0 and a + b < 1.0


def _validated(theta, sigma1_sq):
    a, b, w = _components(theta)
    if not check_constraints((a, b, w)):
        raise InvalidParameterError(
            f"parameters violate positivity/stationarity constraints: {(a, b, w)}"
        )
    if not (sigma1_sq > 0.0 and math.isfinite(sigma1_sq)):
        raise InvalidParameterError(f"sigma1_sq must be a positive real, got {sigma1_sq}")
    return a, b, w


def compute_volatility(theta, y, sigma1_sq):
    """Squared volatilities sigma_t^2 for t=1..n, seeded with sigma1_sq."""
    a, b, w = _validated(theta, sigma1_sq)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.size < 1:
        raise InvalidParameterError("return series must be non-empty")
    return kernels.volatility(y, a, b, w, float(sigma1_sq))


def log_likelihood(theta, y, sigma1_sq):
    """Gaussian GARCH(1,1) log-likelihood of the return series."""
    a, b, w = _validated(theta, sigma1_sq)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.size < 1:
        raise InvalidParameterError("return series must be non-empty")
    try:
        # The kernel's own non-finite check raises; numpy's warnings on the
        # way there would only precede that error.
        with np.errstate(all="ignore"):
            return kernels.log_likelihood(y, a, b, w, float(sigma1_sq))
    except FloatingPointError as exc:
        raise NumericOverflowError(str(exc)) from exc


def log_posterior(theta, y, sigma1_sq):
    """Flat-prior log-posterior: the log-likelihood inside the constraint
    region, LOG_ZERO outside."""
    if not check_constraints(theta):
        return LOG_ZERO
    return log_likelihood(theta, y, sigma1_sq)


def make_log_posterior(y, sigma1_sq):
    """Fast closure evaluating the log-posterior on a length-3 array.

    Avoids per-call validation overhead; intended for sampler inner loops.
    The scalar kernel is looked up once, here. A non-finite likelihood raises
    NumericOverflowError; call under ``np.errstate(all="ignore")``, as the
    sampler driver does, to keep numpy's warnings from preceding it.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    sigma1_sq = float(sigma1_sq)
    loglik = kernels.log_likelihood

    def log_post(theta):
        a, b, w = theta
        if not (a > 0.0 and b > 0.0 and w > 0.0 and a + b < 1.0):
            return LOG_ZERO
        try:
            return loglik(y, a, b, w, sigma1_sq)
        except FloatingPointError as exc:
            raise NumericOverflowError(str(exc)) from exc

    return log_post


def make_batch_log_posterior(y, sigma1_sq):
    """Batch twin of ``make_log_posterior``: a (k, 3) array of parameter rows
    in, the (k,) log-posteriors out, from one batch-kernel call.

    Rows outside the constraint region get exactly LOG_ZERO and are not
    scored; a non-finite likelihood inside it raises NumericOverflowError.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    sigma1_sq = float(sigma1_sq)

    def log_post_batch(thetas):
        out = np.full(thetas.shape[0], LOG_ZERO)
        try:
            # The kernel's own non-finite check raises; numpy's warnings on
            # the way there would only precede that error.
            with np.errstate(all="ignore"):
                a, b, w = thetas.T
                inside = (a > 0.0) & (b > 0.0) & (w > 0.0) & (a + b < 1.0)
                out[inside] = kernels.log_likelihood_batch(y, thetas[inside], sigma1_sq)
        except FloatingPointError as exc:
            raise NumericOverflowError(str(exc)) from exc
        return out

    return log_post_batch
