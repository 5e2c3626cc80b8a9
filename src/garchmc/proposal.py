"""Multivariate Student-t proposal: fitting, sampling, density evaluation.

The proposal covariance is nu*Sigma/(nu-2); fitting from accumulated draws
sets Sigma = ((nu-2)/nu) * V with V the empirical (population-normalized)
covariance of the draws.
"""
import math

import numpy as np

from .exceptions import DegenerateSampleError

#: Proposal shape nu of an adaptive run unless set otherwise.
DEFAULT_NU = 10.0
#: Upper bound, excluded, of every valid nu: the density's normaliser
#: lgamma((nu + p)/2) overflows float64 near nu = 5e305.
NU_MAX = 1e300


def check_nu(nu):
    """Raise ValueError unless 2 < nu < NU_MAX: the covariance nu*Sigma/(nu-2)
    exists and the density's normaliser is finite."""
    if not 2.0 < nu < NU_MAX:
        raise ValueError(f"nu must be above 2 and below {NU_MAX:g}, got {nu}")


def _cholesky_with_jitter(sigma):
    """Cholesky factor of sigma, retrying with escalating diagonal jitter."""
    p = sigma.shape[0]
    # np.linalg.cholesky returns a non-finite factor for a NaN or inf sigma
    # without raising.
    if not np.all(np.isfinite(sigma)):
        raise DegenerateSampleError("scale matrix has non-finite entries")
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        pass
    delta = 1e-10 * np.trace(sigma) / p
    for _ in range(3):
        try:
            return np.linalg.cholesky(sigma + delta * np.eye(p))
        except np.linalg.LinAlgError:
            delta *= 100.0
    raise DegenerateSampleError("scale matrix is not positive definite even after jitter")


class SampleAccumulator:
    """Running mean / second-moment sums over accumulated parameter draws."""

    def __init__(self, dim=3):
        self.dim = dim
        self.count = 0
        self._sum = np.zeros(dim)
        self._sumsq = np.zeros((dim, dim))

    def add_batch(self, draws):
        draws = np.asarray(draws, dtype=np.float64)
        self.count += draws.shape[0]
        self._sum += draws.sum(axis=0)
        self._sumsq += draws.T @ draws

    def mean(self):
        if self.count == 0:
            raise DegenerateSampleError("no accumulated samples")
        return self._sum / self.count

    def covariance(self):
        """Population-normalized empirical covariance (divide by count)."""
        m = self.mean()
        cov = self._sumsq / self.count - np.outer(m, m)
        return 0.5 * (cov + cov.T)  # enforce exact symmetry


class StudentTProposal:
    """Immutable fitted proposal state: mean M, scale Sigma, shape nu."""

    def __init__(self, mean, sigma, nu, n_samples=0):
        mean = np.asarray(mean, dtype=np.float64)
        sigma = np.asarray(sigma, dtype=np.float64)
        check_nu(nu)
        if sigma.shape != (mean.size, mean.size):
            raise ValueError("sigma shape does not match mean length")
        self.mean = mean
        self.sigma = sigma
        self.nu = float(nu)
        self.n_samples = int(n_samples)
        self.dim = mean.size
        self.chol = _cholesky_with_jitter(sigma)
        p = self.dim
        self._log_norm = (
            math.lgamma((self.nu + p) / 2.0)
            - math.lgamma(self.nu / 2.0)
            - np.sum(np.log(np.diag(self.chol)))
            - (p / 2.0) * np.log(self.nu * np.pi)
        )

    def sample(self, rng, size):
        """Draw a (size, dim) batch of candidates:
        theta = L @ (Y*sqrt(nu/w)) + M, w ~ chi2_nu."""
        y = rng.standard_normal((size, self.dim))
        w = rng.chisquare(self.nu, size)
        x = y * np.sqrt(self.nu / w)[:, None]
        return x @ self.chol.T + self.mean

    def log_density(self, theta):
        """Log of the multivariate Student-t density at theta (or batch)."""
        theta = np.asarray(theta, dtype=np.float64)
        single = theta.ndim == 1
        dev = (np.atleast_2d(theta) - self.mean).T
        # Forward substitution z = L^-1 dev, elementwise over the candidate
        # columns: a BLAS triangular solve on a wide batch wakes threaded
        # workers that spin on the other cores.
        z = []
        for i, row in enumerate(self.chol):
            zi = dev[i]
            for j in range(i):
                zi = zi - row[j] * z[j]
            z.append(zi / row[i])
        q = sum(zi * zi for zi in z)
        out = self._log_norm - ((self.nu + self.dim) / 2.0) * np.log1p(q / self.nu)
        return float(out[0]) if single else out

    def to_dict(self):
        return {
            "mean": self.mean.tolist(),
            "sigma": self.sigma.tolist(),
            "nu": self.nu,
            "n_samples": self.n_samples,
        }


def fit(acc, nu):
    """Fit a StudentTProposal from accumulated draws (Sigma = (nu-2)/nu * V)."""
    if acc.count < acc.dim + 1:
        raise DegenerateSampleError(
            f"need at least {acc.dim + 1} samples to fit, got {acc.count}"
        )
    v = acc.covariance()
    sigma = (nu - 2.0) / nu * v
    return StudentTProposal(acc.mean(), sigma, nu, n_samples=acc.count)
