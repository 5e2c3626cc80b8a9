"""Posterior moments of the GARCH(1,1) flat-prior posterior by direct
quadrature, as an exact reference for the samplers.

The posterior has three parameters, so it can be integrated on a grid. The
grid is regular in whitened coordinates z: theta = m + L z with z in
[-Z_MAX, Z_MAX]^3, so the Jacobian is constant and the moments are weighted
sums of the grid points, weighted by the posterior scored with
``model.make_batch_log_posterior`` (points outside the support weigh 0).

The frame (m, L) comes from the posterior alone, never from a chain: a
Laplace fit (Nelder-Mead mode, finite-difference Hessian) frames a wide
coarse grid, whose mean and covariance then frame the reference grids. The
result is trusted only if the grid's boundary points carry almost no weight
and two grid densities agree.
"""
import functools

import numpy as np
from scipy import optimize

from garchmc import model

Z_MAX = 7.0
GRIDS = (31, 41)
#: Largest share of the posterior weight allowed on the grid's boundary points.
EDGE_MASS_MAX = 1e-4
#: Largest difference between the two grids' means and standard deviations,
#: in posterior standard deviations.
GRID_AGREEMENT_SD = 1e-3
#: Rows per batch-scorer call.
CHUNK = 4096


def _grid_moments(score, m, L, points, z_max):
    """Mean, covariance and boundary weight share of a points^3 grid."""
    axis = np.linspace(-z_max, z_max, points)
    z = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    thetas = m + z @ L.T
    log_p = np.concatenate([score(thetas[i:i + CHUNK]) for i in range(0, len(thetas), CHUNK)])
    w = np.exp(log_p - log_p.max())
    w /= w.sum()
    mean = w @ thetas
    dev = thetas - mean
    cov = (w[:, None] * dev).T @ dev
    edge = float(w[np.abs(z).max(axis=1) == z_max].sum())
    return mean, cov, edge


def _laplace_frame(log_post, score, theta0):
    """Posterior mode and the Cholesky factor of the inverse negative Hessian."""
    with np.errstate(all="ignore"):
        fit = optimize.minimize(lambda t: -log_post(t), theta0, method="Nelder-Mead",
                                options={"xatol": 1e-9, "fatol": 1e-9, "maxfev": 10000})
    mode = fit.x
    h = 1e-3 * np.abs(mode)
    eye = np.eye(3)
    # Central differences: d2f/dxi dxj from f at mode +/- h_i e_i +/- h_j e_j.
    stencil = np.array([mode + si * h[i] * eye[i] + sj * h[j] * eye[j]
                        for i in range(3) for j in range(3)
                        for si in (1, -1) for sj in (1, -1)])
    f = score(stencil).reshape(3, 3, 2, 2)
    hess = (f[..., 0, 0] - f[..., 0, 1] - f[..., 1, 0] + f[..., 1, 1]) / (4.0 * np.outer(h, h))
    return mode, np.linalg.cholesky(np.linalg.inv(-hess))


def posterior_moments(y, sigma1_sq, theta0):
    """Posterior mean, standard deviations and covariance of the GARCH(1,1)
    posterior of returns y, from the finest of the GRIDS.

    theta0 is any point inside the support, where the mode search starts.
    Fails unless every grid keeps its boundary weight below EDGE_MASS_MAX
    and the grids agree to GRID_AGREEMENT_SD.
    """
    score = model.make_batch_log_posterior(y, sigma1_sq)
    m, L = _laplace_frame(functools.partial(model.log_posterior, y, sigma1_sq), score,
                          np.asarray(theta0, dtype=np.float64))
    # The Laplace frame is too narrow for the skewed posterior; a wide coarse
    # grid in it gives the moments that frame the reference grids.
    m, cov, _ = _grid_moments(score, m, L, 21, 10.0)
    L = np.linalg.cholesky(cov)
    results = [_grid_moments(score, m, L, points, Z_MAX) for points in GRIDS]
    for points, (_, _, edge) in zip(GRIDS, results):
        assert edge < EDGE_MASS_MAX, f"{points}^3 grid: boundary weight {edge:.2e}"
    (mean_a, cov_a, _), (mean, cov, _) = results
    sd_a, sd = np.sqrt(np.diag(cov_a)), np.sqrt(np.diag(cov))
    gap = np.maximum(np.abs(mean_a - mean), np.abs(sd_a - sd)) / sd
    assert np.all(gap < GRID_AGREEMENT_SD), f"grids {GRIDS} disagree by {gap} sd"
    return mean, sd, cov
