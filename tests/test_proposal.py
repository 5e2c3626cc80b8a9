import json
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import simpson
from scipy.linalg import solve_triangular
from scipy.special import gammaln

from garchmc import proposal
from garchmc.exceptions import DegenerateSampleError


def make_proposal(mean, sigma, nu=10.0):
    return proposal.StudentTProposal(np.asarray(mean, float), np.asarray(sigma, float), nu)


class TestSampleAccumulator:
    def test_mean_and_population_covariance(self):
        a, b, c, eps = 1.0, 2.0, 3.0, 0.01
        acc = proposal.SampleAccumulator(dim=3)
        acc.add_batch([[a, b, c]])
        acc.add_batch([[a + 2 * eps, b, c]])
        np.testing.assert_allclose(acc.mean(), [a + eps, b, c], rtol=1e-12)
        v = acc.covariance()
        assert v[0, 0] == pytest.approx(eps**2, rel=1e-9)
        assert abs(v[1, 1]) < 1e-15 and abs(v[2, 2]) < 1e-15

    def test_batch_matches_incremental(self):
        rng = np.random.default_rng(0)
        draws = rng.standard_normal((50, 3))
        one = proposal.SampleAccumulator(3)
        for d in draws:
            one.add_batch(d[None, :])
        many = proposal.SampleAccumulator(3)
        many.add_batch(draws)
        np.testing.assert_allclose(one.mean(), many.mean(), rtol=1e-12)
        np.testing.assert_allclose(one.covariance(), many.covariance(), rtol=1e-9, atol=1e-15)


class TestFit:
    def test_identical_samples_degenerate(self):
        acc = proposal.SampleAccumulator(3)
        acc.add_batch(np.tile([0.1, 0.2, 0.3], (10, 1)))
        with pytest.raises(DegenerateSampleError):
            proposal.fit(acc, 10.0)

    def test_non_finite_scale_degenerate(self):
        # np.linalg.cholesky passes NaN through without raising.
        with pytest.raises(DegenerateSampleError):
            make_proposal([0.0, 0.0, 0.0], np.diag([1.0, math.nan, 1.0]))

    def test_too_few_samples(self):
        acc = proposal.SampleAccumulator(3)
        acc.add_batch(np.eye(3))
        with pytest.raises(DegenerateSampleError):
            proposal.fit(acc, 10.0)

    def test_scale_is_shrunk_covariance(self):
        # draws with (population) covariance close to the identity
        rng = np.random.default_rng(1)
        draws = rng.standard_normal((200000, 3))
        acc = proposal.SampleAccumulator(3)
        acc.add_batch(draws)
        prop = proposal.fit(acc, 10.0)
        np.testing.assert_allclose(prop.sigma, 0.8 * acc.covariance(), rtol=1e-12)
        np.testing.assert_allclose(prop.sigma, 0.8 * np.eye(3), atol=0.01)
        assert prop.n_samples == 200000

    def test_cholesky_consistent(self):
        rng = np.random.default_rng(2)
        acc = proposal.SampleAccumulator(3)
        acc.add_batch(rng.standard_normal((500, 3)) @ np.diag([1.0, 0.1, 0.01]))
        prop = proposal.fit(acc, 10.0)
        np.testing.assert_allclose(prop.chol @ prop.chol.T, prop.sigma, atol=1e-10)

    def test_singular_scale_factors_after_jitter(self):
        # Positive semidefinite but singular: the plain factorization fails,
        # and the first jitter of 1e-10 * trace / p makes it factor.
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(sigma)
        chol = proposal._cholesky_with_jitter(sigma)
        assert np.all(np.isfinite(chol))
        assert np.array_equal(chol, np.tril(chol))
        jitter = 1e-10 * np.trace(sigma) / 2
        np.testing.assert_allclose(chol @ chol.T, sigma, rtol=0,
                                   atol=jitter + 4 * np.finfo(float).eps)


class TestSample:
    def test_moments(self):
        mean = np.array([0.1, 0.2, 0.3])
        sigma = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
        prop = make_proposal(mean, sigma)
        draws = prop.sample(np.random.default_rng(3), size=200000)
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.01)
        want = 1.25 * sigma  # nu/(nu-2) at nu=10
        got = np.cov(draws.T)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 0.02

    def test_degenerate_scale_concentrates_at_mean(self):
        prop = make_proposal([0.1, 0.2, 0.3], 1e-12 * np.eye(3))
        draws = prop.sample(np.random.default_rng(4), size=1000)
        assert np.max(np.abs(draws - [0.1, 0.2, 0.3])) < 1e-4


class TestLogDensity:
    def test_value_at_mode(self):
        sigma = np.diag([0.5, 1.0, 2.0])
        prop = make_proposal([1.0, 2.0, 3.0], sigma, nu=10.0)
        p, nu = 3, 10.0
        want = (
            math.lgamma((nu + p) / 2) - math.lgamma(nu / 2)
            - 0.5 * math.log(np.linalg.det(sigma)) - (p / 2) * math.log(nu * math.pi)
        )
        assert prop.log_density([1.0, 2.0, 3.0]) == pytest.approx(want, rel=1e-12)

    def test_scalar_specialization_matches_student_t(self):
        prop = proposal.StudentTProposal(np.array([0.0]), np.array([[1.0]]), 10.0)
        for x in (0.0, 0.5, -1.7, 3.0):
            assert prop.log_density([x]) == pytest.approx(stats.t.logpdf(x, df=10), rel=1e-12)
        assert math.exp(prop.log_density([0.0])) == pytest.approx(0.3891084, abs=1e-7)

    def test_shift_invariance_of_ratios(self):
        sigma = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
        t1 = np.array([0.1, 0.0, -0.2])
        t2 = np.array([-0.3, 0.5, 0.1])
        shift = np.array([5.0, -2.0, 1.0])
        a = make_proposal([0.0, 0.0, 0.0], sigma)
        b = make_proposal(shift, sigma)
        da = a.log_density(t1) - a.log_density(t2)
        db = b.log_density(t1 + shift) - b.log_density(t2 + shift)
        assert da == pytest.approx(db, rel=1e-12)

    def test_symmetry_about_mean(self):
        sigma = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
        prop = make_proposal([0.1, 0.2, 0.3], sigma)
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = rng.standard_normal(3)
            plus = prop.log_density(prop.mean + d)
            minus = prop.log_density(prop.mean - d)
            assert plus == pytest.approx(minus, rel=1e-12)

    def test_normalization_in_one_dimension(self):
        prop = proposal.StudentTProposal(np.array([0.0]), np.array([[1.0]]), 10.0)
        x = np.linspace(-60, 60, 200001)
        pdf = np.exp(prop.log_density(x[:, None]))
        assert simpson(pdf, x=x) == pytest.approx(1.0, abs=1e-4)

    def test_matches_triangular_solve_reference(self):
        sigma = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
        prop = make_proposal([0.1, 0.2, 0.3], sigma)
        theta = prop.sample(np.random.default_rng(8), size=1000)
        z = solve_triangular(prop.chol, (theta - prop.mean).T, lower=True)
        log_norm = (gammaln(6.5) - gammaln(5.0) - np.sum(np.log(np.diag(prop.chol)))
                    - 1.5 * np.log(10.0 * np.pi))
        want = log_norm - 6.5 * np.log1p(np.sum(z * z, axis=0) / 10.0)
        # A log-density near zero is the difference of two O(1) terms, so the
        # tolerance is relative to the normalising term as well.
        atol = 1e-14 * abs(log_norm)
        np.testing.assert_allclose(prop.log_density(theta), want, rtol=1e-14, atol=atol)
        assert prop.log_density(theta[7]) == pytest.approx(want[7], rel=1e-14, abs=atol)

    def test_large_nu_approaches_gaussian(self):
        sigma = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
        mean = np.array([0.1, 0.2, 0.3])
        prop = make_proposal(mean, sigma, nu=1e6)
        theta = mean + np.array([0.1, -0.2, 0.3])
        want = stats.multivariate_normal.logpdf(theta, mean=mean, cov=sigma)
        assert prop.log_density(theta) == pytest.approx(want, abs=1e-3)


class TestRoundTrips:
    def test_fit_recovers_sampling_distribution(self):
        mean = np.array([0.1, 0.2, 0.3])
        sigma = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
        prop = make_proposal(mean, sigma)
        draws = prop.sample(np.random.default_rng(7), size=1000000)
        acc = proposal.SampleAccumulator(3)
        acc.add_batch(draws)
        refit = proposal.fit(acc, 10.0)
        np.testing.assert_allclose(refit.mean, mean, atol=0.01)
        assert np.linalg.norm(refit.sigma - sigma) / np.linalg.norm(sigma) < 0.03

    def test_json_dict_round_trip(self):
        sigma = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
        prop = proposal.StudentTProposal(np.array([0.1, 0.2, 0.3]), sigma, 10.0, n_samples=1234)
        d = prop.to_dict()
        assert set(d) == {"mean", "sigma", "nu", "n_samples"}
        assert json.loads(json.dumps(d)) == d
        np.testing.assert_allclose(d["mean"], prop.mean)
        np.testing.assert_allclose(d["sigma"], prop.sigma)
        assert d["nu"] == prop.nu and d["n_samples"] == 1234

    def test_nu_must_exceed_two(self):
        for nu in (2.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                make_proposal([0.0, 0.0, 0.0], np.eye(3), nu=nu)

    def test_nu_whose_normaliser_overflows_is_refused(self):
        # lgamma((nu + p)/2) overflows near nu = 5e305: such a nu is refused
        # as out of range instead of raising OverflowError mid-run.
        for nu in (proposal.NU_MAX, 1e308):
            with pytest.raises(ValueError, match="below 1e"):
                make_proposal([0.0, 0.0, 0.0], np.eye(3), nu=nu)
        prop = make_proposal([0.0, 0.0, 0.0], np.eye(3), nu=np.nextafter(proposal.NU_MAX, 0))
        assert math.isfinite(prop.log_density(np.zeros(3)))
