"""Closed-form Gaussian algebra: pushforward identities, two-route checks,
replicate-mean constants, and the regression comparison."""

import warnings

import numpy as np
import pytest

from sip_lab import (
    GaussianParams,
    NotPositiveDefiniteError,
    RankDeficiencyError,
    StochasticMapSpec,
    bjw_gaussian_linear,
    cov_linear_gaussian,
    flat_prior_regression_posterior,
    pushforward_gaussian_linear,
    regression_predictive,
    stochastic_map_mean_solution,
)
from sip_lab.gaussian_algebra import (
    mean_replicate_matrix,
    sigma_tilde_precision,
    sigma_tilde_woodbury,
    stochastic_map_constants,
    update_gain,
)


from conftest import random_update_instance as _random_instance


class TestBjwGaussianLinear:
    def test_square_invertible_reduces_to_pullback(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        _, mu_y, sigma_y, mu_theta, sigma_theta = _random_instance(rng)
        mu_y, sigma_y = rng.normal(size=3), np.diag([1.0, 2.0, 0.5])
        result = bjw_gaussian_linear(A, mu_y, sigma_y, np.zeros(3), np.eye(3))
        inv = np.linalg.inv(A)
        np.testing.assert_allclose(result.mean, inv @ mu_y, atol=1e-12)
        np.testing.assert_allclose(result.cov, inv @ sigma_y @ inv.T, atol=1e-12)

    def test_identity_map_returns_observable_law(self):
        mu_y = np.array([0.3, -0.4])
        sigma_y = np.array([[1.0, 0.2], [0.2, 0.8]])
        result = bjw_gaussian_linear(np.eye(2), mu_y, sigma_y,
                                     np.array([5.0, 5.0]), 3.0 * np.eye(2))
        np.testing.assert_allclose(result.mean, mu_y, atol=1e-12)
        np.testing.assert_allclose(result.cov, sigma_y, atol=1e-12)

    def test_trivial_update_returns_initial(self):
        # f_Y is the initial's own pushforward, so the downdate form's
        # Sigma_y^-1 - (A Sigma A^T)^-1 is zero and has no inverse
        result = bjw_gaussian_linear([[1.0, 1.0]], [0.0], [[2.0]], [0.0, 0.0], np.eye(2))
        np.testing.assert_allclose(result.mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(result.cov, np.eye(2), atol=1e-12)

    def test_update_matching_in_one_direction(self):
        # the first observable already has the law f_Y asks for, the second not
        sigma_y = np.diag([1.0, 3.0])
        result = bjw_gaussian_linear(np.eye(2), [0.0, 0.0], sigma_y, [0.0, 0.0], np.eye(2))
        np.testing.assert_allclose(result.mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(result.cov, sigma_y, atol=1e-12)

    def test_wide_instance_pushforward_identities(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(2, 4))
        mu_y = rng.normal(size=2)
        sigma_y = np.diag([0.5, 1.5])
        mu_theta = rng.normal(size=4)
        sigma_theta = np.diag([1.0, 2.0, 0.5, 1.2])
        result = bjw_gaussian_linear(A, mu_y, sigma_y, mu_theta, sigma_theta)
        np.testing.assert_allclose(A @ result.mean, mu_y, atol=1e-10)
        np.testing.assert_allclose(A @ result.cov @ A.T, sigma_y, atol=1e-10)

    @pytest.mark.parametrize("trial", range(60))
    def test_identities_and_two_route_agreement(self, trial):
        rng = np.random.default_rng(2000 + trial)
        A, mu_y, sigma_y, mu_theta, sigma_theta = _random_instance(rng)
        result = bjw_gaussian_linear(A, mu_y, sigma_y, mu_theta, sigma_theta)
        scale_y = max(1.0, np.abs(sigma_y).max())
        assert np.abs(A @ result.mean - mu_y).max() < 1e-10 * max(1, np.abs(mu_y).max())
        assert np.abs(A @ result.cov @ A.T - sigma_y).max() < 1e-10 * scale_y
        direct = sigma_tilde_precision(A, sigma_y, sigma_theta)
        downdate = sigma_tilde_woodbury(A, sigma_y, sigma_theta)
        assert np.abs(direct - downdate).max() < 1e-10 * max(1.0, np.abs(direct).max())
        gain = update_gain(A, sigma_theta)
        conditional = sigma_theta + gain @ (sigma_y - A @ sigma_theta @ A.T) @ gain.T
        assert np.abs(direct - conditional).max() < 1e-10 * max(1.0, np.abs(direct).max())

    def test_rank_deficient_matrix_rejected(self):
        with pytest.raises(RankDeficiencyError):
            bjw_gaussian_linear(np.zeros((1, 2)), [0.0], [[1.0]],
                                [0.0, 0.0], np.eye(2))

    def test_pushforward_helper(self):
        params = GaussianParams([1.0, 2.0], np.diag([2.0, 3.0]))
        A = np.array([[1.0, 1.0]])
        pushed = pushforward_gaussian_linear(params, A)
        np.testing.assert_allclose(pushed.mean, [3.0])
        np.testing.assert_allclose(pushed.cov, [[5.0]])


class TestStochasticMapMean:
    def _spec(self, n, rng=None):
        rng = rng or np.random.default_rng(101)
        return StochasticMapSpec(n=n, mu_y=rng.normal(size=n) + 1.0,
                                 sigma_y2=0.49, mu0=0.2, sigma02=1.3,
                                 sigma_eps2=0.7)

    def _generic(self, spec):
        A = mean_replicate_matrix(spec.n)
        mu_theta = np.concatenate([[spec.mu0], np.zeros(spec.n)])
        sigma_theta = np.diag([spec.sigma02] + [spec.sigma_eps2] * spec.n)
        return bjw_gaussian_linear(A, spec.mu_y, spec.sigma_y2 * np.eye(spec.n),
                                   mu_theta, sigma_theta)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_constants_equal_generic_formula(self, n):
        spec = self._spec(n)
        literal = stochastic_map_mean_solution(spec)
        generic = self._generic(spec)
        np.testing.assert_allclose(literal.mean, generic.mean, atol=1e-10)
        np.testing.assert_allclose(literal.cov, generic.cov, atol=1e-10)

    def test_generic_check_n5(self):
        spec = self._spec(5, np.random.default_rng(55))
        literal = stochastic_map_mean_solution(spec)
        generic = self._generic(spec)
        assert np.abs(literal.mean - generic.mean).max() < 1e-10
        assert np.abs(literal.cov - generic.cov).max() < 1e-10

    def test_variance_shrinks_like_one_over_n(self):
        def var_m(n):
            mu_y = 1.0 + 0.1 * np.sin(np.arange(1, n + 1))
            spec = StochasticMapSpec(n=n, mu_y=mu_y, sigma_y2=0.49, mu0=0.2,
                                     sigma02=1.3, sigma_eps2=0.7)
            return stochastic_map_mean_solution(spec).cov[0, 0]

        scaled = {n: var_m(n) * n for n in (10, 100, 1000)}
        assert var_m(100) < var_m(10)
        for n in (100, 1000):
            assert abs(scaled[n] / scaled[10] - 1.0) < 0.2

    def test_mean_concentrates_on_observable_average(self):
        def mean_gap(n):
            mu_y = 1.0 + 0.1 * np.sin(np.arange(1, n + 1))
            spec = StochasticMapSpec(n=n, mu_y=mu_y, sigma_y2=0.49, mu0=0.2,
                                     sigma02=1.3, sigma_eps2=0.7)
            sol = stochastic_map_mean_solution(spec)
            return abs(sol.mean[0] - mu_y.mean())

        gaps = {n: mean_gap(n) * n for n in (10, 100, 1000)}
        for n in (100, 1000):
            assert abs(gaps[n] / gaps[10] - 1.0) < 0.25

    def test_covariance_is_dense(self):
        for n in (2, 4, 7):
            cov = stochastic_map_mean_solution(self._spec(n)).cov
            assert np.all(np.abs(cov) > 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StochasticMapSpec(n=0, mu_y=np.empty(0), sigma_y2=1, mu0=0,
                              sigma02=1, sigma_eps2=1)
        with pytest.raises(ValueError):
            StochasticMapSpec(n=2, mu_y=np.zeros(3), sigma_y2=1, mu0=0,
                              sigma02=1, sigma_eps2=1)
        with pytest.raises(ValueError):
            StochasticMapSpec(n=2, mu_y=np.zeros(2), sigma_y2=-1, mu0=0,
                              sigma02=1, sigma_eps2=1)

    def test_constants_are_finite(self):
        consts = stochastic_map_constants(self._spec(5))
        assert all(np.isfinite(v) for v in consts.values())


class TestCovLinearGaussian:
    def test_identity_unchanged(self):
        params = GaussianParams([1.0, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        result = cov_linear_gaussian(np.eye(2), params)
        np.testing.assert_allclose(result.mean, params.mean)
        np.testing.assert_allclose(result.cov, params.cov)

    def test_regression_instance(self):
        sigma2 = 1.7
        X = np.array([[1.0, -1.0], [1.0, 1.0]])
        result = cov_linear_gaussian(X, GaussianParams([-1.0, 1.0],
                                                       sigma2 * np.eye(2)))
        np.testing.assert_allclose(result.mean, [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(result.cov, 0.5 * sigma2 * np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("trial", range(8))
    def test_push_pull_roundtrip(self, trial):
        rng = np.random.default_rng(300 + trial)
        p = int(rng.integers(1, 7))
        A = rng.normal(size=(p, p)) + p * np.eye(p)
        params = GaussianParams(rng.normal(size=p),
                                np.diag(rng.random(p) + 0.5))
        pulled = cov_linear_gaussian(A, params)
        pushed = pushforward_gaussian_linear(pulled, A)
        np.testing.assert_allclose(pushed.mean, params.mean, atol=1e-12)
        np.testing.assert_allclose(pushed.cov, params.cov, atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(RankDeficiencyError):
            cov_linear_gaussian(np.zeros((2, 2)), GaussianParams([0, 0], np.eye(2)))


class TestFlatPriorRegression:
    def test_two_point_design_equals_pullback(self):
        sigma2 = 0.8
        X = np.array([[1.0, -1.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0])
        posterior = flat_prior_regression_posterior(X, y, sigma2)
        pullback = cov_linear_gaussian(X, GaussianParams(y, sigma2 * np.eye(2)))
        np.testing.assert_allclose(posterior.mean, pullback.mean, atol=1e-12)
        np.testing.assert_allclose(posterior.cov, pullback.cov, atol=1e-12)

    def test_identity_design(self):
        posterior = flat_prior_regression_posterior(np.eye(2), [0.2, -0.7], 1.0)
        np.testing.assert_allclose(posterior.mean, [0.2, -0.7])

    def test_replicated_design_shrinks_variance(self):
        # normal-equations oracle on the doubled design
        sigma2 = 1.3
        X2 = np.array([[1.0, -1.0], [1.0, 1.0]])
        X4 = np.vstack([X2, X2])
        y4 = np.array([-1.0, 1.0, -1.0, 1.0])
        posterior = flat_prior_regression_posterior(X4, y4, sigma2)
        oracle_mean, *_ = np.linalg.lstsq(X4, y4, rcond=None)
        oracle_cov = sigma2 * np.linalg.inv(X4.T @ X4)
        np.testing.assert_allclose(posterior.mean, oracle_mean, atol=1e-12)
        np.testing.assert_allclose(posterior.cov, oracle_cov, atol=1e-12)
        np.testing.assert_allclose(np.diag(posterior.cov), sigma2 / 4.0, atol=1e-12)
        two_point = flat_prior_regression_posterior(X2, [-1.0, 1.0], sigma2)
        assert posterior.cov[0, 0] < two_point.cov[0, 0]

    def test_rank_deficiency_rejected(self):
        with pytest.raises(RankDeficiencyError):
            flat_prior_regression_posterior([[1.0, 2.0], [2.0, 4.0]], [0.0, 1.0], 1.0)


class TestRegressionPredictive:
    @pytest.mark.parametrize("x_star,var_factor", [(0.0, 0.5), (1.0, 1.0), (3.0, 5.0)])
    def test_known_variance_factors(self, x_star, var_factor):
        sigma2 = 0.9
        posterior = GaussianParams([0.0, 1.0], 0.5 * sigma2 * np.eye(2))
        pred = regression_predictive(posterior, x_star)
        assert pred.mean[0] == pytest.approx(x_star, abs=1e-14)
        assert pred.cov[0, 0] == pytest.approx(var_factor * sigma2, abs=1e-14)

    def test_quadratic_form(self):
        posterior = GaussianParams([0.3, -0.2], [[0.5, 0.1], [0.1, 0.4]])
        pred = regression_predictive(posterior, 2.0)
        v = np.array([1.0, 2.0])
        assert pred.mean[0] == pytest.approx(v @ posterior.mean)
        assert pred.cov[0, 0] == pytest.approx(v @ posterior.cov @ v)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            regression_predictive(GaussianParams([0.0], [[1.0]]), 1.0)

    def test_overflowing_variance_raises_without_a_warning(self):
        # x_star**2 overflows: a typed error that names x_star, no RuntimeWarning
        posterior = GaussianParams([0.0, 1.0], 0.5 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x_star = 1e\\+160"):
                regression_predictive(posterior, 1e160)


def test_degenerate_initial_covariance_flags_error():
    # with strictly PD inputs the updated precision is provably PD (it is a
    # sum of PSD terms whose null spaces meet only at zero), so the
    # indefiniteness guard can only fire on degenerate inputs like this
    # singular initial covariance
    A = np.array([[1.0, 1.0]])
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises((NotPositiveDefiniteError, ArithmeticError)):
        bjw_gaussian_linear(A, [0.0], [[0.5]], [0.0, 0.0], singular)
