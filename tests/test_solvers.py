"""Solvers: root finding, exact pullbacks, branch mixtures, Monte Carlo
solutions, slab/arc constructions, and ratio-form updates."""

import math

import numpy as np
import pytest

from sip_lab import (
    Branch,
    DomainError,
    DomainPartition,
    GaussianParams,
    GridSpec,
    MixtureWeights,
    NonConvergenceError,
    NoSolutionError,
    PredictabilityError,
    bbe_linear,
    bbe_polar,
    bjw_density,
    bjw_gaussian_linear,
    bjw_rejection_sample,
    bjw_sequential_update,
    cov_exact,
    cov_linear_gaussian,
    cov_mixture_family,
    grid_compare,
    identity_map,
    intuitive_sample,
    kde_pushforward,
    ks_test_1d,
    linear_map,
    make_beta,
    make_gaussian,
    make_truncated_gaussian,
    make_uniform,
    newton_solve,
    normalization_check,
    pushforward_check,
    pushforward_density,
    square_map,
)
from sip_lab import solvers
from sip_lab.forward_maps import eval_batch, polar_quadratic_map
from sip_lab.sampling import KIND_FIT, KIND_PILOT, KIND_ROWS, rng_for
from sip_lab.solvers import PILOT_SIZE, angular_conditional, polar_arc


def two_branch_partition():
    return DomainPartition(branches=(
        Branch(member=lambda pts: pts[:, 0] < 0, inverse=lambda y: -np.sqrt(y)),
        Branch(member=lambda pts: pts[:, 0] > 0, inverse=lambda y: np.sqrt(y)),
    ))


def three_branch_partition(eps=0.5):
    """Branches of theta^2 on (-eps, 1): two mirrored pieces plus the
    one-to-one tail (eps, 1)."""
    return DomainPartition(branches=(
        Branch(member=lambda pts: pts[:, 0] < 0, inverse=lambda y: -np.sqrt(y)),
        Branch(member=lambda pts: (pts[:, 0] > 0) & (pts[:, 0] < eps),
               inverse=lambda y: np.sqrt(y)),
        Branch(member=lambda pts: pts[:, 0] > eps, inverse=lambda y: np.sqrt(y),
               weighted=False),
    ))


class TestNewtonSolve:
    def test_affine_one_iteration(self):
        fmap = linear_map(np.array([[2.0, 0.5], [0.0, 1.0]]))
        y = np.array([1.0, -2.0])
        head, iters = newton_solve(fmap, y, theta0=[5.0, 5.0],
                                   return_iterations=True)
        assert iters == 1
        np.testing.assert_allclose(fmap.matrix @ head, y, atol=1e-12)

    @pytest.mark.parametrize("start,root", [(1.0, 0.5), (-1.0, -0.5)])
    def test_square_root_branch_follows_start(self, start, root):
        fmap = square_map(-1.0, 1.0)
        head = newton_solve(fmap, [0.25], theta0=[start])
        assert head[0] == pytest.approx(root, abs=1e-10)

    def test_residual_tolerance(self):
        fmap = square_map(-2.0, 2.0)
        y = np.array([1.7])
        head = newton_solve(fmap, y, theta0=[1.0])
        assert abs(y[0] - head[0] ** 2) <= 1e-10 * (1 + abs(y[0]))

    def test_fixed_tail(self):
        fmap = linear_map([[1.0, 1.0]])
        head = newton_solve(fmap, [2.0], theta_tail=[0.5], theta0=[0.0])
        assert head[0] == pytest.approx(1.5, abs=1e-12)

    def test_unreachable_target_raises(self):
        fmap = square_map(-1.0, 1.0)
        with pytest.raises(NonConvergenceError):
            newton_solve(fmap, [-0.5], theta0=[0.3])

    def test_nonlinear_two_dimensional_system(self):
        from sip_lab.densities import unbounded_support
        from sip_lab.forward_maps import ForwardMap

        def func(theta):
            return np.array([theta[0] ** 2 + theta[1],
                             theta[1] ** 3 + theta[0]])

        def jac(theta):
            return np.array([[2.0 * theta[0], 1.0],
                             [1.0, 3.0 * theta[1] ** 2]])

        fmap = ForwardMap(p=2, q=2, func=func, jac=jac,
                          domain=unbounded_support(2))
        rng = np.random.default_rng(8)
        for _ in range(20):
            truth = rng.uniform(0.5, 1.5, size=2)
            y = func(truth)
            head = newton_solve(fmap, y, theta0=truth + rng.normal(scale=0.2, size=2))
            assert np.max(np.abs(y - func(head))) <= 1e-10 * (1 + np.abs(y).max())


class TestCovExact:
    def test_identity_map_returns_observable_density(self):
        f_y = make_gaussian(GaussianParams([0.2], [[1.5]]))
        solution = cov_exact(identity_map(1), f_y)
        xs = np.linspace(-4, 4, 101).reshape(-1, 1)
        np.testing.assert_allclose(solution.density.pdf(xs), f_y.pdf(xs), rtol=1e-12)

    def test_regression_instance_matches_closed_form(self):
        sigma2 = 1.0
        X = np.array([[1.0, -1.0], [1.0, 1.0]])
        f_y = make_gaussian(GaussianParams([-1.0, 1.0], sigma2 * np.eye(2)))
        solution = cov_exact(linear_map(X), f_y)
        closed = make_gaussian(cov_linear_gaussian(X, f_y.gaussian))
        grid = GridSpec((-2.0, -1.0), (2.0, 3.0), 41)
        pts = grid.points()
        report = grid_compare(solution.density.pdf(pts), closed.pdf(pts), grid, tol=1e-12)
        assert report.passed, report.details

    def test_square_map_linear_density(self):
        # pullback of Unif(0,1) through theta^2 on (0,1) has density 2*theta
        f_y = make_uniform([0.0], [1.0])
        solution = cov_exact(square_map(0.0, 1.0), f_y)
        xs = np.linspace(0.05, 0.95, 37)
        np.testing.assert_allclose(solution.density.pdf(xs), 2 * xs, rtol=1e-12)
        draws = solution.sample(4000, seed=5)
        _, p_value = ks_test_1d(draws[:, 0], lambda t: np.clip(t, 0, 1) ** 2)
        assert p_value >= 0.01

    def test_pushforward_consistency(self):
        X = np.array([[1.0, -1.0], [1.0, 1.0]])
        f_y = make_gaussian(GaussianParams([-1.0, 1.0], np.eye(2)))
        fmap = linear_map(X)
        solution = cov_exact(fmap, f_y)
        report = pushforward_check(solution.sample(4000, seed=2), fmap, f_y, seed=2)
        assert report.passed, report.details

    def test_wide_map_rejected(self):
        with pytest.raises(ValueError, match="intuitive"):
            cov_exact(linear_map([[1.0, 1.0]]), make_uniform([0.0], [1.0]))


class TestCovMixtureFamily:
    def test_balanced_weights_give_absolute_value_density(self):
        fmap = square_map(-1.0, 1.0)
        f_y = make_uniform([0.0], [1.0])
        solution = cov_mixture_family(fmap, f_y, two_branch_partition(),
                                      MixtureWeights([0.5, 0.5]))
        xs = np.linspace(-0.95, 0.95, 39)
        np.testing.assert_allclose(solution.density.pdf(xs), np.abs(xs), atol=1e-14)

    def test_degenerate_weight_concentrates_on_one_branch(self):
        fmap = square_map(-1.0, 1.0)
        f_y = make_uniform([0.0], [1.0])
        solution = cov_mixture_family(fmap, f_y, two_branch_partition(),
                                      MixtureWeights([1.0, 0.0]))
        xs = np.linspace(-0.9, -0.1, 9)
        np.testing.assert_allclose(solution.density.pdf(xs), 2 * np.abs(xs),
                                   atol=1e-14)
        assert solution.density.pdf(0.5) == 0.0
        draws = solution.sample(2000, seed=3)
        assert np.all(draws < 0)

    @pytest.mark.parametrize("w", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_pushforward_invariant_in_weight(self, w):
        fmap = square_map(-1.0, 1.0)
        f_y = make_uniform([0.0], [1.0])
        solution = cov_mixture_family(fmap, f_y, two_branch_partition(),
                                      MixtureWeights([w, 1.0 - w]))
        report = pushforward_check(solution.sample(4000, seed=11), fmap, f_y, seed=11)
        assert report.passed, f"w={w}: {report.details}"

    @pytest.mark.parametrize("w", [0.25, 0.75])
    def test_asymmetric_domain_negative_mass(self, w):
        # analytic mass of the weighted pullback on (-0.5, 0) is w/4
        fmap = square_map(-0.5, 1.0)
        f_y = make_uniform([0.0], [1.0])
        solution = cov_mixture_family(fmap, f_y, three_branch_partition(),
                                      MixtureWeights([w, 1.0 - w]))
        m = 20_000
        draws = solution.sample(m, seed=19)
        frac = float(np.mean(draws[:, 0] < 0))
        p = 0.25 * w
        assert abs(frac - p) <= 3 * math.sqrt(p * (1 - p) / m)

    def test_asymmetric_domain_density_normalized(self):
        fmap = square_map(-0.5, 1.0)
        f_y = make_uniform([0.0], [1.0])
        solution = cov_mixture_family(fmap, f_y, three_branch_partition(),
                                      MixtureWeights([0.3, 0.7]))
        report = normalization_check(solution.density)
        assert report.passed, report.details

    def test_weight_count_mismatch_rejected(self):
        fmap = square_map(-1.0, 1.0)
        with pytest.raises(ValueError, match="weight"):
            cov_mixture_family(fmap, make_uniform([0.0], [1.0]),
                               two_branch_partition(), MixtureWeights([1.0]))

    def test_overlapping_branches_rejected(self):
        fmap = square_map(-1.0, 1.0)
        overlapping = DomainPartition(branches=(
            Branch(member=lambda pts: pts[:, 0] < 0.5, inverse=lambda y: -np.sqrt(y)),
            Branch(member=lambda pts: pts[:, 0] > -0.5, inverse=lambda y: np.sqrt(y)),
        ))
        with pytest.raises(ValueError, match="overlap"):
            cov_mixture_family(fmap, make_uniform([0.0], [1.0]), overlapping,
                               MixtureWeights([0.5, 0.5]))


class TestIntuitiveSample:
    def test_square_identity_map_reproduces_observable(self):
        f_y = make_gaussian(GaussianParams([0.5], [[2.0]]))
        solution = intuitive_sample(identity_map(1), f_y, None)
        data = solution.sample(4000, 23)
        assert solution.diagnostics["failures"] == 0
        _, p_value = ks_test_1d(data[:, 0],
                                lambda v: f_y.marginal_cdf(0, v))
        assert p_value >= 0.01

    def test_sum_map_joint_moments(self):
        # theta1 = y - theta2 with y and theta2 independent:
        # var(theta1) = 2 + 1 = 3, cov(theta1, theta2) = -1
        fmap = linear_map([[1.0, 1.0]])
        f_y = make_gaussian(GaussianParams([0.0], [[2.0]]))
        f_aux = make_gaussian(GaussianParams([0.0], [[1.0]]))
        solution = intuitive_sample(fmap, f_y, f_aux)
        data = solution.sample(30_000, 29)
        m = data.shape[0]
        var1 = data[:, 0].var(ddof=1)
        cov12 = np.cov(data.T)[0, 1]
        assert abs(var1 - 3.0) <= 3 * 3.0 * math.sqrt(2.0 / (m - 1))
        se_cov = math.sqrt((3.0 * 1.0 + 1.0) / (m - 1))
        assert abs(cov12 - (-1.0)) <= 3 * se_cov
        images = data.sum(axis=1)
        _, p_value = ks_test_1d(images, lambda v: f_y.marginal_cdf(0, v))
        assert p_value >= 0.01

    def test_density_formula_matches_joint_gaussian(self):
        # (theta1, theta2) = (y - t, t) with independent y ~ N(0,2), t ~ N(0,1)
        # is exactly N([0,0], [[3,-1],[-1,1]])
        fmap = linear_map([[1.0, 1.0]])
        f_y = make_gaussian(GaussianParams([0.0], [[2.0]]))
        f_aux = make_gaussian(GaussianParams([0.0], [[1.0]]))
        solution = intuitive_sample(fmap, f_y, f_aux)
        joint = make_gaussian(GaussianParams([0.0, 0.0],
                                             [[3.0, -1.0], [-1.0, 1.0]]))
        pts = np.random.default_rng(4).normal(size=(300, 2)) * 2
        np.testing.assert_allclose(solution.density.pdf(pts), joint.pdf(pts),
                                   rtol=1e-12)

    def test_output_independent_of_trailing_coordinates(self):
        fmap = linear_map([[1.0, 1.0]])
        f_y = make_gaussian(GaussianParams([0.0], [[2.0]]))
        f_aux = make_gaussian(GaussianParams([0.0], [[1.0]]))
        solution = intuitive_sample(fmap, f_y, f_aux)
        data = solution.sample(20_000, 31)
        corr = np.corrcoef(data.sum(axis=1), data[:, 1])[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(data.shape[0])

    def test_square_matrix_map_matches_exact_pullback(self):
        X = np.array([[1.0, -1.0], [1.0, 1.0]])
        f_y = make_gaussian(GaussianParams([-1.0, 1.0], np.eye(2)))
        solution = intuitive_sample(linear_map(X), f_y, None)
        data = solution.sample(4000, 37)
        closed = cov_linear_gaussian(X, f_y.gaussian)
        target = make_gaussian(closed)
        for j in range(2):
            _, p_value = ks_test_1d(data[:, j],
                                    lambda v, j=j: target.marginal_cdf(j, v))
            assert p_value >= 0.01

    def test_aux_dimension_mismatch_rejected(self):
        fmap = linear_map([[1.0, 1.0]])
        with pytest.raises(ValueError, match="p - q"):
            intuitive_sample(fmap, make_uniform([0.0], [1.0]),
                             make_uniform([0.0, 0.0], [1.0, 1.0]))

    def test_unreachable_observable_aborts_in_pilot(self):
        # the map's range on (0, 1) is (0, 1); target mass sits on (2, 3)
        fmap = square_map(0.0, 1.0)
        f_y = make_uniform([2.0], [3.0])
        solution = intuitive_sample(fmap, f_y, None)
        with pytest.raises(NoSolutionError):
            solution.sample(100, 1)


class TestBbeLinear:
    def test_figure_instance_pushforward(self):
        A = np.array([[-1.0 / 3.0, 4.0 / 3.0]])
        f_y = make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)
        solution = bbe_linear(A, f_y, bounds=([-1.0], [1.0]))
        report = pushforward_check(solution.sample(4000, seed=41), linear_map(A), f_y,
                                   seed=41)
        assert report.passed, report.details

    def test_identity_matrix_reduces_to_exact_pullback(self):
        f_y = make_gaussian(GaussianParams([0.0, 1.0], np.diag([1.0, 2.0])))
        solution = bbe_linear(np.eye(2), f_y)
        exact = cov_exact(identity_map(2), f_y)
        pts = np.random.default_rng(0).normal(size=(200, 2))
        np.testing.assert_allclose(solution.density.pdf(pts),
                                   exact.density.pdf(pts), rtol=1e-12)

    def test_contour_coordinate_uniform(self):
        A = np.array([[1.0, 1.0]])
        f_y = make_gaussian(GaussianParams([0.0], [[2.0]]))
        solution = bbe_linear(A, f_y, bounds=([-1.0], [1.0]))
        draws = solution.sample(4000, seed=43)
        from sip_lab import null_space_rows

        c = draws @ null_space_rows(A).T
        assert np.all(c >= -1.0) and np.all(c <= 1.0)
        _, p_value = ks_test_1d(c[:, 0], lambda v: np.clip((v + 1) / 2, 0, 1))
        assert p_value >= 0.01

    def test_density_integrates_to_one_in_contour_coords(self):
        # exact change to (t, c) coordinates: mass = int f_Y dt * int (u-l)^-1 dc
        A = np.array([[-1.0 / 3.0, 4.0 / 3.0]])
        f_y = make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)
        solution = bbe_linear(A, f_y, bounds=([-1.0], [1.0]))
        grid = GridSpec((-1.8, -0.6), (1.4, 1.8), 801)
        mass = grid.integrate(solution.density.pdf(grid.points()))
        assert mass == pytest.approx(1.0, abs=0.02)  # slab edges limit trapezoid

    def test_missing_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            bbe_linear([[1.0, 1.0]], make_uniform([0.0], [1.0]))

    def test_infinite_bounds_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            bbe_linear([[1.0, 1.0]], make_uniform([0.0], [1.0]),
                       bounds=([-np.inf], [1.0]))

    def test_rank_deficiency_rejected(self):
        from sip_lab import RankDeficiencyError

        with pytest.raises(RankDeficiencyError):
            bbe_linear(np.zeros((1, 2)), make_uniform([0.0], [1.0]),
                       bounds=([-1.0], [1.0]))


class TestBbePolar:
    def test_conditional_value_inside_disc(self):
        val = angular_conditional(np.array([0.7]), np.array([0.5]))
        assert val[0] == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_arc_collapses_at_corner_radius(self):
        phi1, phi2 = polar_arc(math.sqrt(2.0))
        assert phi1 == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert phi2 == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_arc_continuous_at_unit_radius(self):
        phi1, phi2 = polar_arc(1.0)
        assert phi1 == pytest.approx(0.0, abs=1e-15)
        assert phi2 == pytest.approx(math.pi / 2.0, abs=1e-15)

    @pytest.mark.parametrize("r", [0.05, 0.4, 0.999, 1.0, 1.001, 1.2, 1.4135])
    def test_conditional_integrates_to_one(self, r):
        phi1, phi2 = polar_arc(r)
        mid = 0.5 * (phi1 + phi2)
        value = angular_conditional(np.array([mid]), np.array([r]))[0]
        assert value * (phi2 - phi1) == pytest.approx(1.0, abs=1e-12)

    def test_pushforward_beta_target(self):
        f_y = make_beta(8.0, 12.0)
        solution = bbe_polar(f_y)
        report = pushforward_check(solution.sample(4000, seed=47),
                                   polar_quadratic_map(), f_y, seed=47)
        assert report.passed, report.details

    def test_density_normalizes(self):
        report = normalization_check(bbe_polar(make_beta(8.0, 12.0)).density)
        assert report.passed, report.details

    def test_wide_observable_support_rejected(self):
        with pytest.raises(DomainError):
            bbe_polar(make_gaussian(GaussianParams([0.5], [[0.04]])))

    def test_samples_in_unit_square(self):
        solution = bbe_polar(make_beta(8.0, 12.0))
        draws = solution.sample(2000, seed=53)
        assert solution.density.support.contains(draws).all()

    def test_angle_uniform_on_its_arc(self):
        # probability-integral transform: (phi - phi1(r)) / (phi2(r) - phi1(r))
        # must be U(0,1) for every radius, which pins the angular structure
        # the radial pushforward test cannot see
        solution = bbe_polar(make_beta(8.0, 12.0))
        draws = solution.sample(8000, seed=59)
        r = np.hypot(draws[:, 0], draws[:, 1])
        phi = np.arctan2(draws[:, 1], draws[:, 0])
        phi1, phi2 = polar_arc(r)
        u = (phi - phi1) / (phi2 - phi1)
        _, p_value = ks_test_1d(u, lambda v: np.clip(v, 0.0, 1.0))
        assert p_value >= 0.01


class TestBjwDensity:
    def _instance(self):
        A = np.array([[1.0, 1.0]])
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
        return A, linear_map(A), initial, f_y

    def test_matching_observable_returns_initial(self):
        _, fmap, initial, _ = self._instance()
        push = pushforward_density(initial, fmap)
        solution = bjw_density(initial, fmap, push, push)
        pts = np.random.default_rng(1).normal(size=(300, 2))
        np.testing.assert_allclose(solution.density.pdf(pts), initial.pdf(pts),
                                   rtol=1e-12)

    def test_matches_closed_form_on_grid(self):
        A, fmap, initial, f_y = self._instance()
        solution = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
        closed = bjw_gaussian_linear(A, f_y.gaussian.mean, f_y.gaussian.cov,
                                     initial.gaussian.mean, initial.gaussian.cov)
        grid = GridSpec((-2.0, -2.0), (2.5, 2.5), 41)
        pts = grid.points()
        report = grid_compare(solution.density.pdf(pts), make_gaussian(closed).pdf(pts),
                              grid, tol=1e-8)
        assert report.passed, report.details

    def test_kde_pushforward_close_to_analytic(self):
        A, fmap, initial, f_y = self._instance()
        exact = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
        approx = bjw_density(initial, fmap, f_y,
                             kde_pushforward(initial, fmap, m=10_000, seed=61))
        assert approx.method == "BJW-KDE"
        grid = GridSpec((-2.0, -2.0), (2.5, 2.5), 41)
        pts = grid.points()
        report = grid_compare(approx.density.pdf(pts), exact.density.pdf(pts), grid,
                              tol=0.05, normalize=True)
        assert report.passed, report.details

    def test_kde_fit_stream_disjoint_from_row_streams(self, monkeypatch):
        _, fmap, initial, _ = self._instance()
        fitted = []
        real_fit = solvers.fit_kde

        def capture(samples, bandwidth=None):
            fitted.append(np.array(samples))
            return real_fit(samples, bandwidth=bandwidth)

        monkeypatch.setattr(solvers, "fit_kde", capture)
        seed, m = 7, 2000
        kde_pushforward(initial, fmap, m=m, seed=seed)
        (train,) = fitted
        np.testing.assert_array_equal(
            train, eval_batch(fmap, initial.sample(rng_for(seed, KIND_FIT, 0), m)))
        # row 0 of the rejection sampler alternates a proposal and a uniform
        row0 = rng_for(seed, KIND_ROWS, 0)
        for _ in range(3):
            image = eval_batch(fmap, initial.sample(row0, 1))
            row0.random()
            assert not np.any(np.isin(train, image))

    def test_initial_density_irrelevant_for_square_maps(self):
        X = np.array([[1.0, -1.0], [1.0, 1.0]])
        fmap = linear_map(X)
        f_y = make_gaussian(GaussianParams([-1.0, 1.0], 0.7 * np.eye(2)))
        grid = GridSpec((-2.0, -1.0), (2.0, 3.0), 21)
        solutions = []
        for mean, cov in (([0.0, 0.0], np.eye(2)), ([2.0, -1.0], np.diag([3.0, 0.5]))):
            initial = make_gaussian(GaussianParams(mean, cov))
            solutions.append(
                bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
            )
        pts = grid.points()
        report = grid_compare(solutions[0].density.pdf(pts), solutions[1].density.pdf(pts),
                              grid, tol=1e-8)
        assert report.passed, report.details

    def test_zero_denominator_raises(self):
        fmap = identity_map(1)
        initial = make_uniform([0.0], [1.0])
        f_y = make_uniform([0.0], [2.0])
        narrow_push = make_uniform([0.0], [1.0])
        solution = bjw_density(initial, fmap, f_y, narrow_push)
        # numerator positive and denominator zero only outside the initial
        # support here, so widen the evaluated density's view via sampling
        wide_initial = make_uniform([0.0], [2.0])
        bad = bjw_density(wide_initial, fmap, f_y, narrow_push)
        with pytest.raises(PredictabilityError):
            bad.density.pdf(np.array([[1.5]]))
        assert solution.density.pdf(0.5) > 0


class TestBjwRejection:
    def test_constant_ratio_acceptance_rate(self):
        fmap = identity_map(1)
        initial = make_gaussian(GaussianParams([0.0], [[1.0]]))
        push = pushforward_density(initial, fmap)
        solution = bjw_density(initial, fmap, push, push)
        batch = bjw_rejection_sample(solution, 4000, seed=67)
        rate = solution.diagnostics["acceptance_rate"]
        expected = 1.0 / 1.2
        se = math.sqrt(expected * (1 - expected) / batch.m)
        assert abs(rate - expected) < 4 * se

    def test_gaussian_linear_mean(self):
        A = np.array([[1.0, 1.0]])
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        fmap = linear_map(A)
        f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
        solution = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
        closed = bjw_gaussian_linear(A, [0.25], [[0.25]], [0.0, 0.0], np.eye(2))
        batch = bjw_rejection_sample(solution, 6000, seed=71)
        se = np.sqrt(np.diag(closed.cov) / batch.m)
        assert np.all(np.abs(batch.data.mean(axis=0) - closed.mean) < 3 * se)

    def test_pushforward_of_accepted_draws(self):
        A = np.array([[1.0, 1.0]])
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        fmap = linear_map(A)
        f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
        solution = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
        batch = bjw_rejection_sample(solution, 4000, seed=73)
        _, p_value = ks_test_1d(batch.data @ A.ravel(),
                                lambda v: f_y.marginal_cdf(0, v))
        assert p_value >= 0.01

    def test_predictability_violation_raises(self):
        fmap = identity_map(1)
        initial = make_uniform([0.0], [1.0])
        push = make_uniform([0.0], [1.0])
        f_y = make_uniform([0.5], [1.5])  # escapes the pushforward support
        solution = bjw_density(initial, fmap, f_y, push)
        with pytest.raises(PredictabilityError):
            bjw_rejection_sample(solution, 100, seed=79)

    def test_give_up_error_names_rows_cap_bound_and_cause(self, monkeypatch):
        # f_Y is far wider than the pushforward, so the ratio grows without
        # bound in the tails and almost no proposal is accepted
        monkeypatch.setattr(solvers, "REJECTION_MAX_PROPOSALS", 5)
        initial = make_gaussian(GaussianParams([0.0], [[1.0]]))
        f_y = make_gaussian(GaussianParams([0.0], [[100.0]]))
        solution = bjw_density(initial, linear_map([[1.0]]), f_y, initial)
        with pytest.raises(NonConvergenceError,
                           match=r"\d+ of 20 rows accepted none of 5 proposals "
                                 r"at bound [\d.e+]+; .*unbounded under the proposal"):
            bjw_rejection_sample(solution, 20, seed=1)


def _ratio_of(solution, proposal):
    def ratio(theta_rows):
        numer = solution.density.pdf(theta_rows)
        denom = proposal.pdf(theta_rows)
        out = np.zeros(theta_rows.shape[0])
        ok = denom > 0
        out[ok] = numer[ok] / denom[ok]
        return out

    return ratio


def _per_row_rejection(solution, m, seed, pilot=PILOT_SIZE):
    """Reference rejection sampler: one row at a time, one ratio call per proposal.

    Row i runs to acceptance (or to its first proposal over the bound) on
    its own stream before row i + 1 starts; a pass with any row over the
    bound is redone with the bound doubled.  Returns (rows, proposals of
    the last pass, bound).
    """
    initial = solution.parts["proposal"]
    ratio = _ratio_of(solution, initial)
    pilot_draws = initial.sample(rng_for(seed, KIND_PILOT, 0), pilot)
    bound = 1.2 * float(ratio(pilot_draws).max())
    while True:
        rows, used, over = [], 0, False
        for i in range(m):
            rng = rng_for(seed, KIND_ROWS, i)
            while True:
                theta = initial.sample(rng, 1)
                used += 1
                r = float(ratio(theta)[0])
                if r > bound:
                    over = True
                    break
                if rng.random() * bound <= r:
                    break
            rows.append(theta[0])
        if not over:
            return np.vstack(rows), used, bound
        bound *= 2.0


class TestRejectionMatchesPerRowReference:
    """The lockstep sampler consumes every row stream as the per-row one did."""

    def _gauss_linear(self):
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        fmap = linear_map(np.array([[1.0, 1.0]]))
        f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
        return bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))

    def test_gauss_linear_instance(self):
        solution = self._gauss_linear()
        batch = bjw_rejection_sample(solution, 300, seed=3)
        rows, proposals, bound = _per_row_rejection(solution, 300, seed=3)
        np.testing.assert_array_equal(batch.data, rows)
        assert solution.diagnostics["proposals"] == proposals
        assert solution.diagnostics["bound"] == bound

    def test_chained_double_update(self):
        fmap = linear_map(np.array([[1.0, 1.0]]))
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        f_y1 = make_gaussian(GaussianParams([0.3], [[0.16]]))
        f_y2 = make_gaussian(GaussianParams([-0.2], [[0.36]]))
        _, double = bjw_sequential_update(initial, fmap, f_y1, f_y2)
        batch = bjw_rejection_sample(double, 300, seed=5)
        rows, proposals, _ = _per_row_rejection(double, 300, seed=5)
        np.testing.assert_array_equal(batch.data, rows)
        assert double.diagnostics["proposals"] == proposals

    def test_bound_doubling(self):
        # two pilot draws rarely come near the ratio's peak, so the first
        # bound is too low and the run is redone with a doubled bound
        solution = self._gauss_linear()
        initial = solution.parts["proposal"]
        with pytest.warns(RuntimeWarning, match="doubling") as record:
            batch = bjw_rejection_sample(solution, 300, seed=11, pilot=2)
        doublings = sum("doubling" in str(w.message) for w in record)
        assert doublings >= 1
        pilot_draws = initial.sample(rng_for(11, KIND_PILOT, 0), 2)
        peak = float(_ratio_of(solution, initial)(pilot_draws).max())
        assert solution.diagnostics["bound"] == 1.2 * peak * 2**doublings
        rows, proposals, bound = _per_row_rejection(solution, 300, seed=11, pilot=2)
        np.testing.assert_array_equal(batch.data, rows)
        assert solution.diagnostics["proposals"] == proposals
        assert solution.diagnostics["bound"] == bound


class TestSequentialUpdate:
    def _setup(self):
        A = np.array([[1.0, 1.0]])
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        f_y1 = make_gaussian(GaussianParams([0.3], [[0.16]]))
        f_y2 = make_gaussian(GaussianParams([-0.2], [[0.36]]))
        return linear_map(A), initial, f_y1, f_y2

    def test_double_equals_single(self):
        fmap, initial, f_y1, f_y2 = self._setup()
        single, double = bjw_sequential_update(initial, fmap, f_y1, f_y2)
        grid = GridSpec((-2.0, -2.0), (2.0, 2.0), 21)
        pts = grid.points()
        report = grid_compare(single.density.pdf(pts), double.density.pdf(pts), grid,
                              tol=1e-8)
        assert report.passed, report.details

    def test_same_observable_trivially_equal(self):
        fmap, initial, f_y1, _ = self._setup()
        single, double = bjw_sequential_update(initial, fmap, f_y1, f_y1)
        grid = GridSpec((-2.0, -2.0), (2.0, 2.0), 15)
        pts = grid.points()
        assert grid_compare(single.density.pdf(pts), double.density.pdf(pts), grid,
                            tol=1e-10).passed

    def test_result_depends_only_on_last_observable(self):
        fmap, initial, f_y1, f_y2 = self._setup()
        _, double_12 = bjw_sequential_update(initial, fmap, f_y1, f_y2)
        _, double_21 = bjw_sequential_update(initial, fmap, f_y2, f_y1)
        single_1 = bjw_density(initial, fmap, f_y1, pushforward_density(initial, fmap))
        grid = GridSpec((-2.0, -2.0), (2.0, 2.0), 15)
        pts = grid.points()
        assert grid_compare(double_21.density.pdf(pts), single_1.density.pdf(pts), grid,
                            tol=1e-8).passed
        assert not grid_compare(double_12.density.pdf(pts), double_21.density.pdf(pts),
                                grid, tol=1e-3).passed

    def test_intermediate_pushforward_equals_first_observable(self):
        # Monte Carlo confirmation that the chained update's denominator
        # really is the first observable density
        fmap, initial, f_y1, _ = self._setup()
        intermediate = bjw_density(initial, fmap, f_y1,
                                   pushforward_density(initial, fmap))
        batch = bjw_rejection_sample(intermediate, 4000, seed=83)
        _, p_value = ks_test_1d(batch.data @ np.array([1.0, 1.0]),
                                lambda v: f_y1.marginal_cdf(0, v))
        assert p_value >= 0.01


@pytest.mark.parametrize("build", [
    lambda: cov_exact(linear_map([[2.0, 0.0], [1.0, 1.0]]),
                      make_gaussian(GaussianParams([0.0, 1.0], np.eye(2)))),
    lambda: cov_mixture_family(square_map(-1.0, 1.0), make_uniform([0.0], [1.0]),
                               two_branch_partition(), MixtureWeights([0.3, 0.7])),
    lambda: intuitive_sample(linear_map([[1.0, 1.0]]),
                             make_gaussian(GaussianParams([0.0], [[2.0]])),
                             make_gaussian(GaussianParams([0.0], [[1.0]]))),
    lambda: bbe_linear([[-1.0 / 3.0, 4.0 / 3.0]], make_truncated_gaussian(0.5, 0.25, 0.0, 1.0),
                       bounds=([-1.0], [1.0])),
    lambda: bbe_polar(make_beta(8.0, 12.0)),
    lambda: _bjw_gauss_linear(pushforward_density),
    lambda: _bjw_gauss_linear(lambda initial, fmap: kde_pushforward(initial, fmap, 500, 2)),
    lambda: bjw_sequential_update(make_gaussian(GaussianParams([0.0, 0.0], np.eye(2))),
                                  linear_map([[1.0, 1.0]]),
                                  make_gaussian(GaussianParams([0.3], [[0.16]])),
                                  make_gaussian(GaussianParams([-0.2], [[0.36]])))[1],
], ids=["cov_exact", "cov_mixture_family", "intuitive_sample", "bbe_linear", "bbe_polar",
        "bjw_density_analytic", "bjw_density_kde", "bjw_double_update"])
def test_sample_accepts_seed_by_keyword(build):
    solution = build()
    first = solution.sample(200, seed=5)
    assert first.shape == (200, solution.density.dim)
    np.testing.assert_array_equal(first, solution.sample(200, 5))


def _bjw_gauss_linear(make_pushforward):
    initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    fmap = linear_map([[1.0, 1.0]])
    f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
    return bjw_density(initial, fmap, f_y, make_pushforward(initial, fmap))


def test_intuitive_sample_draws_nothing_until_sampled(monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("rows drawn")

    monkeypatch.setattr(solvers, "_solve_rows", no_rows)
    solution = intuitive_sample(linear_map([[1.0, 1.0]]),
                                make_gaussian(GaussianParams([0.0], [[2.0]])),
                                make_gaussian(GaussianParams([0.0], [[1.0]])))
    assert solution.diagnostics == {}
    with pytest.raises(AssertionError, match="rows drawn"):
        solution.sample(10, 1)
