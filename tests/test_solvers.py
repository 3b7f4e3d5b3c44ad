"""Solvers: root finding, exact pullbacks, branch mixtures, Monte Carlo
solutions, slab/arc constructions, and ratio-form updates."""

import collections
import functools
import math
import re
import warnings

import numpy as np
import pytest

from sip_lab import (
    Branch,
    Density,
    DomainError,
    GaussianParams,
    GridSpec,
    MixtureWeights,
    NonConvergenceError,
    NoSolutionError,
    PredictabilityError,
    Support,
    bbe_linear,
    bbe_polar,
    bjw_density,
    bjw_gaussian_linear,
    bjw_rejection_sample,
    bjw_sequential_update,
    cov_exact,
    cov_linear_gaussian,
    cov_mixture_family,
    draw,
    energy_distance_test,
    fit_kde,
    grid_compare,
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
from sip_lab.forward_maps import eval_batch, jacobian_at, null_space_rows, \
    polar_quadratic_map
from sip_lab.sampling import (
    KIND_FIT,
    KIND_INVERSE,
    KIND_PILOT,
    KIND_PROBE,
    KIND_ROWS,
    RowStreams,
    rng_for,
    rng_streams,
)
from sip_lab.solvers import PILOT_SIZE, polar_arc


def two_branch_partition():
    return (
        Branch(member=lambda pts: pts[:, 0] < 0, inverse=lambda y: -np.sqrt(y)),
        Branch(member=lambda pts: pts[:, 0] > 0, inverse=lambda y: np.sqrt(y)),
    )


def three_branch_partition(eps=0.5):
    """Branches of theta^2 on (-eps, 1): two mirrored pieces plus the
    one-to-one tail (eps, 1)."""
    return (
        Branch(member=lambda pts: pts[:, 0] < 0, inverse=lambda y: -np.sqrt(y)),
        Branch(member=lambda pts: (pts[:, 0] > 0) & (pts[:, 0] < eps),
               inverse=lambda y: np.sqrt(y)),
        Branch(member=lambda pts: pts[:, 0] > eps, inverse=lambda y: np.sqrt(y),
               weighted=False),
    )


class TestNewtonSolve:
    def test_affine_one_iteration(self):
        fmap = linear_map(np.array([[2.0, 0.5], [0.0, 1.0]]))
        y = np.array([1.0, -2.0])
        heads, _, iterations = solvers._newton_rows(fmap, y[None], np.empty((1, 0)),
                                                     np.array([[5.0, 5.0]]))
        assert iterations.tolist() == [1]
        np.testing.assert_allclose(fmap.matrix @ heads[0], y, atol=1e-12)

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
            t1, t2 = theta[:, 0], theta[:, 1]
            return np.stack([t1 ** 2 + t2, t2 ** 3 + t1], axis=1)

        def jac(theta):
            t1, t2 = theta[:, 0], theta[:, 1]
            one = np.ones_like(t1)
            return np.stack([np.stack([2.0 * t1, one], axis=1),
                             np.stack([one, 3.0 * t2 ** 2], axis=1)], axis=1)

        fmap = ForwardMap(p=2, q=2, func=func, jac=jac,
                          domain=unbounded_support(2))
        rng = np.random.default_rng(8)
        for _ in range(20):
            truth = rng.uniform(0.5, 1.5, size=2)
            y = func(truth[None])[0]
            head = newton_solve(fmap, y, theta0=truth + rng.normal(scale=0.2, size=2))
            assert np.max(np.abs(y - func(head[None])[0])) <= 1e-10 * (1 + np.abs(y).max())


class TestNewtonRows:
    def test_singular_jacobian_fails_only_its_row(self):
        # g'(0) = 0 for theta^2, so the row started at 0 has a singular block
        fmap = square_map(-1.0, 1.0)
        heads, ok, _ = solvers._newton_rows(fmap, np.full((3, 1), 0.25), np.empty((3, 0)),
                                            np.array([[0.9], [0.0], [-0.9]]))
        np.testing.assert_array_equal(ok, [True, False, True])
        np.testing.assert_allclose(heads[[0, 2], 0], [0.5, -0.5], atol=1e-10)

    def test_singular_stack_solves_its_other_rows_as_alone(self):
        rng = np.random.default_rng(8)
        jac = rng.normal(size=(6, 2, 2))
        jac[2] = [[1.0, 2.0], [2.0, 4.0]]  # an exact zero pivot
        resid = rng.normal(size=(6, 2))
        delta, solved = solvers._solve_blocks(jac, resid)
        np.testing.assert_array_equal(solved, np.arange(6) != 2)
        for i in (0, 1, 3, 4, 5):
            assert np.array_equal(delta[i], np.linalg.solve(jac[i], resid[i]))

    def test_iteration_budget_fails_only_its_row(self, monkeypatch):
        monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 3)  # read at call time
        fmap = square_map(-1.0, 1.0)
        heads, ok, iterations = solvers._newton_rows(
            fmap, np.full((2, 1), 0.25), np.empty((2, 0)), np.array([[0.5], [1e-3]]))
        np.testing.assert_array_equal(ok, [True, False])
        np.testing.assert_array_equal(iterations, [0, 3])
        assert heads[0, 0] == 0.5


class TestCovExact:
    def test_identity_map_returns_observable_density(self):
        f_y = make_gaussian(GaussianParams([0.2], [[1.5]]))
        solution = cov_exact(linear_map(np.eye(1)), f_y)
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
        overlapping = (
            Branch(member=lambda pts: pts[:, 0] < 0.5, inverse=lambda y: -np.sqrt(y)),
            Branch(member=lambda pts: pts[:, 0] > -0.5, inverse=lambda y: np.sqrt(y)),
        )
        with pytest.raises(ValueError, match="overlap"):
            cov_mixture_family(fmap, make_uniform([0.0], [1.0]), overlapping,
                               MixtureWeights([0.5, 0.5]))


class TestIntuitiveSample:
    def test_square_identity_map_reproduces_observable(self):
        f_y = make_gaussian(GaussianParams([0.5], [[2.0]]))
        solution = intuitive_sample(linear_map(np.eye(1)), f_y, None)
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
        np.testing.assert_array_equal(solution.fmap.matrix, A)
        report = pushforward_check(solution.sample(4000, seed=41), linear_map(A), f_y,
                                   seed=41)
        assert report.passed, report.details

    def test_identity_matrix_reduces_to_exact_pullback(self):
        f_y = make_gaussian(GaussianParams([0.0, 1.0], np.diag([1.0, 2.0])))
        solution = bbe_linear(np.eye(2), f_y)
        exact = cov_exact(linear_map(np.eye(2)), f_y)
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


def _polar_points(r, phi):
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


class TestBbePolar:
    F_Y = make_beta(8.0, 12.0)

    def test_conditional_value_inside_disc(self):
        # inside the unit disc the arc is the quarter circle, of width pi/2
        r = 0.5
        value = bbe_polar(self.F_Y).density.pdf(_polar_points(r, np.array([0.7])))[0]
        assert value == pytest.approx(self.F_Y.pdf(0.5 * r * r) * 2.0 / math.pi, rel=1e-13)

    def test_arc_collapses_at_corner_radius(self):
        phi1, phi2 = polar_arc(math.sqrt(2.0))
        assert phi1 == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert phi2 == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_arc_continuous_at_unit_radius(self):
        phi1, phi2 = polar_arc(1.0)
        assert phi1 == pytest.approx(0.0, abs=1e-15)
        assert phi2 == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_arc_matches_the_two_branch_reference(self):
        def reference(r):
            excess = np.sqrt(np.maximum(r * r - 1.0, 0.0))
            phi1 = np.arctan2(excess, 1.0)
            return (np.where(r <= 1.0, 0.0, phi1),
                    np.where(r <= 1.0, 0.5 * np.pi,
                             np.maximum(np.arctan2(1.0, excess), phi1)))

        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, np.nextafter(1.0, 2.0),
                   math.sqrt(2.0), 2.0]
        r = np.concatenate([special, 1.6 * np.random.default_rng(61).random(4991)])
        for radii in (r, r.reshape(50, -1), *map(np.float64, special)):
            got, expected = polar_arc(radii), reference(np.asarray(radii))
            for a, b in zip(got, expected):
                assert a.shape == b.shape
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
        # sqrt(2)**2 rounds to 2 + 4.4e-16, whose unclamped arc has width -2.2e-16
        phi1, phi2 = polar_arc(math.sqrt(2.0))
        assert phi2 - phi1 >= 0.0

    @pytest.mark.parametrize("r", [0.05, 0.4, 0.999, 1.0, 1.001, 1.2, 1.4135])
    def test_conditional_integrates_to_one(self, r):
        # f(theta) = f_Y(r^2 / 2) / (phi2 - phi1) on the arc, so the angle's
        # conditional law is uniform: its midpoint sum over the arc is exactly 1
        density, f_y = bbe_polar(self.F_Y).density, self.F_Y.pdf(0.5 * r * r)
        phi1, phi2 = polar_arc(r)
        width = phi2 - phi1
        mid = density.pdf(_polar_points(r, np.array([0.5 * (phi1 + phi2)])))[0]
        assert mid == pytest.approx(f_y / width, rel=1e-13)
        phi = phi1 + (np.arange(64) + 0.5) / 64 * width
        assert density.pdf(_polar_points(r, phi)).sum() * width / 64 / f_y \
            == pytest.approx(1.0, rel=1e-12)

    def test_density_positive_on_the_outer_edges(self):
        # (phi - phi1) / (phi2 - phi1) rounds an ulp past [0, 1] at 56 of these
        # points; the clipped contour coordinate keeps them in f_C's support
        density = bbe_polar(self.F_Y).density
        t = np.linspace(0.0, 1.0, 129)[1:-1]
        one = np.ones_like(t)
        for pts in (np.column_stack([one, t]), np.column_stack([t, one])):
            assert np.all(density.pdf(pts) > 0.0)

    def test_corner_and_origin_are_zero_without_warnings(self):
        density = bbe_polar(self.F_Y).density
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = density.log_pdf(np.array([[1.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(values, [-np.inf, -np.inf])

    @staticmethod
    def _arc_width_update():
        """The ratio-form update of a uniform initial on the square: its
        pushforward under r^2 / 2 has density phi2 - phi1 at r = sqrt(2 y)."""

        def log_arc_width(pts):
            phi1, phi2 = polar_arc(np.sqrt(2.0 * pts[:, 0]))
            with np.errstate(divide="ignore"):  # the arc rounds to no width at y = 1
                return np.log(phi2 - phi1)

        pushforward = Density(1, Support([0.0], [1.0]), log_pdf_fn=log_arc_width)
        return bjw_density(make_uniform([0.0, 0.0], [1.0, 1.0]), polar_quadratic_map(),
                           TestBbePolar.F_Y, pushforward)

    @pytest.mark.parametrize("num", [24, 128])
    def test_bjw_update_is_the_bbe_solution(self, num):
        # a uniform initial has the uniform law on each arc, so the ratio-form
        # update and the uniform-on-contour solution are one density
        pts = GridSpec((0.0, 0.0), (1.0, 1.0), num).points()
        bjw = self._arc_width_update().density.log_pdf(pts)
        bbe = bbe_polar(self.F_Y).density.log_pdf(pts)
        finite = np.isfinite(bbe)
        np.testing.assert_array_equal(np.isfinite(bjw), finite)
        assert np.abs(np.exp(bjw) - np.exp(bbe)).max() <= 1e-12 * np.exp(bbe).max()

    def test_bjw_update_rejection_draws_push_forward(self):
        samples = self._arc_width_update().sample(4000, seed=47)
        report = pushforward_check(samples, polar_quadratic_map(), self.F_Y, seed=47)
        assert report.passed, report.details

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
        grid = GridSpec((-2.0, -2.0), (2.5, 2.5), 41)
        pts = grid.points()
        report = grid_compare(approx.density.pdf(pts), exact.density.pdf(pts), grid,
                              tol=0.05, normalize=True)
        assert report.passed, report.details

    def test_kde_fit_stream_disjoint_from_row_streams(self, monkeypatch):
        _, fmap, initial, _ = self._instance()
        fitted = []
        real_fit = solvers.fit_kde

        def capture(samples):
            fitted.append(np.array(samples))
            return real_fit(samples)

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
        fmap = linear_map(np.eye(1))
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

    def test_log_pdf_matches_closed_form_in_far_tails(self):
        # the pdf-space numerator underflows to 0 at the first two points
        A, fmap, initial, f_y = self._instance()
        solution = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
        closed = make_gaussian(bjw_gaussian_linear(A, f_y.gaussian.mean, f_y.gaussian.cov,
                                                   initial.gaussian.mean,
                                                   initial.gaussian.cov))
        pts = np.array([[10.0, 10.0], [20.0, 20.0], [-20.0, 25.0]])
        np.testing.assert_allclose(solution.density.log_pdf(pts), closed.log_pdf(pts),
                                   rtol=1e-10)


class TestBjwRejection:
    def test_constant_ratio_acceptance_rate(self):
        fmap = linear_map(np.eye(1))
        initial = make_gaussian(GaussianParams([0.0], [[1.0]]))
        push = pushforward_density(initial, fmap)
        solution = bjw_density(initial, fmap, push, push)
        batch = bjw_rejection_sample(solution, 4000, seed=67)
        rate = solution.diagnostics["acceptance_rate"]
        expected = 1.0 / 1.2
        se = math.sqrt(expected * (1 - expected) / len(batch))
        assert abs(rate - expected) < 4 * se

    def test_gaussian_linear_mean(self):
        A = np.array([[1.0, 1.0]])
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        fmap = linear_map(A)
        f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
        solution = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
        closed = bjw_gaussian_linear(A, [0.25], [[0.25]], [0.0, 0.0], np.eye(2))
        batch = bjw_rejection_sample(solution, 6000, seed=71)
        se = np.sqrt(np.diag(closed.cov) / len(batch))
        assert np.all(np.abs(batch.mean(axis=0) - closed.mean) < 3 * se)

    def test_pushforward_of_accepted_draws(self):
        A = np.array([[1.0, 1.0]])
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        fmap = linear_map(A)
        f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
        solution = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
        batch = bjw_rejection_sample(solution, 4000, seed=73)
        _, p_value = ks_test_1d(batch @ A.ravel(),
                                lambda v: f_y.marginal_cdf(0, v))
        assert p_value >= 0.01

    def test_predictability_violation_raises(self):
        fmap = linear_map(np.eye(1))
        initial = make_uniform([0.0], [1.0])
        push = make_uniform([0.0], [1.0])
        f_y = make_uniform([0.5], [1.5])  # escapes the pushforward support
        solution = bjw_density(initial, fmap, f_y, push)
        with pytest.raises(PredictabilityError):
            bjw_rejection_sample(solution, 100, seed=79)

    def test_give_up_error_names_rows_cap_bound_and_cause(self, monkeypatch):
        # f_Y is far wider than the pushforward, so the ratio grows without
        # bound in the tails and almost no proposal is accepted.  A budget of
        # 5 proposals per row is 100 for the block; a round scores at least
        # PILOT_SIZE proposals, so the block gives up after its first round.
        monkeypatch.setattr(solvers, "REJECTION_MAX_PROPOSALS", 5)
        initial = make_gaussian(GaussianParams([0.0], [[1.0]]))
        f_y = make_gaussian(GaussianParams([0.0], [[100.0]]))
        solution = bjw_density(initial, linear_map([[1.0]]), f_y, initial)
        with pytest.raises(NonConvergenceError,
                           match=rf"\d+ of 20 rows still pending after {PILOT_SIZE} "
                                 r"proposals for a block of 20 rows at bound [\d.e+]+; "
                                 r".*unbounded under the proposal"):
            bjw_rejection_sample(solution, 20, seed=1)

    def test_ratio_overflow_raises_predictability_error(self):
        # the pushforward N(0, 0.05^2) is far narrower than f_Y's reach, so
        # the ratio overflows (or the pushforward underflows) in the tails
        initial = make_gaussian(GaussianParams([0.0], [[1.0]]))
        f_y = make_gaussian(GaussianParams([0.0], [[0.01]]))
        narrow_push = make_gaussian(GaussianParams([0.0], [[0.05**2]]))
        solution = bjw_density(initial, linear_map(np.eye(1)), f_y, narrow_push)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the typed error alone
            with pytest.raises(PredictabilityError, match="theta="):
                bjw_rejection_sample(solution, 50, seed=1)


class TestRatioFormIsChangeOfVariables:
    """The paper's claim that the ratio-form update is a change of variables,
    on the CLI's bjw-gauss-linear instance and a correlated p = 3 one: the
    solver draws the exact linear-Gaussian update directly, and its draws
    and closed form agree with the ratio form and with rejection."""

    INSTANCES = {
        "cli_p2": ([[1.0, 1.0]], [0.0, 0.0], np.eye(2), [0.25], [[0.25]]),
        "correlated_p3": ([[1.0, -0.5, 2.0]], [0.2, -0.1, 0.4],
                          [[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 0.6]],
                          [1.1], [[0.9]]),
    }

    @pytest.fixture(params=sorted(INSTANCES))
    def update(self, request):
        A, mean, cov, mu_y, cov_y = self.INSTANCES[request.param]
        initial = make_gaussian(GaussianParams(mean, cov))
        f_y = make_gaussian(GaussianParams(mu_y, cov_y))
        fmap = linear_map(np.array(A))
        return fmap, bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))

    def test_log_densities_agree(self, update):
        # initial f_Y / pushforward = f_Y(A theta) f_C(M theta) |det T|, pointwise
        fmap, solution = update
        initial, f_y, push = solution.initial, solution.f_y, solution.pushforward
        T, f_c = solvers._gaussian_update_map(initial, fmap, push)
        q = fmap.q
        pts = np.random.default_rng(61).normal(size=(500, fmap.p)) * 2.0
        change_of_variables = (f_y.log_pdf(pts @ T[:q].T) + f_c.log_pdf(pts @ T[q:].T)
                               + np.log(abs(np.linalg.det(T))))
        ratio = solution.density.log_pdf(pts)
        np.testing.assert_allclose(change_of_variables, ratio, rtol=0, atol=1e-10)
        np.testing.assert_allclose(make_gaussian(solution.density.gaussian).log_pdf(pts),
                                   ratio, rtol=0, atol=1e-10)

    def test_direct_draws_match_rejection_draws(self, update):
        _, solution = update
        direct = solution.sample(2000, seed=67)
        assert "proposals" not in solution.diagnostics
        rejected = bjw_rejection_sample(solution, 2000, seed=71)
        _, p_value = energy_distance_test(direct, rejected, seed=73)
        assert p_value >= 0.01


class TestRatioFormRoute:
    """An exact linear-Gaussian update draws directly; any other ratio-form
    update draws by rejection against its initial density."""

    @pytest.fixture
    def rejections(self, monkeypatch):
        calls = []
        real = solvers.bjw_rejection_sample

        def counted(solution, *args, **kwargs):
            calls.append(solution)
            return real(solution, *args, **kwargs)

        monkeypatch.setattr(solvers, "bjw_rejection_sample", counted)
        return calls

    def test_exact_gaussian_update_draws_directly(self, rejections):
        solution = _bjw_gauss_linear(pushforward_density)
        assert solution.sample(500, 1).shape == (500, 2)
        assert rejections == []
        assert solution.diagnostics["rows_returned"] == 500
        assert "proposals" not in solution.diagnostics

    def test_non_gaussian_observable_draws_directly(self, rejections):
        # no closed form, but still f_Y times the initial's conditional law
        A = np.array([[1.0, 1.0]])
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        fmap = linear_map(A)
        f_y = make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)
        solution = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
        samples = solution.sample(2000, 3)
        assert rejections == [] and solution.density.gaussian is None
        _, p_value = ks_test_1d(samples @ A[0], lambda v: f_y.marginal_cdf(0, v))
        assert p_value >= 0.01

    @pytest.mark.parametrize("variance, direct", [
        (1.0 + 1e-14, True), (1.0 + 1e-9, False), (0.5, False)])
    def test_gaussian_pushforward_is_the_image_to_a_tolerance(self, rejections, variance,
                                                               direct):
        initial = make_gaussian(GaussianParams([0.0], [[1.0]]))
        f_y = make_gaussian(GaussianParams([0.0], [[0.25]]))
        push = make_gaussian(GaussianParams([0.0], [[variance]]))
        solution = bjw_density(initial, linear_map(np.eye(1)), f_y, push)
        solution.sample(50, 1)
        assert rejections == ([] if direct else [solution])
        assert ("proposals" in solution.diagnostics) is not direct

    def test_kde_pushforward_rejects(self, rejections):
        solution = _bjw_gauss_linear(
            lambda initial, fmap: kde_pushforward(initial, fmap, 500, 2))
        solution.sample(50, 1)
        assert rejections == [solution]
        assert solution.diagnostics["proposals"] >= 50

    def test_chained_double_update_draws_directly(self, rejections):
        fmap = linear_map(np.array([[1.0, 1.0]]))
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        f_y1 = make_gaussian(GaussianParams([0.3], [[0.16]]))
        f_y2 = make_gaussian(GaussianParams([-0.2], [[0.36]]))
        single, double = bjw_sequential_update(initial, fmap, f_y1, f_y2)
        assert double.sample(300, 5).shape == (300, 2)
        assert rejections == []
        diag = double.diagnostics
        assert (diag["rows_returned"], diag["retries"], diag["failures"]) == (300, 0, 0)
        assert "proposals" not in diag
        np.testing.assert_allclose(double.density.gaussian.cov, single.density.gaussian.cov,
                                   rtol=1e-12)
        np.testing.assert_allclose(double.density.gaussian.mean,
                                   single.density.gaussian.mean, rtol=1e-12)

    def test_chained_update_of_non_gaussian_observable_rejects(self, rejections):
        # the intermediate has no closed form, so the double update rejects
        # against it, drawn directly as f_Y1 times the initial's conditional
        fmap = linear_map(np.array([[1.0, 1.0]]))
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        f_y1 = make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)
        f_y2 = make_truncated_gaussian(0.6, 0.2, 0.0, 1.0)
        _, double = bjw_sequential_update(initial, fmap, f_y1, f_y2)
        samples = double.sample(2000, 5)
        assert rejections == [double] and double.diagnostics["proposals"] >= 2000
        _, p_value = ks_test_1d(samples @ np.ones(2), lambda v: f_y2.marginal_cdf(0, v))
        assert p_value >= 0.01

    def test_ill_conditioned_update_draws_directly(self, rejections):
        # the precision and change-of-variables covariance forms differ by
        # more than bjw_gaussian_linear's guard allows; the update still draws
        A = np.array([[0.3, 1.0, -0.7]])
        Q = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
        cov = Q @ np.diag([1e-5, 10.0, 1e-9]) @ Q.T
        initial = make_gaussian(GaussianParams(np.zeros(3), 0.5 * (cov + cov.T)))
        f_y = make_gaussian(GaussianParams([0.7], [[250.0]]))
        with pytest.raises(ArithmeticError, match="covariance forms disagree"):
            bjw_gaussian_linear(A, [0.7], [[250.0]], np.zeros(3), initial.gaussian.cov)
        fmap = linear_map(A)
        solution = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
        samples = solution.sample(2000, 9)
        assert rejections == [] and solution.diagnostics["rows_returned"] == 2000
        _, p_value = ks_test_1d(samples @ A[0], lambda v: f_y.marginal_cdf(0, v))
        assert p_value >= 0.01


def _ratio_of(solution):
    """The ratio to the initial density, as the sampler takes it:
    exp(log f_Y(g(theta)) - log pushforward(g(theta)))."""
    def ratio(theta_rows):
        images = eval_batch(solution.fmap, theta_rows)
        log_f_y = solution.f_y.log_pdf(images)
        out = np.zeros(theta_rows.shape[0])
        ok = log_f_y > -np.inf
        out[ok] = np.exp(log_f_y[ok] - solution.pushforward.log_pdf(images)[ok])
        return out

    return ratio


def _per_row_rejection(solution, m, seed):
    """Reference rejection sampler: one row at a time, one ratio call per proposal.

    Row i runs to acceptance (or to its first proposal over the bound) on
    its own stream before row i + 1 starts; a pass with any row over the
    bound is redone with the bound doubled.  The pilot is the sampler's:
    ``solvers.PILOT_SIZE`` proposals on stream (seed, KIND_PILOT, 0).
    Returns (rows, proposals of the last pass, bound).
    """
    initial = solution.initial
    ratio = _ratio_of(solution)
    pilot_draws = initial.sample(rng_for(seed, KIND_PILOT, 0), solvers.PILOT_SIZE)
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


def _doublings(record):
    """The doublings of the bound that the sampler's redo warnings announce."""
    return [int(match.group(1)) for match in
            (re.search(r"doubling it (\d+) times", str(w.message)) for w in record) if match]


class TestRejectionMatchesPerRowReference:
    """The block-stream sampler draws the law of the per-row reference, from
    the same pilot bound; the two consume their streams differently, so they
    are compared in distribution, not by bytes."""

    def _gauss_linear(self):
        initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        fmap = linear_map(np.array([[1.0, 1.0]]))
        f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
        return bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))

    def _pilot_bound(self, solution, seed):
        pilot = solution.initial.sample(rng_for(seed, KIND_PILOT, 0), solvers.PILOT_SIZE)
        return 1.2 * float(_ratio_of(solution)(pilot).max())

    def test_gauss_linear_instance(self, monkeypatch):
        # the second case spans several blocks, the last one partial
        for block, m in ((solvers.ROW_BLOCK, 300), (64, 301)):
            monkeypatch.setattr(solvers, "ROW_BLOCK", block)
            solution = self._gauss_linear()
            batch = bjw_rejection_sample(solution, m, seed=3)
            rows, _, bound = _per_row_rejection(solution, m, seed=3)
            assert solution.diagnostics["bound"] == bound == self._pilot_bound(solution, 3)
            _, p_value = energy_distance_test(batch, rows, seed=3)
            assert p_value >= 0.01

    def test_kde_instance(self, monkeypatch):
        # the route bjw-kde draws by: an estimated pushforward, sampled through
        # the solution's own ``sample``
        monkeypatch.setattr(solvers, "ROW_BLOCK", 64)
        solution = _bjw_gauss_linear(
            lambda initial, fmap: kde_pushforward(initial, fmap, 500, 2))
        data = solution.sample(301, seed=5)
        rows, _, bound = _per_row_rejection(solution, 301, seed=5)
        assert solution.diagnostics["bound"] == bound == self._pilot_bound(solution, 5)
        _, p_value = energy_distance_test(data, rows, seed=5)
        assert p_value >= 0.01

    def test_bound_doubling(self, monkeypatch):
        # two pilot draws rarely come near the ratio's peak, so the first
        # bound is too low: each overrun doubles it as often as that ratio
        # needs and redoes the run once
        monkeypatch.setattr(solvers, "PILOT_SIZE", 2)
        solution = self._gauss_linear()
        with pytest.warns(RuntimeWarning, match="doubling") as record:
            batch = bjw_rejection_sample(solution, 300, seed=11)
        doublings = math.log2(solution.diagnostics["bound"] / self._pilot_bound(solution, 11))
        assert doublings == int(doublings)
        assert 1 <= doublings <= solvers.REJECTION_MAX_DOUBLINGS
        assert sum(_doublings(record)) == doublings
        assert len(record) < doublings
        rows, _, _ = _per_row_rejection(solution, 300, seed=11)
        _, p_value = energy_distance_test(batch, rows, seed=11)
        assert p_value >= 0.01

    def test_bound_doublings_capped(self, monkeypatch):
        # the setup of test_bound_doubling needs five doublings: its first
        # overrun asks for two, its second for three more
        monkeypatch.setattr(solvers, "PILOT_SIZE", 2)
        monkeypatch.setattr(solvers, "REJECTION_MAX_DOUBLINGS", 4)
        solution = self._gauss_linear()
        with pytest.warns(RuntimeWarning, match="doubling it 2 times"):
            with pytest.raises(PredictabilityError,
                               match=r"theta=.* needs 5 doublings of the pilot bound "
                                     r"[\d.e+-]+, more than 4"):
                bjw_rejection_sample(solution, 300, seed=11)


def _per_row_newton(fmap, y, tail, theta0, counts):
    """Reference damped Newton: one row, each map call a one-row batch.

    Returns the head, or None where the row solvers retry.  ``counts``
    tallies the halved steps and the failures by cause.
    """
    q = fmap.q
    target_scale = 1.0 + np.max(np.abs(y))
    theta = np.concatenate([theta0, tail])
    resid = y - eval_batch(fmap, theta[None])[0]
    norm = np.max(np.abs(resid))
    iterations = 0
    while not (norm <= 1e-10 * target_scale):
        if iterations >= 50 or not np.isfinite(norm):
            counts["budget"] += 1
            return None
        try:
            delta = np.linalg.solve(jacobian_at(fmap, theta)[:, :q], resid)
        except np.linalg.LinAlgError:
            counts["singular"] += 1
            return None
        step = 1.0
        for _ in range(30):
            cand = theta.copy()
            cand[:q] = theta[:q] + step * delta
            cand_resid = y - eval_batch(fmap, cand[None])[0]
            cand_norm = np.max(np.abs(cand_resid))
            if np.isfinite(cand_norm) and cand_norm < norm:
                theta, resid, norm = cand, cand_resid, cand_norm
                break
            step *= 0.5
            counts["halved"] += 1
        else:
            counts["halving"] += 1
            return None
        iterations += 1
    if not fmap.domain.contains(theta.reshape(1, -1))[0]:
        counts["domain"] += 1
        return None
    return theta[:q]


def _block_starts(rng, fmap, k):
    """One attempt's Newton starts for k pending rows, drawn as the engine
    draws them: k x q uniforms, then k x q normals, from the block's stream."""
    q = fmap.q
    lo, hi = fmap.domain.lower[:q], fmap.domain.upper[:q]
    finite = np.isfinite(lo) & np.isfinite(hi)
    u = rng.random((k, q))
    z = rng.standard_normal((k, q))
    out = np.empty((k, q))
    out[:, finite] = lo[finite] + u[:, finite] * (hi[finite] - lo[finite])
    out[:, ~finite] = z[:, ~finite]
    return out


def _per_row_solve(reference, m, seed, retries=solvers.ROW_RETRIES):
    """Reference row solver: row i draws its target once on stream (seed,
    KIND_ROWS, i).  Block b's attempts then draw from stream (seed,
    KIND_INVERSE, b), attempt by attempt with the pending rows in row order:
    ``attempt(rng, targets)`` draws that attempt's randomness for all of them
    and solves them one row at a time, returning a row or None for each.
    (The pilot is the first rows themselves and only checks them, so it is
    left out.)"""
    draw, attempt = reference
    rows = [None] * m
    failures, retries_used = 0, 0
    for b, first in enumerate(range(0, m, solvers.ROW_BLOCK)):
        block = range(first, min(first + solvers.ROW_BLOCK, m))
        targets = {i: draw(rng_for(seed, KIND_ROWS, i)) for i in block}
        rng = rng_for(seed, KIND_INVERSE, b)
        pending = list(block)
        for _ in range(retries):
            if not pending:
                break
            solved = attempt(rng, [targets[i] for i in pending])
            for i, row in zip(pending, solved):
                rows[i] = row
            pending = [i for i in pending if rows[i] is None]
            retries_used += len(pending)
        failures += len(pending)
    kept = [row for row in rows if row is not None]
    return np.vstack(kept), {"rows_returned": len(kept), "failures": failures,
                             "retries": retries_used}


def _per_row_cov_exact(fmap, f_y, counts):
    def attempt(rng, targets):
        starts = _block_starts(rng, fmap, len(targets))
        return [_per_row_newton(fmap, y, np.empty(0), start, counts)
                for y, start in zip(targets, starts)]

    return lambda rng: f_y.sample(rng, 1)[0], attempt


def _per_row_intuitive(fmap, f_y, f_aux, counts):
    def attempt(rng, targets):
        starts = _block_starts(rng, fmap, len(targets))
        heads = [_per_row_newton(fmap, y, tail, start, counts)
                 for (y, tail), start in zip(targets, starts)]
        return [None if head is None else np.concatenate([head, tail])
                for head, (_, tail) in zip(heads, targets)]

    return lambda rng: (f_y.sample(rng, 1)[0], f_aux.sample(rng, 1)[0]), attempt


def _per_row_mixture(fmap, f_y, partition, w):
    weighted = iter(w)
    branch_weight = [next(weighted) if b.weighted else 1.0 for b in partition]

    def pre_images(y):
        candidates, weights = [], []
        for wt, branch in zip(branch_weight, partition):
            theta = np.atleast_1d(np.asarray(branch.inverse(y), dtype=float))
            pt = theta.reshape(1, -1)
            if branch.member(pt)[0] and fmap.domain.contains(pt)[0]:
                candidates.append(theta)
                weights.append(wt)
        return candidates, np.asarray(weights)

    def attempt(rng, targets):
        found = [pre_images(y) for y in targets]
        has_mass = [bool(candidates) and weights.sum() > 0 for candidates, weights in found]
        # one uniform for each row with a pre-image of mass, in one call;
        # each row then picks as rng.choice(candidates, p=weights / total) does
        u = iter(rng.random(sum(has_mass)).tolist())
        out = []
        for (candidates, weights), ok in zip(found, has_mass):
            if not ok:
                out.append(None)
                continue
            cdf = np.cumsum(weights / weights.sum())
            out.append(candidates[int(np.searchsorted(cdf / cdf[-1], next(u), side="right"))])
        return out

    return lambda rng: f_y.sample(rng, 1)[0], attempt


def _per_row_bbe_linear(A, f_y, lower, upper):
    aug_inv = np.linalg.inv(np.vstack([A, null_space_rows(A)]))

    def draw(rng):
        y = f_y.sample(rng, 1)[0]
        return np.concatenate([y, lower + rng.random(lower.shape[0]) * (upper - lower)])

    return draw, lambda rng, targets: [aug_inv @ target for target in targets]


def _per_row_bbe_polar(f_y):
    def attempt(rng, targets):
        r, phi = [], []
        for y, c in targets:
            r.append(math.sqrt(2.0 * y))
            phi1, phi2 = polar_arc(r[-1])
            phi.append(phi1 + c * (phi2 - phi1))
        # np.cos and np.sin over the attempt's angles, as the engine calls
        # them: NumPy's SIMD loops need not round as the platform libm does
        r, phi = np.array(r), np.array(phi)
        return list(np.column_stack([r * np.cos(phi), r * np.sin(phi)]))

    return lambda rng: (f_y.sample(rng, 1)[0, 0], rng.random()), attempt


def _cubic_map():
    """g(theta) = theta_1^3 + theta_1 + theta_2 / 2, elementwise, FD Jacobian."""
    from sip_lab.densities import unbounded_support
    from sip_lab.forward_maps import ForwardMap

    def func(theta):
        return theta[:, :1] ** 3 + theta[:, :1] + 0.5 * theta[:, 1:]

    return ForwardMap(p=2, q=1, func=func, domain=unbounded_support(2), name="cubic")


class TestRowSolversMatchPerRowReference:
    """The lockstep row solvers draw each row's target from its own stream
    and each attempt's starts or branch uniforms from its block's one stream,
    as the references do, and return the same rows bit for bit.

    The linear maps here have entries of +-1, whose products are exact: a
    BLAS matrix product over many rows may round a sum of inexact products
    differently from the product for one row, so the lockstep Newton matches
    the one-point iteration bit for bit on maps whose batched evaluation
    matches their one-point evaluation (elementwise maps, linear maps with
    exact products).
    """

    def _check(self, solution, reference, m, seed, retries=solvers.ROW_RETRIES):
        rows = solution.sample(m, seed)
        ref_rows, ref_diag = _per_row_solve(reference, m, seed, retries)
        np.testing.assert_array_equal(rows, ref_rows)
        for key in ("rows_returned", "failures", "retries"):
            assert solution.diagnostics[key] == ref_diag[key], key
        return ref_diag

    def test_cov_exact_linear(self):
        fmap = linear_map([[1.0, -1.0], [1.0, 1.0]])
        f_y = make_gaussian(GaussianParams([-1.0, 1.0], np.eye(2)))
        counts = collections.Counter()
        self._check(cov_exact(fmap, f_y), _per_row_cov_exact(fmap, f_y, counts), 400, 3)

    def test_cov_exact_square_map_halves_and_retries(self, monkeypatch):
        # y < 0 has no root (step halving stalls near 0) and y > 1 has its
        # roots outside (-1, 1), so those rows fail every retry and are
        # dropped (PILOT_SIZE = 0: not raised); starts near 0 overshoot and halve
        monkeypatch.setattr(solvers, "PILOT_SIZE", 0)
        fmap = square_map(-1.0, 1.0)
        f_y = make_uniform([-0.2], [1.2])
        counts = collections.Counter()
        with pytest.warns(RuntimeWarning, match="dropped"):
            diag = self._check(cov_exact(fmap, f_y), _per_row_cov_exact(fmap, f_y, counts),
                               400, 5)
        assert diag["retries"] > 0
        assert counts["halved"] > 0 and counts["halving"] > 0 and counts["domain"] > 0

    def test_m_not_a_multiple_of_the_block(self, monkeypatch):
        monkeypatch.setattr(solvers, "ROW_BLOCK", 64)
        monkeypatch.setattr(solvers, "PILOT_SIZE", 0)
        fmap = square_map(-1.0, 1.0)
        f_y = make_uniform([-0.2], [1.2])
        counts = collections.Counter()
        with pytest.warns(RuntimeWarning, match="dropped"):
            self._check(cov_exact(fmap, f_y), _per_row_cov_exact(fmap, f_y, counts), 301, 7)

    def test_intuitive_sum_map(self):
        fmap = linear_map([[1.0, 1.0]])
        f_y = make_gaussian(GaussianParams([0.0], [[2.0]]))
        f_aux = make_gaussian(GaussianParams([0.0], [[1.0]]))
        counts = collections.Counter()
        self._check(intuitive_sample(fmap, f_y, f_aux),
                    _per_row_intuitive(fmap, f_y, f_aux, counts), 400, 11)

    def test_intuitive_map_without_jacobian(self):
        fmap = _cubic_map()
        f_y = make_gaussian(GaussianParams([0.0], [[4.0]]))
        f_aux = make_gaussian(GaussianParams([0.0], [[1.0]]))
        counts = collections.Counter()
        self._check(intuitive_sample(fmap, f_y, f_aux),
                    _per_row_intuitive(fmap, f_y, f_aux, counts), 200, 13)

    def test_intuitive_batch_only_map(self, monkeypatch):
        # polar_quadratic_map evaluates (n, 2) batches only; rows whose
        # theta_2^2 exceeds 2y have no root, retry and are dropped
        monkeypatch.setattr(solvers, "PILOT_SIZE", 0)
        fmap = polar_quadratic_map()
        f_y = make_uniform([0.05], [0.45])
        f_aux = make_uniform([0.0], [0.9])
        counts = collections.Counter()
        with pytest.warns(RuntimeWarning, match="dropped"):
            diag = self._check(intuitive_sample(fmap, f_y, f_aux),
                               _per_row_intuitive(fmap, f_y, f_aux, counts), 300, 31)
        assert diag["retries"] > 0

    @pytest.mark.parametrize("w", [0.0, 0.5])
    @pytest.mark.parametrize("partition,lo", [(two_branch_partition, -1.0),
                                              (three_branch_partition, -0.5)],
                             ids=["two_branch", "three_branch"])
    def test_cov_mixture_family(self, partition, lo, w):
        fmap = square_map(lo, 1.0)
        f_y = make_uniform([0.0], [1.0])
        weights = [w, 1.0 - w]
        self._check(cov_mixture_family(fmap, f_y, partition(), MixtureWeights(weights)),
                    _per_row_mixture(fmap, f_y, partition(), weights), 400, 17, retries=1)

    def test_cov_mixture_family_rows_without_mass_retry(self, monkeypatch):
        # on (-0.5, 1) the only pre-image of y > 0.25 is +sqrt(y), which
        # carries weight 0 here: 1/6 of f_Y's mass has no pre-image with
        # mass.  A retry would keep y and fail again, so the branch inverse,
        # which draws nothing before it fails, makes one attempt.  The pilot
        # raises; with no pilot the rows are counted drops.
        fmap = square_map(-0.5, 1.0)
        f_y = make_uniform([0.0], [0.3])
        weights = [1.0, 0.0]
        solution = cov_mixture_family(fmap, f_y, two_branch_partition(),
                                      MixtureWeights(weights))
        with pytest.raises(NoSolutionError, match="no solvable pre-image"):
            solution.sample(400, 29)
        monkeypatch.setattr(solvers, "PILOT_SIZE", 0)
        with pytest.warns(RuntimeWarning, match="dropped"):
            diag = self._check(solution, _per_row_mixture(fmap, f_y, two_branch_partition(),
                                                          weights), 400, 29, retries=1)
        assert 0.1 < diag["failures"] / 400 < 0.25
        assert diag["retries"] == diag["failures"]  # one failed attempt each

    def test_bbe_linear(self):
        A = np.array([[-1.0 / 3.0, 4.0 / 3.0]])
        f_y = make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)
        lower, upper = np.array([-1.0]), np.array([1.0])
        self._check(bbe_linear(A, f_y, bounds=(lower, upper)),
                    _per_row_bbe_linear(A, f_y, lower, upper), 400, 19)

    def test_bbe_polar(self):
        f_y = make_beta(8.0, 12.0)
        self._check(bbe_polar(f_y), _per_row_bbe_polar(f_y), 400, 23)


    def test_general_linear_map_agrees_to_rounding(self):
        # inexact products: the batched map evaluation may round differently
        fmap = linear_map([[2.0, 0.3], [0.7, 1.1]])
        f_y = make_gaussian(GaussianParams([-1.0, 1.0], np.eye(2)))
        rows = cov_exact(fmap, f_y).sample(400, 3)
        ref_rows, _ = _per_row_solve(_per_row_cov_exact(fmap, f_y, collections.Counter()),
                                     400, 3)
        np.testing.assert_allclose(rows, ref_rows, rtol=0, atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda: cov_exact(linear_map([[1.0, -1.0], [1.0, 1.0]]),
                      make_gaussian(GaussianParams([-1.0, 1.0], np.eye(2)))),
    lambda: intuitive_sample(linear_map([[1.0, 1.0]]),
                             make_gaussian(GaussianParams([0.0], [[2.0]])),
                             make_gaussian(GaussianParams([0.0], [[1.0]]))),
], ids=["cov_exact", "intuitive_sample"])
def test_map_calls_do_not_grow_with_rows(monkeypatch, build):
    def no_newton_solve(*args, **kwargs):
        raise AssertionError("newton_solve called")

    calls = []

    def counted_eval_batch(fmap, pts):
        calls[-1] += 1
        return eval_batch(fmap, pts)

    monkeypatch.setattr(solvers, "newton_solve", no_newton_solve)
    monkeypatch.setattr(solvers, "eval_batch", counted_eval_batch)
    for m in (2000, 4000):
        calls.append(0)
        assert build().sample(m, 1).shape[0] == m
    assert calls[0] == calls[1] > 0


def test_stream_seeding_calls_do_not_grow_with_rows(monkeypatch):
    calls = []

    def counted_rng_streams(*args):
        calls[-1] += 1
        return rng_streams(*args)

    monkeypatch.setattr(solvers, "rng_streams", counted_rng_streams)
    solution = cov_exact(linear_map([[1.0, -1.0], [1.0, 1.0]]),
                         make_gaussian(GaussianParams([-1.0, 1.0], np.eye(2))))
    for m in (2000, 4000):
        calls.append(0)
        assert solution.sample(m, 1).shape[0] == m
    assert calls[0] == calls[1] > 0


def test_targets_are_one_sampler_call_per_block(monkeypatch):
    f_y = make_gaussian(GaussianParams([0.0], [[2.0]]))
    f_aux = make_gaussian(GaussianParams([0.0], [[1.0]]))
    calls = []

    def counted(density, name):
        real = density.sample

        def sample(rng, n):
            calls.append((name, type(rng), n))
            return real(rng, n)

        monkeypatch.setattr(density, "sample", sample)

    counted(f_y, "y")
    counted(f_aux, "c")
    monkeypatch.setattr(solvers, "ROW_BLOCK", 64)
    solution = intuitive_sample(linear_map([[1.0, 1.0]]), f_y, f_aux)
    assert solution.sample(301, 1).shape == (301, 2)
    # y then c for each block, each from one generator that spans the block's rows
    assert calls == [(name, RowStreams, k) for k in (64, 64, 64, 64, 45)
                     for name in ("y", "c")]


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

    def test_double_equals_single_in_far_tails(self):
        fmap, initial, f_y1, f_y2 = self._setup()
        single, double = bjw_sequential_update(initial, fmap, f_y1, f_y2)
        pts = np.array([[10.0, 10.0], [20.0, 20.0]])
        np.testing.assert_allclose(double.density.log_pdf(pts), single.density.log_pdf(pts),
                                   rtol=1e-10)

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
        _, p_value = ks_test_1d(batch @ np.array([1.0, 1.0]),
                                lambda v: f_y1.marginal_cdf(0, v))
        assert p_value >= 0.01


_ROW_SOLVERS = [
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
]
_ROW_SOLVER_IDS = ["cov_exact", "cov_mixture_family", "intuitive_sample", "bbe_linear",
                   "bbe_polar"]


_RATIO_SOLVERS = [
    lambda: _bjw_gauss_linear(pushforward_density),
    lambda: _bjw_gauss_linear(lambda initial, fmap: kde_pushforward(initial, fmap, 500, 2)),
    lambda: bjw_sequential_update(make_gaussian(GaussianParams([0.0, 0.0], np.eye(2))),
                                  linear_map([[1.0, 1.0]]),
                                  make_gaussian(GaussianParams([0.3], [[0.16]])),
                                  make_gaussian(GaussianParams([-0.2], [[0.36]])))[1],
]
_RATIO_SOLVER_IDS = ["bjw_density_analytic", "bjw_density_kde", "bjw_double_update"]


@pytest.mark.parametrize("build", _ROW_SOLVERS + _RATIO_SOLVERS,
                         ids=_ROW_SOLVER_IDS + _RATIO_SOLVER_IDS)
def test_sample_accepts_seed_by_keyword(build):
    solution = build()
    first = solution.sample(200, seed=5)
    assert first.shape == (200, solution.density.dim)
    np.testing.assert_array_equal(first, solution.sample(200, 5))


@pytest.mark.parametrize("build", _ROW_SOLVERS + _RATIO_SOLVERS,
                         ids=_ROW_SOLVER_IDS + _RATIO_SOLVER_IDS)
def test_sample_of_no_rows_keeps_the_columns(build):
    solution = build()
    assert solution.sample(0, 1).shape == (0, solution.density.dim)


@pytest.mark.parametrize("build", _ROW_SOLVERS + [_RATIO_SOLVERS[0], _RATIO_SOLVERS[2]],
                         ids=_ROW_SOLVER_IDS + ["bjw_density_analytic", "bjw_double_update"])
def test_solution_carries_the_problem_it_solves(build):
    # not the KDE route: it pushes forward to f_Y pi / pi_hat / Z, not to f_Y
    solution = build()
    assert solution.fmap.p == solution.density.dim
    assert solution.fmap.q == solution.f_y.dim
    if build in _ROW_SOLVERS:
        assert solution.initial is None and solution.pushforward is None
    else:
        assert solution.initial is not None and solution.pushforward is not None
    report = pushforward_check(solution.sample(2000, 5), solution.fmap, solution.f_y, seed=5)
    assert report.passed, report.details


@pytest.mark.parametrize("build", _ROW_SOLVERS, ids=_ROW_SOLVER_IDS)
def test_rejection_refuses_a_change_of_variables_solution(build):
    with pytest.raises(ValueError, match="not built by bjw_density"):
        bjw_rejection_sample(build(), 10, seed=1)


def _solution_route(build):
    solution = build()
    return solution.sample, solution.density.dim, solution.sample


def _rejection_route():
    solution = _RATIO_SOLVERS[1]()
    return functools.partial(bjw_rejection_sample, solution), 2, solution.sample


def _draw_route():
    sample = functools.partial(draw, make_gaussian(GaussianParams([0.5, -1.0],
                                                                  [[1.0, 0.4], [0.4, 2.0]])))
    return sample, 2, sample


@pytest.mark.parametrize("n", [0, 5])
@pytest.mark.parametrize("route", [
    *(functools.partial(_solution_route, build) for build in _ROW_SOLVERS + _RATIO_SOLVERS[:2]),
    _rejection_route, _draw_route,
], ids=_ROW_SOLVER_IDS + _RATIO_SOLVER_IDS[:2] + ["bjw_rejection_sample", "draw"])
def test_every_sampler_returns_its_rows_as_one_array(route, n):
    # every route's (n, seed) -> (n, p) C-contiguous float64 array; rejection
    # returns exactly what its solution's ``sample`` returns
    sample, p, twin = route()
    rows = sample(n, 3)
    assert type(rows) is np.ndarray and rows.dtype == np.float64
    assert rows.shape == (n, p) and rows.flags.c_contiguous
    np.testing.assert_array_equal(rows, twin(n, 3))


def test_rows_all_dropped_keep_the_columns(monkeypatch):
    def never(index, rng):
        return np.ones((len(index), 3)), np.zeros(len(index), dtype=bool)

    monkeypatch.setattr(solvers, "PILOT_SIZE", 0)  # drop the rows, do not raise
    with pytest.warns(RuntimeWarning, match="dropped"):
        data, diag = solvers._solve_rows(lambda rng, k: (np.arange(k),), never, 20,
                                         seed=1, retries=2)
    assert data.shape == (0, 3)
    assert diag["rows_returned"] == 0


def _bjw_gauss_linear(make_pushforward):
    initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    fmap = linear_map([[1.0, 1.0]])
    f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
    return bjw_density(initial, fmap, f_y, make_pushforward(initial, fmap))


def test_each_draw_leaves_only_its_own_counters():
    # the exact Gaussian update draws directly, and rejection can draw it too
    solution = _bjw_gauss_linear(pushforward_density)
    bjw_rejection_sample(solution, 50, 1)
    assert solution.diagnostics["seed"] == 1 and "rows_requested" not in solution.diagnostics
    solution.sample(60, 2)
    assert solution.diagnostics["rows_requested"] == 60
    assert not {"proposals", "acceptance_rate", "bound"} & solution.diagnostics.keys()
    bjw_rejection_sample(solution, 50, 3)
    assert solution.diagnostics["seed"] == 3 and "rows_requested" not in solution.diagnostics


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


_UNIT_SQUARE = ([0.1, 0.1], [0.9, 0.9])


@pytest.mark.parametrize("build, got, q", [
    (lambda: cov_exact(linear_map(np.eye(2)), make_uniform([0.0], [1.0])), 1, 2),
    (lambda: cov_mixture_family(square_map(-1.0, 1.0), make_uniform(*_UNIT_SQUARE),
                                two_branch_partition(), MixtureWeights([0.5, 0.5])), 2, 1),
    (lambda: intuitive_sample(linear_map([[1.0, 1.0]]), make_uniform(*_UNIT_SQUARE),
                              make_uniform([0.0], [1.0])), 2, 1),
    (lambda: bbe_linear([[1.0, 1.0]], make_uniform(*_UNIT_SQUARE),
                        bounds=([-1.0], [1.0])), 2, 1),
    (lambda: bbe_polar(make_uniform(*_UNIT_SQUARE)), 2, 1),
    (lambda: _bjw_gauss_linear(lambda initial, fmap: make_uniform(*_UNIT_SQUARE)), 2, 1),
], ids=_ROW_SOLVER_IDS + ["bjw_density"])
def test_observable_dimension_checked_when_built(build, got, q):
    with pytest.raises(ValueError, match=f"dimension {got}, expected q = {q}"):
        build()


# ---------------------------------------------------------------------------
# The pilot is the run's first rows
# ---------------------------------------------------------------------------


def test_sample_attempts_each_row_once_when_none_fails(monkeypatch):
    attempted = []
    real = solvers._solve_rows

    def counting(draw, attempt, m, seed, **kwargs):
        def counted(*inputs):
            attempted.append(len(inputs[0]))  # the targets' rows; the last input is the rng
            return attempt(*inputs)

        return real(draw, counted, m, seed, **kwargs)

    monkeypatch.setattr(solvers, "_solve_rows", counting)
    # a linear map: Newton solves every row at its first attempt
    solution = intuitive_sample(linear_map([[1.0, 1.0]]),
                                make_gaussian(GaussianParams([0.0], [[2.0]])),
                                make_gaussian(GaussianParams([0.0], [[1.0]])))
    data = solution.sample(700, 3)
    assert data.shape == (700, 2) and solution.diagnostics["retries"] == 0
    assert sum(attempted) == 700


def test_observable_mass_partly_outside_the_range_raises():
    # theta^2 on (0, 1) reaches (0, 1), 1/9 of U(0.5, 5): a retry keeps its
    # y, so 8 in 9 rows fail every attempt
    solution = intuitive_sample(square_map(0.0, 1.0), make_uniform([0.5], [5.0]), None)
    with pytest.raises(NoSolutionError, match="no solvable pre-image"):
        solution.sample(1000, 1)


def test_observable_mass_out_of_the_range_is_not_truncated():
    # theta^2 on (0, 1) reaches half of U(0.5, 1.5); a retry keeps its y, so
    # a y above 1 fails every retry instead of being replaced by one below
    solution = intuitive_sample(square_map(0.0, 1.0), make_uniform([0.5], [1.5]), None)
    with pytest.raises(NoSolutionError, match="no solvable pre-image"):
        solution.sample(2000, 1)


def test_unreachable_support_attempts_no_row_past_the_first_block(monkeypatch):
    streams = []
    real = solvers.rng_streams

    def recording(seed, kind, first, stop):
        streams.append((kind, first, stop))
        return real(seed, kind, first, stop)

    monkeypatch.setattr(solvers, "rng_streams", recording)
    solution = intuitive_sample(square_map(0.0, 1.0), make_uniform([2.0], [3.0]), None)
    with pytest.raises(NoSolutionError, match="reorder theta"):
        solution.sample(2 * solvers.ROW_BLOCK, 1)
    assert streams == [(KIND_ROWS, 0, solvers.ROW_BLOCK)]
    # no rows, no pilot: nothing is attempted
    assert solution.sample(0, 1).shape == (0, 1)
    assert streams == [(KIND_ROWS, 0, solvers.ROW_BLOCK)]


# ---------------------------------------------------------------------------
# Rejection scores a proposal by f_Y / pushforward at its image
# ---------------------------------------------------------------------------


def test_log_space_ratio_equals_pdf_space_ratio_on_bjw_kde():
    # the bjw-kde instance at --samples 2000, seed 1
    solution = _bjw_gauss_linear(lambda initial, fmap: kde_pushforward(initial, fmap, 2000, 1))
    initial = solution.initial
    bjw_rejection_sample(solution, 0, seed=1)
    pilot = initial.sample(rng_for(1, KIND_PILOT, 0), PILOT_SIZE)
    assert solution.diagnostics["bound"] == 1.2 * _ratio_of(solution)(pilot).max()
    theta = initial.sample(rng_for(1, KIND_ROWS, 0), 20_000)
    pdf_space = solution.density.pdf(theta) / initial.pdf(theta)
    # each form rounds its sum of log densities, and exp turns an absolute
    # error there into a relative one: they agree to a few ulps of that sum
    images = eval_batch(solution.fmap, theta)
    logs = (np.abs(initial.log_pdf(theta)) + np.abs(solution.f_y.log_pdf(images))
            + np.abs(solution.pushforward.log_pdf(images)))
    log_space = _ratio_of(solution)(theta)
    assert np.all(np.abs(log_space - pdf_space) <= 4.0 * np.spacing(logs) * pdf_space)


def test_ratio_is_finite_in_the_initials_far_tail():
    initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    fmap = linear_map([[1.0, 1.0]])
    f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
    # a proposal 40 out along the map's null space: its images follow the
    # initial's pushforward, while the initial's own density there underflows
    far = Density(2, initial.support, log_pdf_fn=initial.log_pdf, name="far",
                  sample_fn=lambda rng, n: initial.sample(rng, n) + [40.0, -40.0])
    solution = bjw_density(far, fmap, f_y, pushforward_density(initial, fmap))
    theta = far.sample(rng_for(2, KIND_PILOT, 0), PILOT_SIZE)
    assert np.all(far.log_pdf(theta) < -745.0) and np.all(far.pdf(theta) == 0.0)
    ratio = _ratio_of(solution)(theta)
    assert np.all(np.isfinite(ratio)) and ratio.max() > 0
    data = bjw_rejection_sample(solution, 300, seed=2)
    assert np.isfinite(solution.diagnostics["bound"])
    _, p_value = ks_test_1d(eval_batch(fmap, data)[:, 0], lambda v: f_y.marginal_cdf(0, v))
    assert p_value >= 0.01


def test_rejection_evaluates_the_initial_only_to_draw(monkeypatch):
    solution = _bjw_gauss_linear(lambda initial, fmap: kde_pushforward(initial, fmap, 500, 2))

    def no_evaluation(x):
        raise AssertionError("initial density evaluated")

    monkeypatch.setattr(solution.initial, "log_pdf", no_evaluation)
    batch = bjw_rejection_sample(solution, 300, seed=5)
    assert batch.shape == (300, 2)
    assert solution.diagnostics["proposals"] >= 300


# ---------------------------------------------------------------------------
# Rejection draws each block of rows from one stream
# ---------------------------------------------------------------------------


def test_proposal_calls_do_not_grow_with_rows(monkeypatch):
    # one call for the pilot and one per round of a block; m = 2000 and 4000
    # are one block each, whose rounds are its slowest row's proposals:
    # about log(m) / -log(1 - acceptance), a few dozen here, not one per row
    solution = _bjw_gauss_linear(lambda initial, fmap: kde_pushforward(initial, fmap, 500, 2))
    initial = solution.initial
    calls = []
    real = initial.sample

    def counted(rng, n):
        calls[-1] += 1
        return real(rng, n)

    monkeypatch.setattr(initial, "sample", counted)
    for m in (2000, 4000):
        calls.append(0)
        assert bjw_rejection_sample(solution, m, seed=1).shape[0] == m
    assert max(calls) < 40 and abs(calls[1] - calls[0]) < 10


def test_rejection_seeds_one_stream_per_block(monkeypatch):
    streams = []
    real = solvers.rng_for

    def recording(seed, kind, index):
        streams.append((seed, kind, index))
        return real(seed, kind, index)

    monkeypatch.setattr(solvers, "rng_for", recording)
    monkeypatch.setattr(solvers, "rng_streams", None)  # seeds no per-row generators
    monkeypatch.setattr(solvers, "ROW_BLOCK", 64)
    solution = _bjw_gauss_linear(lambda initial, fmap: kde_pushforward(initial, fmap, 500, 2))
    streams.clear()  # the KDE's fit stream
    bjw_rejection_sample(solution, 301, seed=7)
    assert streams == [(7, KIND_PROBE, 0), (7, KIND_PILOT, 0)] + [
        (7, KIND_ROWS, b) for b in range(math.ceil(301 / 64))]


@pytest.mark.parametrize("build", _ROW_SOLVERS + [
    # y < 0 and y > 1 have no root in (-1, 1): those rows retry, so a block
    # makes several attempts on its one generator
    lambda: cov_exact(square_map(-1.0, 1.0), make_uniform([-0.2], [1.2])),
], ids=_ROW_SOLVER_IDS + ["cov_exact_retrying"])
def test_row_solvers_seed_one_inverse_stream_per_block(monkeypatch, build):
    streams, handed = [], []
    real_rng_for, real_solve_rows = solvers.rng_for, solvers._solve_rows

    def recording(seed, kind, index):
        streams.append((seed, kind, index))
        return real_rng_for(seed, kind, index)

    def checking(draw, attempt, m, seed, **kwargs):
        def checked(*inputs):
            handed.append(inputs[-1])
            return attempt(*inputs)

        return real_solve_rows(draw, checked, m, seed, **kwargs)

    monkeypatch.setattr(solvers, "rng_for", recording)
    monkeypatch.setattr(solvers, "_solve_rows", checking)
    monkeypatch.setattr(solvers, "ROW_BLOCK", 64)
    monkeypatch.setattr(solvers, "PILOT_SIZE", 0)  # drop rows, do not raise
    solution = build()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the retrying case's drops
        solution.sample(301, 7)
    assert streams == [(7, KIND_INVERSE, b) for b in range(math.ceil(301 / 64))]
    assert all(isinstance(rng, np.random.Generator) for rng in handed)
    # one generator per block, handed to each of the block's attempts
    assert len({id(rng) for rng in handed}) == len(streams) <= len(handed)


def _heavy_tailed_kde_update():
    """N(0, 1) updated to f_Y = N(0, 1) under the identity, with a KDE of 200
    draws at bandwidth 0.3 as the pushforward: past the KDE's data its tail
    falls far faster than f_Y's, so the ratio grows without bound."""
    gauss = make_gaussian(GaussianParams([0.0], [[1.0]]))
    kde = fit_kde(np.random.default_rng(0).standard_normal((200, 1)), bandwidth=0.3)
    return bjw_density(gauss, linear_map(np.eye(1)), gauss, kde)


def test_heavy_tailed_ratio_raises_without_a_pass_per_doubling():
    solution = _heavy_tailed_kde_update()
    with pytest.warns(RuntimeWarning, match="doubling") as record:
        with pytest.raises(PredictabilityError, match="theta=") as error:
            bjw_rejection_sample(solution, 3, seed=1)
    needed = int(re.search(r"needs (\d+) doublings", str(error.value)).group(1))
    assert needed > solvers.REJECTION_MAX_DOUBLINGS
    assert len(record) < sum(_doublings(record)) <= solvers.REJECTION_MAX_DOUBLINGS


def test_probe_reads_the_pushforward_in_log_space():
    # log N(40; 0, 1.0001) = -800.8 underflows in pdf space, yet 40 is inside
    # the pushforward's support: the ratio, not the probe, is what fails here
    gauss = make_gaussian(GaussianParams([0.0], [[1.0]]))
    push = make_gaussian(GaussianParams([0.0], [[1.0001]]))
    f_y = make_gaussian(GaussianParams([40.0], [[1.0]]))
    y = np.array([[40.0]])
    assert push.pdf(y)[0] == 0.0 and push.log_pdf(y)[0] > -np.inf
    solution = bjw_density(gauss, linear_map(np.eye(1)), f_y, push)
    # a round scores at least PILOT_SIZE proposals, so the first one already
    # finds a ratio past every doubling the cap allows, before any warning
    with pytest.raises(PredictabilityError, match=r"theta=.*unbounded under the proposal") \
            as error:
        bjw_rejection_sample(solution, 100, seed=1)
    needed = int(re.search(r"needs (\d+) doublings", str(error.value)).group(1))
    assert needed > solvers.REJECTION_MAX_DOUBLINGS


def test_rejection_against_an_observable_without_a_sampler_raises_first(monkeypatch):
    # the support probe draws from the observable before any proposal is drawn
    initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    fmap = linear_map([[1.0, 1.0]])
    gauss = make_gaussian(GaussianParams([0.25], [[0.25]]))
    f_y = Density(1, gauss.support, gauss.log_pdf, marginal_cdfs=gauss.marginal_cdf,
                  name="unsampled")
    solution = bjw_density(initial, fmap, f_y, kde_pushforward(initial, fmap, 500, 1))

    def no_proposals(rng, n):
        raise AssertionError("proposal drawn")

    monkeypatch.setattr(initial, "sample", no_proposals)
    with pytest.raises(ValueError, match="density 'unsampled' has no sampler"):
        solution.sample(50, 1)
