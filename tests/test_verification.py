"""Verification harness: KS, energy distance, grid checks, report purity."""

import tracemalloc

import numpy as np
import pytest

from sip_lab import (
    CheckReport,
    GaussianParams,
    GridSpec,
    cov_exact,
    energy_distance_test,
    grid_compare,
    identity_map,
    ks_test_1d,
    linear_map,
    make_gaussian,
    make_uniform,
    normalization_check,
    pushforward_check,
)
from sip_lab.sampling import rng_for


class TestKsTest:
    def test_single_sample_at_median(self):
        d_stat, _ = ks_test_1d(np.array([0.5]), lambda v: np.clip(v, 0, 1))
        assert d_stat == pytest.approx(0.5, abs=1e-15)

    def test_uniform_draws_pass(self):
        rng = np.random.default_rng(90)
        draws = rng.random(10_000)
        _, p_value = ks_test_1d(draws, lambda v: np.clip(v, 0, 1))
        assert p_value > 0.01

    def test_gross_mismatch_fails(self):
        rng = np.random.default_rng(91)
        draws = rng.standard_normal(10_000)
        _, p_value = ks_test_1d(draws, lambda v: np.clip(v, 0, 1))
        assert p_value < 1e-6

    def test_non_monotone_cdf_rejected(self):
        rng = np.random.default_rng(92)
        with pytest.raises(ValueError, match="monotone"):
            ks_test_1d(rng.random(100), lambda v: np.sin(8 * v))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_test_1d(np.array([]), lambda v: v)

    def test_nan_sample_rejected(self):
        draws = np.random.default_rng(96).random(50)
        draws[[3, 17]] = np.nan
        with pytest.raises(ValueError, match="2 of the 50 samples are NaN"):
            ks_test_1d(draws, lambda v: np.clip(v, 0, 1))


class TestEnergyDistance:
    def test_same_distribution_passes(self):
        rng = np.random.default_rng(93)
        x = rng.standard_normal((600, 2))
        y = rng.standard_normal((600, 2))
        _, p_value = energy_distance_test(x, y, n_permutations=200, seed=5)
        assert p_value > 0.01

    def test_shifted_distribution_fails(self):
        rng = np.random.default_rng(94)
        x = rng.standard_normal((600, 2))
        y = rng.standard_normal((600, 2)) + 0.5
        stat, p_value = energy_distance_test(x, y, n_permutations=200, seed=5)
        assert stat > 0
        assert p_value <= 0.01

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(95)
        x = rng.standard_normal((200, 2))
        y = rng.standard_normal((200, 2))
        first = energy_distance_test(x, y, seed=9)
        second = energy_distance_test(x, y, seed=9)
        assert first == second

    def test_one_dimensional_input_is_scalar_observations(self):
        rng = np.random.default_rng(97)
        x = rng.standard_normal(300)
        y = rng.standard_normal(300) + 3.0
        stat, p_value = energy_distance_test(x, y, n_permutations=200, seed=5)
        assert p_value <= 0.01
        assert (stat, p_value) == energy_distance_test(x[:, None], y[:, None],
                                                       n_permutations=200, seed=5)

    def test_malformed_input_rejected(self):
        rng = np.random.default_rng(98)
        x = rng.standard_normal((40, 2))
        nan_row = x.copy()
        nan_row[7, 1] = np.nan
        inf_row = x.copy()
        inf_row[0, 0] = np.inf
        cases = [
            (x[None], x, "1-D or 2-D"),
            (x, np.empty((0, 2)), "y is empty"),
            (np.empty(0), x[:, :1], "x is empty"),
            (nan_row, x, "x has 1 non-finite row"),
            (x, inf_row, "y has 1 non-finite row"),
        ]
        for a, b, message in cases:
            with pytest.raises(ValueError, match=message):
                energy_distance_test(a, b)
        for n_permutations in (0, -1):
            with pytest.raises(ValueError, match="at least one permutation"):
                energy_distance_test(x, x, n_permutations=n_permutations)

    def test_memory_holds_no_pooled_distance_matrix(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal((2000, 2))
        y = rng.standard_normal((2000, 2))
        tracemalloc.start()
        try:
            energy_distance_test(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # half of one 2048 x 2048 float64 matrix
        assert peak < 16 * 2**20


class TestPushforwardCheck:
    def test_identity_map_passes(self):
        f_y = make_gaussian(GaussianParams([0.0], [[1.0]]))
        solution = cov_exact(identity_map(1), f_y)
        report = pushforward_check(solution.sample(4000, seed=1), identity_map(1),
                                   f_y, seed=1)
        assert report.passed

    def test_negative_control_variance_inflated(self):
        # a deliberately wrong solution (covariance doubled) must FAIL
        X = np.array([[1.0, -1.0], [1.0, 1.0]])
        fmap = linear_map(X)
        f_y = make_gaussian(GaussianParams([-1.0, 1.0], np.eye(2)))
        wrong = make_gaussian(GaussianParams([0.0, 1.0], 2 * 0.5 * np.eye(2)))
        report = pushforward_check(wrong.sample(rng_for(2, 0, 0), 4000), fmap, f_y,
                                   seed=2)
        assert not report.passed

    def test_intuitive_solver_against_mismatched_target_fails(self):
        # solve for one observable law, then check against a wider one
        from sip_lab import intuitive_sample

        fmap = linear_map([[1.0, 1.0]])
        f_y = make_gaussian(GaussianParams([0.0], [[2.0]]))
        f_aux = make_gaussian(GaussianParams([0.0], [[1.0]]))
        solution = intuitive_sample(fmap, f_y, f_aux)
        wrong_target = make_gaussian(GaussianParams([0.0], [[4.0]]))
        report = pushforward_check(solution.sample(4000, 22), fmap, wrong_target,
                                   seed=22)
        assert not report.passed

    def test_wrong_width_samples_rejected(self):
        f_y = make_gaussian(GaussianParams([0.0], [[1.0]]))
        with pytest.raises(ValueError, match=r"\(m, 1\)"):
            pushforward_check(np.zeros((10, 2)), identity_map(1), f_y, seed=0)

    def test_determinism_across_reruns(self):
        f_y = make_gaussian(GaussianParams([0.0, 0.5], np.eye(2)))
        fmap = identity_map(2)
        reports = []
        for _ in range(2):
            solution = cov_exact(fmap, f_y)
            reports.append(pushforward_check(solution.sample(2000, seed=3), fmap, f_y,
                                             seed=3))
        assert reports[0].statistic == reports[1].statistic


class TestGridChecks:
    def test_identical_densities_zero_difference(self):
        dens = make_uniform([0.0], [1.0])
        grid = GridSpec((0.0,), (1.0,), 64)
        values = dens.pdf(grid.points())
        report = grid_compare(values, values, grid, tol=0.0)
        assert report.passed
        assert report.statistic == 0.0

    def test_dimension_guard(self):
        dens = make_uniform([0.0] * 4, [1.0] * 4)
        grid = GridSpec((0.0,) * 4, (1.0,) * 4, 4)
        values = dens.pdf(grid.points())
        with pytest.raises(ValueError, match="3"):
            grid_compare(values, values, grid, tol=0.1)

    def test_wrong_length_values_rejected(self):
        dens = make_uniform([0.0, 0.0], [1.0, 1.0])
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), 8)
        values = dens.pdf(grid.points())
        with pytest.raises(ValueError, match="64 grid points"):
            grid_compare(values[:-1], values, grid, tol=0.1)
        with pytest.raises(ValueError, match="64 grid points"):
            grid_compare(values, np.append(values, 1.0), grid, tol=0.1)

    def test_uniform_mass_exact(self):
        report = normalization_check(make_uniform([0.0], [1.0]))
        assert report.passed
        assert report.statistic == pytest.approx(0.0, abs=1e-15)

    def test_unbounded_support_needs_box(self):
        dens = make_gaussian(GaussianParams([0.0], [[1.0]]))
        with pytest.raises(ValueError, match="unbounded"):
            normalization_check(dens)

    def test_gaussian_mass_on_effective_box(self):
        dens = make_gaussian(GaussianParams([0.0], [[1.0]]))
        report = normalization_check(dens, grid=GridSpec((-8.0,), (8.0,), 512))
        assert report.passed, report.details

    def test_grid_integrate_known_product(self):
        # oracle: integral of x*y over the unit square is 1/4
        grid = GridSpec((0.0, 0.0), (1.0, 1.0), 129)
        pts = grid.points()
        assert grid.integrate(pts[:, 0] * pts[:, 1]) == pytest.approx(0.25, abs=1e-4)

    def test_grid_points_cover_box_corners(self):
        grid = GridSpec((-1.0, 0.0), (1.0, 2.0), 5)
        pts = grid.points()
        assert pts.shape == (25, 2)
        assert pts.min(axis=0).tolist() == [-1.0, 0.0]
        assert pts.max(axis=0).tolist() == [1.0, 2.0]


class TestCheckReport:
    def test_pass_flag_pure_function_of_fields(self):
        assert CheckReport("x", statistic=0.5, threshold=1.0, comparison="le").passed
        assert not CheckReport("x", statistic=1.5, threshold=1.0, comparison="le").passed
        assert CheckReport("x", statistic=0.05, threshold=0.01, comparison="ge").passed
        assert not CheckReport("x", statistic=0.005, threshold=0.01,
                               comparison="ge").passed

    def test_boundary_counts_as_within(self):
        assert CheckReport("x", statistic=1.0, threshold=1.0, comparison="le").passed
        assert CheckReport("x", statistic=1.0, threshold=1.0, comparison="ge").passed

    def test_bad_comparison_rejected(self):
        with pytest.raises(ValueError):
            CheckReport("x", statistic=0.0, threshold=0.0, comparison="eq")

    def test_to_dict_roundtrip(self):
        report = CheckReport("demo", statistic=0.2, threshold=0.5,
                             comparison="le", details="note")
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["name"] == "demo"
