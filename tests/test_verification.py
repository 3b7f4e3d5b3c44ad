"""Verification harness: KS, energy distance, grid checks, report purity."""

import tracemalloc

import numpy as np
import pytest

from sip_lab import (
    CheckReport,
    Density,
    GaussianParams,
    GridSpec,
    cov_exact,
    energy_distance_test,
    grid_compare,
    ks_test_1d,
    linear_map,
    make_gaussian,
    make_uniform,
    normalization_check,
    pushforward_check,
)
from sip_lab.sampling import KIND_PERMUTATION, rng_for


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


def _record_tables(monkeypatch):
    """The groupings of every ``energy_stats`` call, in call order."""
    from sip_lab import _kernels
    tables = []
    real = _kernels.energy_stats

    def recording(points, groupings, n1):
        tables.append(groupings)
        return real(points, groupings, n1)

    monkeypatch.setattr(_kernels, "energy_stats", recording)
    return tables


def _full_table(n, seed, n_permutations=200):
    """The identity and all of a test's permutations, from its one stream."""
    rng = rng_for(seed, KIND_PERMUTATION, 0)
    rows = [np.arange(n)] + [rng.permutation(n) for _ in range(n_permutations)]
    return np.vstack(rows).astype(np.int32)


class TestEnergyDistance:
    def test_unequal_widths_rejected(self):
        with pytest.raises(ValueError, match="x has 2 columns but y has 3"):
            energy_distance_test(np.zeros((10, 2)), np.zeros((10, 3)), seed=0)

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

    def test_translation_moves_no_statistic_or_p_value(self):
        # the statistic does not change under translation, but the norm
        # expansion of the distances loses digits away from the origin
        # unless the points are centred: uncentred, this p-value read 0.125
        # instead of 0.00995 at an offset of 1e8
        from sip_lab import _kernels
        rng = np.random.default_rng(1)
        x = rng.standard_normal((300, 2))
        y = rng.standard_normal((300, 2)) + [0.2, 0.0]
        pooled, table = np.vstack([x, y]), _full_table(600, 1)
        stats = _kernels.energy_stats(pooled, table, 300)
        for offset in (1e4, 1e6):
            np.testing.assert_allclose(_kernels.energy_stats(pooled + offset, table, 300),
                                       stats, rtol=1e-9, atol=0)
        assert energy_distance_test(x + 1e8, y + 1e8, seed=1)[1] \
            == energy_distance_test(x, y, seed=1)[1]

    def test_one_dimensional_input_is_scalar_observations(self):
        rng = np.random.default_rng(97)
        x = rng.standard_normal(300)
        y = rng.standard_normal(300) + 3.0
        stat, p_value = energy_distance_test(x, y, n_permutations=200, seed=5)
        assert p_value <= 0.01
        assert (stat, p_value) == energy_distance_test(x[:, None], y[:, None],
                                                       n_permutations=200, seed=5)

    def test_permutation_table_is_int32(self, monkeypatch):
        # half the bytes of int64; a test that the first batch decides
        # builds only its 25 groupings
        tables = _record_tables(monkeypatch)
        rng = np.random.default_rng(99)
        energy_distance_test(rng.standard_normal((1024, 2)), rng.standard_normal((1024, 2)))
        (table,) = tables
        assert table.dtype == np.int32 and table.shape == (25, 2048)
        assert table.nbytes == 204_800

    def test_work_is_one_batch_when_decided_two_when_not(self, monkeypatch):
        tables = _record_tables(monkeypatch)
        rng = np.random.default_rng(100)
        x, y = rng.standard_normal((300, 1)), rng.standard_normal((300, 1))
        _, p_same = energy_distance_test(x, y, seed=4)
        assert [t.shape for t in tables] == [(25, 600)] and p_same >= 2 / 24
        tables.clear()
        _, p_shifted = energy_distance_test(x, y + 1.0, seed=4)
        assert [t.shape for t in tables] == [(25, 600), (177, 600)]
        assert p_shifted == 1 / 201
        # the second batch continues the first one's stream: its table
        # holds permutations 24..199 of the full test's
        assert np.array_equal(tables[1][1:], _full_table(600, 4)[25:])
        # later batches end at multiples of 200
        tables.clear()
        _, p_shifted = energy_distance_test(x, y + 1.0, n_permutations=600, seed=4)
        assert [t.shape for t in tables] == [(25, 600), (177, 600), (201, 600), (201, 600)]
        assert p_shifted == 1 / 601
        assert np.array_equal(tables[3][1:], _full_table(600, 4, 600)[401:])

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_batch_split_changes_no_p_value(self, monkeypatch, shift):
        # a stopped test (shift 0) and a test that runs all 600 permutations
        # score the same leading permutations of the one stream, whatever
        # the split
        from sip_lab import verification
        tables = _record_tables(monkeypatch)
        rng = np.random.default_rng(100)
        x, y = rng.standard_normal((300, 1)), rng.standard_normal((300, 1)) + shift
        full = _full_table(600, 4, 600)
        results = []
        for first, batch in [(24, 200), (7, 50), (600, 600)]:
            monkeypatch.setattr(verification, "ENERGY_FIRST_BATCH", first)
            monkeypatch.setattr(verification, "ENERGY_BATCH", batch)
            tables.clear()
            results.append(energy_distance_test(x, y, n_permutations=600, seed=4))
            scored = np.vstack([t[1:] for t in tables])
            assert all(np.array_equal(t[0], full[0]) for t in tables)
            assert np.array_equal(scored, full[1:1 + len(scored)])
        assert results[0] == results[1] == results[2]
        assert len(scored) == 600 and (results[0][1] == 1 / 601) == bool(shift)

    def test_one_generator_per_test(self, monkeypatch):
        # a test of 600 permutations in four batches seeds one stream, and
        # seeds it without the block seeder of the row solvers
        from sip_lab import sampling, verification
        rng = np.random.default_rng(100)
        x, y = rng.standard_normal((300, 1)), rng.standard_normal((300, 1)) + 1.0
        seeded, built = [], []
        real_rng_for, real_generator = verification.rng_for, np.random.Generator

        def recording_rng_for(*args):
            seeded.append(args)
            return real_rng_for(*args)

        def counted_generator(*args, **kwargs):
            built.append(args)
            return real_generator(*args, **kwargs)

        def no_streams(*args):
            raise AssertionError("rng_streams called")

        monkeypatch.setattr(verification, "rng_for", recording_rng_for)
        monkeypatch.setattr(np.random, "Generator", counted_generator)
        monkeypatch.setattr(sampling, "rng_streams", no_streams)
        tables = _record_tables(monkeypatch)
        energy_distance_test(x, y, n_permutations=600, seed=4)
        assert len(tables) == 4
        assert seeded == [(4, KIND_PERMUTATION, 0)] and len(built) == 1

    def test_verdict_at_001_is_the_full_tests(self):
        # N(0, 1) against N(delta, 1) at 300 + 300 rows, 60 instances whose
        # full 200-permutation p-values straddle 0.01
        from sip_lab import _kernels
        verdicts, stops = [], []
        for delta in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35):
            for seed in range(10):
                rng = np.random.default_rng([seed, round(delta * 100)])
                x, y = rng.standard_normal(300), rng.standard_normal(300) + delta
                pooled = np.concatenate([x, y])[:, None]
                stats = _kernels.energy_stats(pooled, _full_table(600, seed), 300)
                hits = np.flatnonzero(stats[1:] >= stats[0])
                reference = (1 + hits.size) / 201
                _, p_value = energy_distance_test(x, y, seed=seed)
                assert (p_value >= 0.01) == (reference >= 0.01)
                if hits.size >= 2:  # stopped at the second hit, permutation L
                    assert p_value == 2 / (hits[1] + 1)
                    stops.append(hits[1] + 1 <= 24)
                else:
                    assert p_value == reference
                verdicts.append(reference >= 0.01)
        assert 15 <= sum(verdicts) <= 45 and 10 <= sum(stops) < len(stops)

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
        solution = cov_exact(linear_map(np.eye(1)), f_y)
        report = pushforward_check(solution.sample(4000, seed=1), linear_map(np.eye(1)),
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

    # the energy p-values are (1 + g) / 601, as its 3 x 200 permutations give
    @pytest.mark.parametrize("ks, reached, statistic", [
        ((0.004, 0.5), 50, 0.012),  # raw min below 0.01, Holm-adjusted above it
        ((0.5, 0.2), 0, 3 / 601),  # no permutation reaches the observed statistic
        ((0.5, 0.2), 1, 6 / 601),  # one does: fails at 0.01 / 3, as at 0.01 alone
        ((0.5, 0.2), 2, 9 / 601),  # two do
        ((0.9, 0.6), 600, 1.0),  # k p_min is capped at 1
    ])
    def test_statistic_is_holms_adjusted_smallest_p(self, monkeypatch, ks, reached, statistic):
        from sip_lab import verification
        f_y = make_gaussian(GaussianParams([0.0, 0.5], np.eye(2)))
        fmap = linear_map(np.eye(2))
        samples = cov_exact(fmap, f_y).sample(300, seed=3)
        raw = iter(ks)
        caps = []

        def energy(x, y, n_permutations, seed):
            caps.append(n_permutations)
            return 0.0, (1 + reached) / (n_permutations + 1)

        monkeypatch.setattr(verification, "ks_test_1d", lambda *args: (0.0, next(raw)))
        monkeypatch.setattr(verification, "energy_distance_test", energy)
        report = pushforward_check(samples, fmap, f_y, seed=3)
        assert caps == [600]
        assert report.statistic == pytest.approx(statistic, rel=1e-12)
        assert report.passed == (statistic >= 0.01)
        energy_p = (1 + reached) / 601
        assert report.details == f"ks[0]={ks[0]:.4g}, ks[1]={ks[1]:.4g}, energy={energy_p:.4g}"

    def test_wrong_dependence_fails_by_the_energy_test_alone(self):
        # correct N(0, 1) marginals, correlation 0 where the observable's is
        # 0.5: every KS test passes even unadjusted, and the energy test, the
        # only one that sees the joint law, fails the check
        fmap = linear_map(np.eye(2))
        f_y = make_gaussian(GaussianParams([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]]))
        wrong = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
        samples = wrong.sample(rng_for(4, 0, 0), 2000)
        for j in range(2):
            assert ks_test_1d(samples[:, j], lambda v, j=j: f_y.marginal_cdf(j, v))[1] >= 0.01
        report = pushforward_check(samples, fmap, f_y, seed=4)
        assert not report.passed
        assert report.details.endswith("energy=0.003328")  # 2 / 601, Holm 0.00998

    @pytest.mark.parametrize("q, lacking", [(1, "marginal_cdfs"), (2, "sample_fn")])
    def test_observable_without_cdfs_or_sampler_raises(self, q, lacking):
        # a q >= 2 check draws from the observable for its energy test
        gauss = make_gaussian(GaussianParams(np.zeros(q), np.eye(q)))
        kept = {"sample_fn": gauss.sample, "marginal_cdfs": gauss.marginal_cdf}
        del kept[lacking]
        f_y = Density(q, gauss.support, gauss.log_pdf, name="partial", **kept)
        samples = gauss.sample(rng_for(5, 0, 0), 200)
        with pytest.raises(ValueError, match="density 'partial' has no"):
            pushforward_check(samples, linear_map(np.eye(q)), f_y, seed=5)

    @pytest.mark.parametrize("f_y", [make_gaussian(GaussianParams([0.0], [[1.0]])),
                                     make_uniform([0.0], [1.0]),
                                     make_gaussian(GaussianParams(np.zeros(3), np.eye(3)))],
                             ids=["gaussian_1d", "uniform_1d", "gaussian_3d"])
    def test_observable_of_another_dimension_rejected(self, f_y):
        with pytest.raises(ValueError, match=f"dimension {f_y.dim}, expected q = 2"):
            pushforward_check(np.zeros((10, 2)), linear_map(np.eye(2)), f_y, seed=0)

    def test_wrong_width_samples_rejected(self):
        f_y = make_gaussian(GaussianParams([0.0], [[1.0]]))
        with pytest.raises(ValueError, match=r"\(m, 1\)"):
            pushforward_check(np.zeros((10, 2)), linear_map(np.eye(1)), f_y, seed=0)

    def test_determinism_across_reruns(self):
        f_y = make_gaussian(GaussianParams([0.0, 0.5], np.eye(2)))
        fmap = linear_map(np.eye(2))
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

    @pytest.mark.parametrize("lower, upper", [((1.0,), (0.0,)), ((0.0, 1.0), (1.0, 1.0))],
                             ids=["reversed", "empty"])
    def test_reversed_or_empty_box_rejected(self, lower, upper):
        # a reversed box integrated ones to -1, an empty one to 0
        with pytest.raises(ValueError, match="empty or reversed grid box"):
            GridSpec(lower, upper, 5)

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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_grid_points_equal_raveled_mesh(self, dim):
        grid = GridSpec(tuple(range(dim)), tuple(range(1, 2 * dim + 1, 2)), 7)
        mesh = np.meshgrid(*grid.axes(), indexing="ij")
        assert np.array_equal(grid.points(), np.stack([m.ravel() for m in mesh], axis=-1))

    def test_normalization_check_memory_stays_block_sized(self):
        """bbe-polar's density on a 512 x 512 grid of its square: the points
        take 4.2 MB; whole-array evaluation and per-axis meshes peaked at 27.8 MB."""
        from sip_lab import bbe_polar, make_beta

        density = bbe_polar(make_beta(8.0, 12.0)).density
        tracemalloc.start()
        try:
            report = normalization_check(density, GridSpec((0.0, 0.0), (1.0, 1.0), 512))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed and peak <= 8e6


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
