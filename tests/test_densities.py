"""Density families: frozen oracle values, invariants, and error paths."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from sip_lab import _kernels
from sip_lab import (
    DomainError,
    GaussianParams,
    MixtureWeights,
    NotPositiveDefiniteError,
    draw,
    fit_kde,
    make_beta,
    make_gaussian,
    make_truncated_gaussian,
    make_uniform,
)
from sip_lab.densities import Density, Support, scott_bandwidth
from sip_lab.verification import ks_test_1d

from conftest import random_spd

RNG = lambda s: np.random.default_rng(s)


def _assert_rounds_alike(dens, pts):
    batch = dens.log_pdf(pts)
    assert all(dens.log_pdf(pts[i]) == batch[i] for i in range(len(pts)))


class TestGaussian:
    def test_standard_normal_mode(self):
        dens = make_gaussian(GaussianParams([0.0], [[1.0]]))
        assert dens.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_mvn_value_at_mean(self):
        # hand oracle: (2 pi)^(-d/2) det(Sigma)^(-1/2) at the mean
        dens = make_gaussian(GaussianParams([0.0, 1.0], 0.5 * np.eye(2)))
        expected = (2 * math.pi) ** -1 * np.linalg.det(0.5 * np.eye(2)) ** -0.5
        assert expected == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert dens.pdf([0.0, 1.0]) == pytest.approx(expected, rel=1e-12)

    def test_indefinite_covariance_names_eigenvalue(self):
        with pytest.raises(NotPositiveDefiniteError, match="-1"):
            make_gaussian(GaussianParams([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianParams([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_log_pdf_matches_pdf(self):
        dens = make_gaussian(GaussianParams([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]]))
        pts = RNG(0).normal(size=(200, 2)) * 3
        np.testing.assert_allclose(np.exp(dens.log_pdf(pts)), dens.pdf(pts), rtol=1e-12)

    def test_point_rounds_alike_alone_and_in_a_batch(self):
        # forward substitution one product at a time and squares summed in
        # coordinate order: a batch does not change a point's rounding
        dens = make_gaussian(GaussianParams([0.5, -1.0], [[1.0, 0.4], [0.4, 2.0]]))
        _assert_rounds_alike(dens, RNG(0).standard_normal((1000, 2)))

    @pytest.mark.parametrize("d", [3, 5, 8, 11])
    def test_point_rounds_alike_alone_and_in_a_batch_above_two_dims(self, d):
        # more than one product per coordinate, and from d = 8 more squares
        # than a pairwise sum adds one by one
        rng = RNG(d)
        dens = make_gaussian(GaussianParams(rng.normal(size=d), random_spd(rng, d)))
        _assert_rounds_alike(dens, RNG(0).standard_normal((1000, d)))

    def test_ill_conditioned_log_pdf_far_in_the_tails(self):
        from scipy.stats import multivariate_normal

        rho = 0.999999
        mean, cov = np.array([0.3, -2.0]), np.array([[1.0, 0.5 * rho], [0.5 * rho, 0.25]])
        dens = make_gaussian(GaussianParams(mean, cov))
        # points 0 to 30 standard deviations out, along every whitened direction
        u = RNG(5).standard_normal((2000, 2))
        u *= (np.linspace(0.0, 30.0, 2000) / np.linalg.norm(u, axis=1))[:, None]
        pts = mean + u @ np.linalg.cholesky(cov).T
        # atol for the log density's zero crossing, near 3 standard deviations
        np.testing.assert_allclose(dens.log_pdf(pts),
                                   multivariate_normal(mean, cov).logpdf(pts),
                                   rtol=1e-10, atol=1e-10)


NAN = float("nan")


@pytest.mark.parametrize("make, error", [
    (lambda: make_truncated_gaussian(NAN, 1.0, 0.0, 1.0), DomainError),
    (lambda: make_truncated_gaussian(0.0, NAN, 0.0, 1.0), DomainError),
    (lambda: make_truncated_gaussian(0.0, 1.0, NAN, 1.0), DomainError),
    (lambda: make_truncated_gaussian(0.0, 1.0, 0.0, NAN), DomainError),
    (lambda: make_beta(NAN, 2.0), DomainError),
    (lambda: make_beta(2.0, math.inf), DomainError),
    (lambda: GaussianParams([NAN], [[1.0]]), ValueError),
    (lambda: GaussianParams([0.0], [[NAN]]), ValueError),
    (lambda: Support([NAN], [1.0]), DomainError),
    (lambda: fit_kde([[0.0], [1.0], [NAN]], bandwidth=0.5), ValueError),
], ids=["trunc_mu", "trunc_sigma", "trunc_lo", "trunc_hi", "beta_a", "beta_b_inf",
        "gauss_mean", "gauss_cov", "support", "kde"])
def test_non_finite_parameters_raise_at_construction(make, error):
    with pytest.raises(error):
        make()


class TestTruncatedGaussian:
    def test_unit_mass(self):
        dens = make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)
        mass, _ = quad(lambda x: dens.pdf(x), 0.0, 1.0, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_no_truncation_matches_gaussian(self):
        trunc = make_truncated_gaussian(0.0, 1.0, -np.inf, np.inf)
        full = make_gaussian(GaussianParams([0.0], [[1.0]]))
        assert trunc.pdf(0.0) == pytest.approx(full.pdf(0.0), rel=1e-14)

    def test_center_value_against_error_function(self):
        # oracle: phi(0) / (sigma * (Phi(2) - Phi(-2))), with Phi(2)-Phi(-2) = erf(sqrt(2))
        dens = make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)
        expected = (1.0 / math.sqrt(2 * math.pi)) / (0.25 * math.erf(math.sqrt(2.0)))
        assert dens.pdf(0.5) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mu, sigma, lo, hi", [(0.0, 1.0, -1e-9, 1e-9),
                                                   (2.0, 3.0, 2.0 - 1e-8, 2.0 + 3e-8),
                                                   (0.0, 1.0, 1e-10, 3e-10),
                                                   (0.0, 1.0, -0.6, 0.3)])
    def test_narrow_interval_around_the_mean_against_mpmath(self, mu, sigma, lo, hi):
        # Phi(beta) - Phi(alpha) from two CDFs near 1/2 loses 7e-8 of the mass
        # on (-1e-9, 1e-9); scipy's truncnorm loses as much there (1.5e-9 in
        # log density, 1.4e-7 in CDF), so the oracle is mpmath at 40 digits
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        dens = make_truncated_gaussian(mu, sigma, lo, hi)
        x = np.linspace(lo, hi, 9)[1:-1]
        z = [(mpmath.mpf(float(v)) - mu) / sigma for v in x]
        a, b = (mpmath.mpf(lo) - mu) / sigma, (mpmath.mpf(hi) - mu) / sigma
        mass = mpmath.ncdf(b) - mpmath.ncdf(a)
        log_pdf = np.array([float(-v * v / 2 - mpmath.log(2 * mpmath.pi) / 2
                                  - mpmath.log(sigma) - mpmath.log(mass)) for v in z])
        cdf = np.array([float((mpmath.ncdf(v) - mpmath.ncdf(a)) / mass) for v in z])
        np.testing.assert_allclose(dens.log_pdf(x[:, None]), log_pdf, rtol=1e-12, atol=0)
        np.testing.assert_allclose(dens.marginal_cdf(0, x), cdf, rtol=1e-12, atol=0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            make_truncated_gaussian(0.0, 1.0, 1.0, 1.0)

    def test_zero_outside_interval(self):
        dens = make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)
        assert dens.pdf(-0.2) == 0.0
        assert dens.log_pdf(1.3) == -np.inf

    @pytest.mark.parametrize("lo,hi", [(10.0, 11.0), (7.0, 8.0), (0.5, 3.0)])
    def test_upper_tail_mirrors_lower_tail(self, lo, hi):
        # above the mean ndtr rounds to 1 (ndtr(10) == 1.0), so the interval
        # is handled as the mirror of (-hi, -lo)
        upper = make_truncated_gaussian(0.0, 1.0, lo, hi)
        lower = make_truncated_gaussian(0.0, 1.0, -hi, -lo)
        x = np.linspace(lo, hi, 101)[1:-1]
        np.testing.assert_allclose(upper.marginal_cdf(0, x),
                                   1.0 - lower.marginal_cdf(0, -x), rtol=1e-12)
        np.testing.assert_allclose(upper.pdf(x), lower.pdf(-x), rtol=1e-12)
        draws = upper.sample(np.random.default_rng(4), 500)
        np.testing.assert_allclose(draws, -lower.sample(np.random.default_rng(4), 500),
                                   rtol=1e-12)
        assert np.all((draws > lo) & (draws < hi))


def test_log_pdf_passes_in_support_points_without_copying():
    seen = []

    def log_pdf_fn(pts):
        seen.append(pts)
        return np.zeros(pts.shape[0])

    dens = Density(2, Support([0.0, 0.0], [1.0, 1.0]), log_pdf_fn)
    inside = np.full((4, 2), 0.5)
    np.testing.assert_array_equal(dens.log_pdf(inside), np.zeros(4))
    assert seen[-1] is inside
    mixed = np.array([[0.5, 0.5], [2.0, 0.5]])
    np.testing.assert_array_equal(dens.pdf(mixed), [1.0, 0.0])
    np.testing.assert_array_equal(seen[-1], mixed[:1])
    assert dens.log_pdf(np.array([[3.0, 3.0]]))[0] == -np.inf and len(seen) == 2


@pytest.mark.parametrize("d", [0, 1, 2, 11])
def test_support_contains_matches_the_row_reduction(d):
    rng = RNG(d)
    lower = rng.uniform(-2.0, 0.0, size=d)
    upper = lower + rng.uniform(0.5, 2.0, size=d)
    if d:
        lower[0], upper[-1] = -np.inf, np.inf
    support = Support(lower, upper)
    pts = rng.uniform(-3.0, 3.0, size=(400, d))
    # boundary points, NaN and +-inf, one coordinate at a time
    specials = np.concatenate([lower, upper, [np.nan, np.inf, -np.inf]])
    for row in range(0, 400, 3):
        if d:
            pts[row, rng.integers(d)] = rng.choice(specials)
    pts[::50] = 0.5 * (np.maximum(lower, -3.0) + np.minimum(upper, 3.0))
    expected = np.all((pts >= support.lower) & (pts <= support.upper), axis=1)
    assert np.array_equal(support.contains(pts), expected)


class TestBeta:
    def test_uniform_case(self):
        dens = make_beta(1.0, 1.0)
        pts = np.linspace(0.01, 0.99, 23)
        np.testing.assert_allclose(dens.pdf(pts), 1.0, rtol=1e-12)

    def test_mode_by_numeric_maximization(self):
        # oracle: maximize the log-density numerically; compare to (a-1)/(a+b-2)
        dens = make_beta(8.0, 12.0)
        res = minimize_scalar(lambda x: -dens.log_pdf(x), bounds=(1e-6, 1 - 1e-6),
                              method="bounded", options={"xatol": 1e-12})
        assert res.x == pytest.approx(7.0 / 18.0, abs=1e-8)

    def test_unit_mass(self):
        dens = make_beta(8.0, 12.0)
        mass, _ = quad(lambda x: dens.pdf(x), 0.0, 1.0, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ValueError):
            make_beta(0.0, 2.0)
        with pytest.raises(ValueError):
            make_beta(2.0, -1.0)


class TestMixture:
    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            MixtureWeights([0.5, 0.6])
        with pytest.raises(ValueError, match="finite"):
            MixtureWeights([np.nan, 1.0])

    def test_gap_between_components_has_no_mass(self):
        # 1.5 lies inside the mixture's support box but off both components
        mix = _two_piece_mixture()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mix.pdf(1.5) == 0.0
            assert mix.log_pdf(1.5) == -np.inf
            values = mix.pdf([0.5, 1.5, 2.5])
            assert values[1] == 0.0
            np.testing.assert_allclose(values[[0, 2]], [0.3, 0.7], rtol=1e-14)
            np.testing.assert_array_equal(mix.log_pdf([1.2, 1.5]), [-np.inf, -np.inf])


class TestKde:
    def test_mass_on_box(self):
        data = RNG(5).standard_normal((10_000, 1))
        dens = fit_kde(data)
        xs = np.linspace(-5.0, 5.0, 2001)
        mass = np.trapezoid(dens.pdf(xs), xs)
        assert mass == pytest.approx(1.0, abs=0.01)

    def test_value_at_origin(self):
        data = RNG(5).standard_normal((10_000, 1))
        dens = fit_kde(data)
        assert dens.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=0.05)

    def test_mass_on_five_bandwidth_box(self):
        data = RNG(9).standard_normal((4000, 2))
        dens = fit_kde(data)
        h = scott_bandwidth(data)
        lo = data.min(axis=0) - 5 * h
        hi = data.max(axis=0) + 5 * h
        axes = [np.linspace(lo[j], hi[j], 201) for j in range(2)]
        mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        vals = dens.pdf(mesh).reshape(201, 201)
        mass = np.trapezoid(np.trapezoid(vals, axes[1], axis=1), axes[0])
        assert mass == pytest.approx(1.0, abs=1e-2)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="2 samples"):
            fit_kde(np.array([[0.5]]))

    def test_degenerate_spread_advises_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            fit_kde(np.zeros((50, 1)))

    def test_short_bandwidth_rejected_at_fit(self):
        # one bandwidth for 2-D data used to normalize by log h of one
        # coordinate: log density -3.140 at the origin instead of -1.936
        data = RNG(0).standard_normal((500, 2))
        with pytest.raises(ValueError, match=r"length 1; the data have d = 2"):
            fit_kde(data, bandwidth=[0.3])
        assert fit_kde(data, bandwidth=[0.3, 0.3]).log_pdf([0.0, 0.0]) \
            == pytest.approx(-1.936, abs=5e-4)

    def test_long_bandwidth_rejected_at_fit(self):
        # used to fail on the first evaluation, inside the table build
        with pytest.raises(ValueError, match=r"length 2; the data have d = 1"):
            fit_kde(RNG(0).standard_normal(500), bandwidth=[0.3, 0.3])

    @pytest.mark.parametrize("bandwidth", [[-0.3], [0.0], [np.inf], [np.nan]])
    def test_nonpositive_bandwidth_named(self, bandwidth):
        # an explicit bandwidth is not the sample covariance: name its value
        with pytest.raises(ValueError, match=r"positive and finite, got \[") as err:
            fit_kde(RNG(0).standard_normal(500), bandwidth=bandwidth)
        assert "degenerate" not in str(err.value)

    def test_one_dimensional_kde_reads_its_table(self):
        data = RNG(2000).standard_normal((2000, 1))
        dens = fit_kde(data)
        assert dens.tabulated and dens.table.nodes <= _kernels.KDE_TABLE_MAX_NODES
        h = dens.bandwidth[0]
        x = np.linspace(data.min() - 8 * h, data.max() + 8 * h, 5001)
        exact = _kernels.kde_log_pdf(x[:, None], data, dens.bandwidth)
        np.testing.assert_allclose(dens.log_pdf(x), exact, rtol=0, atol=1e-7)
        assert not np.array_equal(dens.log_pdf(x), exact)

    @pytest.mark.parametrize("case", ["two_dims", "past_node_cap", "inaccurate_table"])
    def test_kde_left_exact(self, case):
        data, bandwidth = {
            "two_dims": (RNG(3).standard_normal((500, 2)), None),
            # an outlier 200 bandwidths out: (200 + 16) * 32 + 1 nodes > 4097
            "past_node_cap": (np.append(RNG(4).standard_normal(300), 200.0)[:, None], [1.0]),
            # two clusters 100 bandwidths apart: the log density turns from one
            # parabola to the other within h / 100, finer than the nodes
            "inaccurate_table": (np.array([[0.0], [0.3], [100.0], [100.2]]), [1.0]),
        }[case]
        dens = fit_kde(data, bandwidth=bandwidth)
        x = RNG(5).uniform(-10.0, 110.0, size=(2000, dens.dim))
        assert np.array_equal(dens.log_pdf(x),
                              _kernels.kde_log_pdf(x, dens.data, dens.bandwidth))
        assert not dens.tabulated
        if case == "inaccurate_table":
            assert dens.table.error > _kernels.KDE_TABLE_TOL
        else:
            assert dens.table is None

    def test_table_is_built_once_on_first_evaluation(self, monkeypatch):
        builds = []
        real = _kernels.kde_table

        def counting(data, bandwidth):
            builds.append(len(data))
            return real(data, bandwidth)

        monkeypatch.setattr(_kernels, "kde_table", counting)
        dens = fit_kde(RNG(6).standard_normal((800, 1)))
        draw(dens, 100, seed=1)
        assert builds == []          # fitting and sampling evaluate nothing
        first = dens.log_pdf(np.linspace(-3.0, 3.0, 50))
        for _ in range(3):
            dens.pdf(0.25)
            assert np.array_equal(dens.log_pdf(np.linspace(-3.0, 3.0, 50)), first)
        assert builds == [800]

    def test_scott_rule(self):
        data = RNG(2).standard_normal((500, 3)) * np.array([1.0, 2.0, 0.5])
        h = scott_bandwidth(data)
        expected = data.std(axis=0, ddof=1) * 500 ** (-1.0 / 7.0)
        np.testing.assert_allclose(h, expected, rtol=1e-14)


def _two_piece_mixture():
    """0.3 U(0, 1) + 0.7 U(2, 3), written out: a density that is zero on part
    of its support box, built by the caller from ``Density`` itself."""
    weights = np.array([0.3, 0.7])

    def log_pdf_fn(pts):
        x = pts[:, 0]
        with np.errstate(divide="ignore"):
            return np.log(np.where(x <= 1.0, 0.3, np.where(x >= 2.0, 0.7, 0.0)))

    def sample_fn(rng, n):
        piece = rng.random(n) >= weights[0]
        return (2.0 * piece + rng.random(n))[:, None]

    def marginal_cdfs(j, x):
        return weights[0] * np.clip(x, 0.0, 1.0) + weights[1] * np.clip(x - 2.0, 0.0, 1.0)

    return Density(1, Support([0.0], [3.0]), log_pdf_fn, sample_fn=sample_fn,
                   marginal_cdfs=marginal_cdfs, name="mixture")


def _family_cases():
    gauss2 = make_gaussian(GaussianParams([0.5, -1.0], [[1.0, 0.4], [0.4, 2.0]]))
    mix = _two_piece_mixture()
    kde = fit_kde(np.random.default_rng(17).standard_normal((2000, 1)))
    return [
        ("gaussian2d", gauss2),
        ("truncnorm", make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)),
        ("beta", make_beta(8.0, 12.0)),
        ("uniform", make_uniform([-1.0, 2.0], [1.0, 5.0])),
        ("mixture", mix),
        ("kde", kde),
    ]


@pytest.mark.parametrize("name,dens", _family_cases())
def test_sampler_matches_cdf_per_marginal(name, dens):
    """Seed-fixed KS check of every family's sampler against its own CDF."""
    samples = draw(dens, 10_000, seed=101)
    for j in range(dens.dim):
        _, p_value = ks_test_1d(samples[:, j], lambda v, j=j: dens.marginal_cdf(j, v))
        assert p_value >= 0.01, f"{name} marginal {j}: p={p_value}"


@pytest.mark.parametrize("name,dens", _family_cases())
def test_samples_lie_in_support(name, dens):
    samples = draw(dens, 5000, seed=7)
    assert dens.support.contains(samples).all()


@pytest.mark.parametrize("name,dens", _family_cases())
def test_exp_log_pdf_identity(name, dens):
    samples = draw(dens, 500, seed=3)
    pdf_vals = dens.pdf(samples)
    log_vals = dens.log_pdf(samples)
    pos = pdf_vals > 0
    np.testing.assert_allclose(np.exp(log_vals[pos]), pdf_vals[pos], rtol=1e-12)


def _solution_densities():
    from sip_lab import (bbe_polar, bjw_density, cov_mixture_family, linear_map,
                         pushforward_density, square_map)
    from sip_lab.cli import two_to_one_partition

    initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    fmap = linear_map([[1.0, 1.0]])
    f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
    return [
        ("bbe_polar", bbe_polar(make_beta(8.0, 12.0)).density),
        ("cov_mixture", cov_mixture_family(square_map(-1.0, 1.0), make_uniform([0.0], [1.0]),
                                           two_to_one_partition(),
                                           np.array([0.3, 0.7])).density),
        ("ratio_form", bjw_density(initial, fmap, f_y,
                                   pushforward_density(initial, fmap)).density),
    ]


def _blocked_cases():
    rng = np.random.default_rng(23)
    cases = [(f"gaussian{d}d", make_gaussian(GaussianParams(rng.normal(size=d),
                                                            random_spd(rng, d))))
             for d in (1, 2, 11)]
    kde1 = fit_kde(rng.standard_normal((500, 1)))
    assert kde1.tabulated
    cases += [
        ("truncnorm", make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)),
        ("beta", make_beta(8.0, 12.0)),
        ("uniform", make_uniform([-1.0, 2.0], [1.0, 5.0])),
        ("kde1d_table", kde1),
        ("kde2d_exact", fit_kde(rng.standard_normal((40, 2)))),
    ]
    return cases + _solution_densities()


def _unblocked_log_pdf(dens, pts):
    """Reference: one ``_log_pdf_fn`` pass over every in-support point."""
    mask = dens.support.contains(pts)
    out = np.full(pts.shape[0], -np.inf)
    if mask.any():
        out[mask] = dens._log_pdf_fn(pts[mask])
    return out


@pytest.mark.parametrize("name,dens", _blocked_cases())
def test_blocked_log_pdf_equals_unblocked(name, dens):
    block = _kernels.POINT_BLOCK
    rng = np.random.default_rng(29)
    bounded = np.isfinite(dens.support.lower)
    lo = np.where(bounded, dens.support.lower, -3.0)
    width = np.where(np.isfinite(dens.support.upper), dens.support.upper, 3.0) - lo
    for n in (0, block - 1, block, block + 1, 2 * block + 1, 3 * block + 17):
        # n points in the support; on an unbounded one some are +-inf
        inside = lo + width * rng.random((n, dens.dim))
        if not bounded.any():
            inside[7::997, 0] = np.inf
            inside[11::997, -1] = -np.inf
        # and the same points among others that are not: NaN, beyond the box
        # and, where it is bounded, +-inf
        others = lo - 0.1 * width + 1.2 * width * rng.random((n // 8, dens.dim))
        others[::2] = np.nan if not bounded.any() else np.where(bounded, np.inf, 0.0)
        others[1::4] = np.where(bounded, -np.inf, np.nan)
        others = others[~dens.support.contains(others)]
        mixed = np.insert(inside, rng.integers(0, n + 1, size=len(others)), others, axis=0)
        assert dens.support.contains(mixed).sum() == n
        for pts in (inside, mixed):
            expected = _unblocked_log_pdf(dens, pts)
            got, pdf = dens.log_pdf(pts), dens.pdf(pts)
            assert got.shape == (len(pts),)
            assert np.array_equal(got, expected, equal_nan=True), (name, n)
            assert np.array_equal(pdf, np.exp(expected), equal_nan=True), (name, n)


def test_blocked_log_pdf_is_one_call(monkeypatch):
    """perfbench counts calls of ``Density.log_pdf``: a call over three blocks
    of points is one call, not one per block plus the caller's."""
    block = _kernels.POINT_BLOCK
    calls = []
    real = Density.log_pdf

    def counting(self, x):
        calls.append(len(x))
        return real(self, x)

    monkeypatch.setattr(Density, "log_pdf", counting)
    dens = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    dens.log_pdf(np.zeros((3 * block, 2)))
    assert calls == [3 * block]


def test_grid_evaluation_temporaries_stay_block_sized():
    """bbe-polar's density on a 512 x 512 grid of its square: the points take
    2.1 MB and the output 2.1 MB; the whole-array pipeline peaked at 23.6 MB."""
    import tracemalloc

    from sip_lab import bbe_polar
    from sip_lab.verification import GridSpec

    dens = bbe_polar(make_beta(8.0, 12.0)).density
    pts = GridSpec((0.0, 0.0), (1.0, 1.0), 512).points()
    tracemalloc.start()
    try:
        dens.log_pdf(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
