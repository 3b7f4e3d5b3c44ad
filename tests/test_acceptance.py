"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is pinned, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
from conftest import random_update_instance

from sip_lab import (
    Branch,
    GaussianParams,
    GridSpec,
    MixtureWeights,
    StochasticMapSpec,
    bbe_linear,
    bbe_polar,
    bjw_density,
    bjw_gaussian_linear,
    bjw_sequential_update,
    cov_linear_gaussian,
    cov_mixture_family,
    flat_prior_regression_posterior,
    grid_compare,
    intuitive_sample,
    kde_pushforward,
    linear_map,
    make_beta,
    make_gaussian,
    make_truncated_gaussian,
    make_uniform,
    normalization_check,
    polar_quadratic_map,
    pushforward_check,
    pushforward_density,
    regression_predictive,
    square_map,
    stochastic_map_mean_solution,
)
from sip_lab.gaussian_algebra import (
    mean_replicate_matrix,
    sigma_tilde_precision,
    sigma_tilde_woodbury,
)
from sip_lab.sampling import rng_for


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {number} - {description}: {status}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_regression_closed_forms():
    start = time.perf_counter()
    ok = True
    detail = []
    X = np.array([[1.0, -1.0], [1.0, 1.0]])
    for sigma in (1.0, 0.6):
        sigma2 = sigma**2
        pullback = cov_linear_gaussian(X, GaussianParams([-1.0, 1.0],
                                                         sigma2 * np.eye(2)))
        ok &= np.abs(pullback.mean - [0.0, 1.0]).max() <= 1e-12
        ok &= np.abs(pullback.cov - 0.5 * sigma2 * np.eye(2)).max() <= 1e-12
        posterior = flat_prior_regression_posterior(X, [-1.0, 1.0], sigma2)
        ok &= np.abs(pullback.mean - posterior.mean).max() <= 1e-12
        ok &= np.abs(pullback.cov - posterior.cov).max() <= 1e-12
        for x_star in (0.0, 1.0, 3.0):
            pred = regression_predictive(posterior, x_star)
            ok &= abs(pred.mean[0] - x_star) <= 1e-12
            ok &= abs(pred.cov[0, 0] - 0.5 * sigma2 * (1 + x_star**2)) <= 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    detail.append(f"{elapsed:.3f}s")
    _report(1, "regression pullback, flat posterior, predictive", bool(ok),
            ", ".join(detail))


def test_criterion_02_pushforward_identities_200_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(8128)
    worst_mean = worst_cov = worst_forms = 0.0
    for _ in range(200):
        A, mu_y, sigma_y, mu_theta, sigma_theta = random_update_instance(rng)
        params = bjw_gaussian_linear(A, mu_y, sigma_y, mu_theta, sigma_theta)
        worst_mean = max(worst_mean, np.abs(A @ params.mean - mu_y).max())
        worst_cov = max(worst_cov, np.abs(A @ params.cov @ A.T - sigma_y).max())
        forms_gap = np.abs(sigma_tilde_precision(A, sigma_y, sigma_theta)
                           - sigma_tilde_woodbury(A, sigma_y, sigma_theta)).max()
        worst_forms = max(worst_forms, forms_gap)
    elapsed = time.perf_counter() - start
    ok = worst_mean <= 1e-10 and worst_cov <= 1e-10 and worst_forms <= 1e-10 \
        and elapsed < 5.0
    _report(2, "update identities and two covariance forms on 200 instances",
            bool(ok), f"mean {worst_mean:.2e}, cov {worst_cov:.2e}, "
                      f"forms {worst_forms:.2e}, {elapsed:.2f}s")


def _replicate_spec(n):
    mu_y = 1.0 + 0.1 * np.sin(np.arange(1, n + 1, dtype=float))
    return StochasticMapSpec(n=n, mu_y=mu_y, sigma_y2=0.49, mu0=0.2,
                             sigma02=1.3, sigma_eps2=0.7)


def test_criterion_03_replicate_mean_constants_and_asymptotics():
    ok = True
    worst = 0.0
    for n in range(1, 9):
        spec = _replicate_spec(n)
        literal = stochastic_map_mean_solution(spec)
        generic = bjw_gaussian_linear(
            mean_replicate_matrix(n), spec.mu_y, spec.sigma_y2 * np.eye(n),
            np.concatenate([[spec.mu0], np.zeros(n)]),
            np.diag([spec.sigma02] + [spec.sigma_eps2] * n),
        )
        gap = max(np.abs(literal.mean - generic.mean).max(),
                  np.abs(literal.cov - generic.cov).max())
        worst = max(worst, gap)
    ok &= worst <= 1e-10

    scaled_var = {}
    scaled_gap = {}
    for n in (10, 100, 1000):
        sol = stochastic_map_mean_solution(_replicate_spec(n))
        scaled_var[n] = sol.cov[0, 0] * n
        scaled_gap[n] = abs(sol.mean[0] - _replicate_spec(n).mu_y.mean()) * n
    for n in (100, 1000):
        ok &= abs(scaled_var[n] / scaled_var[10] - 1.0) < 0.2
        ok &= abs(scaled_gap[n] / scaled_gap[10] - 1.0) < 0.2
    _report(3, "replicate-mean constants match generic formula; 1/n asymptotics",
            bool(ok), f"constants gap {worst:.2e}, "
                      f"var*n {scaled_var[10]:.3f}->{scaled_var[1000]:.3f}, "
                      f"gap*n {scaled_gap[10]:.3f}->{scaled_gap[1000]:.3f}")


def test_criterion_04_sequential_update_identity():
    A = np.array([[1.0, 1.0]])
    initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    fmap = linear_map(A)
    f_y1 = make_gaussian(GaussianParams([0.3], [[0.16]]))
    f_y2 = make_gaussian(GaussianParams([-0.2], [[0.36]]))
    single, double = bjw_sequential_update(initial, fmap, f_y1, f_y2)
    # 200-point grid: 20 x 10 mesh over the bulk of the updated density
    t1 = np.linspace(-2.0, 2.0, 20)
    t2 = np.linspace(-2.0, 2.0, 10)
    mesh = np.stack([m.ravel() for m in np.meshgrid(t1, t2, indexing="ij")], axis=-1)
    sup = float(np.abs(single.density.pdf(mesh) - double.density.pdf(mesh)).max())
    _report(4, "double update equals single second update on a 200-point grid",
            sup <= 1e-8, f"sup {sup:.2e}")


def test_criterion_05_figure_reproduction_properties():
    # linear instance
    start = time.perf_counter()
    A = np.array([[-1.0 / 3.0, 4.0 / 3.0]])
    f_lin = make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)
    lin_solution = bbe_linear(A, f_lin, bounds=([-1.0], [1.0]))
    lin_report = pushforward_check(lin_solution.sample(10_000, seed=607),
                                   linear_map(A), f_lin, alpha=0.01, seed=607)
    lin_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    f_pol = make_beta(8.0, 12.0)
    pol_solution = bbe_polar(f_pol)
    pol_report = pushforward_check(pol_solution.sample(10_000, seed=613),
                                   polar_quadratic_map(), f_pol, alpha=0.01, seed=613)
    pol_norm = normalization_check(pol_solution.density, tol=1e-4)
    pol_elapsed = time.perf_counter() - start

    ok = lin_report.passed and pol_report.passed and pol_norm.passed \
        and lin_elapsed < 30.0 and pol_elapsed < 30.0
    _report(5, "slab and polar constructions reproduce their target laws",
            bool(ok), f"linear p={lin_report.statistic:.3g} ({lin_elapsed:.1f}s), "
                      f"polar p={pol_report.statistic:.3g}, "
                      f"mass err {pol_norm.statistic:.2e} ({pol_elapsed:.1f}s)")


def _two_branch_partition():
    return (
        Branch(member=lambda pts: pts[:, 0] < 0, inverse=lambda y: -np.sqrt(y)),
        Branch(member=lambda pts: pts[:, 0] > 0, inverse=lambda y: np.sqrt(y)),
    )


def _three_branch_partition(eps=0.5):
    return (
        Branch(member=lambda pts: pts[:, 0] < 0, inverse=lambda y: -np.sqrt(y)),
        Branch(member=lambda pts: (pts[:, 0] > 0) & (pts[:, 0] < eps),
               inverse=lambda y: np.sqrt(y)),
        Branch(member=lambda pts: pts[:, 0] > eps, inverse=lambda y: np.sqrt(y),
               weighted=False),
    )


def test_criterion_06_two_to_one_family():
    f_y = make_uniform([0.0], [1.0])
    m = 10_000
    ok = True
    details = []
    for w in (0.0, 0.25, 0.5, 0.75, 1.0):
        solution = cov_mixture_family(square_map(-1.0, 1.0), f_y,
                                      _two_branch_partition(),
                                      MixtureWeights([w, 1.0 - w]))
        report = pushforward_check(solution.sample(m, seed=619), square_map(-1.0, 1.0),
                                   f_y, alpha=0.01, seed=619)
        ok &= report.passed
        details.append(f"w={w}: p={report.statistic:.3g}")

        asym = cov_mixture_family(square_map(-0.5, 1.0), f_y,
                                  _three_branch_partition(),
                                  MixtureWeights([w, 1.0 - w]))
        draws = asym.sample(m, seed=631)
        frac = float(np.mean(draws[:, 0] < 0))
        target = 0.25 * w
        band = 3.0 * math.sqrt(target * (1.0 - target) / m)
        ok &= abs(frac - target) <= band
    _report(6, "two-to-one mixture family pushes to the target for every weight",
            bool(ok), "; ".join(details))


def test_criterion_07_intuitive_instance():
    fmap = linear_map([[1.0, 1.0]])
    f_y = make_gaussian(GaussianParams([0.0], [[2.0]]))
    f_aux = make_gaussian(GaussianParams([0.0], [[1.0]]))
    m = 100_000
    solution = intuitive_sample(fmap, f_y, f_aux)
    data = solution.sample(m, 641)
    rows = data.shape[0]

    var1 = data[:, 0].var(ddof=1)
    cov12 = float(np.cov(data.T)[0, 1])
    se_var = var1 * math.sqrt(2.0 / (rows - 1))
    se_cov = math.sqrt((data[:, 0].var(ddof=1) * data[:, 1].var(ddof=1)
                        + cov12**2) / (rows - 1))
    ok = abs(var1 - 3.0) <= 3 * se_var
    ok &= abs(cov12 - (-1.0)) <= 3 * se_cov

    report = pushforward_check(solution.sample(10_000, 643), fmap, f_y,
                               alpha=0.01, seed=643)
    ok &= report.passed

    corr = float(np.corrcoef(data.sum(axis=1), data[:, 1])[0, 1])
    ok &= abs(corr) < 3.0 / math.sqrt(rows)
    _report(7, "independent-trailing-coordinate sampler: moments, pushforward, "
               "independence", bool(ok),
            f"var {var1:.4f}, cov {cov12:.4f}, corr {corr:.5f}, "
            f"p={report.statistic:.3g}")


def test_criterion_08_kde_update_close_to_analytic():
    A = np.array([[1.0, 1.0]])
    initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    fmap = linear_map(A)
    f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
    exact = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
    approx = bjw_density(initial, fmap, f_y,
                         kde_pushforward(initial, fmap, m=10_000, seed=647))
    closed = bjw_gaussian_linear(A, [0.25], [[0.25]], [0.0, 0.0], np.eye(2))
    sd = np.sqrt(np.diag(closed.cov))
    grid = GridSpec(tuple(closed.mean - 4 * sd), tuple(closed.mean + 4 * sd), 61)
    pts = grid.points()
    report = grid_compare(approx.density.pdf(pts), exact.density.pdf(pts), grid, tol=0.05,
                          normalize=True)
    _report(8, "KDE-denominator update within 0.05 of the analytic density",
            report.passed, report.details)


def test_criterion_09_negative_control():
    X = np.array([[1.0, -1.0], [1.0, 1.0]])
    fmap = linear_map(X)
    f_y = make_gaussian(GaussianParams([-1.0, 1.0], np.eye(2)))
    # correct covariance is 0.5*I; inflate the variance two-fold
    wrong = make_gaussian(GaussianParams([0.0, 1.0], np.eye(2)))
    report = pushforward_check(wrong.sample(rng_for(653, 0, 0), 10_000), fmap, f_y,
                               alpha=0.01, seed=653)
    _report(9, "variance-inflated wrong solution fails the pushforward check",
            not report.passed, f"min p={report.statistic:.3g}")


def test_criterion_10_cli_determinism(tmp_path):
    from sip_lab.cli import EXAMPLES, main

    ok = True
    details = []
    for example in EXAMPLES:
        outputs = {}
        for tag in ("a", "b"):
            out = tmp_path / example / tag
            code = main([example, "--samples", "1000", "--seed", "29",
                         "--grid", "24", "--out", str(out)])
            ok &= code == 0
            outputs[tag] = {p.name: p.read_bytes() for p in out.iterdir()}
        identical = outputs["a"] == outputs["b"]
        ok &= identical
        details.append(f"{example}:{'=' if identical else '!'}")
    _report(10, "CLI outputs byte-identical across reruns",
            bool(ok), " ".join(details))
