"""Command-line runner: re-run each worked example, write data files, verify.

Each example writes solution samples, grid density values, and a check
report; the process exits 0 only when every check passes (1 on a failed
check, 2 on an unknown example).  Identical (config, seed) pairs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .densities import (
    GaussianParams,
    draw,
    make_beta,
    make_gaussian,
    make_truncated_gaussian,
    make_uniform,
)
from .forward_maps import linear_map, null_space_rows, polar_quadratic_map, square_map
from .gaussian_algebra import (
    StochasticMapSpec,
    bjw_gaussian_linear,
    cov_linear_gaussian,
    flat_prior_regression_posterior,
    mean_replicate_matrix,
    regression_predictive,
    stochastic_map_mean_solution,
)
from .sampling import theta_labels
from .solvers import (
    Branch,
    DomainPartition,
    bbe_linear,
    bbe_polar,
    bjw_density,
    bjw_sequential_update,
    cov_exact,
    cov_mixture_family,
    intuitive_sample,
    kde_pushforward,
    pushforward_density,
)
from .verification import CheckReport, GridSpec, grid_compare, normalization_check, \
    pushforward_check

EXAMPLES = (
    "two-to-one",
    "bbe-linear",
    "bbe-polar",
    "bjw-gauss-linear",
    "bjw-kde",
    "bjw-sequential",
    "stochastic-map-mean",
    "cov-linear-mvn",
    "regression-compare",
    "intuitive-demo",
)


@dataclass
class RunConfig:
    example: str
    samples: int = 10_000
    seed: int = 7
    out: Path = Path("sip_lab_out")
    format: str = "csv"
    grid: int = 128
    w: float = 0.5
    sigma: float = 1.0
    xstar: float = 2.0
    n: int = 10

    def __post_init__(self):
        self.out = Path(self.out)
        if self.example not in EXAMPLES:
            raise ValueError(f"unknown example {self.example!r}; choose from {EXAMPLES}")
        if self.samples < 1:
            raise ValueError("--samples must be at least 1")
        if self.seed < 0:
            raise ValueError("--seed must be nonnegative")
        if self.grid < 2:
            raise ValueError("--grid must be at least 2")
        if self.format not in ("csv", "json"):
            raise ValueError("--format must be csv or json")

    def meta(self) -> dict:
        return {
            "example": self.example,
            "samples": self.samples,
            "seed": self.seed,
            "format": self.format,
            "grid": self.grid,
            "w": self.w,
            "sigma": self.sigma,
            "xstar": self.xstar,
            "n": self.n,
        }


@dataclass
class ExampleResult:
    tables: dict = field(default_factory=dict)  # name -> (labels, (n, k) array)
    params: dict = field(default_factory=dict)  # name -> nested lists / scalars
    checks: list = field(default_factory=list)


def _density_grid_table(density, grid: GridSpec, extra=None):
    pts = grid.points()
    cols = [pts[:, j] for j in range(grid.dim)]
    labels = list(theta_labels(grid.dim))
    cols.append(np.asarray(density.pdf(pts), dtype=float))
    labels.append("density")
    for name, other in (extra or {}).items():
        cols.append(np.asarray(other.pdf(pts), dtype=float))
        labels.append(name)
    return tuple(labels), np.column_stack(cols)


def _gaussian_param_entry(params: GaussianParams) -> dict:
    return {"mean": params.mean.tolist(), "cov": params.cov.tolist()}


def two_to_one_partition() -> DomainPartition:
    """Branches of theta^2 on (-1, 1): the negative and positive half-lines."""
    return DomainPartition(branches=(
        Branch(member=lambda pts: pts[:, 0] < 0, inverse=lambda y: -np.sqrt(y)),
        Branch(member=lambda pts: pts[:, 0] > 0, inverse=lambda y: np.sqrt(y)),
    ))


def _run_two_to_one(cfg: RunConfig) -> ExampleResult:
    fmap = square_map(-1.0, 1.0)
    f_y = make_uniform([0.0], [1.0])
    weights = np.array([cfg.w, 1.0 - cfg.w])
    solution = cov_mixture_family(fmap, f_y, two_to_one_partition(), weights)
    samples = solution.sample(cfg.samples, cfg.seed)
    grid = GridSpec((-1.0,), (1.0,), cfg.grid)
    result = ExampleResult()
    result.tables["samples"] = (theta_labels(1), samples)
    result.tables["grid"] = _density_grid_table(solution.density, grid)
    result.checks.append(pushforward_check(samples, fmap, f_y, seed=cfg.seed))
    result.checks.append(normalization_check(solution.density))
    return result


def _run_bbe_linear(cfg: RunConfig) -> ExampleResult:
    A = np.array([[-1.0 / 3.0, 4.0 / 3.0]])
    f_y = make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)
    solution = bbe_linear(A, f_y, bounds=(np.array([-1.0]), np.array([1.0])))
    samples = solution.sample(cfg.samples, cfg.seed)
    grid = GridSpec((-1.6, -0.4), (1.2, 1.6), cfg.grid)
    result = ExampleResult()
    result.tables["samples"] = (theta_labels(2), samples)
    result.tables["grid"] = _density_grid_table(solution.density, grid)
    result.checks.append(pushforward_check(samples, linear_map(A), f_y, seed=cfg.seed))
    return result


def _run_bbe_polar(cfg: RunConfig) -> ExampleResult:
    f_y = make_beta(8.0, 12.0)
    solution = bbe_polar(f_y)
    samples = solution.sample(cfg.samples, cfg.seed)
    grid = GridSpec((0.0, 0.0), (1.0, 1.0), cfg.grid)
    result = ExampleResult()
    result.tables["samples"] = (theta_labels(2), samples)
    result.tables["grid"] = _density_grid_table(solution.density, grid)
    result.checks.append(pushforward_check(samples, polar_quadratic_map(), f_y,
                                           seed=cfg.seed))
    result.checks.append(normalization_check(solution.density))
    return result


def _bjw_gauss_instance():
    A = np.array([[1.0, 1.0]])
    initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
    return A, initial, f_y


def _run_bjw_gauss_linear(cfg: RunConfig) -> ExampleResult:
    A, initial, f_y = _bjw_gauss_instance()
    fmap = linear_map(A)
    solution = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
    closed = bjw_gaussian_linear(A, f_y.gaussian.mean, f_y.gaussian.cov,
                                 initial.gaussian.mean, initial.gaussian.cov)
    samples = solution.sample(cfg.samples, cfg.seed)
    sd = np.sqrt(np.diag(closed.cov))
    grid = GridSpec(tuple(closed.mean - 4 * sd), tuple(closed.mean + 4 * sd), cfg.grid)
    result = ExampleResult()
    result.tables["samples"] = (theta_labels(2), samples)
    result.tables["grid"] = _density_grid_table(solution.density, grid,
                                                extra={"closed_form": make_gaussian(closed)})
    _, table = result.tables["grid"]
    result.params["updated"] = _gaussian_param_entry(closed)
    result.checks.append(grid_compare(table[:, -2], table[:, -1], grid, tol=1e-8))
    result.checks.append(pushforward_check(samples, fmap, f_y, seed=cfg.seed))
    return result


def _run_bjw_kde(cfg: RunConfig) -> ExampleResult:
    A, initial, f_y = _bjw_gauss_instance()
    fmap = linear_map(A)
    exact = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
    approx = bjw_density(initial, fmap, f_y,
                         kde_pushforward(initial, fmap, m=cfg.samples, seed=cfg.seed))
    closed = bjw_gaussian_linear(A, f_y.gaussian.mean, f_y.gaussian.cov,
                                 initial.gaussian.mean, initial.gaussian.cov)
    sd = np.sqrt(np.diag(closed.cov))
    grid = GridSpec(tuple(closed.mean - 4 * sd), tuple(closed.mean + 4 * sd), cfg.grid)
    samples = approx.sample(cfg.samples, cfg.seed)
    result = ExampleResult()
    result.tables["samples"] = (theta_labels(2), samples)
    result.tables["grid"] = _density_grid_table(approx.density, grid,
                                                extra={"analytic": exact.density})
    _, table = result.tables["grid"]
    result.checks.append(grid_compare(table[:, -2], table[:, -1], grid,
                                      tol=0.05, normalize=True))
    return result


def _run_bjw_sequential(cfg: RunConfig) -> ExampleResult:
    A, initial, _ = _bjw_gauss_instance()
    fmap = linear_map(A)
    f_y1 = make_gaussian(GaussianParams([0.3], [[0.16]]))
    f_y2 = make_gaussian(GaussianParams([-0.2], [[0.36]]))
    single, double = bjw_sequential_update(initial, fmap, f_y1, f_y2)
    samples = double.sample(cfg.samples, cfg.seed)
    grid = GridSpec((-2.5, -2.5), (2.5, 2.5), cfg.grid)
    result = ExampleResult()
    result.tables["samples"] = (theta_labels(2), samples)
    result.tables["grid"] = _density_grid_table(single.density, grid,
                                                extra={"double_update": double.density})
    _, table = result.tables["grid"]
    result.checks.append(grid_compare(table[:, -2], table[:, -1], grid, tol=1e-8))
    result.checks.append(pushforward_check(samples, fmap, f_y2, seed=cfg.seed))
    return result


def _run_stochastic_map_mean(cfg: RunConfig) -> ExampleResult:
    n = cfg.n
    mu_y = 1.0 + 0.1 * np.sin(np.arange(1, n + 1, dtype=float))
    spec = StochasticMapSpec(n=n, mu_y=mu_y, sigma_y2=0.25, mu0=0.5,
                             sigma02=1.0, sigma_eps2=0.5)
    literal = stochastic_map_mean_solution(spec)
    A = mean_replicate_matrix(n)
    generic = bjw_gaussian_linear(A, mu_y, spec.sigma_y2 * np.eye(n),
                                  np.concatenate([[spec.mu0], np.zeros(n)]),
                                  np.diag([spec.sigma02] + [spec.sigma_eps2] * n))
    solution_density = make_gaussian(literal)
    samples = draw(solution_density, cfg.samples, cfg.seed).data
    result = ExampleResult()
    labels = ("mean_m",) + tuple(f"eps_{i + 1}" for i in range(n))
    result.tables["samples"] = (labels, samples)
    result.tables["params"] = (
        ("component", "mean", "variance"),
        np.column_stack([np.arange(n + 1, dtype=float), literal.mean,
                         np.diag(literal.cov)]),
    )
    result.params["solution"] = _gaussian_param_entry(literal)
    mismatch = max(float(np.max(np.abs(literal.mean - generic.mean))),
                   float(np.max(np.abs(literal.cov - generic.cov))))
    result.checks.append(CheckReport(name="constants_vs_generic", statistic=mismatch,
                                     threshold=1e-10, comparison="le"))
    f_y = make_gaussian(GaussianParams(mu_y, spec.sigma_y2 * np.eye(n)))
    result.checks.append(pushforward_check(samples, linear_map(A), f_y, seed=cfg.seed))
    return result


def _run_cov_linear_mvn(cfg: RunConfig) -> ExampleResult:
    sigma2 = cfg.sigma**2
    X = np.array([[1.0, -1.0], [1.0, 1.0]])
    y_params = GaussianParams([-1.0, 1.0], sigma2 * np.eye(2))
    f_y = make_gaussian(y_params)
    fmap = linear_map(X)
    solution = cov_exact(fmap, f_y)
    pulled = cov_linear_gaussian(X, y_params)
    samples = solution.sample(cfg.samples, cfg.seed)
    sd = np.sqrt(np.diag(pulled.cov))
    grid = GridSpec(tuple(pulled.mean - 4 * sd), tuple(pulled.mean + 4 * sd), cfg.grid)
    result = ExampleResult()
    result.tables["samples"] = (theta_labels(2), samples)
    result.tables["grid"] = _density_grid_table(solution.density, grid)
    _, table = result.tables["grid"]
    result.params["pullback"] = _gaussian_param_entry(pulled)

    # the same observable law pulled back through an augmented wide map
    A_wide = np.array([[1.0, 1.0]])
    aug = np.vstack([A_wide, null_space_rows(A_wide)])
    mu_plus = np.array([0.5, 0.0])
    sigma_plus = np.diag([sigma2, 1.0])
    result.params["augmented_pullback"] = _gaussian_param_entry(
        cov_linear_gaussian(aug, GaussianParams(mu_plus, sigma_plus))
    )
    result.checks.append(pushforward_check(samples, fmap, f_y, seed=cfg.seed))
    closed_values = make_gaussian(pulled).pdf(grid.points())
    result.checks.append(grid_compare(table[:, -1], closed_values, grid, tol=1e-12))
    return result


def _run_regression_compare(cfg: RunConfig) -> ExampleResult:
    sigma2 = cfg.sigma**2
    X = np.array([[1.0, -1.0], [1.0, 1.0]])
    y_obs = np.array([-1.0, 1.0])
    y_params = GaussianParams(y_obs, sigma2 * np.eye(2))
    cov_solution = cov_linear_gaussian(X, y_params)
    posterior = flat_prior_regression_posterior(X, y_obs, sigma2)
    predictive = regression_predictive(posterior, cfg.xstar)
    expected_var = 0.5 * sigma2 * (1.0 + cfg.xstar**2)

    result = ExampleResult()
    result.params["cov_solution"] = _gaussian_param_entry(cov_solution)
    result.params["flat_prior_posterior"] = _gaussian_param_entry(posterior)
    result.params["predictive"] = {
        "x_star": cfg.xstar,
        "mean": float(predictive.mean[0]),
        "variance": float(predictive.cov[0, 0]),
    }
    agreement = max(float(np.max(np.abs(cov_solution.mean - posterior.mean))),
                    float(np.max(np.abs(cov_solution.cov - posterior.cov))))
    result.checks.append(CheckReport(name="cov_equals_flat_posterior",
                                     statistic=agreement, threshold=1e-12,
                                     comparison="le"))
    pred_err = max(abs(float(predictive.mean[0]) - cfg.xstar),
                   abs(float(predictive.cov[0, 0]) - expected_var))
    result.checks.append(CheckReport(name="predictive_formula", statistic=pred_err,
                                     threshold=1e-12, comparison="le"))

    density = make_gaussian(cov_solution)
    samples = draw(density, cfg.samples, cfg.seed).data
    result.tables["samples"] = (theta_labels(2), samples)
    sd = np.sqrt(np.diag(cov_solution.cov))
    grid = GridSpec(tuple(cov_solution.mean - 4 * sd),
                    tuple(cov_solution.mean + 4 * sd), cfg.grid)
    result.tables["grid"] = _density_grid_table(density, grid)
    return result


def _run_intuitive_demo(cfg: RunConfig) -> ExampleResult:
    fmap = linear_map(np.array([[1.0, 1.0]]))
    f_y = make_gaussian(GaussianParams([0.0], [[2.0]]))
    f_aux = make_gaussian(GaussianParams([0.0], [[1.0]]))
    solution = intuitive_sample(fmap, f_y, f_aux)
    data = solution.sample(cfg.samples, cfg.seed)
    grid = GridSpec((-6.0, -4.0), (6.0, 4.0), cfg.grid)
    result = ExampleResult()
    result.tables["samples"] = (theta_labels(2), data)
    result.tables["grid"] = _density_grid_table(solution.density, grid)
    result.checks.append(pushforward_check(data, fmap, f_y, seed=cfg.seed))
    images = data.sum(axis=1)
    corr = float(np.corrcoef(images, data[:, 1])[0, 1])
    result.checks.append(CheckReport(name="aux_independence", statistic=abs(corr),
                                     threshold=3.0 / np.sqrt(data.shape[0]),
                                     comparison="le",
                                     details=f"corr(g(theta), theta_2)={corr:.5g}"))
    return result


_RUNNERS = {
    "two-to-one": _run_two_to_one,
    "bbe-linear": _run_bbe_linear,
    "bbe-polar": _run_bbe_polar,
    "bjw-gauss-linear": _run_bjw_gauss_linear,
    "bjw-kde": _run_bjw_kde,
    "bjw-sequential": _run_bjw_sequential,
    "stochastic-map-mean": _run_stochastic_map_mean,
    "cov-linear-mvn": _run_cov_linear_mvn,
    "regression-compare": _run_regression_compare,
    "intuitive-demo": _run_intuitive_demo,
}


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------


CSV_BLOCK_ROWS = 1024  # rows converted to Python floats at a time


def _write_csv(path: Path, labels, rows: np.ndarray) -> None:
    rows = np.atleast_2d(rows)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(labels) + "\n")
        for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS].tolist()
            handle.writelines(line % tuple(row) for row in block)


def _json_ready(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as handle:
        json.dump(_json_ready(payload), handle, indent=2)
        handle.write("\n")


def run_example(cfg: RunConfig) -> int:
    """Run one registered example, write its files, return the exit code."""
    result = _RUNNERS[cfg.example](cfg)
    cfg.out.mkdir(parents=True, exist_ok=True)
    stem = cfg.example
    checks = [c.to_dict() for c in result.checks]

    if cfg.format == "csv":
        for name, (labels, rows) in result.tables.items():
            _write_csv(cfg.out / f"{stem}_{name}.csv", labels, rows)
        report = {"meta": cfg.meta(), "params": result.params, "checks": checks}
        _write_json(cfg.out / f"{stem}_report.json", report)
    else:
        data = {
            name: {"labels": list(labels), "rows": rows}
            for name, (labels, rows) in result.tables.items()
        }
        payload = {"meta": cfg.meta(), "data": data, "params": result.params,
                   "checks": checks}
        _write_json(cfg.out / f"{stem}.json", payload)

    all_passed = all(c["passed"] for c in checks)
    for check in checks:
        status = "pass" if check["passed"] else "FAIL"
        print(f"[{cfg.example}] {check['name']}: {status} "
              f"(statistic={check['statistic']:.6g}, threshold={check['threshold']:.6g})")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sip-lab",
        description="Re-run the worked inverse-problem examples and verify them.",
    )
    sub = parser.add_subparsers(dest="example", required=True, metavar="EXAMPLE")
    for name in EXAMPLES:
        sp = sub.add_parser(name, help=f"run the {name} example")
        sp.add_argument("--samples", type=int, default=10_000)
        sp.add_argument("--seed", type=int, default=7)
        sp.add_argument("--out", type=Path, default=Path("sip_lab_out"))
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--grid", type=int, default=128)
        if name == "two-to-one":
            sp.add_argument("--w", type=float, default=0.5,
                            help="mixture weight on the negative branch")
        if name in ("cov-linear-mvn", "regression-compare"):
            sp.add_argument("--sigma", type=float, default=1.0)
        if name == "regression-compare":
            sp.add_argument("--xstar", type=float, default=2.0)
        if name == "stochastic-map-mean":
            sp.add_argument("--n", type=int, default=10,
                            help="number of replicate observables")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kwargs = {k: v for k, v in vars(args).items() if v is not None}
    cfg = RunConfig(**kwargs)
    return run_example(cfg)


def entry_point() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
