"""Command-line runner: re-run each worked example, write data files, verify.

Each example writes solution samples, grid density values, and a check
report; the process exits 0 only when every check passes (1 on a failed
check, 2 on an unknown example or a flag value it cannot run with).  Identical
(config, seed) pairs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
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
from .errors import SipLabError
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
from .solvers import (
    Branch,
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

# examples undefined on one sample: bjw-kde fits a KDE bandwidth to the
# draws, and intuitive-demo checks a correlation over them
NEEDS_TWO_SAMPLES = ("bjw-kde", "intuitive-demo")


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
        least = 2 if self.example in NEEDS_TWO_SAMPLES else 1
        if self.samples < least:
            raise ValueError(f"--samples must be at least {least} for {self.example}")
        if self.seed < 0:
            raise ValueError("--seed must be nonnegative")
        if self.grid < 2:
            raise ValueError("--grid must be at least 2")
        if self.format not in ("csv", "json"):
            raise ValueError("--format must be csv or json")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"--w must lie in [0, 1], got {self.w}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"--sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.xstar):
            raise ValueError(f"--xstar must be finite, got {self.xstar}")
        if self.n < 1:
            raise ValueError("--n must be at least 1")

    def meta(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}


@dataclass
class ExampleResult:
    tables: dict = field(default_factory=dict)  # name -> (labels, (n, k) array)
    params: dict = field(default_factory=dict)  # name -> nested lists / scalars
    checks: list = field(default_factory=list)


def theta_labels(p: int) -> tuple[str, ...]:
    return tuple(f"theta_{j + 1}" for j in range(p))


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


def _tabulated(samples, density, grid: GridSpec, extra=None):
    """A result holding the samples table and the grid table, and the grid array."""
    result = ExampleResult()
    result.tables["samples"] = (theta_labels(samples.shape[1]), samples)
    result.tables["grid"] = _density_grid_table(density, grid, extra)
    return result, result.tables["grid"][1]


def _box(params: GaussianParams, num: int) -> GridSpec:
    """The grid box mean +- 4 sd of a Gaussian."""
    sd = np.sqrt(np.diag(params.cov))
    return GridSpec(params.mean - 4 * sd, params.mean + 4 * sd, num)


def two_to_one_partition() -> tuple:
    """Branches of theta^2 on (-1, 1): the negative and positive half-lines."""
    return (
        Branch(member=lambda pts: pts[:, 0] < 0, inverse=lambda y: -np.sqrt(y)),
        Branch(member=lambda pts: pts[:, 0] > 0, inverse=lambda y: np.sqrt(y)),
    )


def _run_two_to_one(cfg: RunConfig) -> ExampleResult:
    fmap = square_map(-1.0, 1.0)
    f_y = make_uniform([0.0], [1.0])
    weights = np.array([cfg.w, 1.0 - cfg.w])
    solution = cov_mixture_family(fmap, f_y, two_to_one_partition(), weights)
    samples = solution.sample(cfg.samples, cfg.seed)
    result, _ = _tabulated(samples, solution.density, GridSpec((-1.0,), (1.0,), cfg.grid))
    result.checks.append(pushforward_check(samples, fmap, f_y, seed=cfg.seed))
    result.checks.append(normalization_check(solution.density))
    return result


def _run_bbe_linear(cfg: RunConfig) -> ExampleResult:
    A = np.array([[-1.0 / 3.0, 4.0 / 3.0]])
    f_y = make_truncated_gaussian(0.5, 0.25, 0.0, 1.0)
    solution = bbe_linear(A, f_y, bounds=(np.array([-1.0]), np.array([1.0])))
    samples = solution.sample(cfg.samples, cfg.seed)
    result, _ = _tabulated(samples, solution.density,
                           GridSpec((-1.6, -0.4), (1.2, 1.6), cfg.grid))
    result.checks.append(pushforward_check(samples, linear_map(A), f_y, seed=cfg.seed))
    return result


def _run_bbe_polar(cfg: RunConfig) -> ExampleResult:
    f_y = make_beta(8.0, 12.0)
    solution = bbe_polar(f_y)
    samples = solution.sample(cfg.samples, cfg.seed)
    result, _ = _tabulated(samples, solution.density,
                           GridSpec((0.0, 0.0), (1.0, 1.0), cfg.grid))
    result.checks.append(pushforward_check(samples, polar_quadratic_map(), f_y,
                                           seed=cfg.seed))
    result.checks.append(normalization_check(solution.density, tol=1e-4))
    return result


def _bjw_gauss_instance():
    fmap = linear_map(np.array([[1.0, 1.0]]))
    initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
    return fmap, initial, f_y


def _run_bjw_gauss_linear(cfg: RunConfig) -> ExampleResult:
    fmap, initial, f_y = _bjw_gauss_instance()
    solution = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
    closed = solution.density.gaussian  # bjw_gaussian_linear of the instance
    samples = solution.sample(cfg.samples, cfg.seed)
    grid = _box(closed, cfg.grid)
    result, table = _tabulated(samples, solution.density, grid,
                               extra={"closed_form": make_gaussian(closed)})
    result.params["updated"] = asdict(closed)
    result.checks.append(grid_compare(table[:, -2], table[:, -1], grid, tol=1e-8))
    result.checks.append(pushforward_check(samples, fmap, f_y, seed=cfg.seed))
    return result


def _run_bjw_kde(cfg: RunConfig) -> ExampleResult:
    fmap, initial, f_y = _bjw_gauss_instance()
    exact = bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap))
    kde = kde_pushforward(initial, fmap, m=cfg.samples, seed=cfg.seed)
    approx = bjw_density(initial, fmap, f_y, kde)
    grid = _box(exact.density.gaussian, cfg.grid)
    samples = approx.sample(cfg.samples, cfg.seed)
    result, table = _tabulated(samples, approx.density, grid,
                               extra={"analytic": exact.density})
    result.checks.append(grid_compare(table[:, -2], table[:, -1], grid,
                                      tol=0.05, normalize=True))
    # the KDE's log-density table: its node count (0 when the span needs more
    # than the cap) and estimated |error| in log; exact evaluation when not used
    result.params["pushforward_kde_table"] = {
        "nodes": kde.table.nodes if kde.table else 0,
        "log_error_estimate": kde.table.error if kde.table else None,
        "tabulated": kde.tabulated,
    }
    return result


def _run_bjw_sequential(cfg: RunConfig) -> ExampleResult:
    fmap, initial, _ = _bjw_gauss_instance()
    f_y1 = make_gaussian(GaussianParams([0.3], [[0.16]]))
    f_y2 = make_gaussian(GaussianParams([-0.2], [[0.36]]))
    single, double = bjw_sequential_update(initial, fmap, f_y1, f_y2)
    samples = double.sample(cfg.samples, cfg.seed)
    grid = GridSpec((-2.5, -2.5), (2.5, 2.5), cfg.grid)
    result, table = _tabulated(samples, single.density, grid,
                               extra={"double_update": double.density})
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
    samples = draw(solution_density, cfg.samples, cfg.seed)
    result = ExampleResult()
    labels = ("mean_m",) + tuple(f"eps_{i + 1}" for i in range(n))
    result.tables["samples"] = (labels, samples)
    result.tables["params"] = (
        ("component", "mean", "variance"),
        np.column_stack([np.arange(n + 1, dtype=float), literal.mean,
                         np.diag(literal.cov)]),
    )
    result.params["solution"] = asdict(literal)
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
    grid = _box(pulled, cfg.grid)
    result, table = _tabulated(samples, solution.density, grid)
    result.params["pullback"] = asdict(pulled)

    # the same observable law pulled back through an augmented wide map
    A_wide = np.array([[1.0, 1.0]])
    aug = np.vstack([A_wide, null_space_rows(A_wide)])
    mu_plus = np.array([0.5, 0.0])
    sigma_plus = np.diag([sigma2, 1.0])
    result.params["augmented_pullback"] = asdict(
        cov_linear_gaussian(aug, GaussianParams(mu_plus, sigma_plus))
    )
    result.checks.append(pushforward_check(samples, fmap, f_y, seed=cfg.seed))
    # the density scales as 1 / sigma^2, so the tolerance is relative to its peak
    closed_values = make_gaussian(pulled).pdf(grid.points())
    result.checks.append(grid_compare(table[:, -1], closed_values, grid,
                                      tol=1e-12 * closed_values.max()))
    return result


def _regression_closed_forms(sigma: float, xstar: float):
    """regression-compare's pullback, flat-prior posterior and predictive, and
    its two checks of them.  Covariances scale as sigma^2, so each difference
    is taken relative to the scale of what it compares: a mean to
    max(1, |mean|), a covariance to its largest entry, the predictive
    variance to its closed form."""
    sigma2 = sigma**2
    X = np.array([[1.0, -1.0], [1.0, 1.0]])
    y_obs = np.array([-1.0, 1.0])
    cov_solution = cov_linear_gaussian(X, GaussianParams(y_obs, sigma2 * np.eye(2)))
    posterior = flat_prior_regression_posterior(X, y_obs, sigma2)
    predictive = regression_predictive(posterior, xstar)
    expected_var = 0.5 * sigma2 * (1.0 + xstar**2)
    mean_scale = max(1.0, float(np.max(np.abs(posterior.mean))))
    agreement = max(float(np.max(np.abs(cov_solution.mean - posterior.mean))) / mean_scale,
                    float(np.max(np.abs(cov_solution.cov - posterior.cov)
                                 / np.max(np.abs(posterior.cov)))))
    pred_err = max(abs(float(predictive.mean[0]) - xstar) / max(1.0, abs(xstar)),
                   abs(float(predictive.cov[0, 0]) - expected_var) / expected_var)
    checks = [CheckReport(name="cov_equals_flat_posterior", statistic=agreement,
                          threshold=1e-12, comparison="le"),
              CheckReport(name="predictive_formula", statistic=pred_err,
                          threshold=1e-12, comparison="le")]
    return cov_solution, posterior, predictive, checks


def _run_regression_compare(cfg: RunConfig) -> ExampleResult:
    cov_solution, posterior, predictive, checks = _regression_closed_forms(cfg.sigma, cfg.xstar)
    density = make_gaussian(cov_solution)
    samples = draw(density, cfg.samples, cfg.seed)
    result, _ = _tabulated(samples, density, _box(cov_solution, cfg.grid))
    result.params["cov_solution"] = asdict(cov_solution)
    result.params["flat_prior_posterior"] = asdict(posterior)
    result.params["predictive"] = {
        "x_star": cfg.xstar,
        "mean": float(predictive.mean[0]),
        "variance": float(predictive.cov[0, 0]),
    }
    result.checks.extend(checks)
    return result


def _run_intuitive_demo(cfg: RunConfig) -> ExampleResult:
    fmap = linear_map(np.array([[1.0, 1.0]]))
    f_y = make_gaussian(GaussianParams([0.0], [[2.0]]))
    f_aux = make_gaussian(GaussianParams([0.0], [[1.0]]))
    solution = intuitive_sample(fmap, f_y, f_aux)
    data = solution.sample(cfg.samples, cfg.seed)
    result, _ = _tabulated(data, solution.density,
                           GridSpec((-6.0, -4.0), (6.0, 4.0), cfg.grid))
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
EXAMPLES = tuple(_RUNNERS)  # argparse registers them, and --help lists them, in this order


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------


CSV_BLOCK_ROWS = 1024  # rows joined into one string at a time


def _write_csv(path: Path, labels, rows: np.ndarray) -> None:
    # %.17g runs once per distinct value of a column: grid coordinates repeat
    # --grid times and densities underflow to 0.  Values are keyed by bit
    # pattern, so -0.0 and 0.0, and NaN payloads, stay apart.
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    columns = []
    for col in rows.T:
        keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
        strings = [f"{v:.17g}" for v in keys.view(np.float64).tolist()]
        columns.append((np.array(strings, dtype=object), inverse))
    with open(path, "w", newline="") as handle:
        handle.write(",".join(labels) + "\n")
        for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
            cells = [strings[inverse[start:start + CSV_BLOCK_ROWS]].tolist()
                     for strings, inverse in columns]
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    # arrays and numpy scalars become lists and Python numbers; np.float64 is
    # a float, written by float.__repr__ like any other
    with open(path, "w", newline="") as handle:
        json.dump(payload, handle, indent=2, default=lambda obj: obj.tolist())
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sip-lab",
        description="Re-run the worked inverse-problem examples and verify them.",
    )
    sub = parser.add_subparsers(dest="example", required=True, metavar="EXAMPLE")
    default = {f.name: f.default for f in fields(RunConfig)}
    for name in EXAMPLES:
        sp = sub.add_parser(name, help=f"run the {name} example")
        sp.add_argument("--samples", type=int, default=default["samples"])
        sp.add_argument("--seed", type=int, default=default["seed"])
        sp.add_argument("--out", type=Path, default=default["out"])
        sp.add_argument("--format", choices=("csv", "json"), default=default["format"])
        sp.add_argument("--grid", type=int, default=default["grid"])
        if name == "two-to-one":
            sp.add_argument("--w", type=float, default=default["w"],
                            help="mixture weight on the negative branch")
        if name in ("cov-linear-mvn", "regression-compare"):
            sp.add_argument("--sigma", type=float, default=default["sigma"])
        if name == "regression-compare":
            sp.add_argument("--xstar", type=float, default=default["xstar"])
        if name == "stochastic-map-mean":
            sp.add_argument("--n", type=int, default=default["n"],
                            help="number of replicate observables")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = RunConfig(**vars(parser.parse_args(argv)))
    except ValueError as err:  # a flag value out of range: usage error, exit 2
        parser.error(str(err))
    return run_example(cfg)


def entry_point() -> None:
    """Console script and ``python -m``: an example that raises exits 2, untraced."""
    try:
        code = main()
    except (SipLabError, ValueError, ArithmeticError) as err:
        print(f"sip-lab: error: {type(err).__name__}: {err}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
