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
from .forward_maps import linear_map, null_space_rows, square_map
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
    weights = np.array([cfg.w, 1.0 - cfg.w])
    solution = cov_mixture_family(square_map(-1.0, 1.0), make_uniform([0.0], [1.0]),
                                  two_to_one_partition(), weights)
    samples = solution.sample(cfg.samples, cfg.seed)
    result, _ = _tabulated(samples, solution.density, GridSpec((-1.0,), (1.0,), cfg.grid))
    result.checks.append(pushforward_check(samples, solution.fmap, solution.f_y, seed=cfg.seed))
    result.checks.append(normalization_check(solution.density))
    return result


def _run_bbe_linear(cfg: RunConfig) -> ExampleResult:
    solution = bbe_linear(np.array([[-1.0 / 3.0, 4.0 / 3.0]]),
                          make_truncated_gaussian(0.5, 0.25, 0.0, 1.0),
                          bounds=(np.array([-1.0]), np.array([1.0])))
    samples = solution.sample(cfg.samples, cfg.seed)
    result, _ = _tabulated(samples, solution.density,
                           GridSpec((-1.6, -0.4), (1.2, 1.6), cfg.grid))
    result.checks.append(pushforward_check(samples, solution.fmap, solution.f_y, seed=cfg.seed))
    return result


def _run_bbe_polar(cfg: RunConfig) -> ExampleResult:
    solution = bbe_polar(make_beta(8.0, 12.0))
    samples = solution.sample(cfg.samples, cfg.seed)
    result, _ = _tabulated(samples, solution.density,
                           GridSpec((0.0, 0.0), (1.0, 1.0), cfg.grid))
    result.checks.append(pushforward_check(samples, solution.fmap, solution.f_y, seed=cfg.seed))
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
    result.checks.append(pushforward_check(samples, solution.fmap, solution.f_y, seed=cfg.seed))
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
    single, double = bjw_sequential_update(initial, fmap,
                                           make_gaussian(GaussianParams([0.3], [[0.16]])),
                                           make_gaussian(GaussianParams([-0.2], [[0.36]])))
    samples = double.sample(cfg.samples, cfg.seed)
    grid = GridSpec((-2.5, -2.5), (2.5, 2.5), cfg.grid)
    result, table = _tabulated(samples, single.density, grid,
                               extra={"double_update": double.density})
    result.checks.append(grid_compare(table[:, -2], table[:, -1], grid, tol=1e-8))
    result.checks.append(pushforward_check(samples, double.fmap, double.f_y, seed=cfg.seed))
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
    solution = cov_exact(linear_map(X), make_gaussian(y_params))
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
    result.checks.append(pushforward_check(samples, solution.fmap, solution.f_y, seed=cfg.seed))
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
    solution = intuitive_sample(linear_map(np.array([[1.0, 1.0]])),
                                make_gaussian(GaussianParams([0.0], [[2.0]])),
                                make_gaussian(GaussianParams([0.0], [[1.0]])))
    data = solution.sample(cfg.samples, cfg.seed)
    result, _ = _tabulated(data, solution.density,
                           GridSpec((-6.0, -4.0), (6.0, 4.0), cfg.grid))
    result.checks.append(pushforward_check(data, solution.fmap, solution.f_y, seed=cfg.seed))
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
FORMAT_BLOCK = 4096  # values _format17 formats at a time

# _format17 scales |x| in (1e-200, 1e200) by 10^(16 - k), k = floor(log10 |x|)
# in [-200, 200], where no partial product leaves the normal range.  Column
# k - _K_MIN of _POW10 holds (hi, hi's Dekker halves, lo), 10^(16 - k) as a
# double-double made exactly from Python ints the first time k is seen.
_K_MIN, _K_MAX = -200, 200
_POW10 = np.full((4, _K_MAX - _K_MIN + 1), np.nan)
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
# a cell's bytes come from a 36-byte row: "000" and the 17 digits, then these
_PALETTE = np.frombuffer(b"-.e+0123456789\0\0", dtype=np.uint32)
_MINUS, _POINT, _E, _PLUS, _ZERO = 20, 21, 22, 23, 24


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """'0000'..'9999' as uint32 words of four ASCII digits, and the number of
    trailing zeros of each (4 for '0000')."""
    i = np.arange(10_000)
    text = np.column_stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10]) + ord("0")
    zeros = sum((i % 10**j == 0).astype(np.int8) for j in range(1, 5))
    return text.astype(np.uint8).view(np.uint32).ravel(), zeros


def _make_pow10(columns: np.ndarray) -> None:
    for column in columns.tolist():
        n = 16 - (column + _K_MIN)
        num, den = (10**n, 1) if n >= 0 else (1, 10**-n)
        hi = num / den  # int true division rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        c = _SPLIT * hi
        hi_hi = c - (c - hi)
        _POW10[:, column] = hi, hi_hi, hi - hi_hi, (num * hi_den - hi_num * den) / (den * hi_den)


@functools.cache
def _layout(key: int) -> np.ndarray:
    """The row bytes, in order, of the cells of one (sign, exponent, count of
    significant digits) key, as %.17g lays them out."""
    key, negative = divmod(key, 2)
    exp, count = divmod(key, 17)
    exp, count = exp + _K_MIN, count + 1
    digits = list(range(3, 3 + count))
    if -4 <= exp < 17:  # fixed notation
        if exp < 0:
            cells = [_ZERO, _POINT] + [_ZERO] * (-exp - 1) + digits
        else:
            whole = list(range(3, 4 + exp))
            cells = whole + ([_POINT] + digits[exp + 1:] if count > exp + 1 else [])
    else:
        cells = digits[:1] + ([_POINT] + digits[1:] if count > 1 else [])
        cells += [_E, _MINUS if exp < 0 else _PLUS] + [_ZERO + int(c) for c in f"{abs(exp):02d}"]
    return np.array([_MINUS] * negative + cells, dtype=np.intp)


def _format17(values) -> np.ndarray:
    """``f"{v:.17g}".encode()`` of each float64, as an S24 array.

    |x| is scaled by 10^(16 - k), k = floor(log10 |x|), with Dekker's exact
    two-product (Numer. Math. 18, 1971; numpy has no fma): the product is a
    double p plus a residual r within 1e-14 of exact, and its 17 significant
    digits are N = p + floor(r) + (frac(r) > 1/2).  N never rounds up to 1e17:
    doubles below 10^(k + 1) lie at least 1e-16 of it away, and the 17th digit
    rounds at 5e-18.  A value keeps N only when the product lies in [1e16,
    1e17) and frac(r) is more than 1e-9 from 1/2; every other value (0, -0,
    NaN, inf, |x| outside (1e-200, 1e200), a near-tie) is formatted by Python
    on its own.  Cells are laid out once per (sign, exponent, count of
    significant digits), an int16 key that numpy sorts by radix.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out = np.empty(values.size, dtype="S24")
    for start in range(0, values.size, FORMAT_BLOCK):
        out[start:start + FORMAT_BLOCK] = _format17_block(values[start:start + FORMAT_BLOCK])
    return out


def _round17(x: np.ndarray):
    """(N, k, fast): |x| rounded to 17 significant digits is N 10^(k - 16),
    1e16 <= N < 1e17, where ``fast``; N is 1e16 elsewhere."""
    a = np.abs(x)
    fast = (a > 1e-200) & (a < 1e200)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    column = k - _K_MIN
    unmade = np.bincount(column, minlength=_POW10.shape[1]).astype(bool) & np.isnan(_POW10[0])
    if unmade.any():
        _make_pow10(np.flatnonzero(unmade))
    hi, hi_hi, hi_lo, lo = _POW10.take(column, axis=1)
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    r = (((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    whole = np.floor(r)
    frac = r - whole
    fast &= (p >= 1e16) & (p < 1e17) & ((p > 1e16) | (r >= 0.0)) & (np.abs(frac - 0.5) > 1e-9)
    n = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    n[~fast] = 10**16
    return n, k, fast


def _format17_block(x: np.ndarray) -> np.ndarray:
    n, k, fast = _round17(x)
    # N as five groups of four digits, the first "000d"
    upper, lower = np.divmod(n, 10**8)
    top, mid = np.divmod(upper, 10**8)
    quads = [top, *np.divmod(mid, 10**4), *np.divmod(lower, 10**4)]
    text, zeros = _digit_tables()
    trailing = zeros.take(quads[4])
    rest = np.flatnonzero(quads[4] == 0)
    for quad in quads[3:0:-1]:  # while the groups after it are all zeros
        trailing[rest] += zeros.take(quad[rest])
        rest = rest[quad[rest] == 0]
    key = (((k - _K_MIN) * 17 + 16 - trailing) * 2 + np.signbit(x)).astype(np.int16)
    key[~fast] = -1

    # lay out each key's cells at once, in key order
    order = np.argsort(key, kind="stable")
    sorted_key = key.take(order)
    starts = np.flatnonzero(np.diff(sorted_key, prepend=-2))
    source = np.empty((x.size, 9), dtype=np.uint32)
    for j, quad in enumerate(quads):
        source[:, j] = text.take(quad.take(order))
    source[:, 5:] = _PALETTE
    source = source.view(np.uint8)
    cells = np.zeros((x.size, 24), dtype=np.uint8)
    bounds = starts.tolist() + [x.size]
    for begin, stop, group in zip(bounds[:-1], bounds[1:], sorted_key[starts].tolist()):
        if group >= 0:
            cols = _layout(group)
            cells[begin:stop, :cols.size] = source[begin:stop].take(cols, axis=1)
    result = np.empty(x.size, dtype="S24")
    result[order] = cells.view("S24").ravel()
    slow = np.flatnonzero(~fast)
    if slow.size:
        result[slow] = [f"{v:.17g}".encode() for v in x[slow].tolist()]
    return result


def _write_csv(path: Path, labels, rows: np.ndarray) -> None:
    # Each distinct value of a column is formatted once (grid coordinates
    # repeat --grid times and densities underflow to 0): the table's distinct
    # values go through _format17 together, exact %.17g made in numpy with a
    # per-value fallback.  Values are keyed by bit pattern, so -0.0 and 0.0,
    # and NaN payloads, stay apart.  A cell is its NUL-padded text and the
    # separator after it, "," or, in the last column, a newline; a block of
    # rows is written as its cells' bytes with the NULs dropped.
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    index = np.empty(rows.shape, dtype=np.int32)  # row, column -> distinct value
    distinct = []
    for j, col in enumerate(rows.T):
        keys, index[:, j] = np.unique(col.view(np.int64), return_inverse=True)
        index[:, j] += sum(map(len, distinct))
        distinct.append(keys)
    keys = np.concatenate(distinct)
    cells = np.zeros((keys.size, 25), dtype=np.uint8)
    cells[:, :24] = _format17(keys.view(np.float64)).view(np.uint8).reshape(-1, 24)
    cells[:, 24] = ord(",")
    cells[keys.size - distinct[-1].size:, 24] = ord("\n")
    cells = cells.view("V25").ravel()
    with open(path, "wb") as handle:
        handle.write(",".join(labels).encode() + b"\n")
        for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
            handle.write(cells.take(index[start:start + CSV_BLOCK_ROWS]).tobytes()
                         .translate(None, b"\0"))


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


# the flags only some examples take; every example takes every other flag
OWN_FLAGS = {"two-to-one": ("w",), "stochastic-map-mean": ("n",),
             "cov-linear-mvn": ("sigma",), "regression-compare": ("sigma", "xstar")}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # a flag per RunConfig field, typed by its default; RunConfig holds the defaults
    parser = argparse.ArgumentParser(
        prog="sip-lab", argument_default=argparse.SUPPRESS,
        description="Re-run the worked inverse-problem examples and verify them.")
    parser.add_argument("example", choices=(*EXAMPLES, "all"), metavar="EXAMPLE",
                        help="%(choices)s; all runs every example in one process")
    for f in fields(RunConfig)[1:]:
        takers = [name for name, own in OWN_FLAGS.items() if f.name in own] or ["every example"]
        parser.add_argument(f"--{f.name}", type=type(f.default),
                            choices=("csv", "json") if f.name == "format" else None,
                            help=f"default {f.default}; taken by {' and '.join(takers)}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    given = vars(parser.parse_args(argv))
    example = given.pop("example")
    others = {flag for own in OWN_FLAGS.values() for flag in own} - {*OWN_FLAGS.get(example, ())}
    if stray := [f"--{flag}" for flag in given if flag in others]:
        parser.error(f"unrecognized arguments for {example}: {' '.join(stray)}")
    names = EXAMPLES if example == "all" else (example,)
    try:
        cfgs = [RunConfig(name, **given) for name in names]
    except ValueError as err:  # a flag value out of range: usage error, exit 2
        parser.error(str(err))
    return max([run_example(cfg) for cfg in cfgs])  # the worst exit code


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
