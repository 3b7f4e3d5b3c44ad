"""Statistical and numerical checks: goodness of fit, normalization, and
grid-based density comparison.

Every check returns a CheckReport whose pass flag is a pure function of
(statistic, threshold, comparison); all randomized checks are
deterministic given their seed.  KS p-values, always against an observable
law's analytic marginal CDFs, come from the limiting Kolmogorov distribution
in ``_special``; energy p-values stop early (Besag & Clifford 1991); the
pushforward check is Holm-corrected (1979).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._special import kolmogorov
from .densities import Density
from .forward_maps import eval_batch
from .sampling import KIND_PERMUTATION, KIND_PROBE, rng_for

ENERGY_MAX_GROUP = 1024
# permutations per energy test, and per p-value that the pushforward check corrects for
ENERGY_PERMUTATIONS = 200
# under the null, 0..24 of 24 permutations reach the observed one equally often: 2/25 go on
ENERGY_FIRST_BATCH = 24
# later batches end at multiples of 200, so at 2048 rows no indicator table passes 3.3 MB
ENERGY_BATCH = 200
# at level 2 / N the N-permutation test fails only for g <= 1, and a stop's 2 / L passes
ENERGY_STOP = 2


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    ``comparison`` is ``"ge"`` (statistic must be at least the threshold,
    e.g. a p-value against a level) or ``"le"`` (statistic must be at most
    the threshold, e.g. an error norm against a tolerance).
    """

    name: str
    statistic: float
    threshold: float
    comparison: str = "le"
    details: str = ""

    def __post_init__(self):
        if self.comparison not in ("ge", "le"):
            raise ValueError(f"comparison must be 'ge' or 'le', got {self.comparison!r}")

    @property
    def passed(self) -> bool:
        if self.comparison == "ge":
            return bool(self.statistic >= self.threshold)
        return bool(self.statistic <= self.threshold)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "details": self.details,
        }


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid on a finite box, ``num`` points per dimension."""

    lower: tuple
    upper: tuple
    num: int = 512

    def __post_init__(self):
        lower = tuple(float(v) for v in np.atleast_1d(self.lower))
        upper = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper):
            raise ValueError("grid bounds must have equal length")
        if self.num < 2:
            raise ValueError("need at least 2 grid points per dimension")
        if not all(np.isfinite(lower)) or not all(np.isfinite(upper)):
            raise ValueError("grid box must be finite")
        if not all(lo < hi for lo, hi in zip(lower, upper)):
            raise ValueError(f"empty or reversed grid box: lower={lower}, upper={upper}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, self.num) for lo, hi in zip(self.lower, self.upper)]

    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes(), indexing="ij", copy=False)
        return np.stack(mesh, axis=-1).reshape(-1, self.dim)

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoid integral of values given flat in the points() order."""
        block = np.asarray(values, dtype=float).reshape((self.num,) * self.dim)
        for axis_pts in reversed(self.axes()):
            block = np.trapezoid(block, x=axis_pts, axis=-1)
        return float(block)


def grid_for_support(density: Density) -> GridSpec:
    if not density.support.bounded:
        raise ValueError(
            f"density {density.name!r} has unbounded support; supply an "
            "effective grid box explicitly"
        )
    return GridSpec(tuple(density.support.lower), tuple(density.support.upper),
                    {1: 512, 2: 128}.get(density.dim, 96))


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------


def ks_test_1d(samples, cdf) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test against an analytic CDF.

    Returns (D, p) where D is the sup distance between the empirical and
    analytic CDFs and p comes from the asymptotic Kolmogorov distribution
    (trustworthy from a few dozen samples up).  Raises ValueError for no
    samples, a NaN sample, or a CDF that is non-monotone on the samples.
    """
    samples = np.sort(np.asarray(samples, dtype=float).ravel())
    n = samples.shape[0]
    if n < 1:
        raise ValueError("need at least one sample")
    missing = int(np.count_nonzero(np.isnan(samples)))
    if missing:
        raise ValueError(f"{missing} of the {n} samples are NaN")
    values = np.asarray(cdf(samples), dtype=float)
    if np.any(np.diff(values) < -1e-12):
        raise ValueError("cdf probe is non-monotone on the sample points")
    grid = np.arange(n, dtype=float)
    d_plus = np.max((grid + 1.0) / n - values)
    d_minus = np.max(values - grid / n)
    d_stat = max(d_plus, d_minus)
    p_value = float(kolmogorov(np.sqrt(n) * d_stat))
    return float(d_stat), p_value


def energy_distance_test(x: np.ndarray, y: np.ndarray, n_permutations: int = ENERGY_PERMUTATIONS,
                         seed: int = 0) -> tuple[float, float]:
    """Two-sample energy-distance permutation test (Szekely & Rizzo).

    ``x`` and ``y`` are (n, d) arrays of observations; a 1-D array is n
    scalar observations.  Groups larger than ENERGY_MAX_GROUP are truncated
    to their leading rows (the rows are iid, so this only costs power).
    Permutation k is the k-th permutation of the pooled rows on the test's
    one generator stream (seed, permutation-kind, 0), so the p-value does not
    depend on how the permutations are split into batches.  The statistics
    come from ``_kernels.energy_stats``, which walks the pooled distance
    matrix in blocks and never holds it whole.  Permutations are
    scored in batches (ENERGY_FIRST_BATCH, then up to each multiple of
    ENERGY_BATCH) until the ENERGY_STOP-th to reach the observed statistic,
    permutation L, gives Besag & Clifford's p = 2 / L; else p = (1 + g) /
    (n_permutations + 1).  A stop means g >= 2, so at levels up to
    2 / n_permutations (0.01 at 200) the verdict is the full test's.

    Raises ValueError for input of more than two dimensions, groups of unequal
    width, an empty group, a non-finite row among those tested, or fewer than
    one permutation.
    """
    if n_permutations < 1:
        raise ValueError(f"need at least one permutation, got {n_permutations}")
    groups = []
    for name, sample in (("x", x), ("y", y)):
        sample = np.asarray(sample, dtype=float)
        if sample.ndim > 2:
            raise ValueError(f"{name} must be 1-D or 2-D, got shape {sample.shape}")
        if sample.ndim < 2:
            sample = sample.reshape(-1, 1)
        sample = sample[:ENERGY_MAX_GROUP]
        if sample.shape[0] == 0:
            raise ValueError(f"{name} is empty: need at least one observation")
        bad = int(np.count_nonzero(~np.all(np.isfinite(sample), axis=1)))
        if bad:
            raise ValueError(f"{name} has {bad} non-finite row(s) among the "
                             f"{sample.shape[0]} tested")
        groups.append(sample)
    if groups[0].shape[1] != groups[1].shape[1]:
        raise ValueError(f"x has {groups[0].shape[1]} columns but y has {groups[1].shape[1]}")
    n1 = groups[0].shape[0]
    pooled = np.vstack(groups)
    total = pooled.shape[0]

    ends = sorted({min(ENERGY_FIRST_BATCH, n_permutations), n_permutations,
                   *range(ENERGY_BATCH, n_permutations, ENERGY_BATCH)})
    hits = []  # the 1-based index of each permutation that reaches the observed statistic
    rng = rng_for(seed, KIND_PERMUTATION, 0)
    for start, stop in zip([0, *ends], ends):
        groupings = np.tile(np.arange(total), (stop - start + 1, 1))  # int64 shuffles fastest
        rng.permuted(groupings[1:], axis=1, out=groupings[1:])  # successive permutation()s
        groupings = groupings.astype(np.int32)
        stats = _kernels.energy_stats(pooled, groupings, n1)
        observed = float(stats[0]) if not start else observed
        hits.extend(start + 1 + np.flatnonzero(stats[1:] >= stats[0]))
        if len(hits) >= ENERGY_STOP:
            return observed, ENERGY_STOP / float(hits[ENERGY_STOP - 1])
    return observed, (1 + len(hits)) / (n_permutations + 1)


def pushforward_check(samples, fmap, f_y: Density, alpha: float = 0.01,
                      seed: int = 0) -> CheckReport:
    """Do drawn solution samples actually push forward to the observable density?

    Maps the (m, p) ``samples`` and runs a KS test of each image coordinate
    against the observable's marginal CDF; for multivariate observables an
    energy-distance permutation test against min(m, ``ENERGY_MAX_GROUP``)
    observable draws (the rows it tests) is added, capped at k
    ``ENERGY_PERMUTATIONS`` so that it can fail at alpha / k.
    Passes when Holm's adjusted smallest of the k p-values, min(1, k p_min),
    is at least alpha.  An observable law must have dimension q, marginal CDFs,
    and a sampler when q >= 2; each lack raises a ValueError naming it.
    """
    theta = np.asarray(samples, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != fmap.p:
        raise ValueError(
            f"samples must be an (m, {fmap.p}) array for this map, "
            f"got shape {theta.shape}"
        )
    if f_y.dim != fmap.q:
        raise ValueError(f"observable density has dimension {f_y.dim}, expected q = {fmap.q}")
    images = eval_batch(fmap, theta)
    q = images.shape[1]

    p_values = []
    notes = []
    for j in range(q):
        _, p_j = ks_test_1d(images[:, j], lambda v, j=j: f_y.marginal_cdf(j, v))
        p_values.append(p_j)
        notes.append(f"ks[{j}]={p_j:.4g}")

    if q >= 2:
        reference = f_y.sample(rng_for(seed, KIND_PROBE, 2), min(len(theta), ENERGY_MAX_GROUP))
        _, p_energy = energy_distance_test(images, reference, (q + 1) * ENERGY_PERMUTATIONS,
                                           seed)
        p_values.append(p_energy)
        notes.append(f"energy={p_energy:.4g}")

    return CheckReport(name="pushforward",
                       statistic=float(min(1.0, len(p_values) * min(p_values))),
                       threshold=alpha, comparison="ge", details=", ".join(notes))


# ---------------------------------------------------------------------------
# Grid checks
# ---------------------------------------------------------------------------


def grid_compare(v1, v2, grid: GridSpec, tol: float,
                 normalize: bool = False) -> CheckReport:
    """Sup-norm (and L1) difference of two densities' values on a grid.

    ``v1`` and ``v2`` are the two densities evaluated at ``grid.points()``,
    in that order, so a caller that has already tabulated them on the grid
    does not evaluate them again.  With ``normalize`` each set of grid
    values is rescaled to unit trapezoid mass first (for comparing
    unnormalized ratio-form densities).
    """
    if grid.dim > 3:
        raise ValueError(f"grid comparison supports dims <= 3, got grid dim {grid.dim}")
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    size = grid.num**grid.dim
    if v1.shape != (size,) or v2.shape != (size,):
        raise ValueError(
            f"grid values must be flat arrays of the {size} grid points, "
            f"got shapes {v1.shape} and {v2.shape}"
        )
    if normalize:
        v1 = v1 / grid.integrate(v1)
        v2 = v2 / grid.integrate(v2)
    diff = np.abs(v1 - v2)
    sup = float(diff.max())
    l1 = grid.integrate(diff)
    return CheckReport(name="grid_compare", statistic=sup, threshold=tol,
                       comparison="le", details=f"sup={sup:.4g}, l1={l1:.4g}")


def normalization_check(density: Density, grid: GridSpec = None,
                        tol: float = 1e-3) -> CheckReport:
    """Trapezoid mass of the density over its (bounded) support box."""
    if grid is None:
        grid = grid_for_support(density)
    if grid.dim > 3:
        raise ValueError("quadrature check supports dim <= 3")
    mass = grid.integrate(np.asarray(density.pdf(grid.points()), dtype=float))
    return CheckReport(name="normalization", statistic=abs(mass - 1.0),
                       threshold=tol, comparison="le",
                       details=f"mass={mass:.8g} on {grid.num} pts/dim")
