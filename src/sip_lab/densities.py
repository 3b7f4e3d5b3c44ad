"""Probability densities over R^d: abstraction plus the concrete families used here.

Every density carries an axis-aligned box support, a vectorized ``log_pdf``
driven by one log-space function (``pdf`` is its ``exp``), an optional
sampler taking a caller-owned generator, and, when available, analytic
per-marginal CDFs for goodness-of-fit testing.  Every family writes its log
density directly, so no density takes the log of a ``pdf`` that has
underflowed to zero.  The normal and beta formulas draw their special
functions from ``_special`` (numpy and the standard library).
Densities are immutable after construction, apart from the one-dimensional
KDE's log-density table, a cache built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from ._kernels import POINT_BLOCK
from ._special import betainc, in_ndtr_core, log_beta, ndtr, ndtr_core, ndtri
from .errors import DomainError, NotPositiveDefiniteError
from .sampling import KIND_ROWS, rng_for

_LOG_2PI = math.log(2.0 * math.pi)


def as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce ``x`` to an (n, dim) array; second value is True for a single point."""
    x = np.asarray(x, dtype=float)
    if dim == 1:
        if x.ndim == 0:
            return x.reshape(1, 1), True
        if x.ndim == 1:
            return x.reshape(-1, 1), False
        if x.ndim == 2 and x.shape[1] == 1:
            return x, False
    else:
        if x.ndim == 1 and x.shape[0] == dim:
            return x.reshape(1, dim), True
        if x.ndim == 2 and x.shape[1] == dim:
            return x, False
    raise ValueError(f"cannot interpret array of shape {x.shape} as points in R^{dim}")


@dataclass(frozen=True)
class Support:
    """Axis-aligned box; a density may still vanish at points inside it."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("support bounds must have equal length")
        if not np.all(lo < hi):
            raise DomainError(f"empty or undefined support box: lower={lo}, upper={hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inside = np.ones(pts.shape[0], dtype=bool)
        for j in range(self.dim):
            inside &= (pts[:, j] >= self.lower[j]) & (pts[:, j] <= self.upper[j])
        return inside


def unbounded_support(dim: int) -> Support:
    return Support(np.full(dim, -np.inf), np.full(dim, np.inf))


@dataclass(frozen=True)
class GaussianParams:
    """Mean vector and strictly positive-definite covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError(f"mean and covariance must be finite, got {mean} and {cov}")
        asym = np.max(np.abs(cov - cov.T))
        if asym > 1e-12 * max(1.0, np.max(np.abs(cov))):
            raise ValueError(f"covariance is not symmetric (max asymmetry {asym:.3e})")
        eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        if eigvals[0] <= 0.0:
            raise NotPositiveDefiniteError(
                f"covariance is not positive definite: eigenvalue {eigvals[0]:.6g} <= 0"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class MixtureWeights:
    """Finite, nonnegative weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if not np.all(np.isfinite(w)):
            raise ValueError(f"mixture weights must be finite, got {w}")
        if np.any(w < 0):
            raise ValueError(f"negative mixture weight in {w}")
        total = w.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum {total:.12g}, expected 1")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.shape[0]


class Density:
    """Evaluable probability density with declared support.

    ``log_pdf_fn`` drives all evaluation: it receives an (n, d) array of
    in-support points and returns (n,) log densities.  ``log_pdf`` is
    ``-inf`` outside the support, and ``pdf`` is the ``exp`` of ``log_pdf``.
    More than ``POINT_BLOCK`` points reach ``log_pdf_fn`` in blocks, which
    keeps its temporaries small and gives the values of one call.  A solution
    density may lack a sampler or marginal CDFs; an observable law may not,
    and ``sample`` and ``marginal_cdf`` raise ValueError naming a density
    that lacks them.
    """

    def __init__(self, dim, support, log_pdf_fn, sample_fn=None,
                 marginal_cdfs=None, name="", gaussian=None):
        self.dim = int(dim)
        self.support = support
        self._log_pdf_fn = log_pdf_fn
        self._sample_fn = sample_fn
        self._marginal_cdfs = marginal_cdfs
        self.name = name
        self.gaussian = gaussian

    def pdf(self, x) -> np.ndarray | float:
        pts, single = as_points(x, self.dim)
        out = self.log_pdf(pts)
        np.exp(out, out=out)
        return float(out[0]) if single else out

    def log_pdf(self, x) -> np.ndarray | float:
        pts, single = as_points(x, self.dim)
        mask = self.support.contains(pts)
        inside = pts if mask.all() else pts[mask]
        n = inside.shape[0]
        if n > POINT_BLOCK:
            values = np.empty(n)
            # a lone last point joins the last block: a one-row product can round differently
            starts = range(0, n - 1, POINT_BLOCK)
            for start, stop in zip(starts, [*starts[1:], n]):
                values[start:stop] = self._log_pdf_fn(inside[start:stop])
            if inside is pts:
                return values
        else:
            values = self._log_pdf_fn(inside) if n else -np.inf
        # allocated after the log density returns, so its temporaries and
        # this array are never live at once
        out = np.full(pts.shape[0], -np.inf)
        out[mask] = values
        return float(out[0]) if single else out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points as an (n, d) array using the caller's generator."""
        if self._sample_fn is None:
            raise ValueError(f"density {self.name!r} has no sampler")
        return self._sample_fn(rng, int(n))

    def marginal_cdf(self, j: int, x) -> np.ndarray:
        """CDF of coordinate ``j`` evaluated at the 1-d array ``x``."""
        if self._marginal_cdfs is None:
            raise ValueError(f"density {self.name!r} has no analytic marginal CDFs")
        return self._marginal_cdfs(int(j), np.asarray(x, dtype=float))


def draw(density: Density, n: int, seed: int) -> np.ndarray:
    """The (n, d) array of n draws of ``density`` for root seed ``seed``."""
    return density.sample(rng_for(seed, KIND_ROWS, 0), n)


# ---------------------------------------------------------------------------
# Concrete families
# ---------------------------------------------------------------------------


def make_gaussian(params: GaussianParams) -> Density:
    """Multivariate normal density with Cholesky-based sampling.

    The log density is forward substitution on the Cholesky factor L, scaling by
    1 / diag(L), one product at a time, and sums the squares in coordinate order,
    so that in every dimension a point rounds alike alone and in a batch.

    Raises
    ------
    NotPositiveDefiniteError
        If the covariance has a nonpositive eigenvalue (raised by
        ``GaussianParams`` itself, naming the offending eigenvalue).
    """
    d = params.dim
    chol = np.linalg.cholesky(params.cov)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    recip = 1.0 / np.diag(chol)
    sigmas = np.sqrt(np.diag(params.cov))

    def log_pdf_fn(pts):
        z = np.subtract(pts.T, params.mean[:, None], order="C")
        # inf * 0 where an infinite coordinate meets a zero entry of L: NaN, as in LAPACK
        with np.errstate(invalid="ignore"):
            for j in range(d):
                for k in range(j):
                    z[j] -= chol[j, k] * z[k]
                z[j] *= recip[j]
        # summed row by row: a pairwise sum's order depends on the batch
        return -0.5 * (d * _LOG_2PI + log_det + sum(row * row for row in z))

    def sample_fn(rng, n):
        z = rng.standard_normal((n, d))
        return params.mean + z @ chol.T

    def marginal_cdfs(j, x):
        return ndtr((x - params.mean[j]) / sigmas[j])

    return Density(d, unbounded_support(d), log_pdf_fn=log_pdf_fn, sample_fn=sample_fn,
                   marginal_cdfs=marginal_cdfs, name="gaussian", gaussian=params)


def make_truncated_gaussian(mu: float, sigma: float, lo: float, hi: float) -> Density:
    """N(mu, sigma^2) restricted to (lo, hi) and renormalized.

    The sampler uses the inverse CDF restricted to the truncated range, so a
    single uniform draw yields one sample.  An interval above the mean is
    handled as the mirror image of one below it, where ``ndtr`` keeps its
    relative accuracy instead of rounding to 1.
    """
    if not (math.isfinite(mu) and 0 < sigma < math.inf):
        raise DomainError(f"need a finite mu and a finite positive sigma, got {mu}, {sigma}")
    if not lo < hi:
        raise DomainError(f"empty or undefined truncation interval ({lo}, {hi})")
    alpha = (lo - mu) / sigma
    beta = (hi - mu) / sigma
    # above the mean, work with Z' = -Z on (-beta, -alpha), away from ndtr's 1
    flip = -1.0 if alpha > 0 else 1.0
    if flip < 0:
        alpha, beta = -beta, -alpha
    # Phi - shift: on an interval inside ndtr's erf branch, Phi - 1/2, so that
    # the mass is not the difference of two CDFs near 1/2
    if in_ndtr_core(alpha) and in_ndtr_core(beta):
        shift, phi = 0.5, lambda z: ndtr_core(np.clip(z, alpha, beta))
    else:
        shift, phi = 0.0, ndtr
    phi_lo = float(phi(alpha))
    mass = float(phi(beta)) - phi_lo
    cdf_lo = shift + phi_lo  # ndtr(alpha), to the bit
    if mass <= 0:
        raise DomainError(f"truncation interval ({lo}, {hi}) carries no Gaussian mass")
    log_mass = math.log(mass)

    def log_pdf_fn(pts):
        z = (pts[:, 0] - mu) / sigma
        return -0.5 * (z * z + _LOG_2PI) - math.log(sigma) - log_mass

    def sample_fn(rng, n):
        u = rng.random(n)
        return (mu + flip * sigma * ndtri(cdf_lo + u * mass)).reshape(n, 1)

    def marginal_cdfs(j, x):
        cdf = np.clip((phi(flip * (x - mu) / sigma) - phi_lo) / mass, 0.0, 1.0)
        return cdf if flip > 0 else 1.0 - cdf

    return Density(1, Support([lo], [hi]), log_pdf_fn=log_pdf_fn, sample_fn=sample_fn,
                   marginal_cdfs=marginal_cdfs, name="truncated_gaussian")


def make_beta(a: float, b: float) -> Density:
    """Beta(a, b) on (0, 1); sampling delegates to the generator's gamma-ratio method."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise DomainError(f"beta shapes must be finite and positive, got a={a}, b={b}")
    log_norm = -log_beta(a, b)

    def log_pdf_fn(pts):
        x = pts[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(a == 1.0, 0.0, (a - 1.0) * np.log(x))
            t2 = np.where(b == 1.0, 0.0, (b - 1.0) * np.log1p(-x))
        return log_norm + t1 + t2

    def sample_fn(rng, n):
        return rng.beta(a, b, size=n).reshape(n, 1)

    def marginal_cdfs(j, x):
        return betainc(a, b, np.clip(x, 0.0, 1.0))

    return Density(1, Support([0.0], [1.0]), log_pdf_fn=log_pdf_fn, sample_fn=sample_fn,
                   marginal_cdfs=marginal_cdfs, name="beta")


def make_uniform(lower, upper) -> Density:
    """Uniform density on a finite box."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    support = Support(lower, upper)
    if not support.bounded:
        raise DomainError("uniform density requires a finite box")
    d = support.dim
    log_vol = float(np.sum(np.log(upper - lower)))

    def log_pdf_fn(pts):
        return np.full(pts.shape[0], -log_vol)

    def sample_fn(rng, n):
        return lower + rng.random((n, d)) * (upper - lower)

    def marginal_cdfs(j, x):
        return np.clip((x - lower[j]) / (upper[j] - lower[j]), 0.0, 1.0)

    return Density(d, support, log_pdf_fn=log_pdf_fn, sample_fn=sample_fn,
                   marginal_cdfs=marginal_cdfs, name="uniform")


def scott_bandwidth(data: np.ndarray) -> np.ndarray:
    """Per-dimension Scott's rule: sigma_hat_j * m**(-1/(d+4))."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    m, d = data.shape
    return data.std(axis=0, ddof=1) * m ** (-1.0 / (d + 4))


class KdeDensity(Density):
    """Gaussian-kernel KDE of the (m, d) ``data``; made by :func:`fit_kde`."""

    def __init__(self, data: np.ndarray, bandwidth: np.ndarray):
        self.data = data
        self.bandwidth = bandwidth
        super().__init__(data.shape[1], unbounded_support(data.shape[1]),
                         log_pdf_fn=self._log_pdf, sample_fn=self._sample,
                         marginal_cdfs=self._marginal_cdf, name="kde")

    @cached_property
    def table(self) -> _kernels.KdeTable | None:
        """The log-density table of a 1-D KDE, built on first use.

        None when the KDE has d >= 2 or its span needs more than
        ``_kernels.KDE_TABLE_MAX_NODES`` nodes.
        """
        return _kernels.kde_table(self.data, self.bandwidth) if self.dim == 1 else None

    @property
    def tabulated(self) -> bool:
        """Whether evaluation reads the table rather than every kernel: it
        exists and its estimated error is within ``KDE_TABLE_TOL``."""
        return self.table is not None and self.table.error <= _kernels.KDE_TABLE_TOL

    def _log_pdf(self, pts):
        if self.tabulated:
            return self.table.log_pdf(pts)
        return _kernels.kde_log_pdf(pts, self.data, self.bandwidth)

    def _sample(self, rng, n):
        m, d = self.data.shape
        idx = rng.integers(0, m, size=n)
        return self.data[idx] + rng.standard_normal((n, d)) * self.bandwidth

    def _marginal_cdf(self, j, x):
        x = np.atleast_1d(x)
        out = np.empty(x.shape[0])
        chunk = max(1, int(2e6 // self.data.shape[0]))
        for s in range(0, x.shape[0], chunk):
            block = x[s : s + chunk]
            out[s : s + chunk] = ndtr(
                (block[:, None] - self.data[None, :, j]) / self.bandwidth[j]
            ).mean(axis=1)
        return out


def fit_kde(samples, bandwidth=None) -> KdeDensity:
    """Gaussian-kernel KDE with a diagonal bandwidth matrix.

    Parameters
    ----------
    samples : (m, d) array, or (m,) for d = 1
        Training draws, m >= 2.
    bandwidth : (d,) array, optional
        Kernel standard deviations, each positive and finite; defaults to
        per-dimension Scott's rule.  A scalar is taken for d = 1 only.

    The resulting pdf is strictly positive on all of R^d and integrates to
    one by construction.  In d >= 2 evaluation runs every kernel in the
    blocked numpy kernel ``_kernels.kde_log_pdf``.  In one dimension the
    first evaluation builds a ``_kernels.KdeTable`` of the log density and
    its slope (at most ``KDE_TABLE_MAX_NODES`` nodes, ``h / 32`` apart, over
    the centres +- 8 bandwidths, each node summing only the centres that
    move it by more than rounding), and later ones interpolate it by cubic
    Hermite, to an error the table estimates from itself.  Points off the
    table, and every point when the span needs more nodes or the estimate
    exceeds ``KDE_TABLE_TOL``, get the exact kernel.
    """
    data = np.asarray(samples, dtype=float)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    m, d = data.shape
    if m < 2:
        raise ValueError(f"KDE needs at least 2 samples, got {m} (bandwidth undefined)")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"KDE samples must be finite, got a NaN or an inf among {m} rows")
    explicit = bandwidth is not None
    bandwidth = np.atleast_1d(np.asarray(bandwidth, dtype=float)) if explicit \
        else scott_bandwidth(data)
    if bandwidth.shape != (d,):
        raise ValueError(f"bandwidth has length {bandwidth.size}; the data have d = {d} "
                         "dimensions and need one bandwidth per dimension")
    if not np.all((bandwidth > 0) & np.isfinite(bandwidth)):
        raise ValueError(
            f"bandwidth must be positive and finite, got {bandwidth}" if explicit else
            "degenerate sample covariance: at least one coordinate has zero spread; "
            "jitter the samples or pass an explicit bandwidth"
        )
    return KdeDensity(data, bandwidth)
