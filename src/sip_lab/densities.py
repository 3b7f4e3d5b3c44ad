"""Probability densities over R^d: abstraction plus the concrete families used here.

Every density carries an axis-aligned box support (optionally sharpened by an
indicator predicate), vectorized ``pdf``/``log_pdf``, an optional sampler
taking a caller-owned generator, and, when available, analytic per-marginal
CDFs for goodness-of-fit testing.  Densities are immutable after
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln, ndtr, ndtri

from . import _kernels
from .errors import DomainError, NotPositiveDefiniteError
from .sampling import KIND_ROWS, SampleBatch, rng_for, theta_labels

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
    """Axis-aligned box, optionally intersected with an indicator predicate."""

    lower: np.ndarray
    upper: np.ndarray
    indicator: object = None  # callable (n, d) -> bool mask, or None

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("support bounds must have equal length")
        if np.any(lo >= hi):
            raise DomainError(f"empty support box: lower={lo}, upper={hi}")
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
        mask = np.all((pts >= self.lower) & (pts <= self.upper), axis=1)
        if self.indicator is not None and mask.any():
            mask = mask & np.asarray(self.indicator(pts), dtype=bool)
        return mask


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
    """Nonnegative weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
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

    Exactly one of ``log_pdf_fn``/``pdf_fn`` drives evaluation; the other is
    derived so that ``exp(log_pdf) == pdf`` holds identically.  Both core
    functions receive an (n, d) array of in-support points and return (n,)
    values; the wrappers zero the density (log: ``-inf``) outside support.
    """

    def __init__(self, dim, support, log_pdf_fn=None, pdf_fn=None, sample_fn=None,
                 marginal_cdfs=None, name="", gaussian=None):
        if (log_pdf_fn is None) == (pdf_fn is None):
            raise ValueError("provide exactly one of log_pdf_fn / pdf_fn")
        self.dim = int(dim)
        self.support = support
        self._log_pdf_fn = log_pdf_fn
        self._pdf_fn = pdf_fn
        self._sample_fn = sample_fn
        self._marginal_cdfs = marginal_cdfs
        self.name = name
        self.gaussian = gaussian

    @property
    def has_sampler(self) -> bool:
        return self._sample_fn is not None

    @property
    def has_marginal_cdfs(self) -> bool:
        return self._marginal_cdfs is not None

    def pdf(self, x) -> np.ndarray | float:
        pts, single = as_points(x, self.dim)
        out = np.zeros(pts.shape[0])
        mask = self.support.contains(pts)
        if mask.any():
            if self._pdf_fn is not None:
                out[mask] = self._pdf_fn(pts[mask])
            else:
                out[mask] = np.exp(self._log_pdf_fn(pts[mask]))
        return float(out[0]) if single else out

    def log_pdf(self, x) -> np.ndarray | float:
        pts, single = as_points(x, self.dim)
        out = np.full(pts.shape[0], -np.inf)
        mask = self.support.contains(pts)
        if mask.any():
            if self._log_pdf_fn is not None:
                out[mask] = self._log_pdf_fn(pts[mask])
            else:
                with np.errstate(divide="ignore"):
                    out[mask] = np.log(self._pdf_fn(pts[mask]))
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


def draw(density: Density, n: int, seed: int, labels=None) -> SampleBatch:
    """Seeded convenience wrapper returning a SampleBatch."""
    data = density.sample(rng_for(seed, KIND_ROWS, 0), n)
    labels = tuple(labels) if labels is not None else theta_labels(density.dim)
    return SampleBatch(data=data, labels=labels, seed=seed)


# ---------------------------------------------------------------------------
# Concrete families
# ---------------------------------------------------------------------------


def make_gaussian(params: GaussianParams) -> Density:
    """Multivariate normal density with Cholesky-based sampling.

    Raises
    ------
    NotPositiveDefiniteError
        If the covariance has a nonpositive eigenvalue (raised by
        ``GaussianParams`` itself, naming the offending eigenvalue).
    """
    if not isinstance(params, GaussianParams):
        params = GaussianParams(np.asarray(params[0]), np.asarray(params[1]))
    d = params.dim
    chol = np.linalg.cholesky(params.cov)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    sigmas = np.sqrt(np.diag(params.cov))

    def log_pdf_fn(pts):
        z = np.linalg.solve(chol, (pts - params.mean).T)
        return -0.5 * (d * _LOG_2PI + log_det + np.sum(z * z, axis=0))

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
    single uniform draw yields one sample.
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if lo >= hi:
        raise DomainError(f"empty truncation interval ({lo}, {hi})")
    alpha = (lo - mu) / sigma
    beta = (hi - mu) / sigma
    cdf_lo = float(ndtr(alpha))
    mass = float(ndtr(beta)) - cdf_lo
    if mass <= 0:
        raise DomainError(f"truncation interval ({lo}, {hi}) carries no Gaussian mass")
    log_mass = math.log(mass)

    def log_pdf_fn(pts):
        z = (pts[:, 0] - mu) / sigma
        return -0.5 * (z * z + _LOG_2PI) - math.log(sigma) - log_mass

    def sample_fn(rng, n):
        u = rng.random(n)
        return (mu + sigma * ndtri(cdf_lo + u * mass)).reshape(n, 1)

    def marginal_cdfs(j, x):
        return np.clip((ndtr((x - mu) / sigma) - cdf_lo) / mass, 0.0, 1.0)

    return Density(1, Support([lo], [hi]), log_pdf_fn=log_pdf_fn, sample_fn=sample_fn,
                   marginal_cdfs=marginal_cdfs, name="truncated_gaussian")


def make_beta(a: float, b: float) -> Density:
    """Beta(a, b) on (0, 1); sampling delegates to the generator's gamma-ratio method."""
    if a <= 0 or b <= 0:
        raise DomainError(f"beta shapes must be positive, got a={a}, b={b}")
    log_norm = gammaln(a + b) - gammaln(a) - gammaln(b)

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


def make_mixture(components: list[Density], w: MixtureWeights) -> Density:
    """Finite mixture: pdf(x) = sum_i w_i pdf_i(x).

    The sampler draws a component index and then one draw from that
    component, sequentially on the caller's generator.
    """
    if not isinstance(w, MixtureWeights):
        w = MixtureWeights(np.asarray(w, dtype=float))
    if len(components) != len(w):
        raise ValueError(f"{len(components)} components but {len(w)} weights")
    dims = {c.dim for c in components}
    if len(dims) != 1:
        raise ValueError(f"mixture components disagree on dimension: {sorted(dims)}")
    d = dims.pop()
    weights = w.weights
    lower = np.min([c.support.lower for c in components], axis=0)
    upper = np.max([c.support.upper for c in components], axis=0)

    def indicator(pts):
        mask = np.zeros(pts.shape[0], dtype=bool)
        for c in components:
            mask |= c.support.contains(pts)
        return mask

    def pdf_fn(pts):
        out = np.zeros(pts.shape[0])
        for wi, c in zip(weights, components):
            if wi > 0:
                out += wi * c.pdf(pts)
        return out

    sampleable = all(c.has_sampler for c in components)

    def sample_fn(rng, n):
        idx = rng.choice(len(components), size=n, p=weights)
        out = np.empty((n, d))
        for i, c in enumerate(components):
            rows = np.flatnonzero(idx == i)
            if rows.size:
                out[rows] = c.sample(rng, rows.size)
        return out

    cdfable = all(c.has_marginal_cdfs for c in components)

    def marginal_cdfs(j, x):
        return sum(wi * c.marginal_cdf(j, x) for wi, c in zip(weights, components))

    return Density(d, Support(lower, upper, indicator=indicator), pdf_fn=pdf_fn,
                   sample_fn=sample_fn if sampleable else None,
                   marginal_cdfs=marginal_cdfs if cdfable else None,
                   name="mixture")


def scott_bandwidth(data: np.ndarray) -> np.ndarray:
    """Per-dimension Scott's rule: sigma_hat_j * m**(-1/(d+4))."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    m, d = data.shape
    return data.std(axis=0, ddof=1) * m ** (-1.0 / (d + 4))


def fit_kde(samples, bandwidth=None) -> Density:
    """Gaussian-kernel KDE with a diagonal bandwidth matrix.

    Parameters
    ----------
    samples : SampleBatch or (m, d) array
        Training draws, m >= 2.
    bandwidth : (d,) array, optional
        Kernel standard deviations; defaults to per-dimension Scott's rule.

    The resulting pdf is strictly positive on all of R^d and integrates to
    one by construction.  Evaluation runs in the blocked numpy kernel
    ``_kernels.kde_log_pdf``.
    """
    data = samples.data if isinstance(samples, SampleBatch) else samples
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    m, d = data.shape
    if m < 2:
        raise ValueError(f"KDE needs at least 2 samples, got {m} (bandwidth undefined)")
    if bandwidth is None:
        bandwidth = scott_bandwidth(data)
    bandwidth = np.atleast_1d(np.asarray(bandwidth, dtype=float))
    if np.any(bandwidth <= 0) or not np.all(np.isfinite(bandwidth)):
        raise ValueError(
            "degenerate sample covariance: at least one coordinate has zero spread; "
            "jitter the samples or pass an explicit bandwidth"
        )

    def log_pdf_fn(pts):
        return _kernels.kde_log_pdf(pts, data, bandwidth)

    def sample_fn(rng, n):
        idx = rng.integers(0, m, size=n)
        return data[idx] + rng.standard_normal((n, d)) * bandwidth

    def marginal_cdfs(j, x):
        x = np.atleast_1d(x)
        out = np.empty(x.shape[0])
        chunk = max(1, int(2e6 // m))
        for s in range(0, x.shape[0], chunk):
            block = x[s : s + chunk]
            out[s : s + chunk] = ndtr(
                (block[:, None] - data[None, :, j]) / bandwidth[j]
            ).mean(axis=1)
        return out

    return Density(d, unbounded_support(d), log_pdf_fn=log_pdf_fn, sample_fn=sample_fn,
                   marginal_cdfs=marginal_cdfs, name="kde")
