"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The expensive inner loops in this package are Gaussian-KDE evaluation
(every grid point against every sample), pairwise distance matrices, and
the energy-distance permutation statistics.  Each is implemented twice: an
``@njit`` version and a vectorized numpy version; both return the same
values up to floating-point summation order.

Backend selection: numba is used when importable unless the environment
variable ``SIP_LAB_NUMBA`` is set to ``0``/``false``/``off`` at import time.
``set_backend`` overrides the choice at runtime (used by the benchmark and
the equivalence tests).  The energy statistics are the exception: the
BLAS-backed numpy formulation measured far faster than the compiled loop,
so it is used on every backend and the loop kernel serves as a cross-check.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap


_LOG_2PI = math.log(2.0 * math.pi)

# Floats in the numpy KDE's work buffer: 512 KiB, small enough to stay in a
# per-core L2 cache while each block is worked through seven passes.
KDE_BLOCK_FLOATS = 1 << 16


def _env_wants_numba() -> bool:
    flag = os.environ.get("SIP_LAB_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


_USE_NUMBA = NUMBA_AVAILABLE and _env_wants_numba()


def backend() -> str:
    """Name of the active kernel backend, ``"numba"`` or ``"numpy"``."""
    return "numba" if _USE_NUMBA else "numpy"


def set_backend(name: str) -> None:
    """Force the kernel backend; ``name`` is ``"numba"`` or ``"numpy"``."""
    global _USE_NUMBA
    if name == "numba":
        if not NUMBA_AVAILABLE:
            raise RuntimeError("numba is not importable in this environment")
        _USE_NUMBA = True
    elif name == "numpy":
        _USE_NUMBA = False
    else:
        raise ValueError(f"unknown backend {name!r}; expected 'numba' or 'numpy'")


# ---------------------------------------------------------------------------
# Gaussian KDE log-density
# ---------------------------------------------------------------------------


@njit(cache=True)
def _kde_log_pdf_nb(points, data, bandwidth):  # pragma: no cover - compiled
    n, d = points.shape
    m = data.shape[0]
    log_norm = -0.5 * d * _LOG_2PI - math.log(m)
    for j in range(d):
        log_norm -= math.log(bandwidth[j])
    out = np.empty(n)
    for i in range(n):
        # streaming logsumexp: one pass for the max, one for the sum
        emax = -np.inf
        for k in range(m):
            e = 0.0
            for j in range(d):
                z = (points[i, j] - data[k, j]) / bandwidth[j]
                e -= 0.5 * z * z
            if e > emax:
                emax = e
        if emax == -np.inf:
            out[i] = -np.inf
            continue
        acc = 0.0
        for k in range(m):
            e = 0.0
            for j in range(d):
                z = (points[i, j] - data[k, j]) / bandwidth[j]
                e -= 0.5 * z * z
            acc += math.exp(e - emax)
        out[i] = log_norm + emax + math.log(acc)
    return out


def kde_log_pdf_numpy(points: np.ndarray, data: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
    """Pure-numpy KDE log-density, one row block of squared distances at a time.

    Each block of ``KDE_BLOCK_FLOATS // m`` points (at least one) is worked
    in place in a single buffer: subtract, square (summed over dimensions),
    row minimum, shift by it, scale by -0.5, exp, row sum.  Scaling by -0.5
    after the shift rounds exactly as shifting ``-0.5 * sq`` by its maximum,
    so the values equal those of the unblocked ``(n, m)`` formulation.
    Points whose nearest squared distance is not finite (an inf or nan
    coordinate) get ``-inf``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    data = np.atleast_2d(np.asarray(data, dtype=float))
    bandwidth = np.asarray(bandwidth, dtype=float)
    n, d = points.shape
    m = data.shape[0]
    log_norm = -0.5 * d * _LOG_2PI - math.log(m) - np.log(bandwidth).sum()
    pts = points / bandwidth
    scaled_data = data / bandwidth
    # a second slab holds one dimension's squared differences while d > 1
    slabs = min(d, 2)
    rows = max(1, min(n, KDE_BLOCK_FLOATS // (slabs * m)))
    buf = np.empty((slabs, rows, m))
    low = np.empty(n)
    acc = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        sq = buf[0, : stop - start]
        np.subtract(pts[start:stop, 0, None], scaled_data[None, :, 0], out=sq)
        np.multiply(sq, sq, out=sq)
        for j in range(1, d):
            tmp = buf[1, : stop - start]
            np.subtract(pts[start:stop, j, None], scaled_data[None, :, j], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            sq += tmp
        blk_low = np.min(sq, axis=1, out=low[start:stop])
        sq -= np.where(np.isfinite(blk_low), blk_low, 0.0)[:, None]
        sq *= -0.5
        np.exp(sq, out=sq)
        np.sum(sq, axis=1, out=acc[start:stop])
    finite = np.isfinite(low)
    out = log_norm - 0.5 * np.where(finite, low, 0.0) + np.log(acc)
    out[~finite] = -np.inf
    return out


def kde_log_pdf_numba(points: np.ndarray, data: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
    points = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
    data = np.ascontiguousarray(np.atleast_2d(np.asarray(data, dtype=float)))
    bandwidth = np.ascontiguousarray(np.asarray(bandwidth, dtype=float))
    return _kde_log_pdf_nb(points, data, bandwidth)


def kde_log_pdf(points: np.ndarray, data: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
    """Log-density of a diagonal-bandwidth Gaussian KDE at ``points``.

    Parameters
    ----------
    points : (n, d) evaluation points
    data : (m, d) kernel centers
    bandwidth : (d,) per-dimension kernel standard deviations
    """
    if _USE_NUMBA:
        return kde_log_pdf_numba(points, data, bandwidth)
    return kde_log_pdf_numpy(points, data, bandwidth)


# ---------------------------------------------------------------------------
# Energy-distance permutation statistics
# ---------------------------------------------------------------------------


@njit(cache=True)
def _pairwise_dists_nb(x):  # pragma: no cover - compiled
    n, d = x.shape
    out = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            acc = 0.0
            for j in range(d):
                diff = x[i, j] - x[k, j]
                acc += diff * diff
            r = math.sqrt(acc)
            out[i, k] = r
            out[k, i] = r
    return out


def pairwise_dists_numpy(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def pairwise_dists(x: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix of the rows of ``x``."""
    if _USE_NUMBA:
        return _pairwise_dists_nb(np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=float))))
    return pairwise_dists_numpy(x)


@njit(cache=True)
def _energy_stats_nb(dists, groupings, n1):  # pragma: no cover - compiled
    b, n = groupings.shape
    n2 = n - n1
    out = np.empty(b)
    for t in range(b):
        s_xx = 0.0
        s_xy = 0.0
        s_yy = 0.0
        for a in range(n):
            ia = groupings[t, a]
            row = dists[ia]
            if a < n1:
                for c in range(n):
                    v = row[groupings[t, c]]
                    if c < n1:
                        s_xx += v
                    else:
                        s_xy += v
            else:
                for c in range(n1, n):
                    s_yy += row[groupings[t, c]]
        coef = n1 * n2 / (n1 + n2)
        out[t] = coef * (2.0 * s_xy / (n1 * n2) - s_xx / (n1 * n1) - s_yy / (n2 * n2))
    return out


def energy_stats_numpy(dists: np.ndarray, groupings: np.ndarray, n1: int) -> np.ndarray:
    """Energy statistics for each grouping via indicator-vector matmuls."""
    n = dists.shape[0]
    b = groupings.shape[0]
    n2 = n - n1
    z = np.zeros((n, b))
    rows = groupings[:, :n1].T
    z[rows, np.arange(b)[None, :]] = 1.0
    w = dists @ z
    zdz = np.einsum("ib,ib->b", z, w)
    rowsum = dists.sum(axis=1)
    zr = z.T @ rowsum
    total = dists.sum()
    s_xy = zr - zdz
    s_xx = zdz
    s_yy = total - 2.0 * zr + zdz
    coef = n1 * n2 / (n1 + n2)
    return coef * (2.0 * s_xy / (n1 * n2) - s_xx / (n1 * n1) - s_yy / (n2 * n2))


def energy_stats(dists: np.ndarray, groupings: np.ndarray, n1: int) -> np.ndarray:
    """Two-sample energy statistic for each row of ``groupings``.

    Each grouping row is a permutation of ``0..n-1``; its first ``n1``
    entries index the first sample, the rest the second.  Row 0 is
    conventionally the identity (the observed labeling).

    Always routed to the indicator-matmul formulation: benchmarking showed
    BLAS beats the explicit ``@njit`` loop by >20x here, so the compiled
    version survives only as a cross-check (see benchmarks/bench_kernels.py).
    """
    dists = np.asarray(dists, dtype=float)
    groupings = np.asarray(groupings, dtype=np.int64)
    return energy_stats_numpy(dists, groupings, int(n1))
