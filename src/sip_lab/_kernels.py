"""Hot numeric kernels, in numpy.

The expensive inner loops in this package are Gaussian-KDE evaluation
(every grid point against every sample), pairwise distance matrices, and
the energy-distance permutation statistics.  Each has one vectorized numpy
implementation.
"""

from __future__ import annotations

import importlib.util
import math

import numpy as np

# perfbench/worker.py records these two in every run's metadata, so they keep
# their names.  There is no compiled backend: NUMBA_AVAILABLE only says whether
# numba could be imported, without importing it, and the backend is numpy.
NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None


def backend() -> str:
    """Name of the kernel backend: always ``"numpy"``."""
    return "numpy"


_LOG_2PI = math.log(2.0 * math.pi)

# Floats in the KDE's work buffer: 512 KiB, small enough to stay in a
# per-core L2 cache while each block is worked through seven passes.
KDE_BLOCK_FLOATS = 1 << 16


# ---------------------------------------------------------------------------
# Gaussian KDE log-density
# ---------------------------------------------------------------------------


def kde_log_pdf(points: np.ndarray, data: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
    """Log-density of a diagonal-bandwidth Gaussian KDE at ``points``.

    Parameters
    ----------
    points : (n, d) evaluation points
    data : (m, d) kernel centers
    bandwidth : (d,) per-dimension kernel standard deviations

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


# ---------------------------------------------------------------------------
# Energy-distance permutation statistics
# ---------------------------------------------------------------------------


def pairwise_dists(x: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix of the rows of ``x``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def energy_stats(dists: np.ndarray, groupings: np.ndarray, n1: int) -> np.ndarray:
    """Two-sample energy statistic for each row of ``groupings``.

    Each grouping row is a permutation of ``0..n-1``; its first ``n1``
    entries index the first sample, the rest the second.  Row 0 is
    conventionally the identity (the observed labeling).  The within- and
    between-sample distance sums come from indicator-vector matmuls.
    """
    dists = np.asarray(dists, dtype=float)
    groupings = np.asarray(groupings, dtype=np.int64)
    n1 = int(n1)
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
