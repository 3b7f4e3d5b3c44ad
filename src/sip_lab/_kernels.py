"""Hot numeric kernels, in numpy.

The expensive inner loops in this package are Gaussian-KDE evaluation
(every grid point against every sample), pairwise distance matrices, and
the energy-distance permutation statistics.  Each has one vectorized numpy
implementation that works through blocks of bounded size: the KDE through
blocks of evaluation points, the energy statistics through square blocks
of the upper triangle of the pooled distance matrix, which is never held
whole.
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

# Edge of the square distance blocks of the energy statistics: 512 rows, a
# 2 MiB block of float64 distances (four KDE buffers).  On a Xeon core with a
# 2 MiB L2, 256- to 512-row blocks ran a 2048-row test fastest, 1024 rows
# about a third slower and the whole matrix twice as slow.
ENERGY_BLOCK = 2 * math.isqrt(KDE_BLOCK_FLOATS)


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


def pairwise_dists(x: np.ndarray, y: np.ndarray = None) -> np.ndarray:
    """Euclidean distances between the rows of ``x`` and the rows of ``y``.

    With ``y=None`` this is ``x`` against itself: a symmetric matrix with an
    exactly zero diagonal.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    other = x if y is None else np.atleast_2d(np.asarray(y, dtype=float))
    d2 = (np.sum(x * x, axis=1)[:, None] + np.sum(other * other, axis=1)[None, :]
          - 2.0 * (x @ other.T))
    np.maximum(d2, 0.0, out=d2)
    if y is None:
        np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2, out=d2)


def energy_stats(points: np.ndarray, groupings: np.ndarray, n1: int) -> np.ndarray:
    """Two-sample energy statistic of ``points`` for each row of ``groupings``.

    Each grouping row is a permutation of ``0..n-1``; its first ``n1``
    entries index the first sample, the rest the second.  Row 0 is
    conventionally the identity (the observed labeling).  With ``z`` the
    (n, b) indicator matrix of each grouping's first sample, its
    within-sample sums are ``z' D z`` and the row sums of the distance
    matrix ``D`` give the rest.  ``D`` is never held whole: it is made one
    square block of ``ENERGY_BLOCK`` rows at a time over its upper block
    triangle, and each block off the diagonal counts for its mirror image.
    ``z`` indexes the smaller sample (the statistic is symmetric): ``s_yy``
    is a difference of sums over all n rows, which cancels when it is small.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    groupings = np.asarray(groupings, dtype=np.int64)
    n1 = int(n1)
    n = points.shape[0]
    if n - n1 < n1:
        groupings, n1 = groupings[:, ::-1], n - n1
    b = groupings.shape[0]
    n2 = n - n1
    z = np.zeros((n, b))
    z[groupings[:, :n1].T, np.arange(b)[None, :]] = 1.0
    zdz = np.zeros(b)
    rowsum = np.zeros(n)
    for i in range(0, n, ENERGY_BLOCK):
        ie = min(i + ENERGY_BLOCK, n)
        for j in range(i, n, ENERGY_BLOCK):
            je = min(j + ENERGY_BLOCK, n)
            block = pairwise_dists(points[i:ie], None if j == i else points[j:je])
            weight = 1.0 if j == i else 2.0
            zdz += weight * np.einsum("ib,ib->b", z[i:ie], block @ z[j:je])
            rowsum[i:ie] += block.sum(axis=1)
            if j > i:
                rowsum[j:je] += block.sum(axis=0)
    zr = z.T @ rowsum
    total = rowsum.sum()
    s_xy = zr - zdz
    s_xx = zdz
    s_yy = total - 2.0 * zr + zdz
    coef = n1 * n2 / (n1 + n2)
    return coef * (2.0 * s_xy / (n1 * n2) - s_xx / (n1 * n1) - s_yy / (n2 * n2))
