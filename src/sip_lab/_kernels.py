"""Hot numeric kernels, in numpy.

The expensive inner loops in this package are Gaussian-KDE evaluation
(every grid point against every sample), pairwise distance matrices, and
the energy-distance permutation statistics.  Each has one vectorized numpy
implementation that works through blocks of bounded size: the KDE through
blocks of evaluation points, the energy statistics through square blocks
of the upper triangle of the pooled distance matrix, which is never held
whole.

A one-dimensional KDE can instead be read from a ``KdeTable``: the exact
log density and its analytic slope at nodes ``h / 32`` apart over the
centres +- 8 bandwidths, interpolated by cubic Hermite.  Each node sums
only the sorted centres close enough to move its value by more than
rounding, found by ``searchsorted``.  Its error is
estimated from the table alone (every odd node interpolated from its even
neighbours at twice the spacing, the residual scaled by 2**-4).  Points off
the table, tables that would need more than ``KDE_TABLE_MAX_NODES`` nodes
and tables whose estimate exceeds ``KDE_TABLE_TOL`` all use the exact kernel.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass

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

# Points per block of ``ndtr`` and ``Density.log_pdf``: 64 KiB float64 temporaries
POINT_BLOCK = 8192

# Edge of the square distance blocks of the energy statistics: 256 rows, a
# 512 KiB block (one KDE buffer).  On a Xeon core with a 4 MiB L2, 2048 rows
# took 10.5-11.3 ms for 25 groupings (d = 2 and 10) and 25 ms for 177, against
# 11.5-11.8 and 28.4 ms at 512 rows and 12.3-12.8 and 29.2 ms at 128.
ENERGY_BLOCK = math.isqrt(KDE_BLOCK_FLOATS)

# The 1-D KDE table: node spacing and reach beyond the outermost centres, in
# bandwidths; the most nodes a table may have (a wider span, from outliers or
# heavy tails, stays exact); the largest estimated |error| in log density it
# may have.  At spacing h / 32 the error is a few 1e-8 for Gaussian data.
KDE_TABLE_STEP = 1.0 / 32
KDE_TABLE_REACH = 8.0
KDE_TABLE_MAX_NODES = 4097
KDE_TABLE_TOL = 1e-6


# ---------------------------------------------------------------------------
# Gaussian KDE log-density
# ---------------------------------------------------------------------------


def kde_log_pdf(points: np.ndarray, data: np.ndarray, bandwidth: np.ndarray,
                slope: np.ndarray = None) -> np.ndarray:
    """Log-density of a diagonal-bandwidth Gaussian KDE at ``points``.

    Parameters
    ----------
    points : (n, d) evaluation points
    data : (m, d) kernel centers
    bandwidth : (d,) per-dimension kernel standard deviations
    slope : (n, d) array, optional
        Receives the gradient of the log density, ``sum_i w_i (x_i - x) /
        (h**2 sum_i w_i)`` with ``w_i`` each centre's kernel weight, made in
        the same blocked pass from the weights already in the buffer.  It is
        undefined at points whose log density is ``-inf``.

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
        if slope is not None:
            slope[start:stop] = sq @ scaled_data
    if slope is not None:
        slope /= acc[:, None]
        slope -= pts
        slope /= bandwidth
    finite = np.isfinite(low)
    # acc is 0 (or nan) where low is not finite: no log is taken there
    out = log_norm - 0.5 * np.where(finite, low, 0.0) + np.log(acc, out=acc, where=finite)
    out[~finite] = -np.inf
    return out


@dataclass(frozen=True, eq=False)
class KdeTable:
    """Cubic-Hermite table of a 1-D Gaussian KDE's log density.

    Node ``j`` sits at ``lo + j * step``; column ``j`` of the (4, nodes - 1)
    ``coef`` holds the cubic ``c0 + u (c1 + u (c2 + u c3))`` of the interval
    from node ``j`` to ``j + 1``, in its local coordinate ``u`` in [0, 1].
    ``error`` is the estimated largest |error| in log density between nodes.
    """

    data: np.ndarray
    bandwidth: np.ndarray
    lo: float
    step: float
    coef: np.ndarray
    error: float

    @property
    def nodes(self) -> int:
        return self.coef.shape[1] + 1

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Interpolated log density at the (n, 1) ``points``.

        Points outside ``[lo, lo + (nodes - 1) * step]``, infinities and
        nans get the exact kernel's value.
        """
        t = (points[:, 0] - self.lo) / self.step
        on = (t >= 0.0) & (t <= self.nodes - 1)
        out = np.empty(t.shape[0])
        if not on.all():
            out[~on] = kde_log_pdf(points[~on], self.data, self.bandwidth)
            t = t[on]
        i = np.minimum(t.astype(np.intp), self.nodes - 2)
        t -= i  # now the local coordinate u
        c0, c1, c2, c3 = self.coef
        value = c3[i]
        for c in (c2, c1, c0):
            value *= t
            value += c[i]
        out[on] = value
        return out


def kde_table(data: np.ndarray, bandwidth: np.ndarray) -> KdeTable | None:
    """Tabulate the 1-D KDE of the (m, 1) ``data`` with ``(1,)`` ``bandwidth``.

    The nodes are ``KDE_TABLE_STEP`` bandwidths apart and reach
    ``KDE_TABLE_REACH`` bandwidths beyond the outermost centres, padded to an
    odd count.  Each node reads only the sorted centres within
    ``R = sqrt(delta**2 + 2 h**2 (ln m + 53 ln 2))`` of it, with ``delta``
    its distance to the nearest centre (Greengard & Strain's truncated Gauss
    sum): a centre beyond ``R`` weighs less than ``2**-53 / m`` of the
    nearest, so the skipped centres together change the kernel sum by less
    than ``2**-53`` of itself.  Values and slopes come from ``kde_log_pdf``
    over blocks of consecutive nodes and the union of their windows, each
    block at most ``KDE_BLOCK_FLOATS`` node-centre pairs (one row at least),
    its log density shifted from its window's normalisation to m centres'.
    The error estimate interpolates every odd node from its even
    neighbours, at twice the spacing, and divides the largest residual by
    16, since the Hermite error scales as the fourth power of the spacing.
    Returns None, having evaluated nothing, when the span needs more than
    ``KDE_TABLE_MAX_NODES`` nodes.
    """
    h = float(bandwidth[0])
    step = KDE_TABLE_STEP * h
    lo = float(data[:, 0].min()) - KDE_TABLE_REACH * h
    span = float(data[:, 0].max()) + KDE_TABLE_REACH * h - lo
    nodes = 2 * math.ceil(span / (2.0 * step)) + 1
    if nodes > KDE_TABLE_MAX_NODES:
        return None
    x = lo + step * np.arange(nodes, dtype=float)
    sorted_centres = np.sort(data[:, 0])
    m = sorted_centres.shape[0]
    right = np.minimum(np.searchsorted(sorted_centres, x), m - 1)
    near = np.minimum(np.abs(x - sorted_centres[np.maximum(right - 1, 0)]),
                      np.abs(x - sorted_centres[right]))
    reach = np.sqrt(near * near + 2.0 * h * h * (math.log(m) + 53.0 * math.log(2.0)))
    # x - reach and x + reach rise with x (|d reach / dx| = near / reach < 1),
    # so the window of nodes i..j-1 is first[i]:stop[j - 1]
    first = np.searchsorted(sorted_centres, x - reach).tolist()
    stop = np.searchsorted(sorted_centres, x + reach, side="right").tolist()
    centres = sorted_centres[:, None]
    value = np.empty(nodes)
    grad = np.empty((nodes, 1))
    i = 0
    while i < nodes:
        rows = min(nodes - i, max(1, KDE_BLOCK_FLOATS // (stop[i] - first[i])))
        while rows > 1 and rows * (stop[i + rows - 1] - first[i]) > KDE_BLOCK_FLOATS:
            rows //= 2
        j = i + rows
        a, b = first[i], stop[j - 1]
        value[i:j] = kde_log_pdf(x[i:j, None], centres[a:b], bandwidth, slope=grad[i:j])
        value[i:j] += math.log((b - a) / m)  # the block's normalisation is 1 / (b - a)
        i = j
    # slopes in units of one interval, as the local coordinate u needs them
    slope = grad[:, 0] * step
    rise = np.diff(value)
    coef = np.stack([value[:-1], slope[:-1],
                     3.0 * rise - 2.0 * slope[:-1] - slope[1:],
                     slope[:-1] + slope[1:] - 2.0 * rise])
    # Hermite midpoint at spacing 2 step: (v0 + v1) / 2 + 2 step (d0 - d1) / 8
    coarse = 0.5 * (value[:-2:2] + value[2::2]) + 0.25 * (slope[:-2:2] - slope[2::2])
    error = float(np.max(np.abs(coarse - value[1::2]))) / 16.0
    return KdeTable(data, bandwidth, lo, step, coef, error)


# ---------------------------------------------------------------------------
# Energy-distance permutation statistics
# ---------------------------------------------------------------------------


def pairwise_dists(x: np.ndarray, y: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Euclidean distances between the rows of ``x`` and the rows of ``y``.

    The squared distances are one product, ``[x, |x|^2, 1] @ [-2 y, 1,
    |y|^2]^T``, clipped at 0, into ``out`` when given.  Against itself ``x``
    is neither exactly symmetric nor 0 on its diagonal.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    left = np.column_stack([x, np.einsum("ij,ij->i", x, x), np.ones(x.shape[0])])
    right = np.column_stack([-2.0 * y, np.ones(y.shape[0]), np.einsum("ij,ij->i", y, y)])
    d2 = np.matmul(left, right.T, out=out)
    np.maximum(d2, 0.0, out=d2)
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
    triangle; each block off the diagonal counts for its mirror image, and
    each block on it has its own diagonal set to 0.  The points are centred
    first, since ``pairwise_dists``' norm expansion loses digits far from 0.
    ``z`` indexes the smaller sample (the statistic is symmetric): ``s_yy``
    is a difference of sums over all n rows, which cancels when it is small.
    Each block and its product with ``z`` are made in two buffers per call.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    points = points - points.mean(axis=0)
    groupings = np.asarray(groupings)  # any integer dtype indexes as it is
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
    dist, dz = np.empty(ENERGY_BLOCK * ENERGY_BLOCK), np.empty(ENERGY_BLOCK * b)
    for i in range(0, n, ENERGY_BLOCK):
        ie = min(i + ENERGY_BLOCK, n)
        for j in range(i, n, ENERGY_BLOCK):
            je = min(j + ENERGY_BLOCK, n)
            rows, cols = ie - i, je - j
            block = pairwise_dists(points[i:ie], points[j:je],
                                   out=dist[: rows * cols].reshape(rows, cols))
            if j == i:
                np.fill_diagonal(block, 0.0)
            weight = 1.0 if j == i else 2.0
            block_z = np.matmul(block, z[j:je], out=dz[: rows * b].reshape(rows, b))
            zdz += weight * np.einsum("ib,ib->b", z[i:ie], block_z)
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
