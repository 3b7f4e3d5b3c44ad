"""The numpy kernels against independent references."""

import math

import numpy as np
import pytest

from sip_lab import _kernels


def _dumb_kde_log_pdf(points, data, bw):
    """Independent oracle: direct per-point Python loop."""
    out = np.empty(points.shape[0])
    m, d = data.shape
    norm = (2 * math.pi) ** (-d / 2) / (m * np.prod(bw))
    for i, x in enumerate(points):
        total = 0.0
        for row in data:
            z = (x - row) / bw
            total += math.exp(-0.5 * float(z @ z))
        out[i] = math.log(norm * total) if total > 0 else -math.inf
    return out


@pytest.fixture
def kde_case():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((300, 2))
    points = rng.standard_normal((50, 2)) * 2
    bw = np.array([0.3, 0.4])
    return points, data, bw


def test_numpy_kde_matches_oracle(kde_case):
    points, data, bw = kde_case
    expected = _dumb_kde_log_pdf(points, data, bw)
    np.testing.assert_allclose(_kernels.kde_log_pdf(points, data, bw),
                               expected, rtol=1e-12)


def _unblocked_kde_log_pdf(points, data, bandwidth):
    """Reference: the (chunk, m) exponent-matrix formulation, whose values
    the blocked in-place kernel must reproduce bit for bit."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    data = np.atleast_2d(np.asarray(data, dtype=float))
    bandwidth = np.asarray(bandwidth, dtype=float)
    n, d = points.shape
    m = data.shape[0]
    log_norm = -0.5 * d * math.log(2.0 * math.pi) - math.log(m) - np.log(bandwidth).sum()
    out = np.empty(n)
    chunk = max(1, int(4e6 // max(m, 1)))
    scaled_data = data / bandwidth
    for start in range(0, n, chunk):
        pts = points[start : start + chunk] / bandwidth
        expo = np.zeros((pts.shape[0], m))
        for j in range(d):
            diff = pts[:, j, None] - scaled_data[None, :, j]
            expo -= 0.5 * diff * diff
        emax = expo.max(axis=1)
        safe = np.where(np.isfinite(emax), emax, 0.0)
        acc = np.exp(expo - safe[:, None]).sum(axis=1)
        vals = log_norm + safe + np.log(acc)
        vals[~np.isfinite(emax)] = -np.inf
        out[start : start + chunk] = vals
    return out


_BLOCK = _kernels.KDE_BLOCK_FLOATS


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n, m", [
    (1, 300),                     # a single point
    (3 * _BLOCK // 200 + 7, 200),  # n not a multiple of the block's rows
    (3, _BLOCK + 5),              # a block is one row
    (40, 1),                      # one centre
])
def test_blocked_kde_equals_unblocked(d, n, m):
    rng = np.random.default_rng(100 * d + n)
    data = rng.standard_normal((m, d))
    points = rng.standard_normal((n, d)) * 2.0
    bw = rng.uniform(0.1, 0.6, size=d)
    expected = _unblocked_kde_log_pdf(points, data, bw)
    assert np.array_equal(_kernels.kde_log_pdf(points, data, bw), expected)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_blocked_kde_equals_unblocked_far_tail_and_nonfinite(d):
    rng = np.random.default_rng(d)
    data = rng.standard_normal((500, d))
    bw = np.full(d, 0.25)
    special = [1e5, -1e5, np.inf, -np.inf, np.nan]
    points = np.vstack([np.full((len(special), d), np.array(special)[:, None]),
                        rng.standard_normal((4, d))])
    points[-1, 0] = np.nan   # one non-finite coordinate among finite ones
    points[-2, -1] = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = _unblocked_kde_log_pdf(points, data, bw)
        got = _kernels.kde_log_pdf(points, data, bw)
    assert np.array_equal(got, expected)
    assert np.all(np.isfinite(got[:2]))      # +-1e5 keeps a finite log-density
    assert np.all(got[2:5] == -np.inf) and np.all(got[-2:] == -np.inf)


def test_pairwise_dists_backends_agree():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((80, 3))
    # oracle: direct norm computation
    oracle = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    got = _kernels.pairwise_dists(x)
    np.testing.assert_allclose(got, oracle, atol=1e-12)
    assert np.array_equal(got, got.T) and np.all(np.diag(got) == 0.0)
    # the rectangular form: rows of x against rows of another array
    y = rng.standard_normal((31, 3))
    oracle_xy = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
    np.testing.assert_allclose(_kernels.pairwise_dists(x, y), oracle_xy, atol=1e-12)


def _loop_energy_stats(dists, groupings, n1):
    """Reference: the within- and between-sample sums as explicit loops."""
    b, n = groupings.shape
    n2 = n - n1
    out = np.empty(b)
    for t in range(b):
        s_xx = s_xy = s_yy = 0.0
        for a in range(n):
            row = dists[groupings[t, a]]
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


def test_energy_stats_backends_agree():
    rng = np.random.default_rng(13)
    pooled = rng.standard_normal((60, 2))
    dists = _kernels.pairwise_dists(pooled)
    groupings = np.vstack([np.arange(60)] +
                          [rng.permutation(60) for _ in range(20)]).astype(np.int64)
    np.testing.assert_allclose(_kernels.energy_stats(pooled, groupings, 25),
                               _loop_energy_stats(dists, groupings, 25), rtol=1e-12)


def test_energy_statistic_oracle_two_points():
    # two singleton groups at distance 2: statistic = (1*1/2) * (2*2) = 2
    stats = _kernels.energy_stats(np.array([[0.0], [2.0]]), np.array([[0, 1]]), 1)
    assert stats[0] == pytest.approx(2.0)


def _gather_energy_stats(pooled, groupings, n1):
    """Reference: each grouping's within- and between-sample sums gathered
    from the whole distance matrix, built from coordinate differences."""
    dists = np.linalg.norm(pooled[:, None, :] - pooled[None, :, :], axis=-1)
    n2 = pooled.shape[0] - n1
    out = np.empty(groupings.shape[0])
    for t, grouping in enumerate(groupings):
        first, second = grouping[:n1], grouping[n1:]
        s_xx = dists[np.ix_(first, first)].sum()
        s_xy = dists[np.ix_(first, second)].sum()
        s_yy = dists[np.ix_(second, second)].sum()
        coef = n1 * n2 / (n1 + n2)
        out[t] = coef * (2.0 * s_xy / (n1 * n2) - s_xx / (n1 * n1) - s_yy / (n2 * n2))
    return out


@pytest.mark.parametrize("n1, n2, d", [(700, 600, 3), (1, 513, 2), (257, 256, 1)])
def test_energy_stats_across_block_edges(n1, n2, d):
    # every size puts rows past the first ENERGY_BLOCK-row block; 1 + 513
    # leaves a last block of two rows and 257 + 256 one of a single row.
    # (A second sample of a single row would not do: s_yy = total - 2 zr + zdz
    # then cancels to zero, and the rounding of total alone is ~1e-10 of the
    # statistic, blocked or not.)
    assert n1 + n2 > _kernels.ENERGY_BLOCK
    rng = np.random.default_rng(17)
    pooled = np.vstack([rng.standard_normal((n1, d)),
                        rng.standard_normal((n2, d)) + 0.1])
    n = n1 + n2
    groupings = np.vstack([np.arange(n)] +
                          [rng.permutation(n) for _ in range(15)]).astype(np.int64)
    stats = _kernels.energy_stats(pooled, groupings, n1)
    oracle = _gather_energy_stats(pooled, groupings, n1)
    np.testing.assert_allclose(stats, oracle, rtol=0, atol=1e-11 * np.abs(oracle).max())
    assert np.sum(stats[1:] >= stats[0]) == np.sum(oracle[1:] >= oracle[0])
