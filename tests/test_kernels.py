"""The numpy kernels against independent references."""

import math
import warnings

import numpy as np
import pytest

from sip_lab import _kernels, fit_kde


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
    with np.errstate(divide="ignore", invalid="ignore"):  # the reference takes log(0)
        expected = _unblocked_kde_log_pdf(points, data, bw)
    got = _kernels.kde_log_pdf(points, data, bw)
    assert np.array_equal(got, expected)
    assert np.all(np.isfinite(got[:2]))      # +-1e5 keeps a finite log-density
    assert np.all(got[2:5] == -np.inf) and np.all(got[-2:] == -np.inf)


@pytest.mark.parametrize("d", [1, 2])
def test_kde_at_nonfinite_points_warns_nothing(d):
    # d = 1 reads the table, which sends these points to the exact kernel
    dens = fit_kde(np.random.default_rng(5).standard_normal((300, d)))
    assert dens.tabulated == (d == 1)
    points = np.zeros((4, d))
    points[0, 0], points[1, -1], points[2, 0] = np.inf, -np.inf, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dens.log_pdf(points)
        direct = _kernels.kde_log_pdf(points, dens.data, dens.bandwidth)
    assert np.all(got[:3] == -np.inf) and np.all(direct[:3] == -np.inf)
    assert np.isfinite(got[3]) and np.isfinite(direct[3])


@pytest.mark.parametrize("d", [1, 2])
def test_kde_slope_matches_central_differences(d):
    rng = np.random.default_rng(23 + d)
    data = rng.standard_normal((400, d))
    bw = np.full(d, 0.3)
    points = rng.standard_normal((30, d)) * 1.5
    slope = np.empty((30, d))
    values = _kernels.kde_log_pdf(points, data, bw, slope=slope)
    assert np.array_equal(values, _kernels.kde_log_pdf(points, data, bw))
    eps = 1e-5
    for j in range(d):
        step = np.zeros(d)
        step[j] = eps
        oracle = (_kernels.kde_log_pdf(points + step, data, bw)
                  - _kernels.kde_log_pdf(points - step, data, bw)) / (2 * eps)
        np.testing.assert_allclose(slope[:, j], oracle, rtol=0, atol=1e-8)


def _table_case(m):
    data = np.random.default_rng(m).standard_normal((m, 1))
    bw = np.array([data.std(ddof=1) * m ** -0.2])
    return data, bw, _kernels.kde_table(data, bw)


@pytest.mark.parametrize("m", [300, 2000, 10_000])
def test_kde_table_matches_exact_kernel(m):
    data, bw, table = _table_case(m)
    h = bw[0]
    assert table.lo <= data.min() - 8 * h
    top = table.lo + (table.nodes - 1) * table.step
    assert top >= data.max() + 8 * h and table.nodes <= _kernels.KDE_TABLE_MAX_NODES
    # nodes, midpoints and random points across the whole table
    x = np.concatenate([np.linspace(table.lo, top, 2 * table.nodes - 1),
                        np.random.default_rng(1).uniform(table.lo, top, 2000)])[:, None]
    error = np.abs(table.log_pdf(x) - _kernels.kde_log_pdf(x, data, bw))
    assert error.max() <= 1e-7
    # the estimate, made from the table alone, tracks the measured error
    assert 0.5 * error.max() <= table.error <= 2.0 * error.max()


def _windowed_case(name):
    rng = np.random.default_rng(7)
    if name.startswith("gaussian"):
        data, bw, _ = _table_case(int(name.split("-")[1]))
        return data, bw
    if name == "ties":
        # about 60 distinct values, each shared by about 30 centres
        data = np.round(rng.standard_normal((2000, 1)), 1)
        return data, fit_kde(data).bandwidth
    return {
        # the clusters' edges are about 34 bandwidths apart, beyond a node's reach
        "bimodal": np.concatenate([0.1 * rng.standard_normal((500, 1)),
                                   4.0 + 0.1 * rng.standard_normal((500, 1))]),
        # about 40 bandwidths beyond the bulk
        "outlier": np.append(0.3 * rng.standard_normal(999), 5.0)[:, None],
        "one_centre": np.array([[0.3]]),
    }[name], np.array([0.1])


@pytest.mark.parametrize("name", ["gaussian-300", "gaussian-2000", "gaussian-10000",
                                  "bimodal", "outlier", "one_centre", "ties"])
def test_kde_table_nodes_match_every_centre(name):
    # each node reads only the centres within its reach; the rest would add
    # less than 2**-53 of the kernel sum, so the nodes agree with the kernel
    # over every centre to rounding
    data, bw = _windowed_case(name)
    table = _kernels.kde_table(data, bw)
    x = table.lo + table.step * np.arange(table.nodes - 1)
    slope = np.empty((x.shape[0], 1))
    value = _kernels.kde_log_pdf(x[:, None], data, bw, slope=slope)
    np.testing.assert_allclose(table.coef[0], value, rtol=0, atol=1e-13)
    slope = slope[:, 0]
    assert np.all(np.abs(table.coef[1] / table.step - slope)
                  <= 1e-12 * np.maximum(1.0, np.abs(slope)))


def test_kde_table_reads_at_most_half_the_pairs(monkeypatch):
    pairs = []
    real = _kernels.kde_log_pdf

    def counting(points, data, bandwidth, slope=None):
        pairs.append(len(points) * len(data))
        return real(points, data, bandwidth, slope=slope)

    monkeypatch.setattr(_kernels, "kde_log_pdf", counting)
    data, bw, table = _table_case(10_000)
    assert 2 * sum(pairs) <= table.nodes * len(data)


def test_kde_table_off_table_points_are_exact():
    data, bw, table = _table_case(500)
    top = table.lo + (table.nodes - 1) * table.step
    x = np.array([table.lo - 1e-9, top + 1e-9, table.lo - 50.0, top + 1e5,
                  np.inf, -np.inf, np.nan, 0.0])[:, None]
    got = table.log_pdf(x)
    exact = _kernels.kde_log_pdf(x, data, bw)
    assert np.array_equal(got[:-1], exact[:-1], equal_nan=True)
    assert got[-1] == pytest.approx(exact[-1], abs=1e-7)


def test_kde_table_past_the_node_cap_is_not_built(monkeypatch):
    # centres 130 bandwidths apart need (130 + 16) * 32 + 1 > 4097 nodes
    calls = []
    monkeypatch.setattr(_kernels, "kde_log_pdf", lambda *args, **kw: calls.append(args))
    assert _kernels.kde_table(np.array([[0.0], [0.5], [130.0]]), np.array([1.0])) is None
    assert calls == []


def test_pairwise_dists_backends_agree():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((80, 3))
    # oracle: direct norm computation; x against itself off its diagonal, whose
    # rounding energy_stats overwrites with 0
    oracle = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    got = _kernels.pairwise_dists(x, x)
    np.fill_diagonal(got, 0.0)
    np.testing.assert_allclose(got, oracle, atol=1e-12)
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
    dists = np.linalg.norm(pooled[:, None, :] - pooled[None, :, :], axis=-1)
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


@pytest.mark.parametrize("n1, n2", [(513, 1), (1, 513)])
def test_energy_stats_unequal_groups_keep_full_precision(n1, n2):
    # a sample of one row has s_yy = total - 2 zr + zdz = 0 when z indexes
    # the other sample, which left the rounding of total (~1e-10 of the
    # statistic) in the result; z indexes the smaller sample in either order
    rng = np.random.default_rng(19)
    n = n1 + n2
    pooled = rng.standard_normal((n, 2))
    groupings = np.vstack([np.arange(n)] +
                          [rng.permutation(n) for _ in range(15)]).astype(np.int64)
    stats = _kernels.energy_stats(pooled, groupings, n1)
    oracle = _gather_energy_stats(pooled, groupings, n1)
    np.testing.assert_allclose(stats, oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())


def _allocating_energy_stats(points, groupings, n1):
    """Reference: the energy statistics with fresh arrays for every block,
    the centred points' squared distances made as one product of augmented
    rows, whose values the kernel's reused buffers must reproduce bit for
    bit."""
    points = points - points.mean(axis=0)
    n = points.shape[0]
    if n - n1 < n1:
        groupings, n1 = groupings[:, ::-1], n - n1
    b = groupings.shape[0]
    n2 = n - n1
    z = np.zeros((n, b))
    z[groupings[:, :n1].T, np.arange(b)[None, :]] = 1.0
    zdz = np.zeros(b)
    rowsum = np.zeros(n)
    edge = _kernels.ENERGY_BLOCK
    for i in range(0, n, edge):
        ie = min(i + edge, n)
        for j in range(i, n, edge):
            je = min(j + edge, n)
            x, y = points[i:ie], points[j:je]
            left = np.column_stack([x, np.einsum("ij,ij->i", x, x), np.ones(len(x))])
            right = np.column_stack([-2.0 * y, np.ones(len(y)), np.einsum("ij,ij->i", y, y)])
            block = np.sqrt(np.maximum(left @ right.T, 0.0))
            if j == i:
                np.fill_diagonal(block, 0.0)
            weight = 1.0 if j == i else 2.0
            zdz += weight * np.einsum("ib,ib->b", z[i:ie], block @ z[j:je])
            rowsum[i:ie] += block.sum(axis=1)
            if j > i:
                rowsum[j:je] += block.sum(axis=0)
    zr = z.T @ rowsum
    total = rowsum.sum()
    coef = n1 * n2 / (n1 + n2)
    return coef * (2.0 * (zr - zdz) / (n1 * n2) - zdz / (n1 * n1)
                   - (total - 2.0 * zr + zdz) / (n2 * n2))


@pytest.mark.parametrize("d", [1, 2, 11])
@pytest.mark.parametrize("n1, n2", [(1, 513), (700, 700), (1024, 1024), (900, 300)])
def test_energy_stats_buffers_equal_allocating_blocks(n1, n2, d):
    # 900 + 300 takes the swap branch (z indexes the second sample)
    rng = np.random.default_rng(n1 + d)
    n = n1 + n2
    pooled = rng.standard_normal((n, d))
    groupings = np.vstack([np.arange(n)] +
                          [rng.permutation(n) for _ in range(30)]).astype(np.int64)
    assert np.array_equal(_kernels.energy_stats(pooled, groupings, n1),
                          _allocating_energy_stats(pooled, groupings, n1))


@pytest.mark.parametrize("n1, n2", [(1024, 1024), (900, 300)])
def test_energy_stats_index_with_the_tables_own_dtype(n1, n2):
    # energy_distance_test builds its table as int32; the statistics are
    # those of the same table as int64, bit for bit
    rng = np.random.default_rng(n1 + 5)
    n = n1 + n2
    pooled = rng.standard_normal((n, 2))
    groupings = np.vstack([np.arange(n)] + [rng.permutation(n) for _ in range(200)])
    assert np.array_equal(_kernels.energy_stats(pooled, groupings.astype(np.int32), n1),
                          _kernels.energy_stats(pooled, groupings.astype(np.int64), n1))


def test_point_block_has_one_definition():
    """``ndtr`` and ``Density.log_pdf`` walk large arrays in blocks of one
    size, defined once in ``_kernels`` and imported by both, which define no
    block size of their own."""
    import re
    from pathlib import Path

    src = Path(_kernels.__file__).parent
    text = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    definitions = [(name, line) for name, body in text.items()
                   for line in body.splitlines() if re.match(r"\s*POINT_BLOCK\s*=", line)]
    assert definitions == [("_kernels.py", "POINT_BLOCK = 8192")]
    for name in ("_special.py", "densities.py"):
        assert "from ._kernels import POINT_BLOCK\n" in text[name]
        assert not re.search(r"^\w*BLOCK\w*\s*=", text[name], re.MULTILINE), name
