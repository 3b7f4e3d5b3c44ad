"""Backend equivalence: the numba kernels and the numpy fallbacks must agree."""

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
    np.testing.assert_allclose(_kernels.kde_log_pdf_numpy(points, data, bw),
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
    assert np.array_equal(_kernels.kde_log_pdf_numpy(points, data, bw), expected)


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
        got = _kernels.kde_log_pdf_numpy(points, data, bw)
    assert np.array_equal(got, expected)
    assert np.all(np.isfinite(got[:2]))      # +-1e5 keeps a finite log-density
    assert np.all(got[2:5] == -np.inf) and np.all(got[-2:] == -np.inf)


@pytest.mark.skipif(not _kernels.NUMBA_AVAILABLE, reason="numba not installed")
def test_numba_kde_matches_numpy(kde_case):
    points, data, bw = kde_case
    np.testing.assert_allclose(
        _kernels.kde_log_pdf_numba(points, data, bw),
        _kernels.kde_log_pdf_numpy(points, data, bw),
        rtol=1e-12,
    )


def test_pairwise_dists_backends_agree():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((80, 3))
    numpy_d = _kernels.pairwise_dists_numpy(x)
    # oracle: direct norm computation
    oracle = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    np.testing.assert_allclose(numpy_d, oracle, atol=1e-12)
    if _kernels.NUMBA_AVAILABLE:
        original = _kernels.backend()
        _kernels.set_backend("numba")
        try:
            np.testing.assert_allclose(_kernels.pairwise_dists(x), oracle, atol=1e-12)
        finally:
            _kernels.set_backend(original)


def test_energy_stats_backends_agree():
    rng = np.random.default_rng(13)
    pooled = rng.standard_normal((60, 2))
    dists = _kernels.pairwise_dists_numpy(pooled)
    groupings = np.vstack([np.arange(60)] +
                          [rng.permutation(60) for _ in range(20)]).astype(np.int64)
    via_numpy = _kernels.energy_stats_numpy(dists, groupings, 25)
    if _kernels.NUMBA_AVAILABLE:
        via_numba = _kernels._energy_stats_nb(
            np.ascontiguousarray(dists), np.ascontiguousarray(groupings), 25
        )
        np.testing.assert_allclose(via_numba, via_numpy, rtol=1e-12)


def test_energy_statistic_oracle_two_points():
    # two singleton groups at distance 2: statistic = (1*1/2) * (2*2) = 2
    dists = _kernels.pairwise_dists_numpy(np.array([[0.0], [2.0]]))
    stats = _kernels.energy_stats_numpy(dists, np.array([[0, 1]]), 1)
    assert stats[0] == pytest.approx(2.0)


def test_backend_switching():
    original = _kernels.backend()
    try:
        _kernels.set_backend("numpy")
        assert _kernels.backend() == "numpy"
        if _kernels.NUMBA_AVAILABLE:
            _kernels.set_backend("numba")
            assert _kernels.backend() == "numba"
        with pytest.raises(ValueError):
            _kernels.set_backend("cython")
    finally:
        _kernels.set_backend(original)


def test_env_flag_parsing(monkeypatch):
    monkeypatch.setenv("SIP_LAB_NUMBA", "0")
    assert not _kernels._env_wants_numba()
    monkeypatch.setenv("SIP_LAB_NUMBA", "off")
    assert not _kernels._env_wants_numba()
    monkeypatch.setenv("SIP_LAB_NUMBA", "1")
    assert _kernels._env_wants_numba()
    monkeypatch.delenv("SIP_LAB_NUMBA")
    assert _kernels._env_wants_numba()
