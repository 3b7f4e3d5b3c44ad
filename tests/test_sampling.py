"""Per-row sampling machinery: stream independence, block draws over per-row
streams, and retry bookkeeping."""

import numpy as np
import pytest

from sip_lab import (
    GaussianParams,
    fit_kde,
    make_beta,
    make_gaussian,
    make_truncated_gaussian,
    make_uniform,
)
from sip_lab.sampling import KIND_PILOT, KIND_ROWS, RowStreams, rng_for, rng_streams
from sip_lab.solvers import ROW_BLOCK


def seed_sequence_stream(seed, kind, index):
    """The stream as numpy seeds it, one SeedSequence per row."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, kind, index])))


class TestStreams:
    def test_same_coordinates_same_stream(self):
        a = rng_for(7, KIND_ROWS, 3).random(5)
        b = rng_for(7, KIND_ROWS, 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_rows_distinct_streams(self):
        a = rng_for(7, KIND_ROWS, 3).random(5)
        b = rng_for(7, KIND_ROWS, 4).random(5)
        assert not np.array_equal(a, b)

    def test_distinct_kinds_distinct_streams(self):
        a = rng_for(7, KIND_ROWS, 3).random(5)
        b = rng_for(7, KIND_PILOT, 3).random(5)
        assert not np.array_equal(a, b)


class TestRngStreams:
    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**70 + 3])
    def test_first_draws_match_seed_sequence(self, seed):
        for kind in range(5):
            for first, stop in [(0, 3), (5, 9), (ROW_BLOCK - 2, ROW_BLOCK + 3)]:
                streams = rng_streams(seed, kind, first, stop)
                assert len(streams) == stop - first
                for index, rng in zip(range(first, stop), streams):
                    reference = seed_sequence_stream(seed, kind, index)
                    assert rng.random() == reference.random()
                    assert rng.standard_normal() == reference.standard_normal()

    def test_one_row_and_last_index(self):
        last = 2**32 - 1
        for rng, index in [(rng_for(7, KIND_ROWS, 3), 3), (rng_for(7, KIND_ROWS, last), last)]:
            np.testing.assert_array_equal(
                rng.random(4), seed_sequence_stream(7, KIND_ROWS, index).random(4))

    def test_rng_for_is_the_first_of_rng_streams(self):
        for index in (0, 3, 2**32 - 1):
            (stream,) = rng_streams(7, KIND_ROWS, index, index + 1)
            np.testing.assert_array_equal(rng_for(7, KIND_ROWS, index).random(4),
                                          stream.random(4))

    def test_empty_range(self):
        assert rng_streams(7, KIND_ROWS, 5, 5) == []

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence([-1, KIND_ROWS, 0])  # the rule being mirrored
        with pytest.raises(ValueError):
            rng_streams(-1, KIND_ROWS, 0, 3)
        with pytest.raises(ValueError):
            rng_for(7, KIND_ROWS, 2**32)
        with pytest.raises(ValueError):
            rng_for(7, -1, 0)
        with pytest.raises(ValueError):
            rng_streams(7, KIND_ROWS, 2**32 - 1, 2**32 + 1)


def _streams(k):
    return [rng_for(7, KIND_ROWS, i) for i in range(k)]


def _per_row(density, k):
    """The reference: each row drawn alone, by a one-row call on its own stream."""
    return np.vstack([density.sample(rng, 1) for rng in _streams(k)])


class TestRowStreams:
    @pytest.mark.parametrize("method,args", [("random", ()), ("standard_normal", ()),
                                             ("beta", (2.0, 3.0)), ("integers", (0, 10))])
    @pytest.mark.parametrize("size", [5, (5,), (5, 3), (5, 1)])
    def test_row_i_is_stream_i_drawing_one_row(self, method, args, size):
        streams = _streams(5)
        block = getattr(RowStreams(streams), method)(*args, size=size)
        shape = tuple(np.atleast_1d(size))
        assert block.shape == shape
        for row, rng, ref in zip(block, streams, _streams(5)):
            one_row = getattr(ref, method)(*args, size=(1, *shape[1:]))
            np.testing.assert_array_equal(row, one_row[0])
            assert block.dtype == one_row.dtype
            # the next draw agrees too: the block left each stream where one row does
            assert getattr(rng, method)(*args) == getattr(ref, method)(*args)

    @pytest.mark.parametrize("size", [(5,), (5, 1), (5, 3)])
    def test_integers_then_normals_match_one_row_draws(self, size):
        # the KDE sampler's order: a centre index, then the kernel's normals
        streams = RowStreams(_streams(5))
        idx, z = streams.integers(0, 50, size=5), streams.standard_normal(size)
        for i, (rng, ref) in enumerate(zip(streams.rngs, _streams(5))):
            assert idx[i] == ref.integers(0, 50, size=1)[0]
            np.testing.assert_array_equal(z[i], ref.standard_normal((1, *size[1:]))[0])
            assert rng.integers(0, 50) == ref.integers(0, 50)
            assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("density", [
        make_uniform([-1.0, 2.0], [1.0, 5.0]),
        make_gaussian(GaussianParams([0.5], [[2.0]])),
        make_gaussian(GaussianParams([0.5, -1.0], np.diag([2.0, 0.5]))),
        make_truncated_gaussian(0.5, 0.25, 0.0, 1.0),
        make_beta(8.0, 12.0),
        # integers for the centres, then normals for the kernels
        fit_kde(np.random.default_rng(0).standard_normal((50, 2)), bandwidth=[0.3, 0.2]),
    ], ids=["uniform", "gaussian_1d", "gaussian_diagonal_2d", "truncated_gaussian", "beta",
            "kde"])
    def test_block_draw_equals_one_row_draws(self, density):
        k = 300
        np.testing.assert_array_equal(density.sample(RowStreams(_streams(k)), k),
                                      _per_row(density, k))

    @pytest.mark.parametrize("size", [4, (6,), (4, 2)])
    def test_row_count_other_than_the_streams_raises(self, size):
        with pytest.raises(ValueError, match="rows requested from 5 streams"):
            RowStreams(_streams(5)).random(size)

    def test_correlated_gaussian_agrees_to_rounding(self):
        # the normals are the same, but the block's (k, 3) @ (3, 3) product may
        # sum each row's terms in another order than the one-row product does;
        # the mean keeps every value away from 0, where one ulp is tiny
        cov = np.array([[1.0, 0.6, 0.3], [0.6, 2.0, -0.5], [0.3, -0.5, 1.5]])
        density = make_gaussian(GaussianParams([40.0, -50.0, 60.0], cov))
        k = 2000
        np.testing.assert_array_max_ulp(density.sample(RowStreams(_streams(k)), k),
                                        _per_row(density, k), maxulp=4)


def _row_index(rng, k):
    """A target that is each row's index in its block."""
    return (np.arange(k),)


class TestRetryPolicy:
    # PILOT_SIZE = 0: no leading row has to solve, so the run drops rows
    # instead of raising NoSolutionError; each attempt draws one uniform per
    # pending row from its block's one generator

    def test_high_failure_rate_warns_and_drops(self, monkeypatch):
        from sip_lab import solvers
        from sip_lab.solvers import _solve_rows

        monkeypatch.setattr(solvers, "PILOT_SIZE", 0)

        def flaky(index, rng):
            return np.ones((len(index), 1)), rng.random(len(index)) < 0.3

        with pytest.warns(RuntimeWarning, match="dropped"):
            data, diag = _solve_rows(_row_index, flaky, 400, seed=2, retries=1, label="flaky")
        assert diag["failures"] > 0
        assert diag["rows_returned"] == data.shape[0] == 400 - diag["failures"]

    def test_retries_recover_rows(self, monkeypatch):
        from sip_lab import solvers
        from sip_lab.solvers import _solve_rows

        monkeypatch.setattr(solvers, "PILOT_SIZE", 0)

        def flaky(index, rng):
            return np.ones((len(index), 1)), rng.random(len(index)) < 0.5

        data, diag = _solve_rows(_row_index, flaky, 300, seed=3, retries=10, label="flaky")
        # failing 10 draws in a row at p=0.5 is a 1-in-1024 event per row
        assert diag["failures"] <= 2
        assert diag["retries"] > 0
