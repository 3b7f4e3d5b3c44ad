"""Per-row sampling machinery: stream independence and retry bookkeeping."""

import numpy as np
import pytest

from sip_lab import SampleBatch
from sip_lab.sampling import KIND_PILOT, KIND_ROWS, rng_for, rng_streams
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


def _row_index(rngs):
    """A target that is each row's index in its block."""
    return (np.arange(len(rngs)),)


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


class TestSampleBatch:
    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SampleBatch(data=np.zeros((3, 2)), labels=("a",), seed=0)

    def test_shape_properties(self):
        batch = SampleBatch(data=np.zeros((3, 2)), labels=("a", "b"), seed=9)
        assert batch.m == 3
        assert batch.dim == 2
        assert batch.seed == 9
