"""Per-row sampling machinery: stream independence and retry bookkeeping."""

import numpy as np
import pytest

from sip_lab import SampleBatch
from sip_lab.sampling import KIND_PILOT, KIND_ROWS, rng_for


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


class TestRetryPolicy:
    def test_high_failure_rate_warns_and_drops(self):
        from sip_lab.solvers import _solve_rows

        def flaky(rngs):
            ok = np.array([rng.random() < 0.3 for rng in rngs])
            return np.ones((len(rngs), 1)), ok

        with pytest.warns(RuntimeWarning, match="dropped"):
            data, diag = _solve_rows(flaky, 400, seed=2, retries=1, pilot=0,
                                     label="flaky")
        assert diag["failures"] > 0
        assert diag["rows_returned"] == data.shape[0] == 400 - diag["failures"]

    def test_retries_recover_rows(self):
        from sip_lab.solvers import _solve_rows

        def flaky(rngs):
            ok = np.array([rng.random() < 0.5 for rng in rngs])
            return np.ones((len(rngs), 1)), ok

        data, diag = _solve_rows(flaky, 300, seed=3, retries=10, pilot=0,
                                 label="flaky")
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
