"""Seeded sample containers and per-row generator streams.

Every row of a Monte Carlo solver gets its own generator, seeded from
``(root seed, stream kind, row index)``, so a row's draws depend only on
those three numbers and not on which rows ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Stream-kind tags keep row, pilot, permutation, probe and fit streams disjoint.
KIND_ROWS = 0
KIND_PILOT = 1
KIND_PERMUTATION = 2
KIND_PROBE = 3
KIND_FIT = 4


@dataclass(frozen=True)
class SampleBatch:
    """An (M, d) matrix of draws plus the labels and root seed that made it."""

    data: np.ndarray
    labels: tuple[str, ...]
    seed: int

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        object.__setattr__(self, "data", data)
        if len(self.labels) != data.shape[1]:
            raise ValueError(
                f"{len(self.labels)} labels for {data.shape[1]} columns"
            )

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def theta_labels(p: int) -> tuple[str, ...]:
    return tuple(f"theta_{j + 1}" for j in range(p))


def rng_for(seed: int, kind: int, index: int) -> np.random.Generator:
    """Independent generator for one logical stream of a root seed."""
    ss = np.random.SeedSequence([int(seed), int(kind), int(index)])
    return np.random.Generator(np.random.PCG64(ss))
