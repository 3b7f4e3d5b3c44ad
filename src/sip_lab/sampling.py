"""Seeded sample containers and deterministic row-parallel execution.

Monte Carlo solvers in this package are embarrassingly parallel over rows.
Every row gets its own generator, seeded from ``(root seed, stream kind,
row index)``, and writes into a preassigned slot, so the output is
bit-identical no matter how many worker threads execute the rows.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Stream-kind tags keep row, pilot, permutation, probe and fit streams disjoint.
KIND_ROWS = 0
KIND_PILOT = 1
KIND_PERMUTATION = 2
KIND_PROBE = 3
KIND_FIT = 4

_DEFAULT_WORKERS = 4


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


def resolve_workers(requested: int | None = None) -> int:
    """Worker count, capped by the SIP_LAB_THREADS environment variable."""
    cap = os.environ.get("SIP_LAB_THREADS")
    cap = int(cap) if cap else _DEFAULT_WORKERS
    if requested is None:
        requested = cap
    return max(1, min(int(requested), cap))


def run_rows(row_fn, n_rows: int, seed: int, kind: int = KIND_ROWS,
             workers: int | None = None) -> list:
    """Evaluate ``row_fn(i, rng_i)`` for every row with preassigned streams.

    Returns the list of per-row results in row order.  Worker threads each
    process a contiguous block of rows; because every row's generator
    depends only on ``(seed, kind, i)``, the result is identical for any
    worker count.
    """
    workers = resolve_workers(workers)
    results = [None] * n_rows

    def run_block(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            results[i] = row_fn(i, rng_for(seed, kind, i))

    if workers == 1 or n_rows < 2 * workers:
        run_block(0, n_rows)
        return results

    block = -(-n_rows // workers)
    bounds = [(lo, min(lo + block, n_rows)) for lo in range(0, n_rows, block)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_block, lo, hi) for lo, hi in bounds]
        for fut in futures:
            fut.result()
    return results


def stack_rows(rows: list, width: int) -> tuple[np.ndarray, int]:
    """Stack non-None rows in order; returns (array, dropped count)."""
    kept = [np.asarray(r, dtype=float) for r in rows if r is not None]
    dropped = len(rows) - len(kept)
    if not kept:
        return np.empty((0, width)), dropped
    return np.vstack(kept), dropped
