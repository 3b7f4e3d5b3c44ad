"""Seeded generator streams.

Stream ``(root seed, stream kind, index)`` has its own generator, :func:`rng_for`'s
``PCG64(SeedSequence([seed, kind, index]))``, so its draws depend only on those
three numbers: a block's inverse or rejection draws, or a test's permutations.
:func:`rng_streams` seeds them a block at a time for the row solvers' targets, which
a :class:`RowStreams` draws in one sampler call per block, row i from stream i.
"""

from __future__ import annotations

import numpy as np

# Stream-kind tags keep row, pilot, permutation, probe, fit and inverse streams disjoint.
KIND_ROWS = 0
KIND_PILOT = 1
KIND_PERMUTATION = 2
KIND_PROBE = 3
KIND_FIT = 4
KIND_INVERSE = 5  # a row-solver block's Newton starts and branch picks, not its targets


def rng_for(seed: int, kind: int, index: int) -> np.random.Generator:
    """Independent generator for one stream; a negative number or index >= 2**32 raises."""
    if min(seed, kind, index) < 0 or index >= 2 ** 32:
        raise ValueError(f"stream ({seed}, {kind}, {index}) is out of range")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, kind, index])))


def rng_streams(seed: int, kind: int, first: int, stop: int) -> list[np.random.Generator]:
    """``[rng_for(seed, kind, i) for i in range(first, stop)]``, seeded in one pass.

    Runs ``SeedSequence([seed, kind, i]).generate_state(4, uint64)`` step for step on
    uint32 arrays, one element per i.  Negative numbers and i >= 2**32 raise ValueError.
    """
    if min(seed, kind, first) < 0 or not first <= stop <= 2 ** 32:
        raise ValueError(f"stream ({seed}, {kind}, [{first}, {stop})) is out of range")
    head = [n >> shift & 0xFFFFFFFF for n in (int(seed), int(kind))
            for shift in range(0, max(n.bit_length(), 1), 32)]  # 32-bit words, low first
    index = np.arange(first, stop, dtype=np.uint32)
    entropy = [np.full_like(index, w) for w in head] + [index] + [0 * index] * (3 - len(head))
    a = _constants(0x43B0D7E5, 0x931E8875, 4 * len(entropy))  # hashmix call c uses a[c:c + 2]
    pool = _hash(np.stack(entropy[:4]), a[:5])  # a pool of 4 words
    for src in range(4):  # mix every pool word into every other one
        others, c = [dst for dst in range(4) if dst != src], 4 + 3 * src
        pool[others] = _mix(pool[others], _hash(pool[src], a[c:c + 4]))
    for c, word in enumerate(entropy[4:], start=4):  # entropy words past the pool
        pool = _mix(pool, _hash(word, a[4 * c:4 * c + 5]))
    state = _hash(np.vstack([pool, pool]), _constants(0x8B51F9DD, 0x58F38DED, 8))
    state = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_State(row))) for row in state]


class RowStreams:
    """A generator over one stream per row: row i of a ``(k, ...)`` request is
    ``rngs[i]``'s draw for ``(1, ...)``.  It has the methods the density samplers
    call, so a sampler draws k rows in one call with the numbers of k one-row calls."""

    def __init__(self, rngs):
        self.rngs = rngs

    def _rows(self, method, size, *args):
        size = tuple(np.atleast_1d(size))
        if size[0] != len(self.rngs):
            raise ValueError(f"{size[0]} rows requested from {len(self.rngs)} streams")
        return np.concatenate([getattr(rng, method)(*args, size=(1, *size[1:]))
                               for rng in self.rngs])

    def random(self, size):
        return self._rows("random", size)

    def standard_normal(self, size):
        return self._rows("standard_normal", size)

    def beta(self, a, b, size):
        return self._rows("beta", size, a, b)

    def integers(self, low, high, size):
        return self._rows("integers", size, low, high)


def _constants(const: int, mult: int, count: int) -> np.ndarray:
    """A SeedSequence hash constant and its next ``count`` values, as a column."""
    run = np.array([const] + [mult] * count, dtype=np.uint32)
    return np.multiply.accumulate(run, dtype=np.uint32)[:, None]


def _hash(value, run):
    """SeedSequence's hashmix of ``value`` with each consecutive pair of ``run``."""
    value = (value ^ run[:-1]) * run[1:]
    return value ^ (value >> 16)


def _mix(x, y):  # SeedSequence's mix
    out = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return out ^ (out >> 16)


class _State(np.random.bit_generator.ISeedSequence):
    """Hands ``PCG64`` one row's precomputed ``generate_state(4, uint64)``."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state
