"""Per-run random streams, hashed for a whole range of run ids at once.

Run r of a scenario with seed s draws from ``np.random.default_rng([s, r])``.
That call hashes the entropy words of ``[s, r]`` with numpy's SeedSequence
and seeds a PCG64 from four uint64 words of the result, 10-20 us a run.
:func:`stream_words` runs the same SeedSequence hash for a whole range of
run ids in one pass of numpy uint32 operations, and :func:`stream` seeds a
PCG64 from one row of it, so the Generators are bitwise those of
``default_rng([s, r])`` at a fraction of the cost.

The hash is SeedSequence's documented algorithm (stable under NEP 19) for a
pool of 4 words: ``hashmix`` of the first four entropy words into the pool,
every pool word mixed into the three others, every further entropy word
mixed into all four, then the ``generate_state(4, np.uint64)`` output hash.
The entropy of ``[s, r]`` is the little-endian uint32 words of s (one word 0
for s = 0) followed by r, so a run id takes exactly one word: r < 2**32.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["MAX_RUNS", "stream_words", "stream"]

# Run ids are hashed as one uint32 word.
MAX_RUNS = 2**32

_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = np.uint32(0xCA01_F9DD), np.uint32(0x4973_F715)
_POOL = 4
# For each pool word, the three other pool words it is mixed into.
_OTHERS = [[dst for dst in range(_POOL) if dst != src] for src in range(_POOL)]
# generate_state(4, np.uint64) reads eight uint32 words, cycling over the pool.
_OUTPUT_ROWS = [i % _POOL for i in range(8)]


@lru_cache(maxsize=8)
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """Constants c_k = init * mult**k mod 2**32, k <= calls, as a read-only
    (calls + 1, 1) uint32 column: hash call k xors c_k and multiplies by c_{k+1}."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hash(value: np.ndarray, consts: np.ndarray, k: int, calls: int) -> np.ndarray:
    """SeedSequence hash calls k..k+calls-1 of ``value``, one call per
    output row: xor c_k, multiply by c_{k+1}, xor the high half into the low."""
    h = value ^ consts[k : k + calls]
    h *= consts[k + 1 : k + calls + 1]
    h ^= h >> 16
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x
    result -= _MIX_R * y
    result ^= result >> 16
    return result


def _seed_words(seed: int) -> list[int]:
    """Little-endian uint32 words of a non-negative integer; [0] for 0."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def stream_words(seed: int, run_ids: range) -> np.ndarray:
    """PCG64 seed words of the runs ``run_ids``, a read-only (len(run_ids), 4)
    uint64 array: row i equals
    ``np.random.SeedSequence([seed, run_ids[i]]).generate_state(4, np.uint64)``."""
    # A range is monotonic, so its ends bound it: no walk over its ids.
    if run_ids and not (0 <= min(run_ids[0], run_ids[-1]) and max(run_ids[0], run_ids[-1]) < MAX_RUNS):
        raise ValueError(f"run ids must lie in [0, 2**32), got {run_ids}")
    runs = np.arange(run_ids.start, run_ids.stop, run_ids.step, dtype=np.int64).astype(np.uint32)
    num_runs = runs.size
    entropy = [np.uint32(word) for word in _seed_words(operator.index(seed))] + [runs]
    extra = entropy[_POOL:]
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + len(extra)))

    pool = np.zeros((_POOL, num_runs), dtype=np.uint32)
    for row, word in enumerate(entropy[:_POOL]):
        pool[row] = word
    pool = _hash(pool, consts, 0, _POOL)
    k = _POOL
    for src, others in enumerate(_OTHERS):
        pool[others] = _mix(pool[others], _hash(pool[src], consts, k, _POOL - 1))
        k += _POOL - 1
    for word in extra:
        pool = _mix(pool, _hash(word, consts, k, _POOL))
        k += _POOL

    state = _hash(pool[_OUTPUT_ROWS], _hash_constants(_INIT_B, _MULT_B, 8), 0, 8)
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


class _SeedWords(ISeedSequence):
    """Hands PCG64 the four uint64 words :func:`stream_words` hashed for a run."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for np.uint64 itself: the identity test skips np.dtype().
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"only the 4 uint64 words of a PCG64 seed are held, not {n_words} of {dtype}")
        return self._words


def stream(words: np.ndarray) -> np.random.Generator:
    """The Generator of one row of :func:`stream_words`."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))
