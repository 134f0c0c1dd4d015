"""Splittable deterministic RNG streams.

Every random object in the package is keyed by (master seed, integer key
path) through numpy's SeedSequence, so ensembles are reproducible and
independent of execution order or thread count.

`seed_states` derives, for many keys at once, the words numpy's
`SeedSequence(entropy).generate_state(n, np.uint64)` gives: the same pool
mixing and output hash, as uint32 arithmetic vectorized over the keys. The
ensembles take their seeds (`child_seeds`) and their generators
(`rngs_for`) from it; the tests hold numpy's own SeedSequence as the
truth, key by key. The single-key `child_seed` and `rng_for` stay on numpy:
one key through the vectorized pass costs more than numpy's own.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, Sequence

import numpy as np

# numpy's SeedSequence: pool size, hash and mix constants (bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def child_seed(master: int, *keys: int) -> int:
    """A derived 63-bit seed for the given key path."""
    ss = np.random.SeedSequence(entropy=(int(master),) + tuple(int(k) for k in keys))
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def rng_for(master: int, *keys: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(int(master),) + tuple(int(k) for k in keys))
    return np.random.default_rng(ss)


def child_seeds(master: int, n: int) -> np.ndarray:
    """child_seed(master, k) for k < n, as uint64, from one `seed_states`."""
    return seed_states((master, np.arange(n, dtype=np.uint64)), 1)[:, 0] >> np.uint64(1)


def rngs_for(seeds: int | np.ndarray) -> Iterator[np.random.Generator]:
    """rng_for(s) for each seed s of a 1-D array (or of one int), in order:
    numpy's PCG64 seeded from the words `seed_states` gives all of them."""
    given = _given_state()
    for words in seed_states((seeds,), 4):
        yield np.random.Generator(np.random.PCG64(given(words)))


@cache
def _given_state() -> type:
    """The numpy `ISeedSequence` that hands PCG64 the 4 uint64 words of its
    seed, given. Made on first use: numpy imports `numpy.random` on first
    access, and a run that draws nothing does not load it."""

    class GivenState(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds the 4 uint64 words of a PCG64 seed only")
            return self.words

    return GivenState


def seed_states(entropy: Sequence[int | np.ndarray], n_words: int) -> np.ndarray:
    """The (m, n_words) uint64 array whose row i is
    `SeedSequence(tuple(e[i] for e in entropy)).generate_state(n_words, np.uint64)`.

    Each entry of `entropy` is a non-negative int, the same for every row,
    or a 1-D array of m ints below 2^64; with no array m is 1. As in numpy,
    each int enters as its little-endian uint32 words (one word for 0), so
    rows are grouped by their word counts and each group is mixed at once.
    """
    columns = [np.asarray(e, dtype=np.uint64) if np.ndim(e) else int(e) for e in entropy]
    arrays = [c for c in columns if isinstance(c, np.ndarray)]
    m = len(arrays[0]) if arrays else 1
    # which array entries of a row take two uint32 words; rows alike mix together
    wide = np.stack([c > _MASK32 for c in arrays], axis=1) if arrays else np.zeros((m, 0), bool)
    patterns, group = np.unique(wide, axis=0, return_inverse=True)
    out = np.empty((m, n_words), np.uint64)
    for p, pattern in enumerate(patterns):
        rows = np.flatnonzero(group.ravel() == p)
        two = iter(pattern)
        words: list[np.ndarray] = []
        for c in columns:
            if isinstance(c, np.ndarray):
                words.append((c[rows] & np.uint64(_MASK32)).astype(np.uint32))
                if next(two):
                    words.append((c[rows] >> np.uint64(32)).astype(np.uint32))
            else:
                words.extend(np.full(rows.size, w, np.uint32) for w in _int_words(c))
        out[rows] = _generate(_pool(words, rows.size), n_words)
    return out


def _int_words(n: int) -> list[int]:
    """The little-endian uint32 words of a non-negative int, [0] for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


class _Hash:
    """numpy's `hashmix`, whose multiplier runs on from call to call."""

    def __init__(self, const: int, mult: int) -> None:
        self.const, self.mult = const, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value *= np.uint32(self.const)
        value ^= value >> _XSHIFT
        return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x
    result -= np.uint32(_MIX_MULT_R) * y
    result ^= result >> _XSHIFT
    return result


def _pool(words: list[np.ndarray], m: int) -> list[np.ndarray]:
    """numpy's `mix_entropy` of m entropies of equal word count at once."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(m, np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _generate(pool: list[np.ndarray], n_words: int) -> np.ndarray:
    """numpy's `generate_state(n_words, np.uint64)` of each pool row."""
    output = _Hash(_INIT_B, _MULT_B)
    state = np.stack([output(pool[i % _POOL_SIZE]) for i in range(2 * n_words)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)
