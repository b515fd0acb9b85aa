"""Reproducible, splittable random streams with numpy's SeedSequence bits.

A stream's generator is default_rng(SeedSequence(seed, spawn_key=(stream_id,
*path))), bit for bit. generators() seeds a whole block of streams at once: it
runs SeedSequence's entropy mix and generate_state(4, uint64) on columns of
32-bit words, one array operation per step for the block, and hands each PCG64
its four precomputed words. NumPy's RNG policy (NEP 19) keeps both algorithms
fixed, so the streams stay those of SeedSequence.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

# numpy loads numpy.random lazily; importing it here puts that cost at start-up,
# not inside a command's first draw
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStream", "generators"]

# SeedSequence's constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words(value) -> list:
    """The 32-bit words of a non-negative int, least significant first ([0] for 0),
    refused as SeedSequence refuses it: TypeError unless it is an integer,
    ValueError if it is negative."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashes(init: int, mult: int):
    """SeedSequence's hashmix with its running constant: each call of the
    returned function XORs with the constant, advances it and multiplies by it."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const  # never ^=, which would change a caller's array
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _seed_words(columns: list) -> list:
    """SeedSequence's four uint64 seed words, generate_state(4, uint64), from its
    entropy words. A column is a Python int, the same word for every stream,
    or a uint64 array of one word per stream; all arithmetic stays below 2^64
    or wraps modulo it, and is masked to 32 bits, so both kinds give
    SeedSequence's uint32 results."""
    hashmix = _hashes(_INIT_A, _MULT_A)
    pool = [hashmix(columns[i] if i < len(columns) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in columns[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashes(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL]) for i in range(2 * _POOL)]
    # little-endian pairs of uint32 words
    return [state[2 * k] | state[2 * k + 1] << 32 for k in range(_POOL)]


class _SeedWords(ISeedSequence):
    """The four uint64 words that PCG64 asks of its seed sequence, precomputed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or dtype is not np.uint64:
            raise ValueError("precomputed seed words serve PCG64's generate_state(4, uint64)")
        return self.words


def generators(streams) -> list:
    """One generator per stream, default_rng(SeedSequence(seed, spawn_key=
    (stream_id, *path))) bit for bit, with SeedSequence's mix run once per group
    of streams of equal entropy length.

    A stream's entropy words are those of seed, zero-padded to 4, then those of
    stream_id and of each path key. The words of all but the last key are made
    once per call for each distinct (seed, stream_id, path[:-1]), the prefix that
    a block of substreams shares. A word column equal across the group stays a
    Python int; only the varying columns, normally the last key, are arrays.
    """
    streams = list(streams)
    prefixes, groups = {}, {}
    for i, s in enumerate(streams):
        *head, last = (s.stream_id, *s._path)
        # the types too: a float seed equal to an int one is refused, not reused
        ident = (type(s.seed), s.seed, type(s.stream_id), *head)
        prefix = prefixes.get(ident)
        if prefix is None:
            seed = _words(s.seed)
            prefix = seed + [0] * (_POOL - len(seed))
            for key in head:
                prefix += _words(key)
            prefixes[ident] = prefix
        words = prefix + _words(last)
        groups.setdefault(len(words), []).append((i, words))
    state = np.empty((len(streams), _POOL), dtype=np.uint64)
    for members in groups.values():
        rows, table = zip(*members)
        columns = [c[0] if len(set(c)) == 1 else np.array(c, dtype=np.uint64) for c in zip(*table)]
        # four ints (one seed for all rows) or four arrays (one word per row)
        state[list(rows)] = np.array(_seed_words(columns), dtype=np.uint64).T
    return [Generator(PCG64(_SeedWords(words))) for words in state]


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream_id) pair addressing one independent generator.

    Identical pairs reproduce identical draws; distinct stream ids give
    statistically independent streams (SeedSequence spawn keys).
    """

    seed: int
    stream_id: int = 0
    _path: tuple = field(default=(), repr=False)

    def generator(self) -> Generator:
        return generators([self])[0]

    def substream(self, k: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self._path + (int(k),))

    def split(self, count: int) -> list:
        return [self.substream(k) for k in range(count)]
