"""Determinism and independence of seeded streams."""

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from sheetlab import RngStream
from sheetlab.rng import generators


def test_same_pair_reproduces():
    a = RngStream(seed=42, stream_id=3).generator().standard_normal(16)
    b = RngStream(seed=42, stream_id=3).generator().standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(seed=42, stream_id=0).generator().standard_normal(16)
    b = RngStream(seed=42, stream_id=1).generator().standard_normal(16)
    assert not np.allclose(a, b)


def test_substreams_are_stable_and_distinct():
    root = RngStream(seed=7)
    x = root.substream(2).generator().standard_normal(8)
    y = root.substream(2).generator().standard_normal(8)
    z = root.substream(3).generator().standard_normal(8)
    np.testing.assert_array_equal(x, y)
    assert not np.allclose(x, z)


def test_split_matches_substream():
    root = RngStream(seed=7, stream_id=1)
    subs = root.split(4)
    assert len(subs) == 4
    for k, sub in enumerate(subs):
        a = sub.generator().standard_normal(4)
        b = root.substream(k).generator().standard_normal(4)
        np.testing.assert_array_equal(a, b)


def test_nested_substreams_independent_of_siblings():
    root = RngStream(seed=11)
    a = root.substream(0).substream(1)
    b = root.substream(1).substream(0)
    assert not np.allclose(
        a.generator().standard_normal(8), b.generator().standard_normal(8)
    )


def _oracle(s):
    """numpy's own generator for stream s: SeedSequence, then default_rng."""
    return default_rng(SeedSequence(s.seed, spawn_key=(s.stream_id, *s._path)))


def _first_draws(gen):
    return gen.bit_generator.random_raw(4), gen.standard_normal(3)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5]
PATHS = [(), (3,), (0, 2**32 + 1), (5, 2**40, 7)]


def test_generators_are_seedsequence_bit_for_bit():
    streams = [RngStream(seed, sid, path) for seed in SEEDS for sid in (0, 9) for path in PATHS]
    # a block whose last key straddles 2**32: two entropy lengths, seeded apart
    streams += [RngStream(3, 1, (2, k)) for k in range(2**32 - 3, 2**32 + 3)]
    streams += RngStream(11).split(70)
    gens = generators(streams)
    assert len(gens) == len(streams)
    for s, gen in zip(streams, gens):
        for got, want in zip(_first_draws(gen), _first_draws(_oracle(s))):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", PATHS)
def test_one_generator_is_seedsequence_bit_for_bit(seed, path):
    s = RngStream(seed, 4, path)
    for got, want in zip(_first_draws(s.generator()), _first_draws(_oracle(s))):
        np.testing.assert_array_equal(got, want)
    (gen,) = generators([s])
    want = _oracle(s).bit_generator.random_raw(4)
    np.testing.assert_array_equal(gen.bit_generator.random_raw(4), want)


def test_generators_of_no_streams():
    assert generators([]) == []
    assert generators(iter([])) == []


@pytest.mark.parametrize(
    "stream",
    [
        RngStream(-1),
        RngStream(1, -2),
        RngStream(1).substream(-3),
        RngStream(2.0),
        RngStream(1, 0, (1.5,)),
    ],
)
def test_negative_or_non_integer_seeds_refused_as_seedsequence_refuses_them(stream):
    with pytest.raises(Exception) as want:
        _oracle(stream)
    with pytest.raises(want.type):
        generators([RngStream(1, 0, (0,)), stream])
    with pytest.raises(want.type):
        stream.generator()


def test_generators_share_prefix_words_only_between_equal_prefixes():
    # one call interleaving two seeds, two stream ids, paths of length 0 to 3 and
    # a key of 2^32 or more: each stream's prefix (seed, stream_id, path[:-1])
    # is made once, and every stream is still its own SeedSequence
    streams = [
        RngStream(seed, sid, path)
        for path in [(), (4,), (4, 2**32 + 7), (4, 2**32 + 7, 1), (5,), (4, 1), (2**33, 0, 9)]
        for seed in (8, 2**40)
        for sid in (0, 3)
    ]
    streams = streams[::2] + streams[1::2]
    gens = generators(streams)
    for s, gen in zip(streams, gens):
        for got, want in zip(_first_draws(gen), _first_draws(_oracle(s))):
            np.testing.assert_array_equal(got, want)
