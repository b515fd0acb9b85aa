"""Reproducible, splittable random streams built on numpy's SeedSequence."""

from __future__ import annotations

from dataclasses import dataclass, field

# numpy loads numpy.random lazily; importing it here puts that cost at start-up,
# not inside a command's first draw
from numpy.random import Generator, SeedSequence, default_rng

__all__ = ["RngStream"]


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
        ss = SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, *self._path))
        return default_rng(ss)

    def substream(self, k: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self._path + (int(k),))

    def split(self, count: int) -> list:
        return [self.substream(k) for k in range(count)]
