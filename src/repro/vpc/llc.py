"""Set-associative LRU cache model (the baseline's 1 MiB LLC)."""

from __future__ import annotations

import numpy as np

from ..config import BaselineConfig
from ..errors import ConfigError
from ..sim.stats import StatSet
from ..units import is_power_of_two


class LruCache:
    """A classic set-associative LRU cache over 64 B lines.

    The model tracks hits and misses only (no timing); the baseline
    system converts miss counts into DRAM time and off-chip traffic.
    """

    def __init__(self, size_bytes: int, ways: int = 8, line_bytes: int = 64) -> None:
        if size_bytes % (ways * line_bytes):
            raise ConfigError("cache size must divide into ways * line size")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        if not is_power_of_two(self.num_sets):
            raise ConfigError("set count must be a power of two")
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.stats = StatSet("llc")

    @classmethod
    def from_config(cls, config: BaselineConfig) -> "LruCache":
        return cls(config.llc_bytes, config.llc_ways, config.line_bytes)

    def access(self, addr: int) -> bool:
        """Touch one address; returns True on hit."""
        return bool(self.replay([addr // self.line_bytes])[0])

    def access_block_stream(self, lines: list[int] | np.ndarray) -> tuple[int, int]:
        """Touch a sequence of line ids; returns (hits, misses)."""
        hit = self.replay(lines)
        hits = int(np.count_nonzero(hit))
        return hits, hit.size - hits

    def replay(self, lines: list[int] | np.ndarray) -> np.ndarray:
        """Touch a sequence of line ids in order; returns the hit mask.
        LRU update on hit, LRU eviction on miss; ``stats`` are updated
        once at the end."""
        sets = self._sets
        set_mask = self.num_sets - 1
        capacity = self.ways
        hit = []
        record = hit.append
        evictions = 0
        for line in np.asarray(lines, dtype=np.int64).tolist():
            ways = sets[line & set_mask]
            if line in ways:
                ways.remove(line)
                ways.append(line)
                record(True)
            else:
                ways.append(line)
                if len(ways) > capacity:
                    del ways[0]
                    evictions += 1
                record(False)
        mask = np.array(hit, dtype=bool)
        hits = int(np.count_nonzero(mask))
        for key, amount in (
            ("hits", hits),
            ("misses", mask.size - hits),
            ("evictions", evictions),
        ):
            if amount:
                self.stats.add(key, amount)
        return mask

    @property
    def hit_rate(self) -> float:
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else 0.0

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]
        self.stats.reset()
