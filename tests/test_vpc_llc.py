"""LRU cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axipack.reference import LruReference
from repro.config import BaselineConfig
from repro.errors import ConfigError
from repro.vpc.baseline import BaselineSystem
from repro.vpc.llc import LruCache

from helpers import small_csr


def test_cold_miss_then_hit():
    cache = LruCache(4096, ways=4)
    assert not cache.access(0)
    assert cache.access(0)
    assert cache.access(63)  # same line
    assert not cache.access(64)  # next line


def test_lru_eviction_order():
    cache = LruCache(4 * 64, ways=4)  # one set, 4 ways
    for i in range(4):
        cache.access(i * 64 * 1)  # hmm: one set -> all map to set 0
    # Re-touch line 0 so line 1 is LRU.
    cache.access(0)
    cache.access(4 * 64)  # evicts line 1
    assert cache.access(0)
    assert not cache.access(1 * 64)


def test_set_mapping_isolates_sets():
    cache = LruCache(2 * 64 * 2, ways=2)  # 2 sets
    # Lines 0, 2, 4 map to set 0; lines 1, 3 to set 1.
    cache.access(0 * 64)
    cache.access(1 * 64)
    cache.access(2 * 64)
    cache.access(4 * 64)  # evicts line 0 in set 0
    assert cache.access(1 * 64)  # set 1 untouched
    assert not cache.access(0)


def test_hit_rate_and_reset():
    cache = LruCache(4096)
    cache.access(0)
    cache.access(0)
    assert cache.hit_rate == pytest.approx(0.5)
    cache.reset()
    assert cache.hit_rate == 0.0
    assert not cache.access(0)


def test_working_set_behaviour():
    """A working set within capacity hits; beyond capacity it thrashes."""
    cache = LruCache(64 * 64, ways=8)  # 64 lines
    lines_fit = list(range(32))
    for _ in range(3):
        for line in lines_fit:
            cache.access(line * 64)
    assert cache.hit_rate > 0.6

    cache.reset()
    lines_large = list(range(256))
    for _ in range(3):
        for line in lines_large:
            cache.access(line * 64)
    assert cache.hit_rate < 0.05


def test_from_config():
    cache = LruCache.from_config(BaselineConfig())
    assert cache.size_bytes == 1 << 20
    assert cache.num_sets == 2048


def test_geometry_validation():
    with pytest.raises(ConfigError):
        LruCache(1000, ways=3)


@given(
    lines=st.lists(st.integers(0, 40), max_size=300),
    num_sets=st.sampled_from([1, 2, 4, 8]),
    ways=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_replay_matches_per_access_walk(lines, num_sets, ways):
    """One batched replay == the seed walk one access at a time: same
    hit mask, same hit/miss/eviction counters."""
    cache = LruCache(num_sets * ways * 64, ways=ways)
    oracle = LruReference(num_sets, ways)
    expected = [oracle.access(line * 64) for line in lines]
    # Split the stream so state carries across replay calls too.
    half = len(lines) // 2
    hit = np.r_[cache.replay(lines[:half]), cache.replay(lines[half:])]
    assert hit.tolist() == expected
    assert cache.stats["hits"] == oracle.hits
    assert cache.stats["misses"] == oracle.misses
    assert cache.stats["evictions"] == oracle.evictions


def simulate_cache_loop(matrix, llc, line):
    """The baseline's seed per-entry trace loop: an idx line every
    ``line // 4`` entries, a val line every ``line // 8``, then the
    entry's vector line."""
    idx_per_line = line // 4
    val_per_line = line // 8
    vec_region = 0
    idx_region = 1 << 40
    val_region = 1 << 41

    vec_lines = (matrix.col_idx.astype(np.int64) * 8) // line
    hits = misses = 0
    for j in range(matrix.nnz):
        if j % idx_per_line == 0:
            llc.access(idx_region + (j // idx_per_line) * line)
        if j % val_per_line == 0:
            llc.access(val_region + (j // val_per_line) * line)
        if llc.access(vec_region + int(vec_lines[j]) * line):
            hits += 1
        else:
            misses += 1
    return hits, misses


@pytest.mark.parametrize("ways,size", [(1, 512), (2, 1024), (8, 4096)])
@pytest.mark.parametrize("seed", [3, 4])
def test_baseline_trace_matches_per_entry_loop(ways, size, seed):
    matrix = small_csr(300, 900, density=0.05, seed=seed)
    llc = LruCache(size, ways=ways)
    oracle = LruReference(llc.num_sets, ways)
    hits = BaselineSystem()._simulate_cache(matrix, llc, 64)
    assert hits == simulate_cache_loop(matrix, oracle, 64)
    assert (llc.stats["hits"], llc.stats["misses"]) == (oracle.hits, oracle.misses)
