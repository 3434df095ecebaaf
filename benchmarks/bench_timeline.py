"""Bank-state timeline runtime gates.

The timeline (:func:`repro.mem.timeline.service_timeline`) replaced the
two-term analytic DRAM bound in every fast-model hot path, so its cost
rides on every sweep cell.  The acceptance gate: the replay must stay
within 2x of the legacy bound's runtime.  The legacy bound is one
stable sort over the whole stream; the replay fills dense
(queue window, bank) tables with bincounts and sorts only short
per-window rows, so it measures below the bound, and a blow-up past 2x
signals an accidental de-vectorization or a global sort creeping back.
The walking oracle comparison is recorded for context, and the results
must stay bit-exact against it.
"""

import time

import numpy as np

from repro.axipack.reference import service_timeline_reference
from repro.config import DramConfig
from repro.mem.timeline import analytic_dram_bound, service_timeline

from _bench_util import record

#: transaction-stream size for the runtime gate (full-scale sweeps see
#: streams of this order per matrix).
STREAM_SIZE = 500_000
#: slice replayed through the pure-Python oracle (it is O(n) but slow).
ORACLE_SLICE = 40_000
#: allowed runtime multiple over the legacy analytic bound.
MAX_FACTOR = 2.0


def _mixed_stream(size: int) -> np.ndarray:
    """Realistic mixture: mostly local runs with scattered excursions,
    the block-id shape coalesced suite streams produce."""
    rng = np.random.default_rng(42)
    local = np.cumsum(rng.integers(-2, 3, size)) + (1 << 16)
    scattered = rng.integers(0, 1 << 22, size)
    take_scattered = rng.random(size) < 0.2
    return np.where(take_scattered, scattered, local).astype(np.int64)


def test_bench_timeline_vs_analytic_bound(benchmark):
    """<= 2x the legacy bound's runtime; bit-exact vs the oracle."""
    dram = DramConfig()
    blocks = _mixed_stream(STREAM_SIZE)

    result = benchmark.pedantic(
        lambda: service_timeline(blocks, dram), rounds=3, iterations=1
    )
    timeline_seconds = benchmark.stats.stats.min

    t0 = time.perf_counter()
    for _ in range(3):
        analytic_dram_bound(blocks, dram)
    legacy_seconds = (time.perf_counter() - t0) / 3

    t0 = time.perf_counter()
    oracle = service_timeline_reference(blocks[:ORACLE_SLICE], dram)
    oracle_seconds = (time.perf_counter() - t0) * (STREAM_SIZE / ORACLE_SLICE)

    sliced = service_timeline(blocks[:ORACLE_SLICE], dram)
    assert sliced.cycles == oracle.cycles
    assert sliced.stats == oracle.stats
    assert np.array_equal(sliced.bank_busy, oracle.bank_busy)

    factor = timeline_seconds / legacy_seconds
    record(
        benchmark,
        "timeline_runtime",
        {
            "rows": [
                {
                    "stream_size": STREAM_SIZE,
                    "timeline_s": round(timeline_seconds, 4),
                    "legacy_bound_s": round(legacy_seconds, 4),
                    "oracle_s_scaled": round(oracle_seconds, 3),
                }
            ],
            "summary": {
                "factor_vs_legacy": round(factor, 2),
                "speedup_vs_oracle": round(oracle_seconds / timeline_seconds, 1),
            },
        },
    )
    assert factor <= MAX_FACTOR, (
        f"timeline costs {factor:.1f}x the legacy analytic bound "
        f"(gate {MAX_FACTOR}x)"
    )


def test_bench_timeline_scales_linearithmically(benchmark):
    """Doubling the stream must not blow the per-transaction cost up
    (guards against accidental quadratic group handling)."""
    dram = DramConfig()
    small = _mixed_stream(STREAM_SIZE // 4)
    large = _mixed_stream(STREAM_SIZE)

    benchmark.pedantic(lambda: service_timeline(large, dram), rounds=2, iterations=1)
    large_seconds = benchmark.stats.stats.min
    t0 = time.perf_counter()
    for _ in range(2):
        service_timeline(small, dram)
    small_seconds = (time.perf_counter() - t0) / 2

    per_txn_ratio = (large_seconds / len(large)) / (small_seconds / len(small))
    benchmark.extra_info["per_txn_ratio_4x"] = round(per_txn_ratio, 2)
    assert per_txn_ratio <= 2.5
