"""Event-batched engine runtime gate (fig-scale cycle sweep).

The batched engine (:mod:`repro.sim.batched`) exists to make
cycle-accurate runs affordable where the step engine burns its time
ticking idle components: DRAM-latency-bound streams whose quiet spans
are t_RC/t_RCD waits.  The gated sweep drives fig-scale row-thrash
streams through a raw :class:`~repro.mem.dram.DramChannel` — a
single-bank row hammer at full queue depth and a dependent pointer
chase (one request in flight) — and requires the batched engine to be
at least ``MIN_SPEEDUP`` faster in aggregate, bit-exact against the
step oracle on cycles, stats and occupancy.

Bus-saturated streams are not gated.  There the DRAM channel and the
coalescer act nearly every cycle, so there is little quiet time to
jump and the batched engine runs at about parity with step (its fused
loop ticks everything exactly like the step engine); a speed ratio
near 1.0 on a 2-core runner measures host noise, not the engine.  Their
correctness is pinned by the saturated and burst-boundary cells of the
step-vs-batched differential grid in ``tests/test_sim_engines.py``.
"""

import time

import numpy as np

from repro.config import DramConfig
from repro.mem.backing_store import BackingStore
from repro.mem.dram import DramChannel
from repro.mem.request import MemRequest
from repro.sim import Simulator
from repro.sim.component import Component

from _bench_util import record

#: fig-scale stream length (DEFAULT_SCALE_NNZ of the paper sweeps).
STREAM_N = 60_000
#: rows hammered within the single bank (all accesses conflict).
THRASH_ROWS = 250
#: required aggregate batched-vs-step speedup on the gated sweep.
MIN_SPEEDUP = 5.0


class _Driver(Component):
    """Feeds a block stream to a raw DRAM channel; ``depth`` bounds the
    requests in flight (1 == dependent pointer chase)."""

    def __init__(self, blocks, dram: DramChannel, access_bytes: int, depth: int):
        super().__init__("driver")
        self.addrs = [int(b) * access_bytes for b in blocks]
        self.dram = dram
        self.depth = depth
        self.sent = 0
        self.received = 0

    def tick(self) -> None:
        while self.dram.rsp.can_pop():
            self.dram.rsp.pop()
            self.received += 1
        while (
            self.sent < len(self.addrs)
            and self.sent - self.received < self.depth
            and self.dram.req.can_push()
        ):
            self.dram.req.push(
                MemRequest(addr=self.addrs[self.sent], nbytes=64, seq=self.sent)
            )
            self.sent += 1

    def next_event(self):
        if self.dram.rsp.can_pop():
            return self.cycle
        if (
            self.sent < len(self.addrs)
            and self.sent - self.received < self.depth
            and self.dram.req.can_push()
        ):
            return self.cycle
        return None

    def wake_fifos(self):
        return [self.dram.req, self.dram.rsp], []

    @property
    def done(self) -> bool:
        return self.received == len(self.addrs)

    @property
    def busy(self) -> bool:
        return not self.done


def _thrash_stream(n: int) -> np.ndarray:
    """Single-bank row thrash: every access activates a different row
    of bank 0, so service time is t_RC-bound quiet spans."""
    cfg = DramConfig()
    return (np.arange(n) % THRASH_ROWS) * (cfg.num_banks * cfg.blocks_per_row)


def _run_raw_dram(engine: str, blocks, depth: int):
    cfg = DramConfig()
    store = BackingStore(1 << 22)
    dram = DramChannel(store, cfg)
    driver = _Driver(blocks, dram, cfg.access_bytes, depth)
    sim = Simulator([driver, dram], engine=engine)
    t0 = time.perf_counter()
    cycles = sim.run_until(lambda: driver.done, max_cycles=200_000_000)
    seconds = time.perf_counter() - t0
    return cycles, dict(dram.stats.as_dict()), dram.req.max_occupancy, seconds


def test_bench_engine_row_thrash_speedup(benchmark):
    """Gated sweep: >= 5x aggregate on fig-scale row-thrash streams,
    bit-exact against the step oracle."""
    blocks = _thrash_stream(STREAM_N)
    workloads = {"hammer-full-depth": 1 << 30, "pointer-chase": 1}

    rows = []
    step_total = batched_total = 0.0
    for name, depth in workloads.items():
        step = _run_raw_dram("step", blocks, depth)
        batched = _run_raw_dram("batched", blocks, depth)
        assert step[:3] == batched[:3], f"{name}: engines diverge"
        rows.append(
            {
                "workload": name,
                "cycles": step[0],
                "step_s": round(step[3], 3),
                "batched_s": round(batched[3], 3),
                "speedup": round(step[3] / batched[3], 2),
            }
        )
        step_total += step[3]
        batched_total += batched[3]

    # pytest-benchmark timing row: the batched engine on the heavier
    # workload (the number the gate protects).
    benchmark.pedantic(
        lambda: _run_raw_dram("batched", blocks, 1 << 30), rounds=1, iterations=1
    )

    speedup = step_total / batched_total
    record(
        benchmark,
        "sim_engine_runtime",
        {
            "rows": rows,
            "summary": {
                "stream_n": STREAM_N,
                "aggregate_speedup": round(speedup, 2),
            },
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched engine {speedup:.2f}x on the row-thrash sweep "
        f"(gate {MIN_SPEEDUP}x)"
    )
