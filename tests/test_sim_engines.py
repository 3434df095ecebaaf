"""Differential suite: event-batched engine vs the step-wise oracle.

The batched engine (:mod:`repro.sim.batched`) must be *bit-exact*
against the step engine — identical final cycle counts, stats, FIFO
counters and error behaviour — on every registered system, because the
slow tier runs batched by default and the step engine is the oracle.
Every test here runs the same workload under both engines and compares
complete metric structures, not spot values.

Coverage: the adapter variant grid on locality-diverse streams, ideal
and multi-channel memory substrates, the scatter and strided element
paths, the adversarial single-bank / row-thrash DRAM streams from the
PR-4 timeline work driven through a raw :class:`DramChannel`, and
hypothesis-generated index streams.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import banded_stream, random_stream
from repro.axipack.adapter import run_indirect_stream
from repro.axipack.scatter import run_indirect_scatter
from repro.axipack.strided import StridedBurst, run_strided_stream
from repro.config import (
    DramConfig,
    mlp_config,
    nocoalescer_config,
    seq_config,
)
from repro.errors import ConfigError
from repro.mem.backing_store import BackingStore
from repro.mem.dram import DramChannel
from repro.mem.request import MemRequest
from repro.sim import Simulator, default_engine
from repro.sim.component import Component

#: quick-scale stream length: long enough to cross several refresh
#: intervals (t_refi = 3900 cycles) and fill every queue, short enough
#: for tier-1.
QUICK_N = 1024

VARIANTS = {
    "MLPnc": nocoalescer_config(),
    "MLP8": mlp_config(8),
    "MLP64": mlp_config(64),
    "MLP256": mlp_config(256),
    "SEQ256": seq_config(256),
}


def _streams(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    return {
        "banded": banded_stream(n, jitter=20, span=4),
        "dense": (np.arange(n) // 4).astype(np.uint32),
        "random": random_stream(n, n * 4, seed=3),
    }


def _metrics_dict(metrics) -> dict:
    return dataclasses.asdict(metrics)


def both_engines(run):
    """Run ``run(engine)`` under both engines, assert identical metrics."""
    step = run("step")
    batched = run("batched")
    assert _metrics_dict(step) == _metrics_dict(batched)
    return step


# -- the adapter variant grid -------------------------------------------


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("stream", sorted(_streams(8)))
def test_variant_grid_bit_exact(variant, stream):
    idx = _streams(QUICK_N)[stream]
    config = VARIANTS[variant]
    both_engines(lambda engine: run_indirect_stream(idx, config, engine=engine))


def test_ideal_memory_bit_exact():
    idx = _streams(QUICK_N)["random"]
    both_engines(
        lambda engine: run_indirect_stream(
            idx, mlp_config(64), ideal_memory=True, engine=engine
        )
    )


def test_multichannel_bit_exact():
    idx = _streams(QUICK_N)["random"]
    both_engines(
        lambda engine: run_indirect_stream(
            idx, mlp_config(64), channels=2, engine=engine
        )
    )


# -- scatter and strided element paths ----------------------------------


def test_scatter_bit_exact():
    rng = np.random.default_rng(5)
    idx = rng.permutation(QUICK_N).astype(np.uint32)
    values = rng.standard_normal(QUICK_N)
    both_engines(
        lambda engine: run_indirect_scatter(idx, values, mlp_config(64), engine=engine)
    )


@pytest.mark.parametrize("variant", ["MLPnc", "MLP64", "SEQ256"])
@pytest.mark.parametrize("stride", [8, 72])
def test_strided_bit_exact(variant, stride):
    burst = StridedBurst(base=0, count=600, stride_bytes=stride)
    both_engines(
        lambda engine: run_strided_stream(
            burst, VARIANTS[variant], engine=engine
        )
    )


# -- adversarial DRAM streams through a raw channel ---------------------


class _Driver(Component):
    """Pushes a block stream into a raw DRAM channel and drains
    responses; ``depth`` bounds the requests kept in flight (1 models a
    dependent pointer-chase chain)."""

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


def _run_raw_dram(engine: str, blocks, depth: int = 1 << 30):
    cfg = DramConfig()
    store = BackingStore(1 << 22)
    dram = DramChannel(store, cfg)
    driver = _Driver(blocks, dram, cfg.access_bytes, depth)
    sim = Simulator([driver, dram], engine=engine)
    cycles = sim.run_until(lambda: driver.done, max_cycles=10_000_000)
    return cycles, dict(dram.stats.as_dict()), dram.req.max_occupancy


def _adversarial_streams(n: int) -> dict[str, np.ndarray]:
    """Bank/row patterns from the PR-4 timeline tests: a single-bank
    row hammer, a reorderable two-row ping-pong, and scattered
    traffic."""
    cfg = DramConfig()
    bank_stride = cfg.num_banks * cfg.blocks_per_row
    rng = np.random.default_rng(11)
    return {
        "single-bank-hammer": (np.arange(n) % 250) * bank_stride,
        "two-row-pingpong": np.tile(np.array([0, bank_stride]), n // 2),
        "uniform-random": rng.integers(0, 1 << 14, n),
    }


@pytest.mark.parametrize("stream", sorted(_adversarial_streams(8)))
@pytest.mark.parametrize("depth", [1, 1 << 30], ids=["chase", "full"])
def test_raw_dram_adversarial_bit_exact(stream, depth):
    blocks = _adversarial_streams(1500)[stream]
    step = _run_raw_dram("step", blocks, depth)
    batched = _run_raw_dram("batched", blocks, depth)
    assert step == batched


# -- saturated pipelines --------------------------------------------------
#
# At 4x quick scale the adapter keeps the DRAM request queue standing
# full, so the channel acts on most cycles and the batched engine keeps
# switching between due-ticking, the fused loop and short quiet jumps.
# These cells compare DramChannel.next_event / _service_due under a
# standing queue — including the _acts_seen re-tick rule straight after
# every grant or activate — against the per-cycle oracle, stats-for-
# stats and counter-for-counter.


@pytest.mark.parametrize("stream", ["banded", "dense", "random"])
def test_saturated_adapter_bit_exact(stream):
    idx = _streams(4 * QUICK_N)[stream]
    both_engines(
        lambda engine: run_indirect_stream(idx, mlp_config(64), engine=engine)
    )


def test_saturated_scatter_bit_exact():
    rng = np.random.default_rng(9)
    n = 4 * QUICK_N
    idx = rng.permutation(n).astype(np.uint32)
    values = rng.standard_normal(n)
    both_engines(
        lambda engine: run_indirect_scatter(idx, values, mlp_config(64), engine=engine)
    )


# -- burst-boundary adversaries ------------------------------------------
#
# Depths straddling the DRAM queue depth (32) exercise each branch of
# DramChannel.next_event in turn: below depth the request FIFO stays
# poppable (ingest early-out), at depth the queue stands full (service
# bound only), above depth the driver waits on the full request FIFO
# (the first grant frees a slot and the next tick ingests).  Sequential
# blocks put a grant every t_burst cycles, so due times land right on
# grants; the bank stripe holds one open row per bank, maximizing
# cross-bank hit scheduling between _service_due lower bounds.


def _boundary_streams(n: int) -> dict[str, np.ndarray]:
    cfg = DramConfig()
    return {
        "seq-blocks": np.arange(n) % (1 << 13),
        "bank-stripe": (np.arange(n) % cfg.num_banks) * cfg.blocks_per_row,
    }


@pytest.mark.parametrize("stream", sorted(_boundary_streams(8)))
@pytest.mark.parametrize("depth", [31, 32, 33])
def test_raw_dram_burst_boundary_bit_exact(stream, depth):
    blocks = _boundary_streams(6000)[stream]
    step = _run_raw_dram("step", blocks, depth)
    batched = _run_raw_dram("batched", blocks, depth)
    assert step == batched


# -- hypothesis-generated streams ---------------------------------------


@st.composite
def index_streams(draw):
    count = draw(st.integers(min_value=1, max_value=300))
    ncols = draw(st.integers(min_value=1, max_value=1500))
    kind = draw(st.sampled_from(["random", "walk", "constant", "ramp"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if kind == "random":
        idx = rng.integers(0, ncols, count)
    elif kind == "walk":
        steps = rng.integers(-4, 5, count)
        idx = np.clip(np.cumsum(steps) + ncols // 2, 0, ncols - 1)
    elif kind == "constant":
        idx = np.full(count, rng.integers(0, ncols))
    else:
        idx = np.arange(count) % ncols
    return idx.astype(np.uint32)


@given(index_streams(), st.sampled_from(sorted(VARIANTS)))
@settings(max_examples=30, deadline=None)
def test_hypothesis_streams_bit_exact(idx, variant):
    config = VARIANTS[variant]
    both_engines(lambda engine: run_indirect_stream(idx, config, engine=engine))


@st.composite
def dram_block_streams(draw):
    """Raw-DRAM adversaries for the channel's due-time bounds: few-bank
    traffic so refresh, row close (64 idle cycles) and act spacing
    (t_rc) land on arbitrary offsets between service due points, with
    in-flight depths clustered around the queue-depth boundary."""
    cfg = DramConfig()
    bank_stride = cfg.num_banks * cfg.blocks_per_row
    n = draw(st.integers(min_value=1, max_value=120))
    kind = draw(st.sampled_from(["tight", "hammer", "scatter"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if kind == "tight":
        blocks = rng.integers(0, 4 * cfg.blocks_per_row, n)
    elif kind == "hammer":
        blocks = rng.integers(0, 8, n) * bank_stride
    else:
        blocks = rng.integers(0, 1 << 12, n)
    depth = draw(st.sampled_from([1, 2, 31, 32, 33, 1 << 30]))
    return blocks, depth


@given(dram_block_streams())
@settings(max_examples=20, deadline=None)
def test_hypothesis_raw_dram_bit_exact(stream):
    blocks, depth = stream
    assert _run_raw_dram("step", blocks, depth) == _run_raw_dram(
        "batched", blocks, depth
    )


# -- engine selection plumbing ------------------------------------------


def test_default_engine_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    assert default_engine() == "batched"
    monkeypatch.setenv("REPRO_SIM_ENGINE", "step")
    assert default_engine() == "step"
    monkeypatch.setenv("REPRO_SIM_ENGINE", "turbo")
    with pytest.raises(ConfigError):
        default_engine()


def test_unknown_engine_rejected():
    with pytest.raises(ConfigError):
        Simulator([], engine="turbo")
