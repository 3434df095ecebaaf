"""Per-layer attribution for traced benchmark passes.

A traced pass wraps the public entry points of each layer in a span
recorder.  Wrappers are installed from this file only and only for the
duration of one pass: :func:`installed` patches every name where its
caller looks it up (a module that did ``from ..axipack.fastmodel import
analyze_stream`` holds its own reference, so patching the defining
module alone would miss it) and restores every patched name on exit.
Untraced passes install nothing.

Spans nest strictly (the engine runs serially in one thread), so a
layer's self time is its span's duration minus the durations of the
wrapped spans it directly contains.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# (layer, "module:attr" or "module:Class.method").  A layer of None
# observes results without opening a span.
TARGETS = (
    ("sparse.build", "repro.sparse.suite:get_matrix"),
    ("sparse.load", "repro.sparse.corpus:load_fastload"),
    ("axipack.analyze", "repro.axipack.fastmodel:analyze_stream"),
    ("axipack.coalesce", "repro.axipack.fastmodel:coalesce_window_exact"),
    ("axipack.coalesce", "repro.axipack.fastmodel:window_candidates"),
    ("axipack.coalesce", "repro.axipack.fastmodel:resolve_window_carry"),
    ("axipack.fastmodel", "repro.axipack.fastmodel:fast_indirect_stream"),
    ("axipack.fastmodel", "repro.axipack.scatter:fast_indirect_scatter"),
    ("axipack.fastmodel", "repro.axipack.strided:fast_strided_stream"),
    ("mem.timeline", "repro.mem.timeline:service_timeline"),
    ("vpc.system", "repro.vpc.baseline:BaselineSystem.run"),
    ("vpc.system", "repro.vpc.system:PackSystem.run"),
    ("engine.self", "repro.engine.executor:SweepExecutor.run"),
    ("corpus.self", "repro.corpus.runner:CorpusRunner.run"),
    ("report.store", "repro.report.store:ResultStore.write_table"),
    ("report.store", "repro.report.store:ResultStore.write_manifest"),
    ("report.render", "repro.report.render:render_document"),
    ("axipack.cycle_build", "repro.axipack.adapter:build_indirect_system"),
    ("sim.run", "repro.sim.clock:Simulator.run_until"),
    (None, "repro.axipack.adapter:run_indirect_stream"),
)

#: layers whose self time is reported as ``<layer>_s``.
TIMED_LAYERS = tuple(dict.fromkeys(layer for layer, _ in TARGETS if layer))


class SpanRecorder:
    """Self time per layer plus the counters read off layer results."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []

    def wrap(self, layer: str | None, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                frame = [0.0]
                self._stack.append(frame)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    self._stack.pop()
                    self.self_s[layer] += elapsed - frame[0]
                    if self._stack:
                        self._stack[-1][0] += elapsed
            if observe is not None:
                observe(self.counts, args, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper


def _observe_timeline(counts, args, result) -> None:
    counts["timeline_txns"] += len(args[0])


def _observe_engine(counts, args, result) -> None:
    stats = args[0].last_stats
    counts["engine_tasks"] += stats["tasks"]
    counts["engine_cache_hits"] += stats["cache_hits"]
    counts["engine_cache_misses"] += stats["cache_misses"]


def _observe_sim(counts, args, result) -> None:
    counts["sim_cycles"] += result


def _observe_adapter(counts, args, result) -> None:
    stats = result.dram_stats
    if not stats:
        return
    misses = stats.get("row_misses", 0)
    conflicts = stats.get("row_conflicts", 0)
    counts["dram_row_hits"] += stats.get("transactions", 0) - misses - conflicts
    counts["dram_row_conflicts"] += conflicts
    utilization = result.extras.get("dram_utilization")
    if utilization is not None:
        counts["dram_busy_cycles"] += utilization * result.cycles
        counts["dram_cycles"] += result.cycles


_OBSERVERS = {
    "repro.mem.timeline:service_timeline": _observe_timeline,
    "repro.engine.executor:SweepExecutor.run": _observe_engine,
    "repro.sim.clock:Simulator.run_until": _observe_sim,
    "repro.axipack.adapter:run_indirect_stream": _observe_adapter,
}


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@contextlib.contextmanager
def installed(recorder: SpanRecorder):
    """Install every wrapper for a block; restore every name after."""
    patched: list[tuple[object, str, object]] = []
    wrappers: dict[int, tuple] = {}  # id -> (wrapper, original)
    try:
        for layer, target in TARGETS:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapper = recorder.wrap(layer, target, original)
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                original = getattr(module, path)
                wrapper = recorder.wrap(layer, target, original)
                for holder in _repro_modules():
                    if getattr(holder, path, None) is original:
                        patched.append((holder, path, original))
                        setattr(holder, path, wrapper)
            wrappers[id(wrapper)] = (wrapper, original)
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        # A module first imported while the wrappers were live copied a
        # wrapper into its namespace; hand it the original instead.
        for holder in _repro_modules():
            for attr, value in list(vars(holder).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(holder, attr, wrappers[id(value)][1])


def leftover_wrappers() -> list[str]:
    """Names in loaded repro modules or classes still bound to a wrapper."""
    found = []
    for holder in _repro_modules():
        for attr, value in vars(holder).items():
            if getattr(value, "__perfbench_wrapper__", False):
                found.append(f"{holder.__name__}.{attr}")
            if isinstance(value, type):
                for name, member in vars(value).items():
                    if getattr(member, "__perfbench_wrapper__", False):
                        found.append(f"{holder.__name__}.{attr}.{name}")
    return found


def layer_metrics(recorder: SpanRecorder, profile_bins: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass (0 for idle layers)."""
    counts = recorder.counts
    out = {f"{layer}_s": recorder.self_s.get(layer, 0.0) for layer in TIMED_LAYERS}
    txns = counts["timeline_txns"]
    out["mem.timeline_txns"] = txns
    timeline_s = out["mem.timeline_s"]
    out["mem.timeline_txns_per_s"] = txns / timeline_s if timeline_s else 0.0
    out["engine.tasks"] = counts["engine_tasks"]
    lookups = counts["engine_cache_hits"] + counts["engine_cache_misses"]
    out["engine.cache_hit_ratio"] = (
        counts["engine_cache_hits"] / lookups if lookups else 0.0
    )
    cycles = counts["sim_cycles"]
    out["sim.cycles"] = cycles
    out["sim.host_us_per_cycle"] = out["sim.run_s"] / cycles * 1e6 if cycles else 0.0
    out["mem.dram_row_hits"] = counts["dram_row_hits"]
    out["mem.dram_row_conflicts"] = counts["dram_row_conflicts"]
    dram_cycles = counts["dram_cycles"]
    out["mem.dram_utilization"] = (
        counts["dram_busy_cycles"] / dram_cycles if dram_cycles else 0.0
    )
    for component in SIM_COMPONENTS:
        actions = profile_bins.get(component, {})
        for action in ("tick", "advance", "bulk"):
            out[f"sim.{action}_cycles.{component}"] = actions.get(action, 0)
    return out


#: the components of the single-channel indirect-stream system, the
#: only cycle system the benchmark's workloads simulate.
SIM_COMPONENTS = (
    "adapter", "arbiter", "coal", "direct", "dram", "elem_gen",
    "idx_fetch", "idx_split", "packer", "reorder",
)


def metric_names() -> list[str]:
    """Every metric :func:`layer_metrics` reports, in report order."""
    return list(layer_metrics(SpanRecorder(), {}))
