"""Sim-cycle attribution profiler.

When enabled, both cycle engines bin every simulated component-cycle by
component name and by engine action:

``tick``
    the component was stepped cycle-by-cycle (the step engine's only
    mode; the batched engine's due-tick and fused-loop paths),
``advance``
    the batched engine replayed a quiet span via ``Component.advance``
    (including the 1-cycle sync gaps the fused loop charges on entry).

The contract is **exactness**: bins are incremented at precisely the
points where an engine moves a component's synced cycle forward, so for
every component the two bins sum to the cycles the simulator says
elapsed — bit-exact, on both engines, including runs cut short by a
deadlock.  ``tests/test_obs.py`` enforces this across the differential
grid, which doubles as a proof that the batched engine's claimed
quiet-span coverage is real.

Overhead: the hook is one module-global load per engine inner loop when
disabled (``active()`` returning ``None``), and plain dict increments
when enabled — no per-cycle allocation.
"""

from __future__ import annotations

import contextlib

ACTIONS = ("tick", "advance")

_PROFILER: "CycleProfiler | None" = None


class CycleProfiler:
    """Mutable ``{component: {action: cycles}}`` bins.

    Single-threaded by design: each engine run owns the profiler for
    its duration, and worker processes merge their bins back through
    shard results (:meth:`drain` / :meth:`merge`), mirroring how cache
    deltas travel.
    """

    __slots__ = ("bins",)

    def __init__(self) -> None:
        self.bins: dict[str, dict[str, int]] = {}

    def add(self, component: str, action: str, cycles: int) -> None:
        """Charge ``cycles`` to one component/action bin."""
        if cycles <= 0:
            return
        comp = self.bins.get(component)
        if comp is None:
            comp = self.bins[component] = dict.fromkeys(ACTIONS, 0)
        comp[action] += cycles

    def merge(self, bins: dict) -> None:
        """Fold another profiler's :attr:`bins` (or drained dict) in."""
        for component, actions in bins.items():
            comp = self.bins.get(component)
            if comp is None:
                comp = self.bins[component] = dict.fromkeys(ACTIONS, 0)
            for action, cycles in actions.items():
                comp[action] = comp.get(action, 0) + cycles

    def drain(self) -> dict:
        """Return and clear the bins (ship-back from pool workers)."""
        bins, self.bins = self.bins, {}
        return bins

    def component_totals(self) -> dict[str, int]:
        """Per-component cycle totals across all actions."""
        return {
            component: sum(actions.values())
            for component, actions in self.bins.items()
        }

    def total(self) -> int:
        return sum(sum(actions.values()) for actions in self.bins.values())

    def as_rows(self) -> list[tuple[str, int, int, int]]:
        """Sorted ``(component, tick, advance, total)`` rows, largest
        total first."""
        rows = [
            (
                component,
                actions.get("tick", 0),
                actions.get("advance", 0),
                sum(actions.values()),
            )
            for component, actions in self.bins.items()
        ]
        rows.sort(key=lambda row: (-row[3], row[0]))
        return rows


def enable() -> CycleProfiler:
    """Install (and return) a fresh global profiler."""
    global _PROFILER
    _PROFILER = CycleProfiler()
    return _PROFILER


def disable() -> None:
    global _PROFILER
    _PROFILER = None


def active() -> CycleProfiler | None:
    """The global profiler, or ``None`` when attribution is off."""
    return _PROFILER


@contextlib.contextmanager
def profiled():
    """Enable attribution for a block and yield the profiler.

    Restores the previous global (usually ``None``) on exit, so nested
    or test usage cannot leak an enabled profiler into later runs.
    """
    global _PROFILER
    previous = _PROFILER
    profiler = CycleProfiler()
    _PROFILER = profiler
    try:
        yield profiler
    finally:
        _PROFILER = previous
