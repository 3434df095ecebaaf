"""Event-batched simulation engine.

Between stall points the step engine burns most of its time ticking
components that provably cannot act.  This engine advances the clock in
one jump across those quiet spans: each component exposes a
``next_event()`` horizon (the earliest cycle its tick could act), the
engine keeps the min over all horizons, and whenever that minimum lies
in the future the clock jumps straight to it.  Inside contended windows
it degrades to per-cycle ticking of exactly the due components.

Correctness contract (see ARCHITECTURE.md, "The two-engine contract"):

* ticking a component on a cycle where it does nothing is always safe —
  the step engine ticks everything every cycle, so only *skipping* a
  tick ever needs justification;
* a component is skipped on cycle ``T`` only if its declared horizon
  lies beyond ``T`` and nothing it observes changed since the horizon
  was computed.  The engine re-arms due times on every push, pop and
  commit of a FIFO the component owns or ``watches()``, and on explicit
  ``wake()`` calls (non-FIFO channels such as credit returns);
* a push or pop on cycle ``T`` wakes a waiter positioned *after* the
  mutating component at ``T`` (the step engine would tick it later the
  same cycle and it would observe the change) and a waiter positioned
  before it at ``T+1`` (its step-engine tick this cycle already ran, or
  would have seen pre-change state);
* staged pushes become visible at commit, so committing a FIFO at the
  end of cycle ``T`` wakes its waiters at ``T+1`` — without this a
  consumer woken at ``T`` would peek an uncommitted FIFO, conclude
  nothing is there, and sleep through the data forever;
* pure time counters (watchdog and regulator waits) advance during
  skipped cycles via ``Component.advance``, which replays exactly what
  the skipped no-op ticks would have done to them.

Under this contract the batched engine is bit-exact against the step
engine: identical final cycle counts, stats, FIFO counters, and
identical :class:`DeadlockError` / :class:`BudgetExceededError`
behaviour.  The differential suite in ``tests/test_sim_engines.py``
pins the equivalence; ``Simulator.step`` always uses the step path, so
the oracle stays available in-process.
"""

from __future__ import annotations

from typing import Callable

from ..errors import BudgetExceededError, DeadlockError
from ..obs import profiler as obs_profiler
from .clock import Simulator
from .component import FAR_FUTURE
from .fifo import Fifo

#: consecutive all-due process cycles before the engine fuses into the
#: step-identical inner loop (wake bookkeeping suspended), and the
#: period at which the fused loop re-polls horizons to decide whether
#: the pipeline has gone quiet again.
FUSE_STREAK = 8
FUSE_POLL = 32


class BatchedEngine:
    """One batched ``run_until`` over a :class:`Simulator`.

    The engine is transient: it rewires FIFO dirty sinks and wake hooks
    for the duration of :meth:`run` and restores them (and catches every
    component up to the final cycle) before returning, so ``step()`` and
    further ``run_until`` calls can be freely mixed with batched runs.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.components = list(sim.components)
        n = len(self.components)
        now = sim.cycle
        #: earliest cycle each component must tick; FAR_FUTURE = asleep.
        self.due = [now] * n
        #: cycle up to which each component's state is caught up
        #: (== last ticked-or-advanced cycle + 1).
        self.synced = [now] * n
        #: FIFOs with staged pushes awaiting end-of-cycle commit.
        self.dirty: list[Fifo] = []
        #: cursor of the component currently ticking (len(components)
        #: outside a pass) — drives the T-vs-T+1 wake rule.
        self._pos = n
        self._now = now
        self._saved: list[tuple[Fifo, list[Fifo] | None]] = []
        #: wake hooks installed at attach, suspended while fused.
        self._wake_hooks: list[tuple[Fifo, tuple]] = []
        #: cycle-attribution bins (None = profiling off).  Bins are
        #: charged at exactly the points where ``synced`` moves, so per
        #: component they sum to the cycles this run elapses — the
        #: exactness contract ``tests/test_obs.py`` pins.
        self.profiler = obs_profiler.active()

    # -- wiring ----------------------------------------------------------

    def _attach(self) -> None:
        sim = self.sim
        waiters: dict[int, tuple[Fifo, list[int], list[int]]] = {}
        for pos, comp in enumerate(self.components):
            comp._engine = self
            comp._engine_pos = pos
            comp.cycle = sim.cycle
            any_op, push_sensitive = comp.wake_fifos()
            for fifo in any_op:
                entry = waiters.setdefault(id(fifo), (fifo, [], []))
                if pos not in entry[1]:
                    entry[1].append(pos)
            for fifo in push_sensitive:
                entry = waiters.setdefault(id(fifo), (fifo, [], []))
                if pos not in entry[1]:
                    entry[1].append(pos)
                if pos not in entry[2]:
                    entry[2].append(pos)
        seen: set[int] = set(waiters)
        for comp in self.components:
            # Every owned FIFO must commit through the engine even when
            # no component asked to be woken for it.
            for fifo in comp.fifos:
                if id(fifo) not in seen:
                    seen.add(id(fifo))
                    waiters[id(fifo)] = (fifo, [], [])
        for fifo, any_positions, push_positions in waiters.values():
            self._saved.append((fifo, fifo._dirty_sink))
            fifo._dirty_sink = self.dirty
            hook = (self, tuple(any_positions), tuple(push_positions))
            fifo._wake = hook
            self._wake_hooks.append((fifo, hook))
        # Pushes staged before this run (e.g. the fetcher's initial
        # burst descriptor) must still commit at the end of the first
        # processed cycle.
        for comp in self.components:
            if comp._dirty:
                for fifo in comp._dirty:
                    if fifo not in self.dirty:
                        self.dirty.append(fifo)
                comp._dirty.clear()

    def _detach(self) -> None:
        sim = self.sim
        for fifo, sink in self._saved:
            fifo._wake = None
            fifo._dirty_sink = sink
        self._saved.clear()
        self._wake_hooks.clear()
        # Catch every component up to the global clock so its state —
        # pure time counters included — is exactly what the step engine
        # would hold at this cycle.
        profiler = self.profiler
        for pos, comp in enumerate(self.components):
            lag = sim.cycle - self.synced[pos]
            if lag > 0:
                comp.advance(lag)
                self.synced[pos] = sim.cycle
                if profiler is not None:
                    profiler.add(comp.name, "advance", lag)
            comp.cycle = sim.cycle
            comp._engine = None
            comp._engine_pos = -1

    # -- wake plumbing ---------------------------------------------------

    def notify(self, positions: tuple[int, ...]) -> None:
        """A FIFO saw a push or pop: re-arm its waiters' due times."""
        due = self.due
        now = self._now
        pos = self._pos
        after = now + 1
        for p in positions:
            t = now if p > pos else after
            if t < due[p]:
                due[p] = t

    def wake(self, position: int) -> None:
        """Explicit re-evaluation request from a component."""
        self.notify((position,))

    # -- the loop --------------------------------------------------------

    def run(self, done: Callable[[], bool], max_cycles: int) -> int:
        self._attach()
        try:
            return self._run(done, max_cycles)
        finally:
            self._detach()

    def _run(self, done: Callable[[], bool], max_cycles: int) -> int:
        sim = self.sim
        comps = self.components
        due = self.due
        horizon = sim.deadlock_horizon
        ops = sim._ops
        start = sim.cycle
        budget_end = start + max_cycles
        fuse_streak = 0
        n = len(comps)
        while not done():
            target = min(due, default=FAR_FUTURE)
            if target > sim.cycle:
                # Quiet span: no component can act before `target`.
                # Jump, clamped by the cycle budget, reproducing the
                # step engine's idle bookkeeping along the way.
                span_end = min(target, budget_end)
                quiet = span_end - sim.cycle
                if quiet > 0:
                    idle = sim._idle_cycles
                    if idle + quiet >= horizon:
                        need = horizon - idle
                        if 0 < need <= quiet and any(c.busy for c in comps):
                            sim.cycle += need
                            sim._idle_cycles = horizon
                            busy = [c.name for c in comps if c.busy]
                            raise DeadlockError(
                                f"no progress for {horizon} cycles; "
                                f"busy components: {busy}"
                            )
                    sim._idle_cycles = idle + quiet
                    sim.cycle = span_end
            if sim.cycle >= budget_end:
                raise BudgetExceededError(
                    max_cycles, [c.name for c in comps if c.busy]
                )
            activity_before = ops[0]
            ticked = self._process(sim.cycle)
            sim.cycle += 1
            if ops[0] == activity_before:
                sim._idle_cycles += 1
                if sim._idle_cycles >= horizon and any(c.busy for c in comps):
                    busy = [c.name for c in comps if c.busy]
                    raise DeadlockError(
                        f"no progress for {sim._idle_cycles} cycles; "
                        f"busy components: {busy}"
                    )
            else:
                sim._idle_cycles = 0
            # Saturated pipeline: when (nearly) every component is due
            # cycle after cycle, per-component wake bookkeeping is pure
            # overhead over the step loop — fuse into it.
            if ticked * 4 >= n * 3:
                fuse_streak += 1
                if fuse_streak >= FUSE_STREAK and not done():
                    self._run_fused(done, budget_end, max_cycles)
                    fuse_streak = 0
            else:
                fuse_streak = 0
        return sim.cycle - start

    def _run_fused(
        self, done: Callable[[], bool], budget_end: int, max_cycles: int
    ) -> None:
        """Step-identical inner loop: tick everything every cycle with
        wake hooks suspended (nobody sleeps, so wakes convey nothing),
        until a horizon poll shows components going quiet again.

        Ticking a component on a cycle where it does nothing is always
        safe, so fusing is bit-exact by the same argument as the step
        engine itself; the poll merely decides when the per-cycle cost
        of ticking sleepers outweighs the saved bookkeeping.
        """
        sim = self.sim
        comps = self.components
        horizon = sim.deadlock_horizon
        ops = sim._ops
        dirty = self.dirty
        entry = sim.cycle
        for fifo, _hook in self._wake_hooks:
            fifo._wake = None
        self._pos = len(comps)
        try:
            countdown = FUSE_POLL
            while not done():
                cycle = sim.cycle
                if cycle >= budget_end:
                    raise BudgetExceededError(
                        max_cycles, [c.name for c in comps if c.busy]
                    )
                activity_before = ops[0]
                for comp in comps:
                    comp.cycle = cycle
                    comp.tick()
                if dirty:
                    for fifo in dirty:
                        fifo.commit()
                    dirty.clear()
                sim.cycle = cycle + 1
                if ops[0] == activity_before:
                    sim._idle_cycles += 1
                    if sim._idle_cycles >= horizon and any(
                        c.busy for c in comps
                    ):
                        busy = [c.name for c in comps if c.busy]
                        raise DeadlockError(
                            f"no progress for {sim._idle_cycles} cycles; "
                            f"busy components: {busy}"
                        )
                else:
                    sim._idle_cycles = 0
                countdown -= 1
                if countdown == 0:
                    countdown = FUSE_POLL
                    after = sim.cycle
                    due = self.due
                    due_now = 0
                    for pos, comp in enumerate(comps):
                        comp.cycle = after
                        nxt = comp.next_event()
                        due[pos] = (
                            FAR_FUTURE if nxt is None
                            else (nxt if nxt > after else after)
                        )
                        if due[pos] <= after:
                            due_now += 1
                    if due_now * 4 < len(comps) * 3:
                        return
        finally:
            after = sim.cycle
            synced = self.synced
            profiler = self.profiler
            for pos in range(len(comps)):
                if profiler is not None:
                    # A component that was not due on the entry cycle
                    # arrives with a 1-cycle sync gap the fused loop
                    # absorbs; charge it as replay, and the fused
                    # cycles themselves as ticks, so the bins still sum
                    # to exactly the cycles this component elapsed.
                    gap = entry - synced[pos]
                    if gap > 0:
                        profiler.add(comps[pos].name, "advance", gap)
                    if after > entry:
                        profiler.add(comps[pos].name, "tick", after - entry)
                synced[pos] = after
            for fifo, hook in self._wake_hooks:
                fifo._wake = hook

    def _process(self, cycle: int) -> int:
        """Tick every due component for ``cycle``, then commit; returns
        the number of components ticked (the fuse heuristic input)."""
        due = self.due
        synced = self.synced
        profiler = self.profiler
        self._now = cycle
        after = cycle + 1
        ticked = 0
        # Catch-up pass BEFORE any cycle-`cycle` tick runs: advance()
        # replays skipped no-op ticks from the component's own counters,
        # and those reads are only exact while the state is still
        # end-of-previous-cycle state.  Deferring a replay past another
        # component's tick would leak same-cycle mutations (e.g. a
        # generator's accept() bumping the coalescer's queued count)
        # into cycles the step engine ran with the old values.
        for pos, comp in enumerate(self.components):
            lag = cycle - synced[pos]
            if lag > 0:
                comp.advance(lag)
                synced[pos] = cycle
                if profiler is not None:
                    profiler.add(comp.name, "advance", lag)
        for pos, comp in enumerate(self.components):
            if due[pos] <= cycle:
                ticked += 1
                self._pos = pos
                comp.cycle = cycle
                comp.tick()
                comp.cycle = after
                synced[pos] = after
                if profiler is not None:
                    profiler.add(comp.name, "tick", 1)
                nxt = comp.next_event()
                # next_event sees post-tick state, so it supersedes any
                # same-cycle wakes this component received mid-pass.
                due[pos] = (
                    FAR_FUTURE if nxt is None else (nxt if nxt > cycle else after)
                )
        self._pos = len(self.components)
        dirty = self.dirty
        if dirty:
            for fifo in dirty:
                fifo.commit()
                wake = fifo._wake
                if wake is not None:
                    for p in wake[1]:
                        if after < due[p]:
                            due[p] = after
            dirty.clear()
        return ticked
