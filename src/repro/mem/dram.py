"""Cycle-level HBM2 channel model (replaces DRAMSys).

One pseudo-channel with ``num_banks`` banks.  Consecutive wide blocks
interleave across banks; each bank keeps one open row.  The controller
implements FR-FCFS under an open-adaptive page policy with decoupled
*bank preparation* and *column issue*:

* **bank preparation** — when a bank has pending requests but none for
  its open row, the controller precharges/activates the row of the
  oldest pending request in the background (one activate start per
  cycle: command-bus limit, ``t_rc`` activate spacing per bank).
* **column issue** — each cycle the data bus, when free, is granted to
  the oldest pending request whose bank has its row open and ready
  (these are the "first-ready" row hits of FR-FCFS); data occupies the
  bus for ``t_burst`` cycles and returns ``t_cl`` later.

Because preparation overlaps with other banks' data bursts, a row miss
only costs bus bandwidth when no other bank can supply data — the gap
filling that gives real controllers their efficiency, and the property
the paper's coalescer interacts with.

The model reproduces the three characteristics the evaluation rests on:
512 b access granularity, 32 GB/s peak (one 64 B burst per two 1 GHz
cycles), and the row-hit/row-miss service-rate gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DramConfig
from ..sim.component import FAR_FUTURE, Component
from ..sim.fifo import Fifo
from ..sim.stats import StatSet
from .backing_store import BackingStore
from .request import MemRequest, MemResponse


@dataclass
class _BankState:
    open_row: int | None = None
    #: cycle at which the bank can accept its next column command.
    ready_at: int = 0
    #: earliest cycle the next activate may start (tRC spacing).
    next_act_at: int = 0
    last_use: int = 0


class DramChannel(Component):
    """One HBM2 pseudo-channel with an FR-FCFS controller."""

    def __init__(
        self,
        store: BackingStore,
        config: DramConfig | None = None,
        name: str = "dram",
        channel_stride: int = 1,
    ) -> None:
        super().__init__(name)
        if channel_stride < 1:
            raise ValueError("channel stride must be >= 1")
        self.store = store
        self.config = config or DramConfig()
        #: block-id divisor applied before the bank/row decode.  A
        #: channel behind an N-way block-interleaved router only sees
        #: every Nth wide block; stripping the channel-select bits
        #: (``block // N``) keeps all of its banks addressable instead
        #: of diluting them to ``num_banks / N`` (the standard
        #: interleaved-address decode, and the one the fast model's
        #: per-channel timelines assume).
        self.channel_stride = channel_stride
        self.req: Fifo[MemRequest] = self.make_fifo(self.config.queue_depth, "req")
        self.rsp: Fifo[MemResponse] = self.make_fifo(None, "rsp")
        self.stats = StatSet(name)
        self._banks = [_BankState() for _ in range(self.config.num_banks)]
        self._bus_free_at = 0
        self._inflight: list[tuple[int, MemResponse]] = []
        #: earliest finish among _inflight (FAR_FUTURE when empty); lets
        #: the per-cycle delivery check exit without walking the list.
        self._min_finish = FAR_FUTURE
        self._pending: list = []
        #: pending requests per bank (kept in lockstep with _pending) —
        #: lets next_event bound the service horizon without walking
        #: the queue.
        self._bank_load = [0] * self.config.num_banks
        self._next_refresh_at = self.config.t_refi
        self._refresh_until = 0
        #: cycles during which a data beat occupied the bus.
        self.busy_bus_cycles = 0
        #: scheduling-action counter (activates, column accesses,
        #: refreshes, idle closes) and the count observed by the last
        #: ``next_event`` call — used by the batched engine to tell
        #: "the previous tick acted" from "the queue is quiescent".
        self._acts = 0
        self._acts_seen = -1

    # -- address mapping -------------------------------------------------

    def bank_of(self, addr: int) -> int:
        block = addr // self.config.access_bytes // self.channel_stride
        return block % self.config.num_banks

    def row_of(self, addr: int) -> int:
        block = addr // self.config.access_bytes // self.channel_stride
        return block // (self.config.num_banks * self.config.blocks_per_row)

    # -- main loop ---------------------------------------------------------

    def tick(self) -> None:
        self._deliver_finished()
        self._ingest()
        self._refresh()
        self._close_idle_rows()
        if self._pending and self.cycle >= self._refresh_until:
            self._service()

    def _refresh(self) -> None:
        """All-bank refresh every tREFI: the channel stalls for tRFC and
        every row is closed (the next accesses pay fresh activates)."""
        config = self.config
        if config.t_refi <= 0:
            return
        if self.cycle >= self._next_refresh_at:
            self._refresh_until = self.cycle + config.t_rfc
            self._next_refresh_at = self.cycle + config.t_refi
            for bank in self._banks:
                bank.open_row = None
                bank.ready_at = max(bank.ready_at, self._refresh_until)
            self.stats.add("refreshes")
            self._acts += 1

    def _ingest(self) -> None:
        config = self.config
        while self.req.can_pop() and len(self._pending) < config.queue_depth:
            request = self.req.pop()
            # Precompute the address decode once per request.
            bank = self.bank_of(request.addr)
            self._pending.append(
                (
                    request.seq,
                    bank,
                    self.row_of(request.addr),
                    request.addr // config.access_bytes,
                    request,
                )
            )
            self._bank_load[bank] += 1

    def _close_idle_rows(self) -> None:
        horizon = self.config.close_idle_cycles
        cycle = self.cycle
        for bank in self._banks:
            if bank.open_row is not None and cycle - bank.last_use > horizon:
                bank.open_row = None
                bank.ready_at = max(bank.ready_at, cycle + self.config.t_rp)
                self.stats.add("idle_closes")
                self._acts += 1

    def _service(self) -> None:
        """One pass over the queue: find the oldest ready row hit for
        the data bus (FR-FCFS) and the best bank-preparation candidate
        (open-adaptive background activate)."""
        config = self.config
        cycle = self.cycle
        banks = self._banks
        bus_free = cycle >= self._bus_free_at

        best_hit_pos = -1
        best_hit_seq = -1
        prep_seq = -1
        prep_bank = -1
        seen_banks_hit: set[int] = set()
        oldest_bank_seen: set[int] = set()
        # Same-address hazard ordering: a request must not bypass an
        # older request to the same block (WAW/RAW correctness for the
        # scatter path) — standard controller hazard checking.
        blocked_blocks: set[int] = set()
        for pos, (seq, bank_idx, row, block, _request) in enumerate(self._pending):
            if block in blocked_blocks:
                continue
            blocked_blocks.add(block)
            bank = banks[bank_idx]
            if bank.open_row == row:
                seen_banks_hit.add(bank_idx)
                if bank.ready_at <= cycle and (
                    best_hit_pos < 0 or seq < best_hit_seq
                ):
                    best_hit_pos, best_hit_seq = pos, seq
            elif bank_idx not in oldest_bank_seen:
                oldest_bank_seen.add(bank_idx)
                if bank.ready_at <= cycle and (prep_seq < 0 or seq < prep_seq):
                    prep_seq, prep_bank = seq, bank_idx

        # Background preparation: one activate start per cycle, only
        # for a bank with no serviceable open-row work.
        if prep_bank >= 0 and prep_bank not in seen_banks_hit:
            bank = banks[prep_bank]
            row = next(
                r
                for (s, b, r, _blk, _q) in self._pending
                if b == prep_bank and s == prep_seq
            )
            act_start = max(cycle, bank.next_act_at)
            if bank.open_row is not None:
                act_start += config.t_rp
                self.stats.add("row_conflicts")
                self._acts += 1
            else:
                self.stats.add("row_misses")
                self._acts += 1
            bank.open_row = row
            bank.ready_at = act_start + config.t_rcd
            bank.next_act_at = act_start + config.t_rc
            bank.last_use = bank.ready_at

        if not bus_free or best_hit_pos < 0:
            return
        _seq, bank_idx, _row, _block, request = self._pending.pop(best_hit_pos)
        self._bank_load[bank_idx] -= 1
        # Column access: occupy the data bus, set the CAS-to-CAS
        # spacing, and enqueue the response for delivery at `finish`.
        bank = banks[bank_idx]
        finish = cycle + config.t_cl + config.t_burst
        self._bus_free_at = cycle + config.t_burst
        self.busy_bus_cycles += config.t_burst
        bank.ready_at = cycle + config.t_burst  # CAS-to-CAS spacing
        bank.last_use = finish

        self._inflight.append((finish, self._serve(request, finish)))
        if finish < self._min_finish:
            self._min_finish = finish
        self.stats.add("transactions")
        self._acts += 1
        self.stats.add("write_txns" if request.is_write else "read_txns")
        self.stats.add("bytes", request.nbytes)

    def _serve(self, request: MemRequest, finish: int) -> MemResponse:
        if request.is_write:
            assert request.write_data is not None
            self.store.write_block(
                request.addr, request.write_data, request.write_mask
            )
            return MemResponse(request, None, finish)
        data = self.store.read_block(request.block_addr, request.nbytes)
        return MemResponse(request, data, finish)

    def _deliver_finished(self) -> None:
        if self.cycle < self._min_finish:
            return
        remaining = []
        nxt = FAR_FUTURE
        for finish, response in self._inflight:
            if finish <= self.cycle:
                self.rsp.push(response)
            else:
                remaining.append((finish, response))
                if finish < nxt:
                    nxt = finish
        self._inflight = remaining
        self._min_finish = nxt

    # -- batched-engine protocol ---------------------------------------------

    def next_event(self) -> int | None:
        config = self.config
        cycle = self.cycle
        # Cheap early-out first: while the channel is ingesting it is
        # due immediately and the frozen-state scans below are wasted.
        if self.req.can_pop() and len(self._pending) < config.queue_depth:
            return cycle
        pending = bool(self._pending)
        if pending:
            acts = self._acts
            if acts != self._acts_seen:
                # The previous tick acted, so the frozen-state analysis
                # below would be stale: tick again and re-evaluate.
                self._acts_seen = acts
                return cycle
        due = self._min_finish
        if config.t_refi > 0:
            due = min(due, self._next_refresh_at)
        horizon = config.close_idle_cycles
        for bank in self._banks:
            if bank.open_row is not None:
                close_at = bank.last_use + horizon + 1
                if close_at < due:
                    due = close_at
        if pending:
            due = min(due, self._service_due())
        if due >= FAR_FUTURE:
            return None
        return due if due > cycle else cycle

    def wake_fifos(self) -> tuple[list[Fifo], list[Fifo]]:
        # rsp is unbounded and write-only from this side; req commits
        # are the only FIFO activity that can change what tick does.
        return [self.req], []

    def _service_due(self) -> int:
        """Lower bound on the earliest cycle at or after ``self.cycle``
        at which :meth:`_service` could issue a column access or start a
        bank preparation, with current state frozen.

        Every service action on a bank happens at or after
        ``max(base, bank.ready_at)``: preparations start exactly there,
        column accesses additionally wait for the data bus.  So the min
        of that bound over banks with pending work never lands *after* a
        real action — the only direction that would lose events.
        Undershooting (bus still busy, preparation suppressed by a
        same-bank hit) merely re-ticks the channel a few extra cycles,
        bounded by the bus burst time, which the step engine pays on
        every one of those cycles anyway.
        """
        base = max(self.cycle, self._refresh_until)
        banks = self._banks
        ready = FAR_FUTURE
        for bank_idx, load in enumerate(self._bank_load):
            if load:
                at = banks[bank_idx].ready_at
                if at < ready:
                    ready = at
        return ready if ready > base else base

    # -- reporting -----------------------------------------------------------

    @property
    def busy(self) -> bool:
        # The response FIFO is deliberately excluded: draining it is the
        # consumer's responsibility, not pending work of the channel.
        return bool(self._inflight) or bool(self._pending) or not self.req.is_empty

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of peak bandwidth actually used over a window."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_bus_cycles / elapsed_cycles)

    @property
    def row_hit_rate(self) -> float:
        """Column accesses served without a new activate."""
        txns = self.stats["transactions"]
        if txns == 0:
            return 0.0
        activates = self.stats["row_misses"] + self.stats["row_conflicts"]
        return max(0.0, 1.0 - activates / txns)
