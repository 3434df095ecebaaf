"""Bank-state DRAM service timeline for the fast models.

The fast adapter models used to price DRAM with a two-term analytic
bound — ``max(bus occupancy, t_rc * max-activates-per-bank)`` — which
ignores the two controller properties the paper's coalescer actually
interacts with: the **bounded read queue** (the controller only reorders
among the requests it can see) and **FR-FCFS first-ready scheduling**
(requests to an already-open row are served before older row misses, so
same-row requests co-resident in the queue cost one activate).

:func:`service_timeline` replaces that bound with a per-bank state
timeline replay.  The transaction stream is walked in *queue windows*
of ``2 * queue_depth`` transactions — the queue's contents plus the
refill the controller admits while serving them (requests retire one
by one, so the reorder horizon a request actually experiences spans
about two queue depths; cross-validation against the cycle channel
confirms the factor).  A window is ingested, scheduled, and only then
does the next begin — the conservative model of a bounded queue (the
cycle model in :mod:`repro.mem.dram` refills continuously and is the
reference).  Within one queue window the scheduler is FR-FCFS:

* every bank serves its requests **grouped by row** — all requests to
  one row in the window share a single activate;
* the row left open by the bank's previous traffic is served first and
  costs **no** activate (the "first-ready" row hits);
* each remaining distinct row costs one activate, and a bank's
  activates are spaced ``t_rc`` apart.

The open-adaptive page policy is modelled as *most-recent-arrival*: the
row a bank leaves open after a window is the row of its newest request
in that window.  Because the carried row therefore never depends on the
scheduler's choices, every queue window can be priced independently.
Windows are fixed slices of the stream, so the replay needs no global
sort: every per-(window, bank) quantity — group size, the row left
open, the row carried in, first-ready hits, distinct rows — is a dense
``windows x num_banks`` table filled by bincounts, a forward fill over
windows, and one sort of each window's page ids along short rows.

The service time of one queue window is the slower of the data bus
(``t_burst`` per transaction) and the busiest bank
(``max(r * t_burst, a * t_rc)`` for ``r`` requests needing ``a``
activates — column bursts and activate spacing respectively); total
service time is the sum over windows plus the same tREFI/tRFC refresh
stall accounting the cycle channel uses.  Note how the old bound is
recovered at both extremes: an unbounded queue over a single row run is
pure bus occupancy, and a row-thrashing stream (every request a new
row) degenerates to the activate bound exactly — the timeline is never
below the legacy bound on such streams, which the property suite pins.

Responses may complete out of order across banks; the AXI front
(:mod:`repro.mem.reorder`) restores per-ID ordering, so service-order
choices inside a window never affect the total cycle count — only the
activate/bus accounting does.

A deliberately naive pure-Python walk of the same contract lives in
:func:`repro.axipack.reference.service_timeline_reference`; the
vectorized implementation here must match it **bit-exactly** (cycles,
stats, per-bank busy cycles) on arbitrary streams, and a differential
tier cross-validates both against the cycle-accurate
:class:`repro.mem.dram.DramChannel` on the matrix suite.

:func:`analytic_dram_bound` preserves the legacy two-term bound for
benchmarks and lower-bound checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DramConfig


@dataclass(frozen=True)
class TimelineResult:
    """Outcome of one bank-state timeline replay.

    ``bank_busy`` holds per-bank busy cycles (activate spacing and
    column bursts), summed over queue windows; a bank's occupancy is
    its share of the total service time.
    """

    #: total service cycles, including refresh stalls.
    cycles: int
    #: activates issued (row misses + conflicts; one per distinct row
    #: per bank per queue window, minus open-row hits).
    activates: int
    #: transactions served without a new activate.
    row_hits: int
    #: activates that replaced a different open row.
    row_conflicts: int
    #: first-ever activate of each touched bank.
    cold_activates: int
    #: refresh stalls charged (``cycles // t_refi`` of the pre-refresh
    #: service time, each costing ``t_rfc``).
    refreshes: int
    #: per-bank busy cycles, length ``num_banks``.
    bank_busy: np.ndarray
    #: queue windows the stream was replayed through.
    queue_windows: int

    @property
    def transactions(self) -> int:
        return self.row_hits + self.activates

    @property
    def row_hit_rate(self) -> float:
        """Transactions served on an already-open row."""
        if self.transactions == 0:
            return 0.0
        return self.row_hits / self.transactions

    def occupancy(self) -> np.ndarray:
        """Per-bank busy fraction of the total service time."""
        if self.cycles == 0:
            return np.zeros_like(self.bank_busy, dtype=np.float64)
        return self.bank_busy / self.cycles

    @property
    def stats(self) -> dict[str, int]:
        """Flat counter view (store/metrics friendly)."""
        return {
            "activates": self.activates,
            "row_hits": self.row_hits,
            "row_conflicts": self.row_conflicts,
            "cold_activates": self.cold_activates,
            "refreshes": self.refreshes,
            "queue_windows": self.queue_windows,
        }


def _empty_result(dram: DramConfig) -> TimelineResult:
    return TimelineResult(
        cycles=0,
        activates=0,
        row_hits=0,
        row_conflicts=0,
        cold_activates=0,
        refreshes=0,
        bank_busy=np.zeros(dram.num_banks, dtype=np.int64),
        queue_windows=0,
    )


def service_timeline(
    blocks: np.ndarray, dram: DramConfig, queue_depth: int | None = None
) -> TimelineResult:
    """Replay a wide-transaction stream through the bank-state timeline.

    ``blocks`` is the wide-block id of every transaction in issue
    order (the warp-tag stream of the coalescing models); bank and row
    decode exactly as in :class:`repro.mem.dram.DramChannel`
    (``block % num_banks`` / ``block // (num_banks * blocks_per_row)``).
    ``queue_depth`` overrides ``dram.queue_depth``; the replay's
    reorder horizon is ``2 * queue_depth`` (see the module docstring).

    Fully vectorized over dense (queue window, bank) tables; bit-exact
    against :func:`repro.axipack.reference.service_timeline_reference`
    (enforced by the property-based differential suite).
    """
    depth = dram.queue_depth if queue_depth is None else int(queue_depth)
    if depth < 1:
        raise ValueError("queue depth must be >= 1")
    horizon = 2 * depth
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    n = int(blocks.size)
    if n == 0:
        return _empty_result(dram)

    num_banks = dram.num_banks
    banks = blocks % num_banks
    rows = blocks // (num_banks * dram.blocks_per_row)
    num_windows = (n - 1) // horizon + 1
    position = np.arange(n, dtype=np.int64)

    # Dense (queue window, bank) tables, flattened window-major: a
    # window is a fixed slice of the stream, so a group's table slot is
    # known without sorting.
    key = position // horizon * num_banks + banks
    table = (num_windows, num_banks)
    window_id = np.arange(num_windows)[:, None]
    size = np.bincount(key, minlength=num_windows * num_banks)

    # Row each group leaves open: that of its newest request.
    newest = np.zeros(size.size, dtype=np.int64)
    np.maximum.at(newest, key, position)
    left_open = rows[newest].reshape(table)

    # Carried open row entering each group: the row left by the last
    # earlier window that touched the bank (cold where none did).
    last_touch = np.maximum.accumulate(
        np.where(size.reshape(table) > 0, window_id, -1), axis=0
    )
    carry_from = np.vstack([np.full(num_banks, -1), last_touch[:-1]])
    carry_row = left_open[carry_from, np.arange(num_banks)].ravel()
    warm = carry_from.ravel() >= 0

    # First-ready hit: the carried row appears anywhere in the group
    # (FR-FCFS serves those requests before any precharge).
    hit = warm[key] & (rows == carry_row[key])
    carry_hit = np.bincount(key[hit], minlength=size.size) > 0

    # Distinct rows per group: sort each window's page ids (row and
    # bank in one id) along short rows; the ragged last window is
    # padded with a copy of its last page, which adds no distinct page.
    page = rows * num_banks + banks
    padded = np.empty(num_windows * horizon, dtype=np.int64)
    padded[:n] = page
    padded[n:] = page[-1]
    pages = np.sort(padded.reshape(num_windows, horizon), axis=1)
    first = np.ones(pages.shape, dtype=bool)
    first[:, 1:] = pages[:, 1:] != pages[:, :-1]
    page_key = window_id * num_banks + pages % num_banks
    distinct_rows = np.bincount(page_key[first], minlength=size.size)

    activates = distinct_rows - carry_hit
    bank_time = np.maximum(size * dram.t_burst, activates * dram.t_rc).reshape(table)

    # One queue window's service time: data bus vs its busiest bank.
    bus = np.full(num_windows, horizon * dram.t_burst, dtype=np.int64)
    bus[-1] = (n - (num_windows - 1) * horizon) * dram.t_burst
    cycles = int(np.maximum(bus, bank_time.max(axis=1)).sum())

    refreshes = 0
    if dram.t_refi > 0:
        refreshes = cycles // dram.t_refi
        cycles += refreshes * dram.t_rfc

    total_activates = int(activates.sum())
    cold = int(np.count_nonzero(last_touch[-1] >= 0))
    return TimelineResult(
        cycles=cycles,
        activates=total_activates,
        row_hits=n - total_activates,
        row_conflicts=total_activates - cold,
        cold_activates=cold,
        refreshes=int(refreshes),
        bank_busy=bank_time.sum(axis=0),
        queue_windows=num_windows,
    )


def analytic_dram_bound(
    blocks: np.ndarray, dram: DramConfig
) -> tuple[int, dict[str, int]]:
    """The legacy two-term service bound the timeline replaced.

    ``max(bus occupancy, t_rc * max-activates-per-bank)`` over an
    in-order open-row walk — no queue bound, no reordering.  Kept for
    the timeline's lower-bound property checks and the
    ``benchmarks/bench_timeline.py`` runtime gate; pinned bit-exactly
    by :func:`repro.axipack.reference.estimate_dram_cycles_reference`.
    """
    txns = int(blocks.size)
    if txns == 0:
        return 0, {"row_changes": 0, "activates": 0}
    banks = blocks % dram.num_banks
    rows = blocks // (dram.num_banks * dram.blocks_per_row)

    order = np.argsort(banks, kind="stable")
    banks_sorted = banks[order]
    rows_sorted = rows[order]
    same_bank = banks_sorted[1:] == banks_sorted[:-1]
    row_change = rows_sorted[1:] != rows_sorted[:-1]
    changes_per_bank = np.bincount(
        banks_sorted[1:][same_bank & row_change], minlength=dram.num_banks
    )
    present = np.bincount(banks_sorted, minlength=dram.num_banks) > 0
    activates_per_bank = changes_per_bank + present.astype(np.int64)

    bus_cycles = txns * dram.t_burst
    bank_cycles = int(activates_per_bank.max()) * dram.t_rc
    cycles = max(bus_cycles, bank_cycles)
    # Refresh: the channel stalls tRFC out of every tREFI.
    if dram.t_refi > 0:
        refreshes = cycles // dram.t_refi
        cycles += refreshes * dram.t_rfc
    stats = {
        "row_changes": int((same_bank & row_change).sum()),
        "activates": int(activates_per_bank.sum()),
    }
    return cycles, stats
