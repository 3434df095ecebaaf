"""Reference (oracle) implementations of the fast model's hot paths.

Deliberately simple per-window / per-transaction loops kept as
differential-test oracles: the vectorized implementations in
:mod:`repro.axipack.fastmodel` must match them *bit-exactly*
(wide-access counts, warp-tag issue order, cycle estimates) on
arbitrary streams.

Provenance differs between them:

* :func:`coalesce_window_reference` is the verbatim seed
  implementation of ``coalesce_window_exact`` — the battle-tested
  original the vectorized rewrite replaced;
* :func:`estimate_dram_cycles_reference` is an *independent
  re-derivation* of the legacy two-term analytic DRAM bound
  (:func:`repro.mem.timeline.analytic_dram_bound`) as a one-pass
  open-row loop — a cross-check of the walk's semantics, not its
  historical form;
* :func:`service_timeline_reference` is the naive per-queue-window
  walk of the bank-state timeline contract that
  :func:`repro.mem.timeline.service_timeline` vectorises — dicts and
  Python loops, nothing shared with the dense-table implementation;
* :func:`sell_from_csr_reference` is the verbatim seed per-row loop of
  :meth:`repro.sparse.sell.SellMatrix.from_csr`, which now builds the
  SELL arrays with whole-array gathers and scatters;
* :class:`LruReference` is the verbatim seed per-access LRU walk of
  :class:`repro.vpc.llc.LruCache`, which now replays a whole line
  trace in one batched pass.

Do not call these from sweep code — they are orders of magnitude slower
than the vectorized versions and exist only to pin their semantics.
"""

from __future__ import annotations

import numpy as np

from ..config import DramConfig
from ..sparse.csr import CsrMatrix
from ..sparse.sell import SellMatrix


def coalesce_window_reference(
    blocks: np.ndarray, window: int
) -> tuple[int, np.ndarray]:
    """Oracle for :func:`repro.axipack.fastmodel.coalesce_window_exact`.

    Walks the stream window by window, exactly as the cycle model's
    regulator/watcher pair does: all requests of one window that fall
    into the same wide block form one warp; a warp left open at a window
    swap keeps absorbing matching requests of the next window.
    """
    if blocks.size == 0:
        return 0, np.empty(0, dtype=np.int64)
    blocks = np.asarray(blocks, dtype=np.int64)
    tags: list[int] = []
    carry_tag: int | None = None
    for start in range(0, len(blocks), window):
        chunk = blocks[start : start + window]
        distinct, first_pos = np.unique(chunk, return_index=True)
        # Process in first-occurrence order, as the watcher's
        # oldest-unabsorbed scan does.
        order = np.argsort(first_pos)
        ordered = distinct[order]
        if carry_tag is not None and carry_tag in distinct:
            # The open warp absorbs its hits first, at no new access.
            ordered = ordered[ordered != carry_tag]
            if ordered.size == 0:
                continue  # whole window merged into the open warp
            tags.extend(int(b) for b in ordered)
            carry_tag = int(ordered[-1])
        else:
            # The previously open warp (if any) was already counted at
            # arming time; new distinct blocks each open one warp.
            tags.extend(int(b) for b in ordered)
            carry_tag = int(ordered[-1])
    return len(tags), np.asarray(tags, dtype=np.int64)


def estimate_dram_cycles_reference(
    blocks: np.ndarray, dram: DramConfig
) -> tuple[int, dict[str, int]]:
    """Oracle for :func:`repro.mem.timeline.analytic_dram_bound` (the
    legacy two-term bound the fast models priced DRAM with before the
    bank-state timeline replaced it).

    Walks the transaction stream once, tracking the open row per bank;
    the per-bank sequences it sees are identical to the vectorized
    stable-sort walk, so the two must agree exactly.
    """
    txns = int(blocks.size)
    if txns == 0:
        return 0, {"row_changes": 0, "activates": 0}
    blocks = np.asarray(blocks, dtype=np.int64)
    open_row: dict[int, int] = {}
    activates: dict[int, int] = {}
    row_changes = 0
    for block in blocks:
        bank = int(block) % dram.num_banks
        row = int(block) // (dram.num_banks * dram.blocks_per_row)
        if bank not in open_row:
            activates[bank] = 1
        elif open_row[bank] != row:
            activates[bank] = activates[bank] + 1
            row_changes += 1
        open_row[bank] = row

    bus_cycles = txns * dram.t_burst
    bank_cycles = max(activates.values()) * dram.t_rc
    cycles = max(bus_cycles, bank_cycles)
    if dram.t_refi > 0:
        refreshes = cycles // dram.t_refi
        cycles += refreshes * dram.t_rfc
    stats = {
        "row_changes": row_changes,
        "activates": sum(activates.values()),
    }
    return cycles, stats


def service_timeline_reference(
    blocks: np.ndarray, dram: DramConfig, queue_depth: int | None = None
):
    """Oracle for :func:`repro.mem.timeline.service_timeline`.

    Walks the stream one queue window (``2 * queue_depth``
    transactions — queue contents plus the refill admitted while they
    are served) at a time, exactly as the timeline contract specifies:
    within a window every bank serves its requests grouped by row, the
    carried open row (if requested anywhere in the window) costs no
    activate, every other distinct row costs one, and the window's
    service time is the slower of the data bus and the busiest bank.
    The row a bank leaves open is that of its newest request in the
    window (most-recent-arrival open-adaptive policy).  Returns the
    same :class:`repro.mem.timeline.TimelineResult`.
    """
    from ..mem.timeline import TimelineResult

    depth = dram.queue_depth if queue_depth is None else int(queue_depth)
    if depth < 1:
        raise ValueError("queue depth must be >= 1")
    horizon = 2 * depth
    blocks = np.asarray(blocks, dtype=np.int64)
    n = int(blocks.size)
    bank_busy = np.zeros(dram.num_banks, dtype=np.int64)
    if n == 0:
        return TimelineResult(0, 0, 0, 0, 0, 0, bank_busy, 0)

    open_row: dict[int, int] = {}
    cycles = 0
    activates = row_hits = row_conflicts = cold_activates = 0
    windows = 0
    for start in range(0, n, horizon):
        chunk = blocks[start : start + horizon]
        windows += 1
        per_bank: dict[int, list[int]] = {}
        for block in chunk:
            bank = int(block) % dram.num_banks
            row = int(block) // (dram.num_banks * dram.blocks_per_row)
            per_bank.setdefault(bank, []).append(row)
        window_time = len(chunk) * dram.t_burst
        for bank, bank_rows in per_bank.items():
            distinct = set(bank_rows)
            carried = open_row.get(bank)
            hit_group = 1 if carried in distinct else 0
            acts = len(distinct) - hit_group
            if bank not in open_row:
                # The bank's very first activate is cold; any further
                # activate in the same window already replaces a row.
                cold_activates += 1
                row_conflicts += acts - 1
            else:
                row_conflicts += acts
            activates += acts
            row_hits += len(bank_rows) - acts
            bank_time = max(len(bank_rows) * dram.t_burst, acts * dram.t_rc)
            bank_busy[bank] += bank_time
            window_time = max(window_time, bank_time)
            open_row[bank] = bank_rows[-1]
        cycles += window_time

    refreshes = 0
    if dram.t_refi > 0:
        refreshes = cycles // dram.t_refi
        cycles += refreshes * dram.t_rfc
    return TimelineResult(
        cycles=int(cycles),
        activates=activates,
        row_hits=row_hits,
        row_conflicts=row_conflicts,
        cold_activates=cold_activates,
        refreshes=int(refreshes),
        bank_busy=bank_busy,
        queue_windows=windows,
    )


def sell_from_csr_reference(csr: CsrMatrix, chunk: int = 32) -> SellMatrix:
    """Oracle for :meth:`repro.sparse.sell.SellMatrix.from_csr`.

    Fills the SELL arrays slice by slice and row by row: true entries
    at stride ``chunk`` from the row's slot, then padding that repeats
    the row's last valid index (column 0 for empty and out-of-range
    rows) with value 0.
    """
    nrows, ncols = csr.shape
    nslices = -(-nrows // chunk)
    row_lengths = csr.row_lengths()

    slice_widths = np.zeros(nslices, dtype=np.int64)
    for s in range(nslices):
        lo, hi = s * chunk, min((s + 1) * chunk, nrows)
        slice_widths[s] = row_lengths[lo:hi].max() if hi > lo else 0

    slice_ptr = np.zeros(nslices + 1, dtype=np.int64)
    np.cumsum(slice_widths * chunk, out=slice_ptr[1:])

    col_idx = np.zeros(slice_ptr[-1], dtype=SellMatrix.INDEX_DTYPE)
    val = np.zeros(slice_ptr[-1], dtype=SellMatrix.VALUE_DTYPE)

    for s in range(nslices):
        width = slice_widths[s]
        if width == 0:
            continue
        base = slice_ptr[s]
        for r_local in range(chunk):
            row = s * chunk + r_local
            # Destination stride: column-of-slice major layout.
            dst = base + r_local + np.arange(width) * chunk
            if row >= nrows or row_lengths[row] == 0:
                col_idx[dst] = 0
                continue
            lo, hi = csr.row_ptr[row], csr.row_ptr[row + 1]
            length = hi - lo
            col_idx[dst[:length]] = csr.col_idx[lo:hi]
            val[dst[:length]] = csr.val[lo:hi]
            # Pad by repeating the last valid index with value 0.
            col_idx[dst[length:]] = csr.col_idx[hi - 1]
    return SellMatrix(
        nrows, ncols, chunk, slice_ptr, slice_widths, col_idx, val, csr.nnz
    )


class LruReference:
    """Oracle for :meth:`repro.vpc.llc.LruCache.replay`.

    The seed per-access LRU walk: one list per set, least recently used
    at the front, counters bumped on every access.
    """

    def __init__(self, num_sets: int, ways: int, line_bytes: int = 64) -> None:
        self.sets: list[list[int]] = [[] for _ in range(num_sets)]
        self.ways = ways
        self.line_bytes = line_bytes
        self.hits = self.misses = self.evictions = 0

    def access(self, addr: int) -> bool:
        line = addr // self.line_bytes
        ways = self.sets[line & (len(self.sets) - 1)]
        try:
            ways.remove(line)
            ways.append(line)
            self.hits += 1
            return True
        except ValueError:
            ways.append(line)
            if len(ways) > self.ways:
                ways.pop(0)
                self.evictions += 1
            self.misses += 1
            return False

