"""One pass of a batch workload, in a fresh interpreter.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/batch_pass.py WORKLOAD OUT_DIR TRACE [EXPECTED_ROOT]

``WORKLOAD`` is ``setup`` (imports only), ``fast-sweep`` or
``cycle-sim``.  The script prints ``ready`` once its imports finish —
the set-up clock of run.py stops there — then runs the pass, checks its
outputs byte for byte against the committed tiers under
``EXPECTED_ROOT`` (default: the working directory) and prints one JSON
record as its last line.  The record holds the pass's wall and CPU
time and the machine's slowness over the pass, read by a
:class:`~common.Calibrator` on the one CPU the pass is pinned to.  ``TRACE`` 1 wraps the pass in the per-layer
span recorder and the cycle profiler; the checks and the oracle
pairing always run untraced and outside the timed window.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from repro.corpus import CorpusRunner
from repro.experiments.common import QUICK_NNZ
from repro.obs import profiled
from repro.report.runner import run_report
from repro.report.store import ResultStore
from repro.sparse.corpus import MatrixCache, get_corpus, load_fastload
from repro.sparse.suite import get_matrix, get_spec

import layers
from common import Calibrator, compare_files

#: the fast-vs-cycle agreement band of the oracle contract.
ORACLE_BAND = (0.85, 1.25)

#: fast-sweep's corpus scale: the committed results/full tier's.
FULL_NNZ = 60_000

STORE_FILES = (
    "claims.csv", "corpus_adapter.csv", "corpus_rollup.csv", "fig3.csv",
    "fig4.csv", "fig5a.csv", "fig5b.csv", "fig6a.csv", "fig6b.csv",
    "manifest.json", "table1.csv",
)
FULL_FILES = (
    "corpus_adapter.csv", "corpus_claims.csv", "corpus_manifest.json",
    "corpus_rollup.csv",
)
CYCLE_FILES = ("corpus_adapter.csv", "corpus_manifest.json", "corpus_rollup.csv")


def _nnz_resolver():
    """``(matrix, scale) -> nnz`` for suite matrices and corpus fixtures."""
    fixtures = {e.name: e for e in get_corpus("full").entries if e.source != "synthetic"}
    cache = MatrixCache()

    def nnz(matrix: str, scale: int) -> int:
        if matrix in fixtures:
            path, _ = cache.ensure(fixtures[matrix])
            return load_fastload(path).nnz
        get_spec(matrix)
        return get_matrix(matrix, max_nnz=scale).nnz

    return nnz


def priced_work(store: Path, tables, scale: int, nnz) -> tuple[int, int]:
    """``(nonzeros, cycles)`` over the cells of ``tables``.

    A cell is one row with a ``matrix`` column — except ``fig3``,
    whose wide rows hold one cell per variant column.  Cycles sum the
    ``cycles`` column where a table has one.
    """
    result_store = ResultStore(store)
    total_nnz = total_cycles = 0
    for table in tables:
        for row in result_store.read_table(table):
            if "matrix" not in row:
                continue
            cells = len(row) - 2 if table == "fig3" else 1
            total_nnz += cells * nnz(row["matrix"], scale)
            total_cycles += int(row.get("cycles", 0) or 0)
    return total_nnz, total_cycles


def fast_sweep(out: Path) -> None:
    run_report(out / "store", out / "EXPERIMENTS.md", quick=True, stream=io.StringIO())
    CorpusRunner(
        get_corpus("full"), store_dir=out / "full", max_nnz=FULL_NNZ, claims=True
    ).run()


def cycle_sim(out: Path) -> None:
    CorpusRunner(
        get_corpus("quick"), store_dir=out / "cycle", max_nnz=QUICK_NNZ, model="cycle"
    ).run()


def check_fast_sweep(out: Path, expected: Path) -> list[str]:
    return (
        compare_files(out / "store", expected / "results/store", STORE_FILES)
        + compare_files(out, expected, ("EXPERIMENTS.md",))
        + compare_files(out / "full", expected / "results/full", FULL_FILES)
    )


def check_cycle_sim(out: Path, expected: Path) -> list[str]:
    return compare_files(out / "cycle", expected / "results/cycle", CYCLE_FILES)


def band_misses(cycle_rows, fast_rows) -> int:
    """Cells whose cycle/fast cycle ratio falls outside the oracle band."""
    fast = {(r["matrix"], r["variant"]): r["cycles"] for r in fast_rows}
    low, high = ORACLE_BAND
    return sum(
        not low <= row["cycles"] / fast[(row["matrix"], row["variant"])] <= high
        for row in cycle_rows
    )


def run_pass(workload: str, out: Path, trace: bool, expected: Path) -> dict:
    body = fast_sweep if workload == "fast-sweep" else cycle_sim
    record: dict = {"workload": workload, "traced": trace}
    recorder = layers.SpanRecorder()
    with Calibrator(os.sched_getaffinity(0)) as calibrator:
        reading = calibrator.reading()
        start = time.perf_counter()
        cpu_start = time.process_time()
        if trace:
            with profiled() as profile, layers.installed(recorder):
                body(out)
            bins = profile.bins
        else:
            body(out)
        record["wall_s"] = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu_start
        record["slowness"] = calibrator.slowness(reading, calibrator.reading())
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        leftover = layers.leftover_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        record["layers"] = layers.layer_metrics(recorder, bins)

    nnz = _nnz_resolver()
    if workload == "fast-sweep":
        record["mismatches"] = check_fast_sweep(out, expected)
        store_nnz, store_cycles = priced_work(
            out / "store", ("fig3", "fig4", "fig5a", "fig5b", "corpus_adapter"),
            QUICK_NNZ, nnz,
        )
        full_nnz, full_cycles = priced_work(
            out / "full", ("corpus_adapter",), FULL_NNZ, nnz
        )
        record["nnz"] = store_nnz + full_nnz
        record["cycles"] = store_cycles + full_cycles
        record["band_misses"] = band_misses(
            ResultStore(expected / "results/cycle").read_table("corpus_adapter"),
            ResultStore(out / "store").read_table("corpus_adapter"),
        )
    else:
        record["mismatches"] = check_cycle_sim(out, expected)
        record["nnz"], record["cycles"] = priced_work(
            out / "cycle", ("corpus_adapter",), QUICK_NNZ, nnz
        )
        record["band_misses"] = band_misses(
            ResultStore(out / "cycle").read_table("corpus_adapter"),
            CorpusRunner(get_corpus("quick"), max_nnz=QUICK_NNZ).run()["rows"],
        )
    return record


def main(argv: list[str]) -> int:
    workload, out, trace = argv[0], Path(argv[1]), argv[2] == "1"
    # the pass and its calibrator share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    expected = Path(argv[3]) if len(argv) > 3 else Path(".")
    print("ready", flush=True)
    if workload == "setup":
        print(json.dumps({"workload": "setup"}))
        return 0
    try:
        record = run_pass(workload, out, trace, expected)
    except Exception as exc:  # the pass failed; run.py counts it
        traceback.print_exc()
        record = {"workload": workload, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
