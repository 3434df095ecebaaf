"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import layers
from common import (
    REFERENCE_UNIT_S, Calibrator, PercentileRefused, compare_files, last_json_line,
    percentile,
)
from run import pass_failure

ROOT = Path(__file__).resolve().parent.parent


# -- the percentile rule ----------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(PercentileRefused):
        percentile(range(999), 99)
    assert percentile(range(1000), 99) == 989


def test_median_needs_ten_samples_beyond_it():
    with pytest.raises(PercentileRefused):
        percentile(range(19), 50)
    assert percentile(range(20), 50) == 9
    with pytest.raises(PercentileRefused):
        percentile([], 50)


# -- calibration ----------------------------------------------------------------


def test_slowness_is_unit_time_over_the_reference():
    calibrator = Calibrator({0})  # not started
    start = (4.0, 1.0, 10, 1000)
    end = (14.0, 1.0 + 20 * REFERENCE_UNIT_S, 110, 1200)
    assert calibrator.slowness(start, end) == pytest.approx(2.0)
    # half the window's CPU time was stolen: wall times ran twice as long
    assert calibrator.slowness(start, end, wall=True) == pytest.approx(4.0)
    with pytest.raises(RuntimeError):
        calibrator.slowness(start, start)


def test_calibrator_measures_and_stops_its_processes():
    cpu = min(os.sched_getaffinity(0))
    with Calibrator({cpu}) as calibrator:
        first = calibrator.reading()
        time.sleep(0.05)
        later = calibrator.reading()
        assert later[0] > first[0] >= 1
        assert calibrator.slowness(first, later) > 0
        processes = list(calibrator.processes)
    assert not any(process.is_alive() for process in processes)


# -- output checks ------------------------------------------------------------


def test_compare_files_reports_instead_of_raising(tmp_path):
    fresh, expected = tmp_path / "fresh", tmp_path / "expected"
    fresh.mkdir()
    expected.mkdir()
    for name in ("a.csv", "b.csv", "c.csv"):
        (fresh / name).write_text("x,y\n1,2\n")
    (expected / "a.csv").write_text("x,y\n1,2\n")
    (expected / "b.csv").write_text("x,y\n1,3\n")
    problems = compare_files(fresh, expected, ("a.csv", "b.csv", "c.csv"))
    assert [p.split(":")[0] for p in problems] == ["b.csv", "c.csv"]


def test_corrupted_expected_file_fails_the_pass(tmp_path):
    """A whole fast-sweep pass against a copy of the committed tiers
    with one byte flipped: the pass completes, names the file, and
    run.py counts it as a failed operation."""
    expected = tmp_path / "expected"
    shutil.copytree(ROOT / "results", expected / "results")
    shutil.copy(ROOT / "EXPERIMENTS.md", expected / "EXPERIMENTS.md")
    target = expected / "results/full/corpus_rollup.csv"
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))

    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin",
           "REPRO_CORPUS_CACHE": str(tmp_path / "cache"), "TMPDIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench/batch_pass.py"), "fast-sweep",
         str(tmp_path / "out"), "0", str(expected)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    record = last_json_line(done.stdout)
    assert [m.split(":")[0] for m in record["mismatches"]] == ["corpus_rollup.csv"]
    assert pass_failure(record) is not None
    assert pass_failure({**record, "mismatches": []}) is None
    assert pass_failure({"error": "boom"}) is not None


# -- traced-run wrappers ------------------------------------------------------


def _bound_targets() -> dict[tuple[str, str], object]:
    """Every module attribute and class member a wrapper may replace."""
    import repro.corpus.runner  # noqa: F401 - load every wrapped layer
    import repro.report.runner  # noqa: F401
    import repro.vpc  # noqa: F401

    bound = {}
    names = {target.partition(":")[2].split(".")[-1] for _, target in layers.TARGETS}
    for holder in layers._repro_modules():
        for attr, value in vars(holder).items():
            if attr in names:
                bound[(holder.__name__, attr)] = value
            if isinstance(value, type):
                for member in names & set(vars(value)):
                    bound[(f"{holder.__name__}.{attr}", member)] = vars(value)[member]
    return bound


def test_wrappers_are_restored_after_a_traced_pass():
    before = _bound_targets()
    import repro.engine.cache as engine_cache
    from repro.engine import SweepExecutor, grid_points

    original_analyze = engine_cache.analyze_stream
    recorder = layers.SpanRecorder()
    late = types.ModuleType("repro._late_import")
    try:
        with layers.installed(recorder):
            # the engine looks analyze_stream up in its own namespace
            assert engine_cache.analyze_stream is not original_analyze
            # a module imported while tracing copies a wrapper
            late.get_matrix = sys.modules["repro.sparse.suite"].get_matrix
            sys.modules[late.__name__] = late
            SweepExecutor().run(
                grid_points("adapter", ("msc01440",), ("MLP64",), max_nnz=2000)
            )
        assert layers.leftover_wrappers() == []
        assert late.get_matrix is sys.modules["repro.sparse.suite"].get_matrix
    finally:
        sys.modules.pop(late.__name__, None)
    assert _bound_targets() == before
    assert engine_cache.analyze_stream is original_analyze
    metrics = layers.layer_metrics(recorder, {})
    assert metrics["engine.tasks"] == 1
    assert metrics["axipack.fastmodel_s"] > 0


def test_self_time_excludes_wrapped_children(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(layers.time, "perf_counter", lambda: clock[0])
    recorder = layers.SpanRecorder()

    def advance(seconds):
        clock[0] += seconds

    inner = recorder.wrap("inner", "inner", advance)

    def body():
        advance(1.0)
        inner(2.0)
        inner(3.0)
        advance(0.5)

    recorder.wrap("outer", "outer", body)()
    with pytest.raises(ZeroDivisionError):
        recorder.wrap("inner", "inner", lambda: 1 / 0)()
    assert recorder._stack == []
    assert recorder.self_s == {"outer": 1.5, "inner": 5.0}
