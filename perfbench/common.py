"""Shared pieces of the benchmark: statistics, calibration, output checks,
processes.

Nothing here imports :mod:`repro`, so ``run.py`` can refuse to run
before the program is on the path.
"""

from __future__ import annotations

import json
import math
import mmap
import multiprocessing
import os
import platform
import subprocess
import threading
import time
from pathlib import Path

#: the fewest samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: where runs keep scratch files and result records, inside the checkout.
WORK_DIR = Path(".perfbench")

#: the program's source tree, relative to the checkout root.
SRC_DIR = Path("src")


class PercentileRefused(ValueError):
    """Too few samples lie beyond the requested percentile."""


def percentile(values, q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values``.

    Refused (:class:`PercentileRefused`) unless at least
    :data:`MIN_BEYOND` samples lie strictly beyond its rank: a p99 needs
    1000 samples, a p50 needs 20.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n)) if n else 0
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise PercentileRefused(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return ordered[rank - 1]


#: CPU seconds one :func:`reference_unit` takes on an idle 2-vCPU
#: Intel Xeon VM: the speed every calibrated figure is scaled to.
REFERENCE_UNIT_S = 0.87e-3


def reference_unit(table, index) -> float:
    """A fixed piece of work shaped like the program's own: dict and
    list churn, small-integer arithmetic and string formatting, then a
    gather from an 8 MiB array (``table[index]``, from
    :func:`reference_arrays`).  Short, so that a window holds many."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(2_500):
        key = i % 977
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    return total + max(sorted(counts.values())) + float(table[index].sum())


def reference_arrays():
    import numpy

    table = numpy.arange(1 << 20, dtype=numpy.float64)
    index = numpy.random.default_rng(0).integers(0, 1 << 20, 50_000)
    return table, index


#: scheduling priority of the calibration processes: a CPU-bound
#: process at nice 0 leaves them about 6% of its CPU.
CALIBRATOR_NICE = 12


def _calibrate(cpu: int, tally, parent: int) -> None:
    """Body of one calibration process: reference units on ``cpu`` at
    low priority until stopped or orphaned.  ``tally`` holds
    ``[sequence, units, cpu seconds]``; the sequence is odd while the
    other two are being updated."""
    os.sched_setaffinity(0, {cpu})
    os.nice(CALIBRATOR_NICE)
    table, index = reference_arrays()
    while os.getppid() == parent:
        start = time.process_time()
        reference_unit(table, index)
        spent = time.process_time() - start
        tally[0] += 1
        tally[1] += 1
        tally[2] += spent
        tally[0] += 1


def cpu_ticks(cpus) -> tuple[int, int]:
    """``(stolen, all)`` clock ticks of ``cpus`` so far, from
    ``/proc/stat``: stolen ticks are those the hypervisor gave to other
    guests.  ``(0, 0)`` where the kernel does not report them."""
    names = {f"cpu{cpu}" for cpu in cpus}
    stolen = total = 0
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                fields = line.split()
                if fields and fields[0] in names:
                    # user nice system idle iowait irq softirq steal;
                    # guest time is inside user
                    ticks = [int(value) for value in fields[1:9]]
                    stolen += ticks[7] if len(ticks) == 8 else 0
                    total += sum(ticks)
    except OSError:
        pass
    return stolen, total


class Calibrator:
    """Measures how fast the machine runs, beside the measured code.

    A shared host's speed drifts within seconds: while a neighbour is
    busy, one pass can take 1.8 times the CPU time of the next.  Inside
    this context one process per CPU in ``cpus``, pinned and at
    :data:`CALIBRATOR_NICE`, runs :func:`reference_unit` over and over.
    Pinned beside the measured code, it gets short slices all through
    the window, so the CPU time its units take tracks the speed the
    measured code saw at the same moments.  A time divided by
    :meth:`slowness` over its window (a rate multiplied by it) is at
    reference speed.

    CPU time leaves out time the hypervisor gives to other guests; a
    wall time also waits through it.  For wall times, :meth:`slowness`
    also counts the share of CPU time stolen in the window.
    """

    def __init__(self, cpus) -> None:
        # fork, not spawn: only a forked child shares the anonymous memory
        # of the tallies, so nothing is written outside the checkout.  The
        # child runs only reference units, which take no lock a thread of
        # this process could have held at the fork.
        context = multiprocessing.get_context("fork")
        self.cpus = sorted(cpus)
        self.tallies = [memoryview(mmap.mmap(-1, 24)).cast("d") for _ in self.cpus]
        self.processes = [
            context.Process(target=_calibrate, args=(cpu, tally, os.getpid()),
                            daemon=True)
            for cpu, tally in zip(self.cpus, self.tallies)
        ]

    def __enter__(self) -> "Calibrator":
        for process in self.processes:
            process.start()
        try:
            deadline = time.monotonic() + 30.0
            while self.reading()[0] < len(self.processes):
                if time.monotonic() > deadline or not all(
                    process.is_alive() for process in self.processes
                ):
                    raise RuntimeError("a calibration process did not start")
                time.sleep(0.001)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join()

    def reading(self) -> tuple[float, float, int, int]:
        """``(units, CPU seconds)`` done so far over every CPU, then
        :func:`cpu_ticks`."""
        units = seconds = 0.0
        for tally in self.tallies:
            while True:
                sequence, done, spent = tally[0], tally[1], tally[2]
                if sequence % 2 == 0 and tally[0] == sequence:
                    break
            units += done
            seconds += spent
        return (units, seconds, *cpu_ticks(self.cpus))

    @staticmethod
    def slowness(start, end, wall: bool = False) -> float:
        """How many times slower than the reference machine the units
        between two :meth:`reading` calls ran; with ``wall``, divided
        by the share of CPU time not stolen between them."""
        units = end[0] - start[0]
        if units < 1:
            raise RuntimeError("no reference unit ran in the window")
        slowness = (end[1] - start[1]) / units / REFERENCE_UNIT_S
        ticks = end[3] - start[3]
        if wall and ticks > 0:
            slowness /= 1 - min((end[2] - start[2]) / ticks, 0.9)
        return slowness


def compare_files(fresh_dir: Path, expected_dir: Path, names) -> list[str]:
    """Byte-compare ``names`` under two directories; list mismatches.

    A missing or unreadable file on either side is a mismatch, never
    an exception: a corrupted expected file fails the pass it checks.
    """
    problems = []
    for name in names:
        try:
            same = (Path(fresh_dir) / name).read_bytes() == (
                Path(expected_dir) / name
            ).read_bytes()
        except OSError as exc:
            problems.append(f"{name}: {exc.strerror or exc}")
            continue
        if not same:
            problems.append(f"{name}: differs from {expected_dir}/{name}")
    return problems


def child_env(root: Path, tmp: Path) -> dict:
    """Environment for a program process: no inherited ``REPRO_*``
    knobs (defaults only: one worker, no sharding, no tracing), the
    source tree on the path, and scratch space inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str((root / SRC_DIR).resolve())
    env["REPRO_CORPUS_CACHE"] = str((tmp / "corpus_cache").resolve())
    env["TMPDIR"] = str(tmp.resolve())
    return env


def spawn_until_ready(argv, env, cwd, ready, log: Path):
    """Start a process; return ``(process, seconds until ready)``.

    ``ready(process)`` blocks until the process reports it is ready
    and returns True, or returns False if it never will.  The
    process's standard error goes to the file ``log``.
    """
    start = time.perf_counter()
    with open(log, "ab") as err:
        process = subprocess.Popen(
            argv, cwd=cwd, env=env, text=True, stdout=subprocess.PIPE, stderr=err,
        )
    try:
        ok = ready(process)
    except BaseException:
        stop(process)
        raise
    if not ok:
        stop(process)
        raise RuntimeError(f"{argv[1:]} never became ready: {tail(log)}")
    return process, time.perf_counter() - start


def finish(process, timeout: float) -> str | None:
    """The rest of a process's standard output once it exits, or None
    if it outlived ``timeout`` seconds (it is then stopped)."""
    timer = threading.Timer(timeout, process.kill)
    timer.start()
    try:
        stdout = process.stdout.read()
        process.wait()
    finally:
        timer.cancel()
        stop(process)
    return None if process.returncode < 0 else stdout


def tail(log: Path, limit: int = 2000) -> str:
    try:
        return Path(log).read_text(errors="replace").strip()[-limit:]
    except OSError:
        return ""


def stop(process, timeout: float = 10.0) -> None:
    """Terminate a process and wait until it has ended."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def machine_info(root: Path) -> dict:
    """What the figures depend on besides the code under test."""
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": None,
        "git_commit": None,
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        pass
    if (root / ".git").exists():
        git = ["git", "-C", str(root)]
        try:
            info["git_commit"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
            info["git_dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def last_json_line(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line")

