"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fast-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` runs the separate traced measurement and
reports the per-layer metrics, with the tracing overhead.  Each metric
is printed as ``name value unit``; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
full record (machine, seed, every pass and reply count) is written
under ``.perfbench/results/``.  See ``perfbench/README.md`` for why each
workload exists and which layer metric moves which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

from statistics import median

from common import (
    SRC_DIR, WORK_DIR, Calibrator, child_env, finish, last_json_line,
    machine_info, spawn_until_ready, tail,
)

HERE = Path(__file__).resolve().parent

WORKLOADS = ("fast-sweep", "cycle-sim", "serve-mixed")

#: program starts per run whose median is ``setup_s``.
SETUP_REPEATS = 15

#: the warm-hit serve probe runs after each batch pass for this share
#: of the pass's wall time, and at the end until it holds this many
#: replies (so 20 lie beyond its p99).
PROBE_SHARE = 0.3
PROBE_REQUESTS = 2000

#: no single pass may take longer than this.
PASS_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "nnz_per_s": "nnz/s",
    "cycles_per_s": "cycles/s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "serve_jobs_per_s": "jobs/s",
}

#: why the batch workloads ignore --seed.
FIXED_INPUTS = (
    "fast-sweep and cycle-sim run fixed inputs: their outputs are checked "
    "byte for byte against the committed tiers, which pin SUITE_SEED; "
    "--seed seeds the serve request mix and the probe order only"
)


def per_layer_units() -> dict[str, str]:
    import layers
    import serve_load

    names = layers.metric_names() + serve_load.layer_names()
    names += ["oracle.band_misses", "trace.overhead_s", "trace.overhead_ratio",
              "machine.slowness"]
    return {name: _unit(name) for name in dict.fromkeys(names)}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or ".server_ms." in name:
        return "ms"
    if name.endswith(("_ratio", "_utilization", ".slowness")):
        return "ratio"
    if name.endswith("_per_cycle"):
        return "us"
    return "count"


def pass_failure(record: dict) -> str | None:
    """Why a batch pass failed (it raised, or an output differs from
    its committed tier), or None."""
    if "error" in record:
        return record["error"]
    if record["mismatches"]:
        return "; ".join(record["mismatches"])
    return None


class Run:
    """One benchmark run: its scratch space, tallies and samples."""

    def __init__(self, args) -> None:
        self.args = args
        self.root = Path.cwd()
        self.tmp = WORK_DIR / "tmp" / f"{args.workload}-{args.seed}-{time.time_ns()}"
        self.tmp.mkdir(parents=True)
        self.env = child_env(self.root, self.tmp)
        self.attempted = 0
        self.failures: list[str] = []
        self.record: dict = {"passes": []}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- batch workloads ------------------------------------------------

    def spawn_pass(self, workload: str, trace: bool) -> dict:
        out = self.tmp / f"pass{len(self.record['passes'])}"
        log = self.tmp / "pass.log"
        argv = [sys.executable, str(HERE / "batch_pass.py"), workload, str(out),
                "1" if trace else "0"]
        log.write_bytes(b"")
        process, setup = spawn_until_ready(
            argv, self.env, self.root,
            lambda p: p.stdout.readline().strip() == "ready", log,
        )
        try:
            stdout = finish(process, PASS_TIMEOUT_S)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        try:
            record = last_json_line(stdout or "")
        except ValueError:
            record = {"error": f"no result (exit {process.returncode}): {tail(log)}"}
        record["setup_s"] = setup
        return record

    def measure_setup(self) -> list[float]:
        """Set-up times at reference speed: each start's time over the
        machine's slowness across all of them (see :class:`Calibrator`)."""
        starts = []
        with Calibrator(os.sched_getaffinity(0)) as calibrator:
            reading = calibrator.reading()
            for _ in range(SETUP_REPEATS):
                record = self.spawn_pass("setup", False)
                if "error" in record:
                    raise RuntimeError(f"the program does not start: {record['error']}")
                starts.append(record["setup_s"])
            slowness = calibrator.slowness(reading, calibrator.reading(), wall=True)
        return [seconds / slowness for seconds in starts]

    def passes(self, workload: str, traced_too: bool, probe) -> list[dict]:
        """Passes until ``--seconds`` have elapsed (at least one); with
        ``traced_too`` each untraced pass is followed by a traced one.
        After each pass the serve probe runs for a slice of the pass's
        time, so its figures span the run like the passes' do."""
        done = []
        start = time.perf_counter()
        while not done or time.perf_counter() - start < self.args.seconds:
            for trace in (False, True) if traced_too else (False,):
                record = self.spawn_pass(workload, trace)
                self.attempted += 1
                failure = pass_failure(record)
                if failure is not None:
                    self.failures.append(f"{workload} pass: {failure}")
                done.append(record)
                self.record["passes"].append(record)
                probe.drive(PROBE_SHARE * record.get("wall_s", 1.0))
        return done

    def serve(self, session) -> dict:
        """Finish a serve session and count its replies."""
        result = session.finish()
        self.attempted += result["attempted"]
        self.failures.extend(result["failures"])
        self.record["serve"] = {k: v for k, v in result.items() if k != "failures"}
        return result

    def batch(self, workload: str) -> dict[str, float]:
        import serve_load

        self.spawn_pass("setup", False)  # compiles bytecode; not timed
        setup = [] if self.args.trace else self.measure_setup()
        self.record["setup_samples"] = setup
        probe = serve_load.ServeSession(
            self.root, self.env, serve_load.HitProbe, self.args.seed
        )
        try:
            records = self.passes(workload, bool(self.args.trace), probe)
            probe.drive(0, PROBE_REQUESTS)
        except BaseException:
            probe.close()
            raise
        session = self.serve(probe)
        good = [r for r in records if pass_failure(r) is None]
        untraced = [r for r in good if not r["traced"]]
        traced = [r for r in good if r["traced"]]
        if not untraced or (self.args.trace and not traced):
            raise RuntimeError(f"no good {workload} pass: {self.failures[:3]}")
        if not self.args.trace:
            # work per CPU second of the pass, at reference speed
            return {
                "setup_s": median(setup),
                "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
                "nnz_per_s": median(
                    r["nnz"] * r["slowness"] / r["cpu_s"] for r in untraced
                ),
                "cycles_per_s": median(
                    r["cycles"] * r["slowness"] / r["cpu_s"] for r in untraced
                ),
                **session["e2e"],
            }
        metrics = {**session["layers"]}
        metrics["machine.slowness"] = median(r["slowness"] for r in traced)
        for name in traced[0]["layers"]:
            metrics[name] = median(r["layers"][name] for r in traced)
        plain_s = median(r["cpu_s"] / r["slowness"] for r in untraced)
        traced_s = median(r["cpu_s"] / r["slowness"] for r in traced)
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
        metrics["oracle.band_misses"] = median(r["band_misses"] for r in traced)
        return metrics

    # -- serve-mixed ----------------------------------------------------

    def serve_mixed(self) -> dict[str, float]:
        import serve_load

        self.spawn_pass("setup", False)  # compiles bytecode; not timed
        load = serve_load.ServeSession(
            self.root, self.env, serve_load.MixedRequests, self.args.seed,
            setup_repeats=1 if self.args.trace else SETUP_REPEATS,
        )
        try:
            load.drive(self.args.seconds, serve_load.MIN_REQUESTS)
        except BaseException:
            load.close()
            raise
        session = self.serve(load)
        if not self.args.trace:
            return {
                "setup_s": median(session["setup_samples"]),
                "peak_rss_mb": session["peak_rss_mb"],
                **session["e2e"],
                **session["delivered"],
            }
        # Nothing is installed in the server: its per-layer figures come
        # from its own /stats and /metrics and the client's timings.
        return {**session["layers"], "trace.overhead_s": 0.0,
                "trace.overhead_ratio": 0.0}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # unwind through every ``finally`` so the processes this run
    # started are stopped and waited for
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    if not (root / SRC_DIR / "repro" / "__main__.py").is_file():
        print(f"error: no program under {root / SRC_DIR}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str((root / SRC_DIR).resolve()))
    # every process of the run, and its calibrator, shares one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    run = Run(args)
    try:
        if args.workload == "serve-mixed":
            values = run.serve_mixed()
        else:
            values = run.batch(args.workload)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    if not args.trace:
        values["ok_ratio"] = 1.0 - len(run.failures) / run.attempted
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}")

    record = {
        "args": vars(args),
        "seed": args.seed,
        "inputs": FIXED_INPUTS,
        "machine": machine_info(root),
        "metrics": metrics,
        "attempted": run.attempted,
        "failures": run.failures,
        **run.record,
    }
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"record: {path}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
