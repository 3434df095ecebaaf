"""Closed-loop load on the sweep service (``python -m repro serve``).

One client in one process sends a request, waits for the whole reply,
and sends the next: a closed loop, as a script that waits for its
results would drive it.  At any moment either the client or the
server works, so both run on the one CPU the run is pinned to, and no
request waits for another CPU to wake.  Every reply is kept and
checked after the load window against a serial in-process
:class:`~repro.engine.SweepExecutor` run (sweeps) or the committed
result store (experiments).

The load runs in slices of at most :data:`SLICE_S` seconds beside a
:class:`~common.Calibrator` on that CPU; each slice has its own reading
of the machine's slowness, stolen time included.  Latencies are
divided by their slice's slowness and rates multiplied by it, so the
figures are at reference machine speed.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import sys
import time
from pathlib import Path

from common import (
    MIN_BEYOND, Calibrator, PercentileRefused, percentile, spawn_until_ready, stop,
)

from repro.corpus import DEFAULT_VARIANTS
from repro.engine import SweepExecutor
from repro.experiments.common import QUICK_MATRICES, QUICK_NNZ
from repro.report.store import ResultStore
from repro.serve import ServeClient
from repro.serve.protocol import canonicalize, json_default
from repro.sparse.suite import PAPER_SUITE, get_matrix

#: experiments a quick ``experiment`` request can name; the committed
#: store answers all of them.
EXPERIMENTS = ("fig3", "fig4", "fig5a", "fig5b", "fig6b")

#: share of mixed requests that are ``experiment`` requests.
EXPERIMENT_SHARE = 0.1

#: Zipf exponent of the skew over the sweep keys.
ZIPF_S = 1.0

#: a reply percentile needs MIN_BEYOND samples beyond it, so a p99
#: needs this many replies.
MIN_REQUESTS = 100 * MIN_BEYOND

#: the longest stretch of load between two slowness readings.
SLICE_S = 2.0


#: how long a window may stretch to collect its replies.
MAX_EXTRA_S = 60.0

SERVE_STARTUP_S = 60.0

#: the answering layers the service labels its latency histogram with.
SERVE_SOURCES = ("cache", "store", "coalesced", "computed")


def sweep_payload(matrix: str, variant: str, nnz: int) -> dict:
    return {"matrices": [matrix], "variants": [variant], "max_nnz": nnz}


def mixed_keys() -> list[dict]:
    """The 160 single-cell sweeps of the mixed workload: 20 suite
    matrices x 4 variants x 12k/24k nonzeros."""
    return [
        sweep_payload(spec.name, variant, nnz)
        for spec in PAPER_SUITE
        for variant in DEFAULT_VARIANTS
        for nnz in (QUICK_NNZ, 2 * QUICK_NNZ)
    ]


def probe_keys() -> list[dict]:
    """The 12 warm-hit probe sweeps: the quick matrices x 4 variants."""
    return [
        sweep_payload(matrix, variant, QUICK_NNZ)
        for matrix in QUICK_MATRICES
        for variant in DEFAULT_VARIANTS
    ]


def experiment_payloads() -> list[dict]:
    return [{"cmd": "experiment", "name": name, "quick": True} for name in EXPERIMENTS]


class MixedRequests:
    """Seeded skewed mix: Zipf over a fixed ranking of the sweep keys,
    with a tenth of the requests quick experiments.

    The seed draws the request sequence; the ranking (which keys are
    hot) stays fixed, so runs with different seeds share one
    distribution of per-request work.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"mixed-{seed}")
        ranking = mixed_keys()
        random.Random("ranking").shuffle(ranking)
        self.keys = ranking
        self.weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranking))]
        self.experiments = experiment_payloads()

    def __next__(self) -> dict:
        if self.rng.random() < EXPERIMENT_SHARE:
            return self.rng.choice(self.experiments)
        return self.rng.choices(self.keys, weights=self.weights)[0]

    def warmup(self) -> list[dict]:
        # experiments stay cold, so the window reads them from the store
        return list(self.keys)


class HitProbe:
    """Uniform requests over the 12 probe keys: after the warm-up every
    reply comes from the response cache."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"probe-{seed}")
        self.keys = probe_keys()

    def __next__(self) -> dict:
        return self.rng.choice(self.keys)

    def warmup(self) -> list[dict]:
        return list(self.keys)


def server_argv() -> list[str]:
    return [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"]


def start_server(root: Path, env: dict):
    """``(process, client, seconds from spawn to the first healthy
    /healthz)``."""
    found: dict = {}

    def ready(process) -> bool:
        line = process.stdout.readline()
        match = re.search(r"serving on http://[\w.]+:(\d+)", line)
        if not match:
            return False
        client = ServeClient(f"http://127.0.0.1:{match.group(1)}")
        deadline = time.monotonic() + SERVE_STARTUP_S
        while not client.healthy():
            if time.monotonic() > deadline or process.poll() is not None:
                return False
            time.sleep(0.005)
        found["client"] = client
        return True

    process, seconds = spawn_until_ready(
        server_argv(), env, root, ready, Path(env["TMPDIR"]) / "serve.log"
    )
    return process, found["client"], seconds


def _snapshot(client: ServeClient) -> dict:
    stats = client.stats()
    series = stats["metrics"].get("repro_serve_request_seconds", {}).get("series", [])
    return {
        "jobs": stats["jobs"],
        "engine": stats["engine"],
        "server_s": {
            s["labels"].get("source", ""): (s["sum"], s["count"]) for s in series
        },
    }


def _delta(before: dict, after: dict) -> dict:
    server = {}
    for source, (total, count) in after["server_s"].items():
        prev_total, prev_count = before["server_s"].get(source, (0.0, 0))
        server[source] = (total - prev_total, count - prev_count)
    return {
        "jobs": {k: v - before["jobs"].get(k, 0) for k, v in after["jobs"].items()},
        "engine": {k: v - before["engine"].get(k, 0) for k, v in after["engine"].items()},
        "server_s": server,
    }


def _plain(rows) -> list[dict]:
    return json.loads(json.dumps(rows, default=json_default))


class Reference:
    """Expected rows per request, computed serially in-process."""

    def __init__(self, store_dir: Path) -> None:
        self.store = ResultStore(store_dir)
        self.executor = SweepExecutor()
        self._rows: dict[str, list[dict]] = {}

    def rows(self, payload: dict) -> list[dict]:
        key = json.dumps(payload, sort_keys=True)
        if key not in self._rows:
            if payload.get("cmd") == "experiment":
                rows = self.store.read_table(payload["name"])
            else:
                rows = self.executor.run(canonicalize(payload).points())
            self._rows[key] = _plain(rows)
        return self._rows[key]


def check_replies(replies, reference: Reference) -> list[str]:
    """One message per failed reply (error or rows differing)."""
    failures = []
    for payload, source, _, rows, error, _ in replies:
        if error is not None:
            failures.append(f"{payload}: {error}")
        elif rows != reference.rows(payload):
            failures.append(f"{payload}: {source} rows differ from the reference")
    return failures


def delivered_work(replies, slices: int) -> list[tuple[int, int]]:
    """``(nonzeros, cycles)`` of the sweep cells in the successful
    replies of each slice."""
    work = [[0, 0] for _ in range(slices)]
    for payload, _, _, rows, error, index in replies:
        if error is not None or payload.get("cmd") == "experiment":
            continue
        matrix = get_matrix(payload["matrices"][0], max_nnz=payload["max_nnz"])
        work[index][0] += matrix.nnz * len(rows)
        work[index][1] += sum(int(row.get("cycles", 0)) for row in rows)
    return [tuple(w) for w in work]


def _pct(values, q: float) -> float:
    """A percentile, or 0 where too few samples allow one."""
    try:
        return percentile(values, q)
    except PercentileRefused:
        return 0.0


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


class ServeSession:
    """One loaded server: started ``setup_repeats`` times (the last
    start takes the load), warmed with every key of the mix, driven in
    one or more windows, then stopped and every reply checked."""

    def __init__(self, root: Path, env: dict, mix_factory, seed: int,
                 setup_repeats: int = 1) -> None:
        self.root = root
        self.cpus = os.sched_getaffinity(0)
        self.process = None
        starts = []
        try:
            with Calibrator(self.cpus) as calibrator:
                reading = calibrator.reading()
                for index in range(setup_repeats):
                    process, client, startup = start_server(root, env)
                    starts.append(startup)
                    if index < setup_repeats - 1:
                        stop(process)
                self.process, self.client = process, client
                slowness = calibrator.slowness(
                    reading, calibrator.reading(), wall=True
                )
            # set-up times at reference speed
            self.setup_samples = [startup / slowness for startup in starts]
            self.mix = mix_factory(seed)
            self.replies: list[tuple] = []
            self.slices: list[tuple[int, float, float]] = []  # replies, s, slowness
            for payload in self.mix.warmup():
                self.client.submit(payload, reuse=False)
            self.before = _snapshot(self.client)
        except BaseException:
            self.close()
            raise

    def drive(self, seconds: float, min_replies: int = 0) -> None:
        """Run the closed loop for ``seconds``, stretched (up to
        :data:`MAX_EXTRA_S`) until the session holds ``min_replies``.

        Each reply is kept as ``(payload, source, latency_s, rows |
        None, error | None, slice)``.
        """
        start = time.perf_counter()
        deadline = start + seconds
        hard_stop = deadline + MAX_EXTRA_S
        with Calibrator(self.cpus) as calibrator:
            while True:
                now = time.perf_counter()
                if now >= hard_stop or (
                    now >= deadline and len(self.replies) >= min_replies
                ):
                    return
                end = min(now + SLICE_S, max(deadline, now + 0.1 * SLICE_S))
                reading = calibrator.reading()
                count = self.load(end, len(self.slices))
                self.slices.append((
                    count, time.perf_counter() - now,
                    calibrator.slowness(reading, calibrator.reading(), wall=True),
                ))

    def load(self, end: float, index: int) -> int:
        """The closed loop until ``end``; the number of replies."""
        count = 0
        while time.perf_counter() < end:
            payload = next(self.mix)
            sent = time.perf_counter()
            try:
                reply = self.client.submit(payload, reuse=False)
                outcome = (payload, reply["source"], time.perf_counter() - sent,
                           reply["rows"], None, index)
            except Exception as exc:  # counted as a failed request
                outcome = (payload, "error", time.perf_counter() - sent, None,
                           f"{type(exc).__name__}: {exc}", index)
            self.replies.append(outcome)
            count += 1
        return count

    def close(self) -> None:
        if self.process is not None:
            stop(self.process)

    def finish(self) -> dict:
        """Stop the server; check every reply; return the figures."""
        try:
            after = _snapshot(self.client)
            peak_mb = peak_rss_mb(self.process.pid)
        finally:
            self.close()
        replies = self.replies
        slowness = [s for _, _, s in self.slices]
        failures = check_replies(replies, Reference(self.root / "results/store"))
        ok = [r for r in replies if r[4] is None]
        latencies_ms = [r[2] * 1e3 / slowness[r[5]] for r in ok]
        work = delivered_work(replies, len(self.slices))
        rates = [(count * s / seconds, nnz * s / seconds, cycles * s / seconds)
                 for (count, seconds, s), (nnz, cycles) in zip(self.slices, work)
                 if seconds > 0]
        return {
            "attempted": len(replies),
            "failures": failures,
            "setup_samples": self.setup_samples,
            "peak_rss_mb": peak_mb,
            "window_s": sum(seconds for _, seconds, _ in self.slices),
            "slices": self.slices,
            "raw": {
                "serve_p50_ms": percentile([r[2] * 1e3 for r in ok], 50),
                "serve_p99_ms": percentile([r[2] * 1e3 for r in ok], 99),
                "serve_jobs_per_s": statistics.median(
                    count / seconds for count, seconds, _ in self.slices if seconds > 0
                ),
            },
            "e2e": {
                "serve_p50_ms": percentile(latencies_ms, 50),
                "serve_p99_ms": percentile(latencies_ms, 99),
                "serve_jobs_per_s": statistics.median(r[0] for r in rates),
            },
            "delivered": {
                "nnz_per_s": statistics.median(r[1] for r in rates),
                "cycles_per_s": statistics.median(r[2] for r in rates),
            },
            "layers": {
                **serve_layers(ok, _delta(self.before, after)),
                "machine.slowness": statistics.median(slowness),
            },
        }


def layer_names() -> list[str]:
    """Every per-layer metric :func:`serve_layers` reports."""
    return list(serve_layers([], {"jobs": {}, "engine": {}, "server_s": {}}))


def serve_layers(ok_replies, delta: dict) -> dict[str, float]:
    by_source: dict[str, list[float]] = {}
    for _, source, latency, _, _, _ in ok_replies:
        by_source.setdefault(source, []).append(latency * 1e3)
    out = {
        "serve.cache_p50_ms": _pct(by_source.get("cache", []), 50),
        "serve.computed_p50_ms": _pct(by_source.get("computed", []), 50),
        "serve.computed_p90_ms": _pct(by_source.get("computed", []), 90),
    }
    server = delta["server_s"]
    for source in SERVE_SOURCES:
        total, count = server.get(source, (0.0, 0))
        out[f"serve.server_ms.{source}"] = total / count * 1e3 if count else 0.0
    server_total = sum(total for total, _ in server.values())
    server_count = sum(count for _, count in server.values())
    client_total = sum(latency for values in by_source.values() for latency in values)
    out["serve.transport_ms"] = (
        client_total / len(ok_replies) - server_total / server_count * 1e3
        if ok_replies and server_count else 0.0
    )
    jobs = delta["jobs"]
    requests = jobs.get("requests", 0)
    out["serve.response_hit_ratio"] = (
        jobs.get("response_hits", 0) / requests if requests else 0.0
    )
    out["serve.store_hits"] = jobs.get("store_hits", 0)
    out["serve.coalesced"] = jobs.get("coalesced", 0)
    out["serve.response_evictions"] = jobs.get("response_evictions", 0)
    engine = delta["engine"]
    lookups = engine.get("cache_hits", 0) + engine.get("cache_misses", 0)
    out["engine.cache_hit_ratio"] = (
        engine.get("cache_hits", 0) / lookups if lookups else 0.0
    )
    out["engine.tasks"] = engine.get("tasks", 0)
    return out
