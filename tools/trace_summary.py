#!/usr/bin/env python3
"""Render an NDJSON trace file into human-readable tables.

Usage::

    python -m repro corpus run --quick --trace trace.ndjson
    python tools/trace_summary.py trace.ndjson [--min-coverage 95]

Three sections:

* **per-phase wall-time** — spans grouped by name: call count, total
  and mean duration, and share of the root spans' wall-time;
* **coverage** — the fraction of each root span's duration covered by
  the union of its direct children's intervals (span ``ts`` is wall
  clock, so worker spans shipped across processes land on the same
  timeline).  ``--min-coverage P`` exits 1 below P percent — the CI
  gate that keeps the instrumentation honest;
* **cycle attribution** — the profiler's per-component tick/advance
  bins from the trace's final ``profile`` event, when present.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_trace(path: Path) -> tuple[list[dict], list[dict]]:
    """``(spans, profiles)`` from one NDJSON trace file."""
    spans: list[dict] = []
    profiles: list[dict] = []
    with path.open() as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{lineno}: not valid JSON: {exc}")
            if record.get("event") == "span":
                spans.append(record)
            elif record.get("event") == "profile":
                profiles.append(record)
    return spans, profiles


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    covered = 0.0
    end_max = None
    for start, end in sorted(intervals):
        if end_max is None or start > end_max:
            covered += end - start
            end_max = end
        elif end > end_max:
            covered += end - end_max
            end_max = end
    return covered


def coverage(spans: list[dict]) -> float | None:
    """Fraction of root wall-time covered by direct children (None
    when the trace has no root span of nonzero duration)."""
    roots = [s for s in spans if s.get("parent") is None]
    total = sum(s["dur_s"] for s in roots)
    if not roots or total <= 0:
        return None
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(
                (span["ts"], span["ts"] + span["dur_s"])
            )
    covered = 0.0
    for root in roots:
        lo, hi = root["ts"], root["ts"] + root["dur_s"]
        clipped = [
            (max(start, lo), min(end, hi))
            for start, end in children.get(root["span"], [])
            if end > lo and start < hi
        ]
        covered += _union_length(clipped)
    return covered / total


def phase_table(spans: list[dict]) -> list[dict]:
    """Per-span-name aggregate rows, longest total first."""
    phases: dict[str, dict] = {}
    root_total = sum(
        s["dur_s"] for s in spans if s.get("parent") is None
    )
    for span in spans:
        row = phases.setdefault(
            span["name"], {"phase": span["name"], "count": 0, "total_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span["dur_s"]
    rows = sorted(phases.values(), key=lambda r: -r["total_s"])
    for row in rows:
        row["mean_s"] = row["total_s"] / row["count"]
        row["share"] = (
            row["total_s"] / root_total if root_total > 0 else 0.0
        )
    return rows


def _print_table(rows: list[dict], columns: list[tuple[str, str]]) -> None:
    formatted = [
        {
            key: (f"{row[key]:.4f}" if spec == "f"
                  else f"{row[key]:.1%}" if spec == "%"
                  else str(row[key]))
            for key, spec in columns
        }
        for row in rows
    ]
    widths = {
        key: max(len(key), *(len(row[key]) for row in formatted))
        for key, _ in columns
    }
    header = "  ".join(key.ljust(widths[key]) for key, _ in columns)
    print(header)
    print("  ".join("-" * widths[key] for key, _ in columns))
    for row in formatted:
        print("  ".join(row[key].ljust(widths[key]) for key, _ in columns))


def render(path: Path, min_coverage: float | None) -> int:
    spans, profiles = load_trace(path)
    if not spans:
        print(f"{path}: no spans recorded")
        return 0 if min_coverage is None else 1
    traces = {s["trace"] for s in spans}
    roots = [s for s in spans if s.get("parent") is None]
    wall = sum(s["dur_s"] for s in roots)
    print(f"trace file : {path}")
    print(
        f"spans      : {len(spans)} across {len(traces)} trace(s), "
        f"{len(roots)} root(s), {wall:.3f}s root wall-time"
    )
    print()
    print("per-phase wall-time")
    _print_table(
        phase_table(spans),
        [
            ("phase", "s"),
            ("count", "s"),
            ("total_s", "f"),
            ("mean_s", "f"),
            ("share", "%"),
        ],
    )

    share = coverage(spans)
    print()
    if share is None:
        print("coverage   : n/a (no root span with nonzero duration)")
    else:
        print(
            f"coverage   : {share:.1%} of root wall-time attributed to "
            "direct child spans"
        )

    for profile in profiles:
        bins = profile.get("bins", {})
        if not bins:
            continue
        rows = [
            {
                "component": component,
                "tick": actions.get("tick", 0),
                "advance": actions.get("advance", 0),
                "total": sum(actions.values()),
            }
            for component, actions in bins.items()
        ]
        rows.sort(key=lambda r: (-r["total"], r["component"]))
        print()
        print("cycle attribution (simulated cycles by component x action)")
        _print_table(
            rows,
            [
                ("component", "s"),
                ("tick", "s"),
                ("advance", "s"),
                ("total", "s"),
            ],
        )

    if min_coverage is not None:
        if share is None or share * 100 < min_coverage:
            got = "n/a" if share is None else f"{share:.1%}"
            print(
                f"\nFAIL: coverage {got} below the {min_coverage:.0f}% gate",
                file=sys.stderr,
            )
            return 1
        print(f"\nOK: coverage meets the {min_coverage:.0f}% gate")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path, help="NDJSON trace file")
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=None,
        metavar="PCT",
        help="exit 1 unless direct-child coverage of the root spans "
        "reaches PCT percent",
    )
    args = parser.parse_args(argv)
    return render(args.trace, args.min_coverage)


if __name__ == "__main__":
    raise SystemExit(main())
