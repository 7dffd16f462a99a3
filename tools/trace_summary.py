#!/usr/bin/env python
"""Render per-run summary tables from ``repro.obs`` JSONL trace files.

Usage::

    PYTHONPATH=src python tools/trace_summary.py TRACE_*.jsonl

For every run id found in the given trace files this prints the run
manifest (git revision, seed, platform), headline throughput
(replica-steps and replica-steps/s), counter and timer tables, shard
wall-clock balance with the load-imbalance ratio, shard dispatch
wall-clock against worker time (the dispatch overhead), array bytes
shipped to and from the shards per round, store hit rate and
byte traffic, sweep cell provenance, and CS-width-vs-n convergence
curves — everything :func:`repro.obs.summarize_runs` can reconstruct
from the events alone.

The tool doubles as a structural lint (the CI docs job runs it over the
benchmark traces): it exits nonzero when a trace is structurally broken
— malformed JSON lines, events missing the common fields, events for a
run id that never opened with a ``run.manifest``, out-of-order ``seq``
numbers, or time going backwards within a run.

Exit status: ``0`` clean, ``1`` structural anomalies found, ``2`` no
readable input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import load_trace_files, render_run_summary, summarize_runs  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trace_summary",
        description="Summarize repro.obs JSONL trace files per run.",
    )
    parser.add_argument(
        "traces",
        nargs="+",
        metavar="TRACE.jsonl",
        help="one or more JSONL trace files written by repro.obs.JsonlTraceSink",
    )
    parser.add_argument(
        "--lint-only",
        action="store_true",
        help="report structural anomalies only, skip the summary tables",
    )
    args = parser.parse_args(argv)

    paths = [Path(p) for p in args.traces]
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        print(f"trace_summary: no such file: {', '.join(missing)}", file=sys.stderr)
        return 2

    events, anomalies = load_trace_files(paths)
    if not events and not anomalies:
        print("trace_summary: no events found in input files", file=sys.stderr)
        return 2

    if not args.lint_only:
        summaries = summarize_runs(events)
        for run_id in sorted(summaries):
            print(render_run_summary(summaries[run_id]))
            print()

    if anomalies:
        print(f"{len(anomalies)} structural anomalies:", file=sys.stderr)
        for anomaly in anomalies:
            print(f"  - {anomaly}", file=sys.stderr)
        return 1
    print(f"{len(events)} events across {len(paths)} file(s): structurally clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
