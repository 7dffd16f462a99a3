"""Trace analysis: parse JSONL traces, lint structure, summarise runs.

This module backs ``tools/trace_summary.py``.  It parses trace files
*leniently* — malformed lines become reported anomalies instead of
exceptions — then reconstructs, per run: the manifest, final counter
totals, timer aggregates, throughput (replica-steps per engine-run
second), shard balance (per-shard wall-clock and load-imbalance ratios),
shard dispatch overhead (dispatch wall-clock beyond the workers' share),
array bytes shipped to and from shards per round, store hit rate, and
the CS-width-vs-n convergence curve of every traced consumer.

Structural lint (``exit 1`` from the CLI when any fire):

- unparsable / non-object lines, or lines missing the common fields
- events for a run id that never opened with a ``run.manifest`` event
- per (file, run): non-monotonic ``seq`` or decreasing wall-clock ``t``
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "RunSummary",
    "load_trace_files",
    "render_run_summary",
    "summarize_runs",
]

_COMMON_FIELDS = ("run", "seq", "t", "kind", "name")


@dataclass
class RunSummary:
    """Everything reconstructed from one run's trace events."""

    run_id: str
    manifest: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    # timer name -> [call count, total seconds]
    timers: dict = field(default_factory=dict)
    # consumer label -> list of (n, lower, upper, width)
    convergence: dict = field(default_factory=dict)
    # shard label -> [completions, total worker seconds]
    shard_seconds: dict = field(default_factory=dict)
    # per-dispatch imbalance ratios (max/mean shard seconds)
    imbalance: list = field(default_factory=list)
    # (bytes out, bytes in) of every round that reported its array traffic
    shard_bytes: list = field(default_factory=list)
    # total shard.dispatch wall-clock and the widest dispatch (tasks)
    dispatch_seconds: float = 0.0
    shards: int = 0
    # (cell, provenance) lifecycle tags from sweep.cell events
    cells: list = field(default_factory=list)
    events: int = 0

    @property
    def replica_steps(self) -> float:
        return float(self.counters.get("engine.replica_steps", 0))

    @property
    def throughput(self) -> float | None:
        """Replica-steps per second of engine wall-clock, if both traced."""
        seconds = sum(
            bucket[1]
            for name, bucket in self.timers.items()
            if name in ("engine.run", "engine.first_passage")
        )
        if seconds <= 0 or self.replica_steps <= 0:
            return None
        return self.replica_steps / seconds

    @property
    def dispatch_overhead(self) -> float | None:
        """Dispatch wall-clock minus worker seconds per shard, if traced."""
        if not self.shards:
            return None
        worker = float(self.counters.get("shard.worker_seconds", 0.0))
        return self.dispatch_seconds - worker / self.shards

    @property
    def store_hit_rate(self) -> float | None:
        hits = self.counters.get("store.hit")
        misses = self.counters.get("store.miss")
        if hits is None and misses is None:
            return None
        total = (hits or 0) + (misses or 0)
        return (hits or 0) / total if total else None


def load_trace_files(paths):
    """Parse trace files leniently.

    Returns ``(events, anomalies)`` where ``events`` is every
    structurally valid event (in file order, each tagged with its source
    file under the ``"_file"`` key) and ``anomalies`` is a list of
    human-readable structural problems.
    """
    events = []
    anomalies = []
    per_run_last = {}  # (file, run) -> (seq, t)
    for path in paths:
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            anomalies.append(f"{path}: unreadable trace file ({exc})")
            continue
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                anomalies.append(f"{path}:{lineno}: malformed JSON line")
                continue
            if not isinstance(event, dict):
                anomalies.append(f"{path}:{lineno}: trace line is not an object")
                continue
            missing = [f for f in _COMMON_FIELDS if f not in event]
            if missing:
                anomalies.append(
                    f"{path}:{lineno}: event missing fields {missing}"
                )
                continue
            key = (str(path), event["run"])
            last = per_run_last.get(key)
            if last is not None:
                last_seq, last_t = last
                if event["seq"] <= last_seq:
                    anomalies.append(
                        f"{path}:{lineno}: non-monotonic seq for run "
                        f"{event['run']} ({event['seq']} after {last_seq})"
                    )
                if event["t"] < last_t:
                    anomalies.append(
                        f"{path}:{lineno}: wall-clock went backwards for run "
                        f"{event['run']} ({event['t']} after {last_t})"
                    )
            per_run_last[key] = (event["seq"], event["t"])
            event["_file"] = str(path)
            events.append(event)

    known_runs = {e["run"] for e in events if e["kind"] == "manifest"}
    orphaned = sorted(
        {e["run"] for e in events if e["run"] not in known_runs}
    )
    for run_id in orphaned:
        count = sum(1 for e in events if e["run"] == run_id)
        anomalies.append(
            f"{count} event(s) for unknown run id {run_id!r} "
            "(no run.manifest opens this run)"
        )
    return events, anomalies


def summarize_runs(events) -> dict:
    """Fold parsed events into one :class:`RunSummary` per run id."""
    runs: dict[str, RunSummary] = {}
    for event in events:
        summary = runs.setdefault(event["run"], RunSummary(run_id=event["run"]))
        summary.events += 1
        kind = event["kind"]
        name = event["name"]
        payload = event.get("payload") or {}
        if kind == "manifest":
            summary.manifest.update(payload)
        elif kind == "annotate":
            summary.manifest.update(payload)
        elif kind == "counter":
            # later events carry the running total, so last-write wins
            summary.counters[name] = event.get("total", 0)
        elif kind == "timer":
            bucket = summary.timers.setdefault(name, [0, 0.0])
            bucket[0] += 1
            bucket[1] += float(event.get("seconds", 0.0))
        elif kind == "event":
            if name == "driver.convergence":
                curve = summary.convergence.setdefault(
                    payload.get("consumer", "?"), []
                )
                curve.append(
                    (
                        payload.get("n"),
                        payload.get("lower"),
                        payload.get("upper"),
                        payload.get("width"),
                    )
                )
            elif name == "shard.complete":
                label = payload.get("shard", payload.get("offset", "?"))
                bucket = summary.shard_seconds.setdefault(str(label), [0, 0.0])
                bucket[0] += 1
                bucket[1] += float(payload.get("seconds", 0.0))
            elif name == "shard.dispatch":
                summary.dispatch_seconds += float(payload.get("seconds", 0.0))
                summary.shards = max(summary.shards, int(payload.get("tasks", 0)))
            elif name == "shard.chunk":
                ratio = payload.get("imbalance")
                if ratio is not None:
                    summary.imbalance.append(float(ratio))
                if "bytes_out" in payload:
                    summary.shard_bytes.append(
                        (int(payload["bytes_out"]), int(payload.get("bytes_in", 0)))
                    )
            elif name == "sweep.cell":
                summary.cells.append(
                    (payload.get("cell"), payload.get("provenance"))
                )
    return runs


def _fmt_seconds(seconds: float) -> str:
    return f"{seconds:.3f}s" if seconds >= 1e-3 else f"{seconds * 1e6:.0f}us"


def render_run_summary(summary: RunSummary) -> str:
    """Render one run's reconstruction as an aligned plain-text block."""
    from ..analysis.report import render_table  # deferred: avoid import cycle

    lines = [f"== run {summary.run_id} ({summary.events} events) =="]
    manifest_bits = [
        f"{key}={summary.manifest[key]}"
        for key in ("git_rev", "python", "numpy", "sweep", "bench")
        if key in summary.manifest
    ]
    if manifest_bits:
        lines.append("manifest: " + " ".join(manifest_bits))

    headline = []
    if summary.replica_steps:
        headline.append(f"replica-steps={summary.replica_steps:.0f}")
    throughput = summary.throughput
    if throughput is not None:
        headline.append(f"throughput={throughput:,.0f} replica-steps/s")
    hit_rate = summary.store_hit_rate
    if hit_rate is not None:
        headline.append(
            f"store hit rate={hit_rate:.0%} "
            f"({summary.counters.get('store.hit', 0):.0f} hit / "
            f"{summary.counters.get('store.miss', 0):.0f} miss)"
        )
    if headline:
        lines.append("  ".join(headline))

    if summary.counters:
        rows = [
            [name, value] for name, value in sorted(summary.counters.items())
        ]
        lines.append(render_table(["counter", "total"], rows))
    if summary.timers:
        rows = [
            [name, bucket[0], _fmt_seconds(bucket[1])]
            for name, bucket in sorted(summary.timers.items())
        ]
        lines.append(render_table(["timer", "calls", "total"], rows))
    if summary.shard_seconds:
        rows = [
            [label, bucket[0], _fmt_seconds(bucket[1])]
            for label, bucket in sorted(summary.shard_seconds.items())
        ]
        lines.append(render_table(["shard", "completions", "worker-time"], rows))
        if summary.imbalance:
            worst = max(summary.imbalance)
            mean = sum(summary.imbalance) / len(summary.imbalance)
            lines.append(
                f"load imbalance (max/mean shard seconds per dispatch): "
                f"worst={worst:.2f} mean={mean:.2f}"
            )
    overhead = summary.dispatch_overhead
    if overhead is not None:
        worker = float(summary.counters.get("shard.worker_seconds", 0.0))
        lines.append(
            f"shard dispatch: wall={_fmt_seconds(summary.dispatch_seconds)} "
            f"worker={_fmt_seconds(worker)} overhead={_fmt_seconds(overhead)} "
            f"(dispatch - worker / {summary.shards} shards)"
        )
    if summary.shard_bytes:
        rounds = len(summary.shard_bytes)
        out = sum(b[0] for b in summary.shard_bytes)
        into = sum(b[1] for b in summary.shard_bytes)
        lines.append(
            f"shard traffic: {rounds} rounds, out={out / rounds:,.0f} B/round "
            f"in={into / rounds:,.0f} B/round (arrays only; total out={out:,} B "
            f"in={into:,} B)"
        )
    if summary.cells:
        rows = [[cell, provenance or "fresh"] for cell, provenance in summary.cells]
        lines.append(render_table(["cell", "provenance"], rows))
    for consumer, curve in sorted(summary.convergence.items()):
        head = curve[0]
        tail = curve[-1]
        lines.append(
            f"convergence {consumer}: {len(curve)} points, "
            f"n {head[0]} -> {tail[0]}, width {head[3]:.4g} -> {tail[3]:.4g}"
        )
        rows = [
            [n, lower, upper, width] for n, lower, upper, width in curve
        ]
        lines.append(render_table(["n", "lower", "upper", "width"], rows))
    return "\n".join(lines)
