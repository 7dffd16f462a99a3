"""``perf/ledger.jsonl`` stays a well-formed record of paired benchmark runs.

Each line is one ``perfbench/run.py`` result: the commit it was measured
against (``parent``), which side of that change ran (``parent`` or
``change``), the workload and its run options, and the verbatim final
``result``.  A comparison needs both sides, so every run configuration has
as many parent lines as change lines, and every workload and metric must
be one that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEYS = {"parent", "side", "workload", "seed", "seconds", "trace", "result"}


def benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {w["name"] for w in spec["workloads"]}, units


def ledger():
    lines = (ROOT / "perf" / "ledger.jsonl").read_text().splitlines()
    assert lines, "the ledger is empty"
    return [json.loads(line) for line in lines]


def test_every_line_is_a_declared_workload_with_declared_metrics():
    workloads, units = benchmark()
    for number, run in enumerate(ledger(), start=1):
        assert set(run) == KEYS, f"line {number}: keys {sorted(run)}"
        assert run["side"] in ("parent", "change"), f"line {number}"
        assert run["workload"] in workloads, f"line {number}: {run['workload']}"
        for name, metric in run["result"]["metrics"].items():
            assert name in units, f"line {number}: undeclared metric {name}"
            assert metric["unit"] == units[name], f"line {number}: {name} unit"


def test_every_configuration_has_as_many_parent_as_change_runs():
    sides = Counter()
    for run in ledger():
        config = tuple(run[k] for k in ("parent", "workload", "seed", "seconds", "trace"))
        sides[config, run["side"]] += 1
    for config in {config for config, _ in sides}:
        parent, change = sides[config, "parent"], sides[config, "change"]
        assert parent == change, f"{config}: {parent} parent vs {change} change runs"
