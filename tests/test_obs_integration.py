"""End-to-end telemetry tests: traced sweeps and the trace-summary CLI.

Covers the observability acceptance path: a sharded, store-backed
``dynamics_family_sweep`` run with ``tracer=`` produces one JSONL trace
from which the summary layer reconstructs replica-steps, shard balance,
store hit/miss counts that agree with ``provenance_summary()``, and a
CS-width-vs-n convergence curve — while the traced run's estimates stay
bit-for-bit identical to the untraced run on the same seed.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.report import provenance_summary
from repro.analysis.sweep import dynamics_family_sweep
from repro.core import LogitDynamics
from repro.core.stationary import gibbs_measure
from repro.games import TwoWellGame
from repro.obs import (
    JsonlTraceSink,
    MemorySink,
    Tracer,
    load_trace_files,
    render_run_summary,
    summarize_runs,
)
from repro.parallel import ShardedExecutor

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACE_SUMMARY = REPO_ROOT / "tools" / "trace_summary.py"


def _families():
    return {
        "cold": lambda g: LogitDynamics(g, 0.5),
        "hot": lambda g: LogitDynamics(g, 1.5),
    }


def _run_family_sweep(game, tmp_path, label, tracer=None, executor=None,
                      families=None):
    return dynamics_family_sweep(
        game,
        families if families is not None else _families(),
        reference=gibbs_measure(game.potential_vector(), 0.5),
        num_replicas=64,
        max_time=150,
        escape_states=[0],
        max_escape_steps=300,
        seed=20260808,
        store=str(tmp_path / label),
        executor=executor,
        tracer=tracer,
    )


class TestTracedShardedSweepAcceptance:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        """One sharded, store-backed, traced sweep plus its untraced twin."""
        tmp_path = tmp_path_factory.mktemp("obs-acceptance")
        game = TwoWellGame(num_players=3, barrier=1.0)
        trace_path = tmp_path / "TRACE_sweep.jsonl"
        with ShardedExecutor(num_shards=2, backend="process") as executor:
            with Tracer(JsonlTraceSink(trace_path)) as tracer:
                traced = _run_family_sweep(
                    game, tmp_path, "store-traced", tracer=tracer,
                    executor=executor,
                )
            untraced = _run_family_sweep(
                game, tmp_path, "store-untraced", executor=executor,
            )
        events, anomalies = load_trace_files([trace_path])
        assert anomalies == []
        (summary,) = summarize_runs(events).values()
        return {
            "traced": traced,
            "untraced": untraced,
            "trace_path": trace_path,
            "summary": summary,
        }

    def test_pooled_estimates_bit_for_bit_identical(self, traced_run):
        traced, untraced = traced_run["traced"], traced_run["untraced"]
        assert len(traced.records) == len(untraced.records)
        for a, b in zip(traced.records, untraced.records):
            assert a.parameter == b.parameter
            assert a.mixing_time == b.mixing_time
            assert a.extra == b.extra

    def test_reconstructs_total_replica_steps(self, traced_run):
        summary = traced_run["summary"]
        assert summary.replica_steps > 0
        # sharded TV measurement: steps * replicas per checkpoint, plus the
        # serial escape ensembles — all counted through one counter
        assert summary.counters["engine.replica_steps"] == summary.replica_steps

    def test_reconstructs_shard_balance(self, traced_run):
        summary = traced_run["summary"]
        assert set(summary.shard_seconds) == {"0", "1"}
        for _, total_seconds in summary.shard_seconds.values():
            assert total_seconds > 0
        assert summary.imbalance, "shard.chunk events must carry imbalance"
        for ratio in summary.imbalance:
            assert ratio >= 1.0

    def test_store_counts_match_provenance_summary(self, traced_run):
        summary = traced_run["summary"]
        records = traced_run["traced"].records
        computed = sum(1 for r in records if r.extra["provenance"] == "computed")
        loaded = sum(1 for r in records if r.extra["provenance"] == "store")
        assert summary.counters.get("store.miss", 0) == computed == 2
        assert summary.counters.get("store.hit", 0) == loaded == 0
        assert "0 of 2 cells loaded" in provenance_summary(traced_run["traced"])

    def test_reconstructs_convergence_curve(self, traced_run):
        summary = traced_run["summary"]
        welfare_curves = {
            consumer: curve
            for consumer, curve in summary.convergence.items()
            if consumer.startswith("NormalMixtureCS[welfare:")
        }
        assert len(welfare_curves) == 2  # one per family
        for curve in welfare_curves.values():
            assert len(curve) > 1
            ns = [point[0] for point in curve]
            widths = [point[3] for point in curve]
            assert ns == sorted(ns)
            assert widths[-1] < widths[0]  # the interval tightens with n

    def test_cell_lifecycle_events(self, traced_run):
        summary = traced_run["summary"]
        assert summary.cells == [("cold", "computed"), ("hot", "computed")]

    def test_trace_summary_cli_renders_and_exits_zero(self, traced_run):
        result = subprocess.run(
            [sys.executable, str(TRACE_SUMMARY), str(traced_run["trace_path"])],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert "replica-steps=" in result.stdout
        assert "load imbalance" in result.stdout
        assert "convergence NormalMixtureCS[welfare:cold]" in result.stdout
        assert "structurally clean" in result.stdout

    def test_trace_summary_cli_flags_corruption(self, traced_run, tmp_path):
        corrupted = tmp_path / "corrupt.jsonl"
        corrupted.write_text(
            traced_run["trace_path"].read_text() + "{broken\n"
        )
        result = subprocess.run(
            [sys.executable, str(TRACE_SUMMARY), "--lint-only", str(corrupted)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 1
        assert "malformed JSON" in result.stderr


class TestResumeHitMissCrossCheck:
    def test_resume_counters_agree_with_provenance(self, tmp_path):
        """Satellite: traced resume-run hit/miss counters must agree exactly
        with provenance_summary() on the same records."""
        game = TwoWellGame(num_players=3, barrier=1.0)
        # first run computes and stores both cells (untraced)
        _run_family_sweep(game, tmp_path, "store")
        # resume with one extra family: 2 hits, 1 miss
        families = dict(_families())
        families["best"] = lambda g: LogitDynamics(g, 2.5)
        sink = MemorySink()
        with Tracer(sink) as tracer:
            result = _run_family_sweep(
                game, tmp_path, "store", tracer=tracer, families=families
            )
        loaded = sum(1 for r in result.records if r.extra["provenance"] == "store")
        computed = sum(
            1 for r in result.records if r.extra["provenance"] == "computed"
        )
        assert (loaded, computed) == (2, 1)
        assert tracer.counters["store.hit"] == loaded
        assert tracer.counters["store.miss"] == computed
        assert provenance_summary(result) == (
            "2 of 3 cells loaded from the experiment store, 1 computed this run."
        )
        # the store-level get counters tell the same story
        assert tracer.counters["store.get.hit"] == loaded
        assert tracer.counters["store.get.miss"] == computed
        # and a fully warm re-run is all hits
        sink2 = MemorySink()
        with Tracer(sink2) as tracer2:
            warm = _run_family_sweep(
                game, tmp_path, "store", tracer=tracer2, families=families
            )
        assert tracer2.counters["store.hit"] == 3
        assert "store.miss" not in tracer2.counters
        assert "3 of 3 cells loaded" in provenance_summary(warm)

    def test_traced_and_untraced_records_identical(self, tmp_path):
        game = TwoWellGame(num_players=3, barrier=1.0)
        plain = _run_family_sweep(game, tmp_path, "a")
        with Tracer(MemorySink()) as tracer:
            traced = _run_family_sweep(game, tmp_path, "b", tracer=tracer)
        for a, b in zip(plain.records, traced.records):
            assert a.parameter == b.parameter
            assert a.mixing_time == b.mixing_time
            assert a.extra.keys() == b.extra.keys()
            for key in a.extra:
                x, y = a.extra[key], b.extra[key]
                if isinstance(x, float) and np.isnan(x):
                    assert np.isnan(y)
                else:
                    assert x == y
