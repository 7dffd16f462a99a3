"""Unit tests for the telemetry layer (repro.obs)."""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro.core import LogitDynamics
from repro.engine.ensemble import LEVEL_BLOCK_SLOTS
from repro.games import IsingGame
from repro.obs import (
    JsonlTraceSink,
    MemorySink,
    NullTracer,
    RunManifest,
    Tracer,
    as_tracer,
    load_trace_files,
    read_trace,
    render_run_summary,
    summarize_runs,
)
from repro.obs.tracer import _NULL_TIMER, NULL_TRACER


class TestTracer:
    def test_manifest_opens_every_trace(self):
        tracer = Tracer(run_id="abc")
        assert tracer.events[0]["kind"] == "manifest"
        assert tracer.events[0]["name"] == "run.manifest"
        payload = tracer.events[0]["payload"]
        assert {"git_rev", "python", "numpy", "platform"} <= set(payload)

    def test_counters_accumulate_and_emit_totals(self):
        tracer = Tracer(run_id="abc")
        tracer.count("x", 3)
        tracer.count("x", 2)
        assert tracer.counters["x"] == 5
        counter_events = [e for e in tracer.events if e["kind"] == "counter"]
        assert [e["total"] for e in counter_events] == [3, 5]
        assert [e["inc"] for e in counter_events] == [3, 2]

    def test_events_have_common_fields_and_monotonic_seq(self):
        tracer = Tracer(run_id="abc")
        tracer.gauge("g", 1.5)
        tracer.event("e", foo="bar")
        with tracer.timer("t"):
            pass
        seqs = [e["seq"] for e in tracer.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        for event in tracer.events:
            assert {"run", "seq", "t", "kind", "name"} <= set(event)
            assert event["run"] == "abc"

    def test_timer_aggregates(self):
        tracer = Tracer(run_id="abc")
        tracer.timing("work", 0.5)
        tracer.timing("work", 0.25)
        count, total = tracer.timers["work"]
        assert count == 2
        assert total == pytest.approx(0.75)

    def test_event_payload_merging(self):
        tracer = Tracer(run_id="abc")
        tracer.event("a", payload={"x": 1})
        tracer.event("b", y=2)
        tracer.event("c", payload={"x": 1}, y=2)
        payloads = [e["payload"] for e in tracer.events[1:]]
        assert payloads == [{"x": 1}, {"y": 2}, {"x": 1, "y": 2}]

    def test_annotate_updates_manifest_view(self):
        tracer = Tracer(run_id="abc")
        tracer.annotate(seed=7, sweep="demo")
        assert tracer.manifest.extra["seed"] == 7
        summary = summarize_runs(tracer.events)["abc"]
        assert summary.manifest["seed"] == 7
        assert summary.manifest["sweep"] == "demo"


class TestNullTracer:
    def test_disabled_and_silent(self):
        null = NullTracer()
        assert null.enabled is False
        assert null.count("x") is None
        assert null.gauge("x", 1) is None
        assert null.event("x") is None
        assert null.timing("x", 0.1) is None
        with null.timer("x"):
            pass

    def test_timer_returns_shared_singleton(self):
        assert NULL_TRACER.timer("a") is _NULL_TIMER
        assert NULL_TRACER.timer("b") is _NULL_TIMER

    def test_hot_path_methods_allocate_nothing(self):
        null = NULL_TRACER
        # warm any lazy interpreter state first
        null.count("x", 1)
        null.gauge("x", 1.0)
        null.event("x")
        null.timing("x", 0.0)
        null.timer("x")
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(100):
                null.count("x", 1)
                null.gauge("x", 1.0)
                null.event("x")
                null.timing("x", 0.0)
                null.timer("x")
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before == 0


class TestAsTracer:
    def test_none_is_shared_null_singleton(self):
        assert as_tracer(None) is NULL_TRACER

    def test_tracer_passes_through(self):
        tracer = Tracer(run_id="abc")
        assert as_tracer(tracer) is tracer
        null = NullTracer()
        assert as_tracer(null) is null

    def test_path_becomes_jsonl_tracer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = as_tracer(path)
        try:
            assert isinstance(tracer, Tracer)
            tracer.count("x")
        finally:
            tracer.close()
        events = read_trace(path)
        assert events[0]["name"] == "run.manifest"
        assert events[-1]["name"] == "x"

    def test_rejects_junk(self):
        with pytest.raises(TypeError, match="tracer="):
            as_tracer(42)


class TestJsonlSink:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(JsonlTraceSink(path), run_id="abc") as tracer:
            tracer.count("hits", 2)
            tracer.event("custom", detail=[1, 2, 3])
        events = read_trace(path)
        assert [e["name"] for e in events] == ["run.manifest", "hits", "custom"]
        assert events[2]["payload"]["detail"] == [1, 2, 3]

    def test_appends_are_one_line_per_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(JsonlTraceSink(path), run_id="abc") as tracer:
            tracer.count("x")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"kind": "event"})

    def test_numpy_scalars_are_coerced(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(JsonlTraceSink(path), run_id="abc") as tracer:
            tracer.count("steps", np.int64(5))
            tracer.gauge("rate", np.float64(2.5))
            tracer.event("arr", values=np.arange(3))
        events = read_trace(path)
        assert events[1]["total"] == 5
        assert events[2]["value"] == 2.5
        assert events[3]["payload"]["values"] == [0, 1, 2]

    def test_read_trace_is_strict(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r":2: malformed"):
            read_trace(path)


class TestManifest:
    def test_collect_fields(self):
        manifest = RunManifest.collect(seed=123, custom="tag")
        payload = manifest.as_payload()
        assert payload["seed"] == 123
        assert payload["custom"] == "tag"
        assert payload["numpy"] == np.__version__
        assert isinstance(payload["git_rev"], str) and payload["git_rev"]


class TestSummary:
    def _write(self, path, events):
        with open(path, "w") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")

    def test_clean_trace_has_no_anomalies(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(JsonlTraceSink(path), run_id="abc") as tracer:
            tracer.count("engine.replica_steps", 100)
            tracer.timing("engine.run", 0.5)
        events, anomalies = load_trace_files([path])
        assert anomalies == []
        summary = summarize_runs(events)["abc"]
        assert summary.replica_steps == 100
        assert summary.throughput == pytest.approx(200.0)

    def test_unknown_run_id_is_anomalous(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(
            path,
            [{"run": "ghost", "seq": 0, "t": 1.0, "kind": "counter",
              "name": "x", "inc": 1, "total": 1}],
        )
        _, anomalies = load_trace_files([path])
        assert any("unknown run id" in a for a in anomalies)

    def test_non_monotonic_seq_is_anomalous(self, tmp_path):
        path = tmp_path / "t.jsonl"
        base = {"run": "abc", "t": 1.0, "kind": "manifest", "name": "run.manifest"}
        self._write(path, [dict(base, seq=0), dict(base, seq=2, kind="counter",
                                                   name="x", total=1),
                           dict(base, seq=1, kind="counter", name="x", total=2)])
        _, anomalies = load_trace_files([path])
        assert any("non-monotonic seq" in a for a in anomalies)

    def test_backwards_wall_clock_is_anomalous(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(
            path,
            [{"run": "abc", "seq": 0, "t": 5.0, "kind": "manifest",
              "name": "run.manifest"},
             {"run": "abc", "seq": 1, "t": 4.0, "kind": "counter",
              "name": "x", "total": 1}],
        )
        _, anomalies = load_trace_files([path])
        assert any("wall-clock went backwards" in a for a in anomalies)

    def test_missing_common_fields_is_anomalous(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"run": "abc", "seq": 0}\n')
        _, anomalies = load_trace_files([path])
        assert any("missing fields" in a for a in anomalies)

    def test_counter_last_total_wins(self):
        tracer = Tracer(run_id="abc")
        tracer.count("x", 3)
        tracer.count("x", 4)
        summary = summarize_runs(tracer.events)["abc"]
        assert summary.counters["x"] == 7

    def test_store_hit_rate(self):
        tracer = Tracer(run_id="abc")
        tracer.count("store.hit", 3)
        tracer.count("store.miss", 1)
        summary = summarize_runs(tracer.events)["abc"]
        assert summary.store_hit_rate == pytest.approx(0.75)

    def test_dispatch_overhead_from_synthetic_events(self):
        tracer = Tracer(run_id="abc")
        # two 2-shard dispatches: 1.5 s of wall-clock against 2.0 s of
        # worker time, i.e. 1.0 s per shard, so 0.5 s spent dispatching
        tracer.event("shard.dispatch", tasks=2, backend="process", seconds=0.75)
        tracer.event("shard.dispatch", tasks=2, backend="process", seconds=0.75)
        tracer.count("shard.worker_seconds", 1.2)
        tracer.count("shard.worker_seconds", 0.8)
        summary = summarize_runs(tracer.events)["abc"]
        assert summary.dispatch_seconds == pytest.approx(1.5)
        assert summary.shards == 2
        assert summary.dispatch_overhead == pytest.approx(0.5)
        text = render_run_summary(summary)
        assert "shard dispatch: wall=1.500s worker=2.000s overhead=0.500s" in text
        assert "(dispatch - worker / 2 shards)" in text

    def test_no_dispatch_no_overhead_line(self):
        tracer = Tracer(run_id="abc")
        tracer.count("shard.worker_seconds", 1.0)
        summary = summarize_runs(tracer.events)["abc"]
        assert summary.dispatch_overhead is None
        assert "shard dispatch" not in render_run_summary(summary)

    def test_shard_traffic_per_round_from_synthetic_events(self):
        tracer = Tracer(run_id="abc")
        tracer.event("shard.chunk", shards=2, imbalance=1.0, bytes_out=100, bytes_in=300)
        tracer.event("shard.chunk", shards=2, imbalance=1.0, bytes_out=300, bytes_in=500)
        # a sample-driver chunk reports no array traffic
        tracer.event("shard.chunk", shards=2, imbalance=1.1)
        summary = summarize_runs(tracer.events)["abc"]
        assert summary.shard_bytes == [(100, 300), (300, 500)]
        text = render_run_summary(summary)
        assert "shard traffic: 2 rounds, out=200 B/round in=400 B/round" in text
        assert "total out=400 B in=800 B" in text

    def test_no_shard_bytes_no_traffic_line(self):
        tracer = Tracer(run_id="abc")
        tracer.event("shard.chunk", shards=2, imbalance=1.1)
        assert "shard traffic" not in render_run_summary(summarize_runs(tracer.events)["abc"])

    def test_render_contains_key_sections(self):
        tracer = Tracer(run_id="abc")
        tracer.count("engine.replica_steps", 1000)
        tracer.timing("engine.run", 0.1)
        tracer.event("shard.complete", shard=0, seconds=0.05)
        tracer.event("shard.chunk", shards=2, imbalance=1.25)
        tracer.event("sweep.cell", cell="fam", provenance="store")
        tracer.event(
            "driver.convergence", consumer="EmpiricalBernsteinCS[0]",
            n=64, lower=0.0, upper=2.0, width=2.0,
        )
        text = render_run_summary(summarize_runs(tracer.events)["abc"])
        assert "replica-steps=1000" in text
        assert "throughput=" in text
        assert "load imbalance" in text
        assert "provenance" in text
        assert "convergence EmpiricalBernsteinCS[0]" in text


class TestMemorySink:
    def test_collects_events(self):
        sink = MemorySink()
        with Tracer(sink, run_id="abc") as tracer:
            tracer.count("x")
        assert [e["name"] for e in sink.events] == ["run.manifest", "x"]


def _count_calls(fn) -> int:
    """Python and C calls ``fn()`` makes, as ``sys.setprofile`` sees them.

    The cyclic garbage collector is drained first and held off while
    counting: a collection inside the counted region would run finalizers
    left by earlier code, and the profiler would count their calls too.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def _bare_run(sim, num_steps):
    """EnsembleSimulator.run minus the instrumentation: the untraced baseline.

    The same pre-drawn block handed to the same ``run_block`` calls, so on
    the levelled ring below both arms run the level schedule.
    """
    draws = sim.kernel.begin_run(sim, num_steps)
    block = max(1, LEVEL_BLOCK_SLOTS // (sim.num_replicas * sim._update_slots))
    for start in range(0, num_steps, block):
        sim.kernel.run_block(sim, draws, start, min(num_steps, start + block))


class TestUniformKnobs:
    def test_every_executor_entry_point_takes_tracer(self):
        """Any public callable of ``repro`` that shards work (``executor=``)
        can also trace it (``tracer=``)."""
        import inspect

        import repro

        takers, missing = [], []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            if "executor" in params:
                takers.append(name)
                if "tracer" not in params:
                    missing.append(name)
        assert "estimate_stationary_welfare" in takers
        assert not missing, f"take executor= but not tracer=: {missing}"


class TestNoOpOverhead:
    def test_default_tracer_is_the_null_singleton(self):
        game = IsingGame(nx.cycle_graph(16), coupling=1.0)
        sim = LogitDynamics(game, 1.0).ensemble(
            8, rng=np.random.default_rng(0), state="matrix"
        )
        assert sim.tracer is NULL_TRACER

    def test_run_emits_constant_events_per_call(self):
        """The per-step hot loop must stay tracer-free: event count is O(1)
        in the step count, not O(steps)."""
        game = IsingGame(nx.cycle_graph(16), coupling=1.0)
        tracer = Tracer(run_id="abc")
        sim = LogitDynamics(game, 1.0).ensemble(
            8, rng=np.random.default_rng(0), state="matrix", tracer=tracer
        )
        before = len(tracer.events)
        sim.run(10)
        per_short = len(tracer.events) - before
        before = len(tracer.events)
        sim.run(1000)
        per_long = len(tracer.events) - before
        assert per_short == per_long == 2  # one counter + one timer

    def test_noop_tracer_adds_constant_calls_over_untraced_baseline(self):
        """Pinned ring smoke: the Python and C calls of ``run`` with the
        default no-op tracer against the bare kernel loop (the
        pre-telemetry code path), counted by ``sys.setprofile``.  The
        instrumentation is a few guarded calls per ``run()``, so the extra
        calls are the same at 300 and at 3000 steps: O(1) per run, none per
        step.  A count, unlike a wall-clock ratio, cannot flake."""
        game = IsingGame(nx.cycle_graph(64), coupling=1.0)
        dynamics = LogitDynamics(game, 1.0)

        def build():
            return dynamics.ensemble(32, rng=np.random.default_rng(0), state="matrix")

        extra = []
        for steps in (300, 3000):
            # a first run allocates the game's row-wise scratch per level
            # size; warm it, so neither arm pays for it
            build().run(steps)
            traced_sim, bare_sim = build(), build()
            traced = _count_calls(lambda: traced_sim.run(steps))
            bare = _count_calls(lambda: _bare_run(bare_sim, steps))
            extra.append(traced - bare)
            # both arms did the same work: same schedule, same trajectory
            np.testing.assert_array_equal(traced_sim.profiles, bare_sim.profiles)
        assert extra[0] == extra[1], (
            f"run() makes {extra[0]} calls beyond the bare loop at 300 steps "
            f"but {extra[1]} at 3000: the no-op tracer costs calls per step"
        )
