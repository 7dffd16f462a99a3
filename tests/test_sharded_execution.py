"""Sharded execution: shard-count invariance, seeding, process backend.

The contract under test is the tentpole guarantee of :mod:`repro.parallel`:
splitting a replica ensemble into k shards — on any backend — never
changes a single number.  Pooled samples, intervals, TV curves and final
indices must be bit-for-bit identical for k in {1, 3, 8} and identical to
the unsharded serial run, because every sample/replica is a pure function
of its own ``SeedSequence`` child.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import networkx as nx
import numpy as np
import pytest

from repro.core.metastability import empirical_escape_times, empirical_hitting_times
from repro.core.mixing import estimate_mixing_time_ensemble, estimate_tv_convergence
from repro.analysis.welfare import estimate_stationary_welfare
from repro.core import ParallelLogitDynamics
from repro.core.logit import LogitDynamics
from repro.engine.kernels import SeededSequentialKernel
from repro.games import IsingGame, TwoWellGame
from repro.parallel import (
    ShardedExecutor,
    as_executor,
    shard_plan,
)
from repro.stats import run_until_width


def uniform_sampler(children):
    """Module-level (hence picklable) reference sampler: one U(0,1) each."""
    return np.array([np.random.default_rng(c).random() for c in children])


@dataclass
class MagnetizationAtLeast:
    """Picklable magnetization-threshold predicate for Ising wells."""

    game: IsingGame
    threshold: float

    def __call__(self, profiles):
        return self.game.magnetization_of_profiles(profiles) >= self.threshold


# ---------------------------------------------------------------------------
# seeding primitives
# ---------------------------------------------------------------------------


def test_spawn_block_matches_serial_spawn():
    root = np.random.SeedSequence(1234)
    serial = np.random.SeedSequence(1234).spawn(10)
    block = SeededSequentialKernel.spawn_block(root, 3, 4)
    for mine, reference in zip(block, serial[3:7]):
        assert mine.spawn_key == reference.spawn_key
        np.testing.assert_array_equal(
            np.random.default_rng(mine).random(8),
            np.random.default_rng(reference).random(8),
        )
    # the root's own spawn counter is untouched
    assert root.n_children_spawned == 0


def test_spawn_block_on_an_already_spawned_parent():
    parent = np.random.SeedSequence(7).spawn(3)[2]
    serial = np.random.SeedSequence(7).spawn(3)[2].spawn(5)
    block = SeededSequentialKernel.spawn_block(parent, 0, 5)
    for mine, reference in zip(block, serial):
        np.testing.assert_array_equal(
            np.random.default_rng(mine).random(4),
            np.random.default_rng(reference).random(4),
        )


def test_spawn_block_rejects_negative_positions():
    root = np.random.SeedSequence(0)
    with pytest.raises(ValueError):
        SeededSequentialKernel.spawn_block(root, -1, 2)


def test_shard_plan_partitions_exactly():
    for total in (0, 1, 2, 7, 64):
        for shards in (1, 3, 8):
            plan = shard_plan(total, shards)
            assert sum(c for _, c in plan) == total
            assert all(c > 0 for _, c in plan)
            # contiguous and ordered
            expect = 0
            for off, cnt in plan:
                assert off == expect
                expect += cnt
            if total:
                counts = [c for _, c in plan]
                assert max(counts) - min(counts) <= 1
    with pytest.raises(ValueError):
        shard_plan(4, 0)


# ---------------------------------------------------------------------------
# shard-count invariance (the acceptance criterion: k in {1, 3, 8})
# ---------------------------------------------------------------------------


def test_run_until_width_shard_count_invariance():
    serial = run_until_width(
        uniform_sampler, 0.0, max_n=48, chunk_size=16, support=(0.0, 1.0), seed=77
    )
    for k in (1, 3, 8):
        sharded = run_until_width(
            uniform_sampler,
            0.0,
            max_n=48,
            chunk_size=16,
            support=(0.0, 1.0),
            seed=77,
            executor=ShardedExecutor(num_shards=k),
        )
        np.testing.assert_array_equal(serial.samples, sharded.samples)
        assert (serial.estimate, serial.lower, serial.upper, serial.n) == (
            sharded.estimate,
            sharded.lower,
            sharded.upper,
            sharded.n,
        )


def test_hitting_time_estimator_shard_count_invariance():
    game = IsingGame(nx.cycle_graph(6), coupling=1.0)
    target = int(game.space.encode(np.ones(6, dtype=np.int64)))
    common = dict(
        max_steps=400, precision=1e-9, chunk_size=32, max_replicas=64, seed=5
    )
    serial = empirical_hitting_times(game, 0.7, 0, target, **common)
    for k in (1, 3, 8):
        sharded = empirical_hitting_times(
            game, 0.7, 0, target, executor=ShardedExecutor(k), **common
        )
        np.testing.assert_array_equal(serial.samples, sharded.samples)
        assert (serial.lower, serial.upper) == (sharded.lower, sharded.upper)


def test_escape_time_estimator_shard_count_invariance():
    game = TwoWellGame(5, barrier=1.2)
    phi = game.potential_vector()
    well = np.flatnonzero(phi <= np.quantile(phi, 0.25))
    common = dict(
        max_steps=300, precision=1e-9, chunk_size=16, max_replicas=48, seed=3
    )
    serial = empirical_escape_times(game, 1.0, well, **common)
    for k in (1, 3, 8):
        sharded = empirical_escape_times(
            game, 1.0, well, executor=ShardedExecutor(k), **common
        )
        np.testing.assert_array_equal(serial.samples, sharded.samples)


def test_welfare_estimator_shard_count_invariance():
    game = IsingGame(nx.cycle_graph(5), coupling=1.0)
    common = dict(num_steps=50, num_replicas=48, chunk_size=16, seed=9)
    serial = estimate_stationary_welfare(game, 0.5, **common)
    for k in (1, 3):
        sharded = estimate_stationary_welfare(
            game, 0.5, executor=ShardedExecutor(k), **common
        )
        assert serial.estimate == sharded.estimate
        assert (serial.lower, serial.upper) == (sharded.lower, sharded.upper)


def test_tv_convergence_shard_count_invariance():
    game = IsingGame(nx.cycle_graph(6), coupling=1.0)
    runs = {
        k: estimate_mixing_time_ensemble(
            game,
            0.3,
            num_replicas=128,
            max_time=800,
            seed=21,
            executor=ShardedExecutor(k),
        )
        for k in (1, 3, 8)
    }
    base = runs[1]
    for k in (3, 8):
        np.testing.assert_array_equal(base.tv_curve, runs[k].tv_curve)
        np.testing.assert_array_equal(base.final_indices, runs[k].final_indices)
        assert base.mixing_time_estimate == runs[k].mixing_time_estimate
        assert base.converged == runs[k].converged


def test_tv_convergence_sharded_band_invariance():
    game = IsingGame(nx.cycle_graph(5), coupling=1.0)
    dynamics = LogitDynamics(game, 0.4)
    pi = dynamics.stationary_distribution()
    runs = [
        estimate_tv_convergence(
            dynamics,
            pi,
            num_replicas=192,
            max_time=600,
            alpha=0.05,
            seed=2,
            executor=ShardedExecutor(k),
        )
        for k in (1, 3)
    ]
    np.testing.assert_array_equal(runs[0].tv_band, runs[1].tv_band)
    assert runs[0].mixing_time_estimate == runs[1].mixing_time_estimate


class CountingExecutor(ShardedExecutor):
    """Serial executor that records every ``map_tasks`` batch."""

    def __init__(self, num_shards):
        super().__init__(num_shards)
        self.batches = []

    def map_tasks(self, fn, tasks, tracer=None):
        self.batches.append(len(tasks))
        return super().map_tasks(fn, tasks, tracer=tracer)


def ring6_tv(dynamics_cls, executor, **overrides):
    game = IsingGame(nx.cycle_graph(6), coupling=1.0)
    pi = LogitDynamics(game, 0.5).stationary_distribution()
    knobs = dict(
        num_replicas=96,
        epsilon=0.2,
        start=0,
        max_time=48,
        check_every=8,
        seed=2024,
        executor=executor,
    )
    knobs.update(overrides)
    return estimate_tv_convergence(dynamics_cls(game, 0.5), pi, **knobs)


# Pinned values of the sharded randomness contract (SeedSequence child per
# replica, fresh draw block after every checkpoint): a drift here would
# silently invalidate every cached sharded cell.
GOLDEN_TV = {
    LogitDynamics: (
        [
            0.8488166539671641,
            0.6015132737420049,
            0.4201383247098188,
            0.3656174910024331,
            0.28269842322586547,
            0.24764709965557166,
            0.22507519707794232,
        ],
        "02128201f2c4b44d48b8e469d40214121107561f7b514f30c26b0b0b6a347a97",
    ),
    ParallelLogitDynamics: (
        [
            0.8488166539671641,
            0.5055933050930481,
            0.533328500766479,
            0.5549076188544535,
            0.43693722750759206,
            0.46706855037563005,
            0.5253079612944195,
        ],
        "583cde3459420fa3bd586e0cd8a843ba5e7474543cb66b72f6e3491525a805eb",
    ),
}


@pytest.mark.parametrize("dynamics_cls", [LogitDynamics, ParallelLogitDynamics])
def test_tv_convergence_sharded_golden(dynamics_cls):
    tv, digest = GOLDEN_TV[dynamics_cls]
    est = ring6_tv(dynamics_cls, ShardedExecutor(2))
    expected = np.column_stack([np.arange(0.0, 49.0, 8.0), tv])
    np.testing.assert_array_equal(est.tv_curve, expected)
    assert est.final_indices.dtype == np.int64
    assert hashlib.sha256(est.final_indices.tobytes()).hexdigest() == digest
    assert est.mixing_time_estimate == -1


class RecordingExecutor(ShardedExecutor):
    """Serial executor that keeps the results of its last ``map_tasks`` round."""

    def map_tasks(self, fn, tasks, tracer=None):
        self.results = super().map_tasks(fn, tasks, tracer=tracer)
        return self.results


# The same contract on a 4-player ring with 4-step rounds: 2**32 % 4 == 0,
# so numpy's bounded draw never rejects and a round reads 4 columns of each
# replica's fresh 256-step block.  Pinned are the curve, the final indices
# and the stream words the last round hands back.
GOLDEN_TV_RING4 = {
    LogitDynamics: (
        [
            0.7268248200553566,
            0.48019048070204184,
            0.3515625,
            0.29406587794923106,
            0.234375,
            0.21302975964897908,
            0.24719087794923106,
        ],
        "0f12b3948d0adc6566ab3d2203f6ff568fc28127eff32beb61075e1e174e63c4",
        "0e0d0d1b210f3d9180c0754b0457ef93b55a7542457035194dd559ee8ea120b0",
    ),
    ParallelLogitDynamics: (
        [
            0.7268248200553566,
            0.3640140616443912,
            0.42288608094234936,
            0.33848430199541213,
            0.35410930199541213,
            0.36192180199541213,
            0.38535930199541213,
        ],
        "8d86d21c7c98a9fbc6ffc67a13a4cd64651f98c68607c18322e6a96b37bc0958",
        "1e12e39da340f2db09d1aafc10ea23194fdd78a0e9b72d1c2f227c0453211dbc",
    ),
}


@pytest.mark.parametrize("dynamics_cls", [LogitDynamics, ParallelLogitDynamics])
def test_tv_convergence_sharded_golden_ring4(dynamics_cls):
    tv, digest, words_digest = GOLDEN_TV_RING4[dynamics_cls]
    game = IsingGame(nx.cycle_graph(4), coupling=1.0)
    executor = RecordingExecutor(2)
    est = estimate_tv_convergence(
        dynamics_cls(game, 0.5),
        LogitDynamics(game, 0.5).stationary_distribution(),
        num_replicas=128,
        epsilon=0.01,
        start=0,
        max_time=24,
        check_every=4,
        seed=2024,
        executor=executor,
    )
    words = np.concatenate([result[0] for result in executor.results])
    assert words.shape == (128, 6)
    expected = np.column_stack([np.arange(0.0, 25.0, 4.0), tv])
    np.testing.assert_array_equal(est.tv_curve, expected)
    assert hashlib.sha256(est.final_indices.tobytes()).hexdigest() == digest
    assert hashlib.sha256(words.tobytes()).hexdigest() == words_digest
    assert est.mixing_time_estimate == -1


def test_tv_convergence_dispatches_once_per_checkpoint_after_t0():
    executor = CountingExecutor(3)
    est = ring6_tv(LogitDynamics, executor)
    assert executor.batches == [3] * (len(est.tv_curve) - 1)
    executor = CountingExecutor(3)
    est = ring6_tv(LogitDynamics, executor, max_time=0)
    assert executor.batches == []
    assert est.tv_curve.shape == (1, 2)
    np.testing.assert_array_equal(est.final_indices, np.zeros(96, dtype=np.int64))


def test_tv_convergence_at_t0_dispatches_nothing():
    game = IsingGame(nx.cycle_graph(6), coupling=1.0)
    point = np.zeros(game.space.size)
    point[5] = 1.0
    executor = CountingExecutor(2)
    est = estimate_tv_convergence(
        LogitDynamics(game, 0.5),
        point,
        num_replicas=16,
        start=5,
        seed=1,
        executor=executor,
    )
    assert executor.batches == []
    assert est.converged and est.mixing_time_estimate == 0


def test_tv_convergence_per_replica_start_shard_invariance():
    game = IsingGame(nx.cycle_graph(4), coupling=1.0)
    dynamics = LogitDynamics(game, 0.4)
    pi = dynamics.stationary_distribution()
    start = np.random.default_rng(5).integers(0, 2, size=(8, 4))
    runs = {
        k: estimate_tv_convergence(
            dynamics,
            pi,
            num_replicas=8,
            start=start,
            max_time=40,
            check_every=4,
            epsilon=0.05,
            seed=9,
            executor=ShardedExecutor(k),
        )
        for k in (1, 3, 8)
    }
    # t = 0 is the occupation of the given rows, not of a shared start
    counts = np.bincount(game.space.encode_many(start), minlength=game.space.size)
    tv0 = 0.5 * np.abs(counts / 8 - pi).sum()
    assert runs[1].tv_curve[0, 1] == pytest.approx(tv0)
    for k in (3, 8):
        np.testing.assert_array_equal(runs[1].tv_curve, runs[k].tv_curve)
        np.testing.assert_array_equal(runs[1].final_indices, runs[k].final_indices)


@pytest.mark.parametrize(
    "start",
    [
        16,  # profile index past the 2**4 profiles
        np.array([0, 2, 0, 0]),  # strategy 2 of a 2-strategy player
        np.zeros((7, 4), dtype=np.int64),  # 7 rows for 8 replicas
    ],
)
def test_tv_convergence_bad_start_raises_before_dispatch(start):
    game = IsingGame(nx.cycle_graph(4), coupling=1.0)
    dynamics = LogitDynamics(game, 0.4)
    executor = CountingExecutor(2)
    with pytest.raises(ValueError, match="start"):
        estimate_tv_convergence(
            dynamics,
            dynamics.stationary_distribution(),
            num_replicas=8,
            start=start,
            max_time=8,
            seed=1,
            executor=executor,
        )
    assert executor.batches == []


# ---------------------------------------------------------------------------
# the process backend
# ---------------------------------------------------------------------------


def test_process_backend_bit_for_bit():
    root = np.random.SeedSequence(55)
    with ShardedExecutor(num_shards=2, backend="process") as executor:
        pooled = executor.map_chunk(uniform_sampler, root, 0, 10)
    serial = uniform_sampler(np.random.SeedSequence(55).spawn(10))
    np.testing.assert_array_equal(pooled, serial)


def test_process_backend_runs_a_real_estimator():
    game = IsingGame(nx.cycle_graph(6), coupling=1.0)
    target = MagnetizationAtLeast(game, 0.5)
    start = np.zeros(6, dtype=np.int64)
    common = dict(
        max_steps=200, precision=1e-9, chunk_size=16, max_replicas=32, seed=13
    )
    serial = empirical_hitting_times(game, 0.6, start, target, **common)
    with ShardedExecutor(num_shards=2, backend="process") as executor:
        sharded = empirical_hitting_times(
            game, 0.6, start, target, executor=executor, **common
        )
    np.testing.assert_array_equal(serial.samples, sharded.samples)


def test_process_backend_rejects_unpicklable_samplers():
    with ShardedExecutor(num_shards=2, backend="process") as executor:
        with pytest.raises(ValueError, match="pickle"):
            run_until_width(
                lambda children: np.zeros(len(children)),
                0.0,
                max_n=8,
                chunk_size=8,
                support=(0.0, 1.0),
                seed=1,
                executor=executor,
            )


def broken_sampler(children):
    """Picklable, but raises at runtime — a sampler bug, not a pickle one."""
    raise TypeError("boom inside the worker")


def test_process_backend_does_not_mislabel_worker_bugs_as_pickle_errors():
    with ShardedExecutor(num_shards=2, backend="process") as executor:
        with pytest.raises(TypeError, match="boom inside the worker"):
            run_until_width(
                broken_sampler,
                0.0,
                max_n=8,
                chunk_size=8,
                support=(0.0, 1.0),
                seed=1,
                executor=executor,
            )


# ---------------------------------------------------------------------------
# knob validation
# ---------------------------------------------------------------------------


def test_as_executor_normalisation():
    assert as_executor(None) is None
    ex = ShardedExecutor(2)
    assert as_executor(ex) is ex
    assert as_executor("serial").backend == "serial"
    assert as_executor("process").backend == "process"
    with pytest.raises(ValueError):
        as_executor("threads")


def test_process_executor_sized_by_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert as_executor("process").num_shards == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert as_executor("process").num_shards == 64


def test_sharded_executor_validation():
    with pytest.raises(ValueError):
        ShardedExecutor(num_shards=0)
    with pytest.raises(ValueError):
        ShardedExecutor(num_shards=1, backend="mpi")
    with pytest.raises(ValueError):
        ShardedExecutor(num_shards=1, max_workers=0)


@pytest.mark.parametrize(
    "start, count, error, message",
    [
        # regression: numpy's "need at least one array to concatenate"
        (0, 0, ValueError, "count must be at least 1, got 0"),
        # regression: shard_plan's "total must be non-negative"
        (0, -1, ValueError, "count must be at least 1, got -1"),
        (-1, 4, ValueError, "start must be non-negative, got -1"),
        (0, 2.0, TypeError, "count must be an integer"),
    ],
    ids=["count-zero", "count-negative", "start-negative", "count-float"],
)
def test_map_chunk_checks_start_and_count(start, count, error, message):
    root = np.random.SeedSequence(1)
    with pytest.raises(error, match=message):
        ShardedExecutor(num_shards=2).map_chunk(uniform_sampler, root, start, count)


def test_executor_requires_adaptive_mode():
    game = IsingGame(nx.cycle_graph(5), coupling=1.0)
    with pytest.raises(ValueError, match="precision"):
        empirical_hitting_times(game, 0.5, 0, 1, executor=ShardedExecutor(2))
    with pytest.raises(ValueError, match="precision"):
        empirical_escape_times(game, 0.5, [0, 1], executor=ShardedExecutor(2))


# ---------------------------------------------------------------------------
# shard telemetry: sample chunks and TV rounds report through one emitter
# ---------------------------------------------------------------------------


def _shard_rounds(tracer, num_shards):
    """Each round's ``shard.chunk`` payload, checked against its shards."""
    events = [
        e for e in tracer.events
        if e["kind"] == "event" and e["name"].startswith("shard.")
    ]
    rounds, shards = [], []
    for e in events:
        payload = e["payload"]
        if e["name"] == "shard.complete":
            assert payload["shard"] == len(shards)
            assert isinstance(payload["seconds"], float) and payload["seconds"] >= 0
            shards.append(payload["seconds"])
        elif e["name"] == "shard.chunk":
            assert payload["shards"] == len(shards) == num_shards
            mean = sum(shards) / len(shards)
            assert payload["max_seconds"] == max(shards)
            assert payload["mean_seconds"] == mean
            assert payload["imbalance"] == max(shards) / mean >= 1.0
            rounds.append(payload)
            shards = []
    assert shards == []
    seconds = [
        e["payload"]["seconds"] for e in events if e["name"] == "shard.complete"
    ]
    assert tracer.counters["shard.tasks"] == num_shards * len(rounds)
    assert tracer.counters["shard.chunks"] == len(rounds)
    assert tracer.counters["shard.worker_seconds"] == pytest.approx(sum(seconds))
    return rounds


def test_sample_chunk_shard_telemetry():
    from repro.obs import Tracer

    game = IsingGame(nx.cycle_graph(6), coupling=1.0)
    target = int(game.space.encode(np.ones(6, dtype=np.int64)))
    tracer = Tracer(run_id="sample-rounds")
    empirical_hitting_times(
        game, 0.7, 0, target, max_steps=200, precision=1e-9, chunk_size=16,
        max_replicas=32, seed=5, executor=ShardedExecutor(3), tracer=tracer,
    )
    rounds = _shard_rounds(tracer, 3)
    assert [r["samples"] for r in rounds] == [16, 16]
    complete = [e["payload"] for e in tracer.events if e["name"] == "shard.complete"]
    assert [(c["offset"], c["samples"]) for c in complete] == [
        (0, 6), (6, 5), (11, 5), (16, 6), (22, 5), (27, 5)
    ]
    # a sample round ships seeds, not arrays: no byte counts
    assert all("bytes_out" not in r and "bytes_in" not in r for r in rounds)
    assert "shard.bytes_out" not in tracer.counters


def test_tv_round_shard_telemetry():
    from repro.obs import Tracer

    game = IsingGame(nx.cycle_graph(6), coupling=1.0)
    tracer = Tracer(run_id="tv-rounds")
    est = estimate_tv_convergence(
        LogitDynamics(game, 0.5),
        np.full(game.space.size, 1.0 / game.space.size),
        num_replicas=40,
        epsilon=1e-9,
        start=(0,) * 6,
        max_time=12,
        check_every=6,
        seed=5,
        executor=ShardedExecutor(3),
        tracer=tracer,
    )
    rounds = _shard_rounds(tracer, 3)
    assert len(rounds) == len(est.tv_curve) - 1 == 2
    assert [r["steps"] for r in rounds] == [6, 6]
    complete = [e["payload"] for e in tracer.events if e["name"] == "shard.complete"]
    assert [(c["replicas"], c["steps"]) for c in complete] == [(14, 6), (13, 6), (13, 6)] * 2
    for key in ("bytes_out", "bytes_in"):
        assert all(r[key] > 0 for r in rounds)
        assert tracer.counters[f"shard.{key}"] == sum(r[key] for r in rounds)
