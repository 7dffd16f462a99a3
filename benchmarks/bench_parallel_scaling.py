"""E-PAR — sharded process-pool invariance on a large-n hitting-time case.

The sharded executor (:mod:`repro.parallel`) promises that pooled samples
are bit-for-bit identical to the single-process run for any shard count
and backend (each sample is a pure function of its own ``SeedSequence``
child).  This smoke checks that promise across real process boundaries
on the package's canonical large-``n`` workload: magnetization-threshold
hitting times of a ring Ising game with hundreds of players (profile
space far past int64 — the index-free matrix engine path), estimated by
``empirical_hitting_times`` on a fixed replica budget.  The serial run
and the ``PARALLEL_BENCH_WORKERS``-worker process run consume the *same*
master seed, so the equality assertion is exact.  The process run is
traced to ``TRACE_parallel_scaling.jsonl`` (``shard.dispatch`` /
``shard.complete`` events and the load-imbalance ratio).

Wall-clock is not measured here: ``perfbench/run.py`` is the repository's
timing harness (its ``scenario_grid`` workload times the sharded path).

Tunables: PARALLEL_BENCH_WORKERS, PARALLEL_BENCH_N,
PARALLEL_BENCH_REPLICAS, PARALLEL_BENCH_MAX_STEPS, PARALLEL_BENCH_BETA,
PARALLEL_BENCH_THRESHOLD.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np

from repro.analysis import render_experiment
from repro.core import empirical_hitting_times
from repro.games import IsingGame
from repro.obs import JsonlTraceSink, Tracer
from repro.parallel import ShardedExecutor

WORKERS = int(os.environ.get("PARALLEL_BENCH_WORKERS", 4))
N = int(os.environ.get("PARALLEL_BENCH_N", 384))
REPLICAS = int(os.environ.get("PARALLEL_BENCH_REPLICAS", 2048))
MAX_STEPS = int(os.environ.get("PARALLEL_BENCH_MAX_STEPS", 3000))
BETA = float(os.environ.get("PARALLEL_BENCH_BETA", 0.4))
THRESHOLD = float(os.environ.get("PARALLEL_BENCH_THRESHOLD", 0.0))
SEED = 20260728
ALPHA = 0.05
#: precision far below anything reachable: both runs consume the exact
#: full replica budget
PRECISION = 1e-12
TRACE_PATH = Path(__file__).resolve().parent.parent / "TRACE_parallel_scaling.jsonl"


@dataclass
class MagnetizationAtLeast:
    """Picklable profile predicate: mean spin of the rows >= ``threshold``."""

    game: IsingGame
    threshold: float

    def __call__(self, profiles: np.ndarray) -> np.ndarray:
        return self.game.magnetization_of_profiles(profiles) >= self.threshold


def _run(game: IsingGame, executor, tracer=None) -> np.ndarray:
    """One full-budget adaptive run; returns its samples."""
    start = np.zeros(game.num_players, dtype=np.int64)
    target = MagnetizationAtLeast(game, THRESHOLD)
    estimate = empirical_hitting_times(
        game,
        BETA,
        start,
        target,
        max_steps=MAX_STEPS,
        precision=PRECISION,
        alpha=ALPHA,
        chunk_size=REPLICAS,
        max_replicas=REPLICAS,
        seed=SEED,
        executor=executor,
        tracer=tracer,
    )
    return estimate.samples


def test_process_sharding_matches_serial():
    game = IsingGame(nx.cycle_graph(N), coupling=1.0)
    serial_samples = _run(game, None)
    # the traced run is the sharded one; tracing never changes the sample
    # stream, so the equality assertion below compares like with like
    TRACE_PATH.unlink(missing_ok=True)  # the sink appends: one run per file
    with ShardedExecutor(num_shards=WORKERS, backend="process") as executor:
        with Tracer(JsonlTraceSink(TRACE_PATH)) as tracer:
            tracer.annotate(bench="parallel_scaling", workers=WORKERS, n=N)
            process_samples = _run(game, executor, tracer=tracer)
    print()
    print(
        render_experiment(
            f"E-PAR  Sharded process pool — {WORKERS} workers vs serial",
            ["run", "workers", "samples", "mean hitting time"],
            [
                ["serial", 1, serial_samples.size, f"{serial_samples.mean():.1f}"],
                ["process", WORKERS, process_samples.size,
                 f"{process_samples.mean():.1f}"],
            ],
            notes=(
                f"Ring Ising n={N} (profile space 2^{N}, index-free matrix "
                f"engine), beta={BETA},\nmagnetization >= {THRESHOLD:g} "
                f"hitting times truncated at {MAX_STEPS} steps, {REPLICAS} "
                f"replicas,\nidentical master seed for both runs."
            ),
        )
    )
    np.testing.assert_array_equal(
        serial_samples,
        process_samples,
        err_msg="sharded samples must be bit-for-bit identical to serial",
    )
