"""E-STAT — adaptive stopping vs. the fixed-horizon replica guess.

Every Monte-Carlo estimator used to run a hand-guessed replica count; the
anytime-valid statistics subsystem (:mod:`repro.stats`) instead runs
replica chunks until the empirical-Bernstein confidence sequence is tight
enough.  This benchmark quantifies the payoff on the package's canonical
first-passage workload — consensus hitting times of ring and torus Ising
games — by counting *replica-steps* (the sum over replicas of the steps
each one actually simulated, which is exactly what wall-clock is made of):

* **adaptive** — ``empirical_hitting_times(..., precision=...)`` stops at
  the first chunk whose interval is at most ``precision * max_steps``
  wide;
* **fixed-horizon baseline** — the same estimator run to the full
  hand-guessed replica budget (the subsystem's ``max_replicas`` default),
  which is what a fixed-``R`` caller would have paid.

Both runs share one master seed, so the adaptive samples are a prefix of
the baseline's (the SeedSequence.spawn discipline) and the comparison is
exact, not a timing race: the assertion is on deterministic replica-step
counts, so it is safe for noisy CI runners.  The baseline must also reach
the target width (otherwise the guess was not merely wasteful but wrong);
the benchmark asserts adaptive stopping saves at least
``ADAPTIVE_BENCH_MIN_SAVINGS`` (default 2x) replica-steps on at least one
case, per the acceptance criterion — measured savings are typically far
higher.

Tunables: ADAPTIVE_BENCH_PRECISION, ADAPTIVE_BENCH_MAX_STEPS,
ADAPTIVE_BENCH_MAX_REPLICAS, ADAPTIVE_BENCH_CHUNK,
ADAPTIVE_BENCH_MIN_SAVINGS.
"""

from __future__ import annotations

import os
from pathlib import Path

import networkx as nx
import numpy as np

from repro.analysis import render_experiment
from repro.core import empirical_hitting_times
from repro.games import IsingGame
from repro.obs import JsonlTraceSink, Tracer
from repro.stats import EmpiricalBernsteinCS

PRECISION = float(os.environ.get("ADAPTIVE_BENCH_PRECISION", 0.05))
MAX_STEPS = int(os.environ.get("ADAPTIVE_BENCH_MAX_STEPS", 4000))
MAX_REPLICAS = int(os.environ.get("ADAPTIVE_BENCH_MAX_REPLICAS", 2048))
CHUNK = int(os.environ.get("ADAPTIVE_BENCH_CHUNK", 64))
MIN_SAVINGS = float(os.environ.get("ADAPTIVE_BENCH_MIN_SAVINGS", 2.0))
ALPHA = 0.05
BETA = 0.7
SEED = 20260728
TRACE_PATH = Path(__file__).resolve().parent.parent / "TRACE_adaptive_stats.jsonl"


def _cases() -> list[tuple[str, IsingGame]]:
    return [
        ("ring n=8", IsingGame(nx.cycle_graph(8), coupling=1.0)),
        ("torus 3x3", IsingGame(nx.grid_2d_graph(3, 3, periodic=True), coupling=1.0)),
    ]


def _consensus_target(game: IsingGame) -> int:
    n = game.space.num_players
    return int(game.space.encode(np.ones(n, dtype=np.int64)))


def measure_adaptive_savings() -> tuple[list[list[object]], dict[str, float]]:
    rows: list[list[object]] = []
    savings: dict[str, float] = {}
    target_width = PRECISION * MAX_STEPS
    # one trace for the whole benchmark: each case's adaptive run appends
    # its chunk counters and driver.convergence CS-width curve (the trace
    # is exactly the "why did it stop there" record the smoke asserts on)
    TRACE_PATH.unlink(missing_ok=True)  # the sink appends: one run per file
    with Tracer(JsonlTraceSink(TRACE_PATH)) as tracer:
        tracer.annotate(bench="adaptive_stats", precision=PRECISION, chunk=CHUNK)
        rows, savings = _measure_cases(rows, savings, target_width, tracer)
    return rows, savings


def _measure_cases(rows, savings, target_width, tracer):
    for name, game in _cases():
        target = _consensus_target(game)
        common = dict(
            max_steps=MAX_STEPS,
            alpha=ALPHA,
            chunk_size=CHUNK,
            max_replicas=MAX_REPLICAS,
        )
        adaptive = empirical_hitting_times(
            game, BETA, 0, target, precision=PRECISION, seed=SEED,
            tracer=tracer, **common
        )
        # the fixed-horizon baseline: what the hand-guessed max_replicas
        # budget costs, on the identical sample stream (same master seed)
        baseline = empirical_hitting_times(
            game, BETA, 0, target, precision=1e-12, seed=SEED, **common
        )
        np.testing.assert_array_equal(
            adaptive.samples, baseline.samples[: adaptive.n],
            err_msg="adaptive samples must be a prefix of the baseline's",
        )
        baseline_cs = EmpiricalBernsteinCS(alpha=ALPHA, support=(0.0, float(MAX_STEPS)))
        baseline_cs.update(baseline.samples)
        baseline_lo, baseline_hi = (float(b) for b in baseline_cs.interval())
        baseline_width = baseline_hi - baseline_lo
        adaptive_steps = float(adaptive.samples.sum())
        baseline_steps = float(baseline.samples.sum())
        savings[name] = baseline_steps / adaptive_steps
        assert adaptive.stopped_early, (
            f"{name}: adaptive run exhausted the replica budget without "
            f"reaching width {target_width:g} — raise ADAPTIVE_BENCH_PRECISION"
        )
        assert baseline_width <= target_width, (
            f"{name}: the fixed baseline ({MAX_REPLICAS} replicas) did not "
            f"reach the target width either; the comparison would be unfair"
        )
        rows.append(
            [
                f"{name} adaptive", adaptive.n, f"{adaptive_steps:,.0f}",
                f"{adaptive.width:.1f}", "",
            ]
        )
        rows.append(
            [
                f"{name} fixed", baseline.n, f"{baseline_steps:,.0f}",
                f"{baseline_width:.1f}", f"{savings[name]:.1f}x",
            ]
        )
    return rows, savings


def test_adaptive_stopping_pays_for_itself(benchmark):
    rows, savings = benchmark.pedantic(
        measure_adaptive_savings, rounds=1, iterations=1
    )
    print()
    print(
        render_experiment(
            f"E-STAT  Adaptive stopping vs fixed-horizon replicas — "
            f"consensus hitting times, beta={BETA}, "
            f"target width {PRECISION:g} * {MAX_STEPS}",
            ["estimator", "replicas", "replica-steps", "CI width", "savings"],
            rows,
            notes=(
                "Both estimators consume the same seeded sample stream; adaptive\n"
                "stops at the first chunk whose anytime-valid interval meets the\n"
                "target width, the fixed baseline pays for the full hand-guessed\n"
                f"budget.  Required savings on at least one case: >= "
                f"{MIN_SAVINGS:g}x (deterministic counts, no timing noise)."
            ),
        )
    )
    best = max(savings.values())
    assert best >= MIN_SAVINGS, (
        f"adaptive stopping saves only {best:.2f}x replica-steps "
        f"(required {MIN_SAVINGS:g}x on at least one case)"
    )
