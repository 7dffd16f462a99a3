"""E-TAIL — adaptive P99 tail certification vs. the fixed-replica guess.

The mean hitting time answers "how long on average"; the paper's
metastability questions ("by when have 99% of runs reached consensus?")
are *tail* questions, and :class:`repro.stats.QuantileCS` certifies them
with the same anytime-valid contract as the mean estimators.  This
benchmark quantifies what adaptive tail stopping saves on the canonical
first-passage workload — consensus hitting times of a ring Ising game —
in *replica-steps* (the sum over replicas of the steps each actually
simulated, which is what wall-clock is made of):

* **adaptive** — ``empirical_hitting_times(..., q=0.99,
  precision_quantile=...)`` stops at the first chunk whose P99 interval
  is at most ``precision_quantile * max_steps`` wide;
* **fixed-replica baseline** — the same estimator run to the full
  hand-guessed ``max_replicas`` budget (``precision_quantile`` set far
  below reach), which is what a fixed-``R`` caller would have paid.

Both runs share one master seed, so the adaptive samples are a *prefix*
of the baseline's (the SeedSequence.spawn discipline) — asserted, not
assumed — and the comparison is a deterministic replica-step count, safe
for noisy CI runners.  The baseline must itself reach the target width
(otherwise the hand-guessed budget was not merely wasteful but wrong),
and adaptive stopping must save at least ``TAIL_BENCH_MIN_SAVINGS``
(default 2x) replica-steps.

Tunables: TAIL_BENCH_Q, TAIL_BENCH_PRECISION, TAIL_BENCH_MAX_STEPS,
TAIL_BENCH_MAX_REPLICAS, TAIL_BENCH_CHUNK, TAIL_BENCH_MIN_SAVINGS.
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
from repro.stats import QuantileCS

Q = float(os.environ.get("TAIL_BENCH_Q", 0.99))
PRECISION_QUANTILE = float(os.environ.get("TAIL_BENCH_PRECISION", 0.5))
MAX_STEPS = int(os.environ.get("TAIL_BENCH_MAX_STEPS", 1200))
MAX_REPLICAS = int(os.environ.get("TAIL_BENCH_MAX_REPLICAS", 8192))
CHUNK = int(os.environ.get("TAIL_BENCH_CHUNK", 64))
MIN_SAVINGS = float(os.environ.get("TAIL_BENCH_MIN_SAVINGS", 2.0))
ALPHA = 0.05
BETA = 0.7
SEED = 20260808
TRACE_PATH = Path(__file__).resolve().parent.parent / "TRACE_tail_estimation.jsonl"


def _cases() -> list[tuple[str, IsingGame]]:
    return [("ring n=6", IsingGame(nx.cycle_graph(6), coupling=1.0))]


def _consensus_target(game: IsingGame) -> int:
    n = game.space.num_players
    return int(game.space.encode(np.ones(n, dtype=np.int64)))


def measure_tail_savings() -> tuple[list[list[object]], dict[str, float]]:
    rows: list[list[object]] = []
    savings: dict[str, float] = {}
    target_width = PRECISION_QUANTILE * MAX_STEPS
    # the adaptive runs write TRACE_tail_estimation.jsonl: the quantile
    # CS's driver.convergence width curve is the record of why the run
    # stopped where it did
    TRACE_PATH.unlink(missing_ok=True)  # the sink appends: one run per file
    with Tracer(JsonlTraceSink(TRACE_PATH)) as tracer:
        tracer.annotate(bench="tail_estimation", q=Q, precision=PRECISION_QUANTILE)
        _measure_tail_cases(rows, savings, target_width, tracer)
    return rows, savings


def _measure_tail_cases(rows, savings, target_width, tracer) -> None:
    for name, game in _cases():
        target = _consensus_target(game)
        common = dict(
            max_steps=MAX_STEPS,
            alpha=ALPHA,
            chunk_size=CHUNK,
            max_replicas=MAX_REPLICAS,
            q=Q,
            seed=SEED,
        )
        adaptive = empirical_hitting_times(
            game, BETA, 0, target, precision_quantile=PRECISION_QUANTILE,
            tracer=tracer, **common
        )
        # the fixed-replica baseline: what the hand-guessed max_replicas
        # budget costs, on the identical sample stream (same master seed)
        baseline = empirical_hitting_times(
            game, BETA, 0, target, precision_quantile=1e-12, **common
        )
        np.testing.assert_array_equal(
            adaptive.samples, baseline.samples[: adaptive.n],
            err_msg="adaptive samples must be a prefix of the baseline's",
        )
        baseline_cs = QuantileCS(Q, alpha=ALPHA, support=(0.0, float(MAX_STEPS)))
        baseline_cs.update(baseline.samples)
        baseline_lo, baseline_hi = baseline_cs.interval()
        baseline_width = baseline_hi - baseline_lo
        adaptive_steps = float(adaptive.samples.sum())
        baseline_steps = float(baseline.samples.sum())
        savings[name] = baseline_steps / adaptive_steps
        assert adaptive.stopped_early, (
            f"{name}: adaptive run exhausted the replica budget without "
            f"reaching tail width {target_width:g} — raise TAIL_BENCH_PRECISION"
        )
        assert adaptive.quantile.width <= target_width
        assert baseline_width <= target_width, (
            f"{name}: the fixed baseline ({MAX_REPLICAS} replicas) did not "
            f"reach the target tail width either; the comparison would be unfair"
        )
        rows.append(
            [
                f"{name} adaptive", adaptive.n, f"{adaptive_steps:,.0f}",
                f"{adaptive.quantile.width:.1f}", "",
            ]
        )
        rows.append(
            [
                f"{name} fixed", baseline.n, f"{baseline_steps:,.0f}",
                f"{baseline_width:.1f}", f"{savings[name]:.1f}x",
            ]
        )


def test_adaptive_tail_stopping_pays_for_itself(benchmark):
    rows, savings = benchmark.pedantic(measure_tail_savings, rounds=1, iterations=1)
    print()
    print(
        render_experiment(
            f"E-TAIL  Adaptive P{100 * Q:g} tail stopping vs fixed replicas — "
            f"consensus hitting times, beta={BETA}, "
            f"target tail width {PRECISION_QUANTILE:g} * {MAX_STEPS}",
            ["estimator", "replicas", "replica-steps", "P99 width", "savings"],
            rows,
            notes=(
                "Both estimators consume the same seeded sample stream; adaptive\n"
                "stops at the first chunk whose time-uniform quantile interval\n"
                "meets the target width, the fixed baseline pays for the full\n"
                f"hand-guessed budget.  Required savings: >= {MIN_SAVINGS:g}x\n"
                "(deterministic replica-step counts, no timing noise)."
            ),
        )
    )
    best = max(savings.values())
    assert best >= MIN_SAVINGS, (
        f"adaptive tail stopping saves only {best:.2f}x replica-steps "
        f"(required {MIN_SAVINGS:g}x)"
    )
