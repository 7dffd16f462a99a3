"""Ablation A-2 — grand-coupling Monte-Carlo estimator vs exact mixing time.

The proofs of Theorems 3.6 and 4.2 use the grand coupling; we also expose it
as a *measurement* device for games whose profile space is too large to
densify.  This ablation quantifies how the coupling-time quantile compares
with the exact mixing time on games where both are computable: it should be
an upper estimate (Theorem 2.1) of the same order of magnitude.
"""

from __future__ import annotations

from repro.analysis import render_experiment
from repro.core import estimate_mixing_time_coupling, measure_mixing_time
from repro.games import AnonymousDominantGame, CoordinationParams, GraphicalCoordinationGame, TwoWellGame

import networkx as nx

CASES = (
    ("ring ising n=5, beta=0.5", lambda: GraphicalCoordinationGame(nx.cycle_graph(5), CoordinationParams.ising(1.0)), 0.5),
    ("ring ising n=5, beta=1.0", lambda: GraphicalCoordinationGame(nx.cycle_graph(5), CoordinationParams.ising(1.0)), 1.0),
    ("two-well n=4, beta=1.0", lambda: TwoWellGame(4, barrier=1.0), 1.0),
    ("dominant n=3, beta=10", lambda: AnonymousDominantGame(3, 2), 10.0),
)


def coupling_rows() -> list[list[object]]:
    rows = []
    for seed, (name, factory, beta) in enumerate(CASES):
        game = factory()
        n = game.num_players
        exact = measure_mixing_time(game, beta).mixing_time
        estimate = estimate_mixing_time_coupling(
            game,
            beta,
            start_x=(0,) * n,
            start_y=(1,) * n,
            horizon=max(200 * exact, 2000),
            num_runs=64,
            seed=seed,
        )
        rows.append([name, exact, estimate, estimate / exact])
    return rows


def test_ablation_coupling_vs_exact(benchmark):
    rows = benchmark(coupling_rows)
    print()
    print(
        render_experiment(
            "A-2  Ablation — grand-coupling estimator vs exact t_mix",
            ["game", "t_mix exact", "coupling 75%-quantile", "ratio"],
            rows,
            notes=(
                "Theorem 2.1 makes the coupling-time tail an upper bound on the TV distance;\n"
                "the estimator should land within a small constant factor above the exact value."
            ),
        )
    )
    for name, exact, estimate, ratio in rows:
        assert ratio >= 0.5, f"{name}: estimator {estimate} implausibly below exact {exact}"
        assert ratio <= 60.0, f"{name}: estimator {estimate} wildly above exact {exact}"
