"""Extension E-W — stationary expected social welfare and dynamics variants.

Two extension experiments bundled in one module:

* **Welfare vs noise** (the axis of the companion paper [4] cited in the
  related work): for a coordination game and a prisoner's-dilemma-style game
  we sweep beta and report the stationary expected social welfare.  In the
  coordination game rationality helps (welfare rises towards the optimum);
  in the dilemma it hurts (welfare falls towards the bad equilibrium).
* **Player-selection rule ablation** (a variation raised in the paper's
  conclusions): sequential uniform selection vs round-robin rounds vs fully
  synchronous updates on the same game, comparing how close each variant's
  stationary distribution stays to the Gibbs measure.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import render_experiment, stationary_expected_welfare, optimal_welfare
from repro.core import LogitDynamics, gibbs_measure
from repro.core.variants import ParallelLogitDynamics, RoundRobinLogitDynamics
from repro.games import CoordinationParams, NormalFormGame, TwoPlayerCoordinationGame, TwoWellGame
from repro.markov import total_variation

BETAS = (0.0, 0.5, 1.0, 2.0, 5.0)


def welfare_rows() -> list[list[object]]:
    coordination = TwoPlayerCoordinationGame(CoordinationParams.from_deltas(2.0, 1.0))
    pd_row = np.array([[1.0, 5.0], [0.0, 3.0]])
    dilemma = NormalFormGame(pd_row, pd_row.T)
    rows = []
    for name, game in (("coordination 2x2", coordination), ("prisoner's dilemma", dilemma)):
        optimum = optimal_welfare(game)
        for beta in BETAS:
            welfare = stationary_expected_welfare(game, beta)
            rows.append([name, beta, welfare, optimum, welfare / optimum])
    return rows


def variant_rows() -> list[list[object]]:
    game = TwoWellGame(4, barrier=1.0)
    rows = []
    for beta in (0.5, 1.0, 2.0):
        gibbs = gibbs_measure(game.potential_vector(), beta)
        sequential = LogitDynamics(game, beta).markov_chain().stationary
        round_robin = RoundRobinLogitDynamics(game, beta).markov_chain().stationary
        parallel = ParallelLogitDynamics(game, beta).markov_chain().stationary
        rows.append(
            [
                beta,
                total_variation(sequential, gibbs),
                total_variation(round_robin, gibbs),
                total_variation(parallel, gibbs),
            ]
        )
    return rows


def test_stationary_welfare_by_beta(benchmark):
    rows = benchmark(welfare_rows)
    print()
    print(
        render_experiment(
            "E-W1  Extension — stationary expected social welfare vs beta",
            ["game", "beta", "E_pi[welfare]", "optimal welfare", "fraction of optimum"],
            rows,
            notes=(
                "Rationality (large beta) drives the coordination game towards the efficient\n"
                "equilibrium but drives the prisoner's dilemma towards the inefficient one."
            ),
        )
    )
    coord = [r for r in rows if r[0] == "coordination 2x2"]
    dilemma = [r for r in rows if r[0] == "prisoner's dilemma"]
    assert coord[-1][2] > coord[0][2]
    assert dilemma[-1][2] < dilemma[0][2]


def test_selection_rule_ablation(benchmark):
    rows = benchmark(variant_rows)
    print()
    print(
        render_experiment(
            "E-W2  Ablation — player-selection rule vs distance of the stationary law from Gibbs",
            ["beta", "TV(sequential, Gibbs)", "TV(round-robin, Gibbs)", "TV(parallel, Gibbs)"],
            rows,
            notes=(
                "Only the sequential (uniform single-player) dynamics is exactly reversible w.r.t.\n"
                "the Gibbs measure; round-robin stays close, the synchronous variant drifts furthest."
            ),
        )
    )
    for beta, seq, rr, par in rows:
        assert seq <= 1e-8
        assert par >= seq
