"""Technology diffusion on a social network (the paper's Section 5 motivation).

Graphical coordination games model the spread of a new technology: strategy 1
is "adopt the new technology", strategy 0 is "stay with the old one", players
prefer to match their neighbors, and the new technology is at least as good
(delta1 >= delta0), making all-adopt the risk-dominant consensus.

This example compares two social structures with the same number of players —
a tightly-knit clique and a local-interaction ring — and reports, for a range
of noise levels:

* the exact mixing time of the logit dynamics,
* the exact expected hitting time of the all-adopt profile starting from
  all-old (how long diffusion takes),
* the stationary probability that the network has fully adopted.

The qualitative story matches the paper: local interaction (ring) converges
to its stationary behaviour orders of magnitude faster than the clique, whose
mixing time blows up exponentially in beta * (Phi_max - Phi(1)).

Run with:  python examples/technology_diffusion.py
"""

from __future__ import annotations

import networkx as nx

from repro import (
    CoordinationParams,
    GraphicalCoordinationGame,
    LogitDynamics,
    measure_mixing_time,
    render_table,
)

NUM_PLAYERS = 6
# old technology payoff delta0 = 1, new technology payoff delta1 = 1.5
PARAMS = CoordinationParams.from_deltas(1.0, 1.5)
BETAS = (0.5, 1.0, 1.5, 2.0)


def analyse(name: str, graph: nx.Graph) -> list[list[object]]:
    game = GraphicalCoordinationGame(graph, PARAMS)
    all_old, all_new = game.consensus_profiles()
    rows = []
    for beta in BETAS:
        mixing = measure_mixing_time(game, beta).mixing_time
        dynamics = LogitDynamics(game, beta)
        hitting = float(dynamics.markov_chain().expected_hitting_time(all_new)[all_old])
        pi = dynamics.stationary_distribution()
        rows.append([name, beta, mixing, hitting, pi[all_new]])
    return rows


def main() -> None:
    print("Technology diffusion: new tech (strategy 1, delta1=1.5) vs old tech (strategy 0, delta0=1.0)")
    print(f"{NUM_PLAYERS} players; risk-dominant consensus = full adoption\n")
    rows = analyse("ring", nx.cycle_graph(NUM_PLAYERS)) + analyse(
        "clique", nx.complete_graph(NUM_PLAYERS)
    )
    print(
        render_table(
            ["network", "beta", "t_mix", "E[hitting time of full adoption]", "pi(full adoption)"],
            rows,
        )
    )
    print(
        "\nOn the ring the dynamics both mixes and reaches full adoption quickly; on the\n"
        "clique the same payoffs produce a much slower chain because leaving the all-old\n"
        "consensus requires climbing a Theta(n^2) potential barrier (Theorem 5.5)."
    )


if __name__ == "__main__":
    main()
