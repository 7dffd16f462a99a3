"""Why dominant strategies tame the noise: beta-independence vs exponential blow-up.

Section 3 vs Section 4 of the paper in one table: we sweep beta on

* a symmetric two-well potential game (two equally good equilibria separated
  by a potential barrier) — Theorem 3.5 says its mixing time must explode
  exponentially in beta, and
* the anonymous dominant-strategy game of Theorem 4.3 — Theorem 4.2 says its
  mixing time is bounded by a constant that does not depend on beta at all,

and we also report the coupling-based Monte-Carlo estimate of the mixing time
for the dominant game, illustrating the measurement path that scales beyond
exact transition matrices.

Run with:  python examples/dominant_vs_potential.py
"""

from __future__ import annotations

from repro import (
    estimate_mixing_time_coupling,
    measure_mixing_time,
    render_table,
    theorem34_mixing_upper,
    theorem42_mixing_upper,
)
from repro.games import AnonymousDominantGame, TwoWellGame

BETAS = (0.0, 1.0, 2.0, 4.0, 8.0)
NUM_PLAYERS = 4


def main() -> None:
    potential_game = TwoWellGame(NUM_PLAYERS, barrier=1.0)
    dominant_game = AnonymousDominantGame(NUM_PLAYERS, 2)
    delta_phi = potential_game.max_global_variation()

    rows = []
    for seed, beta in enumerate(BETAS):
        two_well_mix = measure_mixing_time(potential_game, beta).mixing_time
        dominant_mix = measure_mixing_time(dominant_game, beta).mixing_time
        coupling_estimate = estimate_mixing_time_coupling(
            dominant_game,
            beta,
            start_x=(0,) * NUM_PLAYERS,
            start_y=(1,) * NUM_PLAYERS,
            horizon=4000,
            num_runs=48,
            seed=seed,
        )
        rows.append(
            [
                beta,
                two_well_mix,
                theorem34_mixing_upper(NUM_PLAYERS, 2, beta, delta_phi),
                dominant_mix,
                coupling_estimate,
                theorem42_mixing_upper(NUM_PLAYERS, 2),
            ]
        )

    print("Two-well potential game vs dominant-strategy game, n = 4 binary players\n")
    print(
        render_table(
            [
                "beta",
                "two-well t_mix",
                "Thm 3.4 upper",
                "dominant t_mix",
                "dominant coupling est.",
                "Thm 4.2 upper (beta-free)",
            ],
            rows,
        )
    )
    print(
        "\nThe two-well column keeps growing with beta (players get stuck in whichever\n"
        "equilibrium they start near), while the dominant-strategy column saturates:\n"
        "however rational the players become, the dominant profile keeps being played\n"
        "with non-vanishing probability and the chain forgets its start in O(1) time."
    )


if __name__ == "__main__":
    main()
