"""Quickstart: logit dynamics on a small coordination game, end to end.

Builds the graphical coordination game on a 6-ring, runs the logit dynamics
at a few noise levels, and reports for each beta:

* the exact mixing time t_mix(1/4) of the chain,
* the relaxation time from the spectrum,
* the paper's Theorem 5.6 upper bound and Theorem 5.7 lower bound,
* the Gibbs stationary probability of the two consensus profiles,

then re-measures the same chain with the batched ensemble engine (sampled
TV mixing estimate and grand-coupling coalescence), showing the two
pipelines side by side, and finishes with the adaptive estimators: an
Ising hitting time and the stationary welfare, each reported as an
anytime-valid confidence interval that stopped itself as soon as it was
tight enough.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro import (
    CoordinationParams,
    GraphicalCoordinationGame,
    IsingGame,
    LogitDynamics,
    empirical_hitting_times,
    estimate_mixing_time_ensemble,
    estimate_stationary_welfare,
    measure_mixing_time,
    measure_relaxation_time,
    render_table,
    stationary_expected_welfare,
    theorem56_ring_mixing_upper,
    theorem57_ring_mixing_lower,
)

NUM_PLAYERS = 6
DELTA = 1.0
BETAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def main() -> None:
    # A coordination game with no risk-dominant equilibrium (delta0 = delta1):
    # both consensus profiles are equally good, which is the slow-mixing case.
    game = GraphicalCoordinationGame(
        nx.cycle_graph(NUM_PLAYERS), CoordinationParams.ising(DELTA)
    )
    all0, all1 = game.consensus_profiles()

    rows = []
    for beta in BETAS:
        mix = measure_mixing_time(game, beta)
        t_rel = measure_relaxation_time(game, beta)
        pi = LogitDynamics(game, beta).stationary_distribution()
        rows.append(
            [
                beta,
                mix.mixing_time,
                t_rel,
                theorem57_ring_mixing_lower(beta, DELTA),
                theorem56_ring_mixing_upper(NUM_PLAYERS, beta, DELTA),
                pi[all0] + pi[all1],
            ]
        )

    print(f"Logit dynamics on a {NUM_PLAYERS}-player ring coordination game (delta = {DELTA})")
    print(
        render_table(
            [
                "beta",
                "t_mix (exact)",
                "t_rel (exact)",
                "Thm 5.7 lower",
                "Thm 5.6 upper",
                "pi(consensus)",
            ],
            rows,
        )
    )
    print(
        "\nAs beta grows the chain spends more stationary mass on the two consensus\n"
        "profiles and the mixing time grows like e^{2 delta beta}, staying inside the\n"
        "paper's Theorem 5.6 / 5.7 sandwich."
    )

    # -- the same chain through the batched ensemble engine -----------------
    rng = np.random.default_rng(0)
    rows = []
    for seed, beta in enumerate(BETAS):
        estimate = estimate_mixing_time_ensemble(
            game, beta, num_replicas=4096, check_every=NUM_PLAYERS, seed=seed
        )
        coupling = LogitDynamics(game, beta).grand_coupling(
            start_x=(0,) * NUM_PLAYERS,
            start_y=(1,) * NUM_PLAYERS,
            horizon=20_000,
            num_runs=64,
            rng=rng,
        )
        rows.append(
            [
                beta,
                estimate.mixing_time_estimate,
                estimate.tv_curve[-1, 1],
                coupling.fraction_coalesced,
                coupling.quantile(0.75),
            ]
        )

    print("\nSame chain, measured by the batched ensemble engine (no matrices built):")
    print(
        render_table(
            [
                "beta",
                "t_mix (sampled, 4096 replicas)",
                "TV at estimate",
                "coupled pairs met",
                "coalescence q75",
            ],
            rows,
        )
    )
    print(
        "\nThe sampled estimates track the exact column above while touching only\n"
        "O(replicas) state per step — this is the pipeline that keeps working when\n"
        "the profile space outgrows the dense machinery."
    )

    # -- adaptive estimation with error bars --------------------------------
    ising = IsingGame(nx.cycle_graph(8), coupling=1.0)
    consensus = int(ising.space.encode(np.ones(8, dtype=np.int64)))
    hitting = empirical_hitting_times(
        ising, 0.7, 0, consensus, max_steps=4000, precision=0.05, seed=42
    )
    welfare = estimate_stationary_welfare(
        ising, 0.7, num_steps=2000, precision=0.75, seed=42
    )
    exact_welfare = stationary_expected_welfare(ising, 0.7)

    print(
        "\nAdaptive estimators (anytime-valid 95% confidence sequences; replica\n"
        "chunks keep coming until the interval meets the requested precision):"
    )
    print(
        render_table(
            ["quantity", "estimate [95% CS]", "replicas", "stopped early"],
            [
                ["consensus hitting time", hitting, hitting.n, hitting.stopped_early],
                ["stationary welfare", welfare, welfare.n, welfare.stopped_early],
            ],
        )
    )
    print(
        f"\nExact stationary welfare for comparison: {exact_welfare:.4g} — inside\n"
        "the interval, with the replica count chosen by the data instead of\n"
        "guessed in advance; a fixed master seed reproduces every number above\n"
        "bit-for-bit regardless of chunking."
    )


if __name__ == "__main__":
    main()
