"""E-4.2 — Theorem 4.2: with a dominant profile the mixing time is independent of beta.

Beta-sweep over several orders of magnitude on dominant-strategy games: the
measured mixing time must stay below the (beta-free) O(m^n n log n) bound and
must *saturate* — unlike the potential-barrier games of Section 3 it cannot
keep growing with beta.  The paper closes Section 4 remarking, without proof,
that the technique extends to max-solvable games; a two-round max-solvable
game with no dominant profile checks that the saturation carries over.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import render_experiment
from repro.core import measure_mixing_time, theorem42_mixing_upper
from repro.games import AnonymousDominantGame, NormalFormGame, random_dominant_game
from repro.games.dominant import dominant_profile
from repro.games.maxsolvable import max_solve

BETAS = (0.0, 1.0, 5.0, 20.0, 100.0)


def saturation_failures(rows: list[list[object]]) -> list[str]:
    """Games whose t_mix(beta=100) exceeds twice t_mix(beta=5) (plus slack)."""
    by_game: dict[str, dict[float, float]] = {}
    for name, beta, measured, *_ in rows:
        by_game.setdefault(name, {})[beta] = measured
    return [name for name, t in by_game.items() if t[100.0] > 2.0 * t[5.0] + 2]


def dominant_rows() -> list[list[object]]:
    games = {
        "anonymous(n=3,m=2)": AnonymousDominantGame(3, 2),
        "anonymous(n=2,m=3)": AnonymousDominantGame(2, 3),
        "random-dominant(n=3,m=2)": random_dominant_game(
            (2, 2, 2), rng=np.random.default_rng(42)
        ),
    }
    rows = []
    for name, game in games.items():
        # the theorem's premise: every player has a dominant strategy
        assert dominant_profile(game) is not None, f"{name} has no dominant profile"
        n = game.num_players
        m = game.max_strategies
        bound = theorem42_mixing_upper(n, m)
        for beta in BETAS:
            measured = measure_mixing_time(game, beta).mixing_time
            rows.append([name, beta, measured, bound, measured <= bound])
    return rows


def test_theorem42_beta_independent(benchmark):
    rows = benchmark(dominant_rows)
    print()
    print(
        render_experiment(
            "E-4.2  Theorem 4.2 — beta-independent mixing for dominant-strategy games",
            ["game", "beta", "t_mix measured", "thm 4.2 bound (beta-free)", "bound holds"],
            rows,
            notes=(
                "Paper claim: a dominant profile caps the mixing time at O(m^n n log n)\n"
                "for every beta; the measured column must saturate as beta grows."
            ),
        )
    )
    assert all(r[4] for r in rows)
    assert saturation_failures(rows) == [], "t_mix keeps growing with beta"


def max_solvable_rows() -> list[list[object]]:
    # the column player's strategies 1 and 2 are never best responses; once
    # they go, the row player's strategy 1 is not one either
    row = np.array([[3.0, 1.0, 0.0], [2.0, 0.5, 0.1]])
    col = np.array([[2.0, 1.0, 0.0], [2.0, 1.0, 0.5]])
    game = NormalFormGame(row, col)
    assert max_solve(game).solvable and dominant_profile(game) is None
    name = "max-solvable(2x3)"
    return [[name, beta, measure_mixing_time(game, beta).mixing_time] for beta in BETAS]


def test_max_solvable_saturates(benchmark):
    rows = benchmark(max_solvable_rows)
    print()
    print(
        render_experiment(
            "E-4.2  end of Section 4 — max-solvable games (remark, no proof)",
            ["game", "beta", "t_mix measured"],
            rows,
        )
    )
    assert saturation_failures(rows) == [], "t_mix keeps growing with beta"
