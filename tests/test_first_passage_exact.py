"""Engine first passage against the exact linear solve.

``EnsembleSimulator.hitting_times`` samples first-hitting times on the
batched engine; ``MarkovChain.expected_hitting_time`` solves for their
expectation on the dense transition matrix.  Every dynamics family with a
per-step chain (logit, concurrent, parallel, best response) must agree
with its own exact solve on small games, within a few standard errors.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import LogitDynamics
from repro.core.variants import (
    BestResponseDynamics,
    ConcurrentLogitDynamics,
    ParallelLogitDynamics,
)
from repro.games import AnonymousDominantGame, IsingGame, TwoWellGame

GAMES = {
    "two_well3": lambda: TwoWellGame(num_players=3, barrier=1.0),
    "dominant3": lambda: AnonymousDominantGame(3, 2),
    "ising_ring4": lambda: IsingGame(nx.cycle_graph(4), coupling=1.0),
}

FAMILIES = {
    "logit": lambda g: LogitDynamics(g, 1.0),
    "concurrent": lambda g: ConcurrentLogitDynamics(g, 1.0, p=0.5),
    "parallel": lambda g: ParallelLogitDynamics(g, 1.0),
    "best_response": lambda g: BestResponseDynamics(g),
}


def _start_and_target(dynamics, game):
    """All-zeros to all-ones for the logit families.  Best response is
    absorbed at its fixed points, so it runs from the profile slowest to
    reach them."""
    if isinstance(dynamics, BestResponseDynamics):
        target = np.flatnonzero(np.isclose(np.diag(dynamics.transition_matrix()), 1.0))
        exact = dynamics.markov_chain().expected_hitting_time(target)
        start = int(np.argmax(np.where(np.isfinite(exact), exact, -1.0)))
        return start, target, exact[start]
    target = int(game.space.size - 1)
    exact = dynamics.markov_chain().expected_hitting_time(target)
    return 0, target, exact[0]


@pytest.mark.parametrize("game_name", list(GAMES))
@pytest.mark.parametrize("family", list(FAMILIES))
def test_first_passage_matches_exact_linear_solve(family, game_name):
    game = GAMES[game_name]()
    dynamics = FAMILIES[family](game)
    start, target, exact = _start_and_target(dynamics, game)
    assert np.isfinite(exact) and exact > 0
    replicas = 2000
    sim = dynamics.ensemble(replicas, start=start, rng=np.random.default_rng(0))
    times = sim.hitting_times(target, max_steps=10**6)
    assert np.all(times > 0)
    standard_error = times.std(ddof=1) / np.sqrt(replicas)
    assert abs(times.mean() - exact) <= 5 * standard_error


def test_sampled_hitting_times_match_exact_scale():
    game = AnonymousDominantGame(3, 2)
    dynamics = LogitDynamics(game, 3.0)
    target = game.space.encode((0, 0, 0))
    start = (1, 1, 1)
    exact = dynamics.markov_chain().expected_hitting_time(target)[
        game.space.encode(start)
    ]
    sim = dynamics.ensemble(
        200, start=np.asarray(start, dtype=np.int64), rng=np.random.default_rng(4)
    )
    samples = sim.hitting_times(target, max_steps=10**6)
    assert np.all(samples >= 0)
    assert samples.mean() == pytest.approx(exact, rel=0.35)


def test_unreached_target_reports_minus_one(two_well_game):
    # with a huge barrier and very few steps the opposite well is not hit
    _all0, all1 = two_well_game.well_indices
    sim = LogitDynamics(two_well_game, 30.0).ensemble(
        3, start=np.zeros(4, dtype=np.int64), rng=np.random.default_rng(5)
    )
    assert np.all(sim.hitting_times(all1, max_steps=20) == -1)
