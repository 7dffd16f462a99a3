"""Tests for welfare analysis (repro.analysis.welfare) and max-solvable games."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.welfare import (
    optimal_welfare,
    social_welfare_vector,
    stationary_expected_welfare,
)
from repro.games import (
    AnonymousDominantGame,
    CoordinationParams,
    NormalFormGame,
    TwoPlayerCoordinationGame,
)
from repro.games.base import random_game
from repro.games.maxsolvable import is_max_solvable, max_solve, never_best_response_strategies


def prisoners_dilemma() -> NormalFormGame:
    row = np.array([[1.0, 5.0], [0.0, 3.0]])
    return NormalFormGame(row, row.T)


def matching_pennies() -> NormalFormGame:
    row = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NormalFormGame(row, -row)


class TestSocialWelfare:
    def test_welfare_vector(self):
        game = prisoners_dilemma()
        welfare = social_welfare_vector(game)
        assert welfare[game.space.encode((1, 1))] == pytest.approx(6.0)  # C,C
        assert welfare[game.space.encode((0, 0))] == pytest.approx(2.0)  # D,D
        assert welfare[game.space.encode((0, 1))] == pytest.approx(5.0)

    def test_optimal_welfare(self):
        assert optimal_welfare(prisoners_dilemma()) == pytest.approx(6.0)

    def test_stationary_welfare_beta_zero_is_profile_average(self):
        game = prisoners_dilemma()
        expected = float(np.mean(social_welfare_vector(game)))
        assert stationary_expected_welfare(game, 0.0) == pytest.approx(expected)

    def test_pd_welfare_decreases_with_beta(self):
        """In the prisoner's dilemma rational play concentrates on the bad
        equilibrium, so the stationary welfare falls as beta grows."""
        game = prisoners_dilemma()
        w_low = stationary_expected_welfare(game, 0.0)
        w_high = stationary_expected_welfare(game, 10.0)
        assert w_high < w_low
        assert w_high == pytest.approx(2.0, abs=0.1)

    def test_coordination_welfare_increases_with_beta(self):
        """In a coordination game rationality helps: the stationary welfare
        rises towards the payoff of the better equilibrium."""
        game = TwoPlayerCoordinationGame(CoordinationParams.from_deltas(2.0, 1.0))
        w_low = stationary_expected_welfare(game, 0.0)
        w_high = stationary_expected_welfare(game, 10.0)
        assert w_high > w_low
        assert w_high == pytest.approx(4.0, abs=0.1)  # both players get a = 2


class TestMaxSolvable:
    def test_prisoners_dilemma_is_max_solvable(self):
        result = max_solve(prisoners_dilemma())
        assert result.solvable
        assert result.surviving == ((0,), (0,))
        assert is_max_solvable(prisoners_dilemma())

    def test_strictly_dominant_game_is_max_solvable(self):
        from repro.games import random_dominant_game

        game = random_dominant_game((2, 3, 2), rng=np.random.default_rng(3))
        result = max_solve(game)
        assert result.solvable
        assert result.surviving == ((0,), (0,), (0,))

    def test_weakly_dominant_game_with_ties_is_not_reduced(self):
        """The anonymous Theorem 4.3 game has massive payoff ties (every
        profile other than 0 gives -1), so weak-best-response elimination
        removes nothing — max-solvability is genuinely stronger than having
        a weakly dominant profile."""
        game = AnonymousDominantGame(3, 3)
        result = max_solve(game)
        assert not result.solvable
        assert result.elimination_order == ()

    def test_coordination_game_not_max_solvable(self):
        game = TwoPlayerCoordinationGame(CoordinationParams.from_deltas(2.0, 1.0))
        result = max_solve(game)
        assert not result.solvable
        # nothing can be eliminated: both strategies are best responses somewhere
        assert result.surviving == ((0, 1), (0, 1))

    def test_matching_pennies_not_max_solvable(self):
        assert not is_max_solvable(matching_pennies())

    def test_iterated_elimination_two_rounds(self):
        """A 2x3 game where one column is eliminated first, which then makes a
        row strategy never-best and solvable in a second round."""
        # row player utilities
        row = np.array([[3.0, 1.0, 0.0], [2.0, 0.5, 0.1]])
        # column player: strategy 2 is strictly worse than strategy 0 always
        col = np.array([[2.0, 1.0, 0.0], [2.0, 1.0, 0.5]])
        game = NormalFormGame(row, col)
        result = max_solve(game)
        assert result.solvable
        assert result.surviving == ((0,), (0,))
        eliminated_players = [player for player, _ in result.elimination_order]
        assert 0 in eliminated_players and 1 in eliminated_players

    def test_never_best_response_detection(self):
        game = prisoners_dilemma()
        surviving = [[0, 1], [0, 1]]
        # cooperating (strategy 1) is never a best response for either player
        assert never_best_response_strategies(game, surviving, 0) == [1]
        assert never_best_response_strategies(game, surviving, 1) == [1]

    def test_random_game_procedure_terminates(self):
        game = random_game((3, 3, 2), rng=np.random.default_rng(0))
        result = max_solve(game)
        assert all(len(s) >= 1 for s in result.surviving)
