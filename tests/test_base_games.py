"""Tests for game base classes (repro.games.base)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.games.base import NormalFormGame, TableGame, random_game

from conftest import CallableGame, pure_nash_equilibria, table_game_from_function


def prisoners_dilemma() -> NormalFormGame:
    # strategy 0 = defect, 1 = cooperate; defect dominates
    row = np.array([[1.0, 5.0], [0.0, 3.0]])
    col = row.T
    return NormalFormGame(row, col)


def matching_pennies() -> NormalFormGame:
    row = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NormalFormGame(row, -row)


class TestTableGame:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TableGame((2, 2), np.zeros((2, 5)))

    def test_rejects_nonfinite(self):
        utilities = np.zeros((2, 4))
        utilities[0, 0] = np.nan
        with pytest.raises(ValueError):
            TableGame((2, 2), utilities)

    def test_utility_lookup(self):
        utilities = np.arange(8, dtype=float).reshape(2, 4)
        game = TableGame((2, 2), utilities)
        assert game.utility(0, 3) == 3.0
        assert game.utility(1, 0) == 4.0

    def test_utility_matrix_is_copy(self):
        game = TableGame((2, 2), np.zeros((2, 4)))
        m = game.utility_matrix(0)
        m[:] = 99.0
        assert game.utility(0, 0) == 0.0

    def test_utilities_property_readonly(self):
        game = TableGame((2, 2), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            game.utilities[0, 0] = 1.0

    def test_from_function(self):
        game = table_game_from_function((2, 2), lambda i, prof: float(prof[i]))
        assert game.utility(0, game.space.encode((1, 0))) == 1.0
        assert game.utility(1, game.space.encode((1, 0))) == 0.0

    def test_utility_deviations_ordering(self):
        game = table_game_from_function((2, 3), lambda i, prof: float(10 * i + prof[i]))
        idx = game.space.encode((1, 2))
        np.testing.assert_allclose(game.utility_deviations(1, idx), [10.0, 11.0, 12.0])

    def test_utility_profile(self):
        game = prisoners_dilemma()
        utils = game.utility_profile_many(np.array([game.space.encode((1, 1))]))
        np.testing.assert_allclose(utils, [[3.0, 3.0]])

    def test_utility_profile_many_matches_scalar(self):
        game = table_game_from_function((2, 3), lambda i, prof: float(10 * i + prof[i]))
        idx = np.arange(game.space.size, dtype=np.int64)
        batched = game.utility_profile_many(idx)
        assert batched.shape == (game.space.size, 2)
        for x in idx:
            np.testing.assert_allclose(batched[x], [game.utility(i, int(x)) for i in range(2)])
        assert game.utility_profile_many(np.empty(0, dtype=np.int64)).shape == (0, 2)

    def test_utility_profile_many_generic_fallback_agrees(self):
        table = table_game_from_function((2, 2), lambda i, prof: float(prof[0] - 2 * prof[1] + i))
        callable_game = CallableGame((2, 2), lambda i, prof: float(prof[0] - 2 * prof[1] + i))
        idx = np.array([0, 3, 1, 2], dtype=np.int64)
        np.testing.assert_allclose(
            table.utility_profile_many(idx), callable_game.utility_profile_many(idx)
        )


class TestNormalFormGame:
    def test_payoff_mapping(self):
        game = prisoners_dilemma()
        # row plays 0 (defect), col plays 1 (cooperate): row gets 5, col gets 0
        idx = game.space.encode((0, 1))
        assert game.utility(0, idx) == 5.0
        assert game.utility(1, idx) == 0.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            NormalFormGame(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_asymmetric_strategy_counts(self):
        row = np.arange(6, dtype=float).reshape(2, 3)
        game = NormalFormGame(row, -row)
        assert game.num_strategies == (2, 3)
        assert game.space.size == 6


class TestCallableGame:
    def test_matches_table_game(self):
        fn = lambda i, prof: float(prof[0] * 2 + prof[1] - i)
        table = table_game_from_function((2, 2), fn)
        lazy = CallableGame((2, 2), fn)
        for x in range(4):
            for i in range(2):
                assert table.utility(i, x) == lazy.utility(i, x)


class TestEquilibria:
    def test_pd_single_equilibrium(self):
        game = prisoners_dilemma()
        eq = pure_nash_equilibria(game)
        assert eq == [game.space.encode((0, 0))]

    def test_matching_pennies_no_pure_equilibrium(self):
        assert pure_nash_equilibria(matching_pennies()) == []

    def test_coordination_two_equilibria(self):
        row = np.array([[2.0, 0.0], [0.0, 1.0]])
        game = NormalFormGame(row, row.T)
        eq = set(pure_nash_equilibria(game))
        assert eq == {game.space.encode((0, 0)), game.space.encode((1, 1))}

    def test_is_best_response(self):
        # player 0 best-responds when its own strategy attains the maximum
        # of its deviation utilities
        game = prisoners_dilemma()
        defect_vs_coop = game.utility_deviations(0, game.space.encode((0, 1)))
        coop_vs_coop = game.utility_deviations(0, game.space.encode((1, 1)))
        assert defect_vs_coop[0] == defect_vs_coop.max()
        assert coop_vs_coop[1] < coop_vs_coop.max()


class TestRandomGame:
    def test_deterministic_given_rng(self):
        a = random_game((2, 2), rng=np.random.default_rng(7))
        b = random_game((2, 2), rng=np.random.default_rng(7))
        np.testing.assert_allclose(a.utilities, b.utilities)

    def test_bounds_respected(self):
        game = random_game((2, 3), rng=np.random.default_rng(0), low=-2.0, high=2.0)
        assert np.all(game.utilities >= -2.0) and np.all(game.utilities <= 2.0)
