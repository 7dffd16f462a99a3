"""Tests for dominant-strategy games (repro.games.dominant)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.games.base import NormalFormGame, random_game
from repro.games.dominant import (
    AnonymousDominantGame,
    dominant_profile,
    dominant_strategies,
    random_dominant_game,
)

from conftest import pure_nash_equilibria


def prisoners_dilemma() -> NormalFormGame:
    row = np.array([[1.0, 5.0], [0.0, 3.0]])
    return NormalFormGame(row, row.T)


class TestDetection:
    def test_pd_has_dominant_profile(self):
        game = prisoners_dilemma()
        assert dominant_profile(game) == (0, 0)

    def test_dominant_strategies_per_player(self):
        game = prisoners_dilemma()
        assert dominant_strategies(game, 0) == [0]
        assert dominant_strategies(game, 1) == [0]

    def test_coordination_game_has_no_dominant_strategy(self):
        row = np.array([[2.0, 0.0], [0.0, 1.0]])
        game = NormalFormGame(row, row.T)
        assert dominant_profile(game) is None

    def test_random_game_typically_lacks_dominant_profile(self):
        game = random_game((3, 3, 3), rng=np.random.default_rng(1))
        # not guaranteed in general but true for this seed; the point is the
        # detector runs on a 3-player, 27-profile game without errors
        assert dominant_profile(game) is None


class TestAnonymousDominantGame:
    def test_strategy_zero_dominant_everywhere(self):
        game = AnonymousDominantGame(3, 3)
        for player in range(3):
            assert 0 in dominant_strategies(game, player)

    def test_is_potential_game(self):
        game = AnonymousDominantGame(3, 2)
        assert game.verify_potential()

    def test_potential_structure(self):
        game = AnonymousDominantGame(2, 3)
        phi = game.potential_vector()
        zero = game.space.encode((0, 0))
        assert phi[zero] == 0.0
        assert np.all(phi[np.arange(game.space.size) != zero] == 1.0)

    def test_dominant_profile_is_nash_and_near_profiles_are_not(self):
        """The all-zero profile is a PNE; profiles one deviation away are not
        (the deviating player can recover utility 0).  Profiles further away
        are weak equilibria of this game, which is fine for the theorem."""
        game = AnonymousDominantGame(3, 2)
        eq = set(pure_nash_equilibria(game))
        zero = game.space.encode((0, 0, 0))
        assert zero in eq
        for one_away in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert game.space.encode(one_away) not in eq

    def test_lower_bound_formula(self):
        game = AnonymousDominantGame(3, 2)
        assert game.mixing_time_lower_bound() == pytest.approx((2**3 - 1) / 4.0)
        game_m3 = AnonymousDominantGame(2, 3)
        assert game_m3.mixing_time_lower_bound() == pytest.approx((9 - 1) / 8.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            AnonymousDominantGame(0, 2)
        with pytest.raises(ValueError):
            AnonymousDominantGame(2, 1)


class TestRandomDominantGame:
    def test_always_has_dominant_profile(self):
        for seed in range(5):
            game = random_dominant_game((2, 3, 2), rng=np.random.default_rng(seed))
            assert dominant_profile(game) == (0, 0, 0)

    def test_strictness_of_dominance(self):
        game = random_dominant_game((2, 2), rng=np.random.default_rng(0), advantage=1.0)
        space = game.space
        for player in range(2):
            devs = space.deviation_matrix(player)
            utils = game.utility_matrix(player)
            zero_util = utils[devs[:, 0]]
            other_util = utils[devs[:, 1]]
            assert np.all(zero_util > other_util)
