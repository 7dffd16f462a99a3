"""Tests for congestion games (repro.games.congestion)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.games.congestion import CongestionGame, SingletonCongestionGame, linear_delays

from conftest import potential_from_game


class TestSingletonCongestionGame:
    def test_is_exact_potential_game(self):
        game = SingletonCongestionGame(num_players=3, num_resources=2)
        assert game.verify_potential()

    def test_rosenthal_potential_matches_extraction(self):
        game = SingletonCongestionGame(num_players=2, num_resources=3)
        extracted = potential_from_game(game)
        assert extracted is not None
        declared = game.potential_vector()
        # potentials agree up to an additive constant
        diff = declared - extracted
        np.testing.assert_allclose(diff, diff[0] * np.ones_like(diff), atol=1e-9)

    def test_costs_with_linear_delays(self):
        game = SingletonCongestionGame(num_players=2, num_resources=2)
        # both on resource 0: each pays d(2) = 2, utility -2
        idx = game.space.encode((0, 0))
        assert game.utility(0, idx) == pytest.approx(-2.0)
        # split: each pays d(1) = 1
        idx_split = game.space.encode((0, 1))
        assert game.utility(0, idx_split) == pytest.approx(-1.0)
        assert game.utility(1, idx_split) == pytest.approx(-1.0)

    def test_balanced_profiles_minimise_potential(self):
        game = SingletonCongestionGame(num_players=4, num_resources=2)
        phi = game.potential_vector()
        minimisers = np.flatnonzero(phi <= np.min(phi) + 1e-12)
        w = game.space.weight(np.arange(game.space.size))
        # with linear delays the balanced splits (2-2) minimise the potential
        assert np.all(w[minimisers] == 2)

    def test_wrong_delay_count_rejected(self):
        with pytest.raises(ValueError):
            SingletonCongestionGame(2, 2, delays=linear_delays(3))


class TestGeneralCongestionGame:
    def test_subset_strategies(self):
        # two players, three resources; strategies are paths {0,1} or {2}
        strategies = [
            [[0, 1], [2]],
            [[0, 1], [2]],
        ]
        game = CongestionGame(strategies, linear_delays(3))
        assert game.verify_potential()
        # both pick {0,1}: each resource has load 2, each player pays 2+2=4
        idx = game.space.encode((0, 0))
        assert game.utility(0, idx) == pytest.approx(-4.0)
        # player 0 on {0,1}, player 1 on {2}: player 0 pays 1+1, player 1 pays 1
        idx2 = game.space.encode((0, 1))
        assert game.utility(0, idx2) == pytest.approx(-2.0)
        assert game.utility(1, idx2) == pytest.approx(-1.0)

    def test_rejects_out_of_range_resource(self):
        with pytest.raises(ValueError):
            CongestionGame([[[0], [5]]], linear_delays(2))

    def test_rejects_empty_strategy_set(self):
        with pytest.raises(ValueError):
            CongestionGame([[]], linear_delays(1))

    def test_asymmetric_strategy_counts(self):
        strategies = [
            [[0], [1], [2]],
            [[0], [1]],
        ]
        game = CongestionGame(strategies, linear_delays(3))
        assert game.num_strategies == (3, 2)
        assert game.verify_potential()

    def test_nonlinear_delays(self):
        quadratic = [lambda k: float(k * k) for _ in range(2)]
        game = SingletonCongestionGame(2, 2, delays=quadratic)
        idx = game.space.encode((0, 0))
        # both on resource 0: each pays d(2) = 4
        assert game.utility(0, idx) == pytest.approx(-4.0)
        assert game.verify_potential()
