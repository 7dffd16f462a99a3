"""Tests for coordination games (repro.games.coordination)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.games.coordination import (
    CoordinationParams,
    GraphicalCoordinationGame,
    TwoPlayerCoordinationGame,
    basic_coordination_payoffs,
)

from conftest import pure_nash_equilibria


class TestCoordinationParams:
    def test_deltas(self):
        p = CoordinationParams(a=3.0, b=2.0, c=0.5, d=1.0)
        assert p.delta0 == pytest.approx(2.0)
        assert p.delta1 == pytest.approx(1.5)

    def test_risk_dominance(self):
        # the risk-dominant consensus is the one with the deeper edge potential
        zero_dominant = CoordinationParams.from_deltas(2.0, 1.0)
        assert zero_dominant.delta0 > zero_dominant.delta1
        assert zero_dominant.edge_potential(0, 0) < zero_dominant.edge_potential(1, 1)
        one_dominant = CoordinationParams.from_deltas(1.0, 2.0)
        assert one_dominant.edge_potential(1, 1) < one_dominant.edge_potential(0, 0)
        ising = CoordinationParams.ising(1.0)
        assert ising.delta0 == ising.delta1
        assert ising.edge_potential(0, 0) == ising.edge_potential(1, 1)

    def test_rejects_non_coordination(self):
        with pytest.raises(ValueError):
            CoordinationParams(a=0.0, b=1.0, c=0.0, d=1.0)

    def test_edge_potential_values(self):
        p = CoordinationParams.from_deltas(2.0, 1.0)
        assert p.edge_potential(0, 0) == -2.0
        assert p.edge_potential(1, 1) == -1.0
        assert p.edge_potential(0, 1) == 0.0
        assert p.edge_potential(1, 0) == 0.0

    def test_payoff_matrices(self):
        p = CoordinationParams(a=3.0, b=2.0, c=0.5, d=1.0)
        row, col = basic_coordination_payoffs(p)
        np.testing.assert_allclose(row, [[3.0, 0.5], [1.0, 2.0]])
        np.testing.assert_allclose(col, row.T)


class TestTwoPlayerCoordinationGame:
    def test_is_potential_game(self):
        game = TwoPlayerCoordinationGame(CoordinationParams.from_deltas(2.0, 1.0))
        assert game.verify_potential()

    def test_pure_nash_equilibria(self):
        game = TwoPlayerCoordinationGame(CoordinationParams.from_deltas(2.0, 1.0))
        eq = set(pure_nash_equilibria(game))
        assert eq == {game.space.encode((0, 0)), game.space.encode((1, 1))}

    def test_potential_values_match_paper(self):
        game = TwoPlayerCoordinationGame(CoordinationParams.from_deltas(2.0, 1.5))
        phi = game.potential_vector()
        assert phi[game.space.encode((0, 0))] == pytest.approx(-2.0)
        assert phi[game.space.encode((1, 1))] == pytest.approx(-1.5)
        assert phi[game.space.encode((0, 1))] == pytest.approx(0.0)


class TestGraphicalCoordinationGame:
    def test_single_edge_matches_two_player(self):
        params = CoordinationParams.from_deltas(2.0, 1.0)
        g2 = TwoPlayerCoordinationGame(params)
        graphical = GraphicalCoordinationGame(nx.path_graph(2), params)
        np.testing.assert_allclose(
            graphical.potential_vector(), g2.potential_vector()
        )
        for i in range(2):
            np.testing.assert_allclose(
                graphical.utility_matrix(i), g2.utility_matrix(i)
            )

    def test_potential_consistency(self, ring5_ising_game, clique4_game):
        assert ring5_ising_game.verify_potential()
        assert clique4_game.verify_potential()

    def test_consensus_profiles_are_nash(self, clique4_game):
        all0, all1 = clique4_game.consensus_profiles()
        eq = set(pure_nash_equilibria(clique4_game))
        assert all0 in eq and all1 in eq

    def test_risk_dominant_profile_has_min_potential(self, clique4_game):
        params = clique4_game.params
        assert params.delta0 > params.delta1  # all-zeros is risk dominant
        phi = clique4_game.potential_vector()
        assert phi[clique4_game.consensus_profiles()[0]] == pytest.approx(np.min(phi))

    def test_no_risk_dominant_on_ising(self, ring5_ising_game):
        assert ring5_ising_game.params.delta0 == ring5_ising_game.params.delta1
        all0, all1 = ring5_ising_game.consensus_profiles()
        phi = ring5_ising_game.potential_vector()
        assert phi[all0] == pytest.approx(phi[all1])

    def test_utility_is_sum_over_edges(self):
        params = CoordinationParams.from_deltas(2.0, 1.0)
        graph = nx.path_graph(3)  # edges (0,1), (1,2)
        game = GraphicalCoordinationGame(graph, params)
        # profile (0, 0, 1): player 1 coordinates with 0 on edge (0,1) -> a=2
        # and miscoordinates on edge (1,2) -> c=0; total 2
        idx = game.space.encode((0, 0, 1))
        assert game.utility(1, idx) == pytest.approx(2.0)
        # player 0 only has one edge -> utility 2
        assert game.utility(0, idx) == pytest.approx(2.0)
        # player 2 miscoordinates -> d = 0
        assert game.utility(2, idx) == pytest.approx(0.0)

    def test_potential_is_sum_of_edge_potentials(self):
        params = CoordinationParams.from_deltas(2.0, 1.0)
        graph = nx.cycle_graph(4)
        game = GraphicalCoordinationGame(graph, params)
        profiles = game.space.all_profiles()
        phi = game.potential_vector()
        for x in range(game.space.size):
            expected = sum(
                params.edge_potential(profiles[x, u], profiles[x, v])
                for u, v in graph.edges()
            )
            assert phi[x] == pytest.approx(expected)

    def test_clique_potential_by_ones_count(self):
        params = CoordinationParams.from_deltas(2.0, 1.0)
        game = GraphicalCoordinationGame(nx.complete_graph(4), params)
        levels = game.potential_by_ones_count()
        assert levels is not None
        phi = game.potential_vector()
        w = game.space.weight(np.arange(game.space.size))
        np.testing.assert_allclose(phi, levels[w])

    def test_non_clique_returns_none_for_levels(self, ring5_ising_game):
        assert ring5_ising_game.potential_by_ones_count() is None

    def test_arbitrary_node_labels_are_relabelled(self):
        graph = nx.Graph()
        graph.add_edges_from([("a", "b"), ("b", "c")])
        game = GraphicalCoordinationGame(graph, CoordinationParams.ising(1.0))
        assert game.num_players == 3
        assert sorted(game.graph.nodes()) == [0, 1, 2]

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            GraphicalCoordinationGame(nx.Graph(), CoordinationParams.ising(1.0))

    def test_num_edges(self, clique4_game):
        assert clique4_game.num_edges == 6
