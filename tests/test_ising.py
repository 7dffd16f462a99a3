"""Tests for the Ising/Glauber correspondence (repro.games.ising)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import LogitDynamics, gibbs_measure
from repro.games.ising import IsingGame, spins_from_profile

from conftest import ising_hamiltonian


def glauber_update_probability(local_field: float, beta: float) -> float:
    """Heat-bath probability of setting a spin to ``+1``.

    ``local_field = J * sum_{v ~ u} sigma_v + h`` is the effective field at
    the updated site; the Glauber rule sets the spin to ``+1`` with
    probability ``1 / (1 + exp(-2 beta local_field))``.
    """
    return float(1.0 / (1.0 + np.exp(-2.0 * beta * local_field)))


class TestSpinMapping:
    def test_roundtrip(self):
        profile = np.array([0, 1, 1, 0])
        spins = spins_from_profile(profile)
        np.testing.assert_array_equal(spins, [-1, 1, 1, -1])
        np.testing.assert_array_equal((spins + 1) // 2, profile)

    def test_hamiltonian_ferromagnetic_ground_states(self):
        graph = nx.cycle_graph(4)
        aligned_up = np.ones(4)
        aligned_down = -np.ones(4)
        mixed = np.array([1, -1, 1, -1])
        e_up = ising_hamiltonian(graph, aligned_up, coupling=1.0)
        e_down = ising_hamiltonian(graph, aligned_down, coupling=1.0)
        e_mixed = ising_hamiltonian(graph, mixed, coupling=1.0)
        assert e_up == pytest.approx(-4.0)
        assert e_down == pytest.approx(-4.0)
        assert e_mixed > e_up

    def test_field_breaks_symmetry(self):
        graph = nx.path_graph(3)
        up = np.ones(3)
        down = -np.ones(3)
        assert ising_hamiltonian(graph, up, field=0.5) < ising_hamiltonian(
            graph, down, field=0.5
        )


class TestIsingGame:
    def test_potential_equals_hamiltonian(self):
        graph = nx.cycle_graph(4)
        game = IsingGame(graph, coupling=1.0)
        for x in range(game.space.size):
            spins = spins_from_profile(np.asarray(game.space.decode(x)))
            assert game.potential(x) == pytest.approx(
                ising_hamiltonian(graph, spins, coupling=1.0)
            )

    def test_is_potential_game(self):
        game = IsingGame(nx.path_graph(4), coupling=1.0, field=0.3)
        assert game.verify_potential()

    def test_gibbs_measure_symmetric_without_field(self):
        game = IsingGame(nx.cycle_graph(4), coupling=1.0)
        pi = gibbs_measure(game.potential_vector(), beta=1.0)
        all_up = game.space.encode((1, 1, 1, 1))
        all_down = game.space.encode((0, 0, 0, 0))
        assert pi[all_up] == pytest.approx(pi[all_down])
        assert pi[all_up] == pytest.approx(np.max(pi))

    def test_field_favours_up_consensus(self):
        game = IsingGame(nx.cycle_graph(4), coupling=1.0, field=0.5)
        pi = gibbs_measure(game.potential_vector(), beta=1.0)
        all_up = game.space.encode((1, 1, 1, 1))
        all_down = game.space.encode((0, 0, 0, 0))
        assert pi[all_up] > pi[all_down]

    def test_magnetization(self):
        game = IsingGame(nx.path_graph(3), coupling=1.0)
        assert game.magnetization(game.space.encode((1, 1, 1))) == pytest.approx(1.0)
        assert game.magnetization(game.space.encode((0, 0, 0))) == pytest.approx(-1.0)
        assert game.magnetization(game.space.encode((1, 0, 1))) == pytest.approx(1.0 / 3.0)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            IsingGame(nx.path_graph(3), coupling=0.0)

    def test_coordination_game_equivalence(self):
        """The Ising game and the delta0=delta1=2J coordination game define the
        same Gibbs measure and the same logit dynamics."""
        graph = nx.cycle_graph(4)
        ising = IsingGame(graph, coupling=1.0)
        coord = IsingGame.as_coordination_game(graph, coupling=1.0)
        beta = 0.7
        pi_ising = gibbs_measure(ising.potential_vector(), beta)
        pi_coord = gibbs_measure(coord.potential_vector(), beta)
        np.testing.assert_allclose(pi_ising, pi_coord, atol=1e-12)
        P_ising = LogitDynamics(ising, beta).transition_matrix()
        P_coord = LogitDynamics(coord, beta).transition_matrix()
        np.testing.assert_allclose(P_ising, P_coord, atol=1e-12)


class TestGlauberRule:
    def test_matches_logit_update(self):
        """The heat-bath probability equals the logit update probability of
        playing strategy 1 given the neighbors' spins."""
        graph = nx.path_graph(3)
        game = IsingGame(graph, coupling=1.0)
        beta = 0.9
        dynamics = LogitDynamics(game, beta)
        # middle player, neighbors both up (profile (1, ?, 1))
        profile = np.array([1, 0, 1])
        probs = dynamics.update_distribution(profile, player=1)
        local_field = 1.0 * (1 + 1)  # both neighbor spins +1
        assert probs[1] == pytest.approx(glauber_update_probability(local_field, beta))

    def test_zero_field_is_half(self):
        assert glauber_update_probability(0.0, beta=2.0) == pytest.approx(0.5)

    def test_strong_field_saturates(self):
        assert glauber_update_probability(10.0, beta=5.0) == pytest.approx(1.0, abs=1e-9)
        assert glauber_update_probability(-10.0, beta=5.0) == pytest.approx(0.0, abs=1e-9)
