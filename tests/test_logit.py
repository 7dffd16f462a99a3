"""Tests for the logit dynamics chain itself (repro.core.logit)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LogitDynamics, gibbs_measure, logit_update_distribution
from repro.games import IsingGame, random_game
from repro.graphs import ring_graph
from repro.markov.chain import is_stochastic_matrix
from repro.markov.tv import total_variation

from conftest import hamming_distance, is_aperiodic, is_irreducible


class TestUpdateRule:
    def test_softmax_normalisation(self):
        probs = logit_update_distribution(np.array([1.0, 2.0, -1.0]), beta=0.7)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs > 0)

    def test_beta_zero_is_uniform(self):
        probs = logit_update_distribution(np.array([5.0, -3.0, 0.0]), beta=0.0)
        np.testing.assert_allclose(probs, np.full(3, 1 / 3))

    def test_large_beta_concentrates_on_best_response(self):
        probs = logit_update_distribution(np.array([1.0, 3.0, 2.0]), beta=50.0)
        assert probs[1] == pytest.approx(1.0, abs=1e-9)

    def test_overflow_safety(self):
        # huge utilities * beta must not produce NaN
        probs = logit_update_distribution(np.array([1000.0, -1000.0]), beta=100.0)
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    def test_overflowing_beta_gives_the_argmax_uniform_rows(self):
        # regression: beta * u = +-inf made inf - inf = NaN rows
        utilities = np.array([[1.0, 1.0, -1.0], [-2.0, 3.0, 2.0], [-4.0, -4.0, -4.0]])
        with np.errstate(over="ignore"):
            probs = logit_update_distribution(utilities, beta=1e308)
        np.testing.assert_array_equal(
            probs, [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3]]
        )

    @pytest.mark.parametrize("state", ["index", "matrix"])
    def test_engine_at_overflowing_beta_runs_the_large_beta_chain(self, state):
        """At beta = 1e308 the ring stays at its all-ones consensus, as at 1e6.

        NaN update rows used to make the inverse-CDF sampler pick strategy 0,
        so every replica silently drifted to all-zeros.
        """
        game = IsingGame(ring_graph(4))
        runs = []
        for beta in (1e6, 1e308):
            dynamics = LogitDynamics(game, beta)
            with np.errstate(over="ignore"):
                for player in range(4):
                    assert np.isfinite(dynamics.player_update_matrix(player)).all()
                sim = dynamics.ensemble(
                    2, start=np.ones(4, dtype=int), rng=np.random.default_rng(0), state=state
                )
                runs.append(sim.run(200, record_every=50))
        np.testing.assert_array_equal(runs[1], runs[0])
        assert (runs[1][-1] == 1).all()

    def test_batched_rows(self):
        utilities = np.array([[0.0, 1.0], [2.0, 2.0]])
        probs = logit_update_distribution(utilities, beta=1.0)
        assert probs.shape == (2, 2)
        np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0])
        np.testing.assert_allclose(probs[1], [0.5, 0.5])

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            logit_update_distribution(np.zeros(2), beta=-1.0)

    def test_equation2_closed_form(self, ring5_ising_game):
        """sigma_i(y | x) = exp(beta u_i(y, x_-i)) / sum_z exp(beta u_i(z, x_-i))."""
        game = ring5_ising_game
        beta = 0.9
        dynamics = LogitDynamics(game, beta)
        x = game.space.encode((0, 1, 0, 1, 1))
        for player in range(game.num_players):
            utils = game.utility_deviations(player, x)
            expected = np.exp(beta * utils) / np.exp(beta * utils).sum()
            np.testing.assert_allclose(
                dynamics.update_distribution_by_index(x, player), expected, atol=1e-12
            )


class TestTransitionMatrix:
    def test_matrix_is_stochastic(self, ring5_ising_game):
        P = LogitDynamics(ring5_ising_game, 1.3).transition_matrix()
        assert is_stochastic_matrix(P)

    def test_equation3_entries(self, clique4_game):
        """Off-diagonal entries equal sigma_i(y_i | x) / n; the diagonal is
        the sum over players of re-selection probabilities / n; everything
        else is zero."""
        game = clique4_game
        beta = 0.8
        dynamics = LogitDynamics(game, beta)
        P = dynamics.transition_matrix()
        space = game.space
        n = game.num_players
        for x in range(space.size):
            diag_expected = 0.0
            for player in range(n):
                probs = dynamics.update_distribution_by_index(x, player)
                devs = space.deviations(x, player)
                current = space.strategy_of(x, player)
                diag_expected += probs[current] / n
                for s, y in enumerate(devs):
                    if int(y) != x:
                        assert P[x, int(y)] == pytest.approx(probs[s] / n)
            assert P[x, x] == pytest.approx(diag_expected)
            # transitions only along Hamming edges or self loops
            for y in range(space.size):
                if P[x, y] > 0 and y != x:
                    assert hamming_distance(space.decode(x), space.decode(y)) == 1

    def test_beta_zero_uniform_updates(self):
        game = random_game((2, 2, 2), rng=np.random.default_rng(4))
        P = LogitDynamics(game, 0.0).transition_matrix()
        # every off-diagonal neighbor entry equals 1/(n*m_i) = 1/6
        space = game.space
        for x in range(space.size):
            for y in space.neighbors(x):
                assert P[x, int(y)] == pytest.approx(1.0 / 6.0)

    def test_matrix_cached(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        assert dynamics.transition_matrix() is dynamics.transition_matrix()

    def test_negative_beta_rejected(self, ring5_ising_game):
        with pytest.raises(ValueError):
            LogitDynamics(ring5_ising_game, -0.5)


class TestChainProperties:
    def test_ergodicity(self, ring5_ising_game):
        chain = LogitDynamics(ring5_ising_game, 2.0).markov_chain()
        assert is_irreducible(chain) and is_aperiodic(chain)

    def test_reversibility_for_potential_games(self, clique4_game):
        chain = LogitDynamics(clique4_game, 1.1).markov_chain()
        assert chain.is_reversible(tol=1e-9)

    def test_gibbs_is_stationary(self, two_well_game):
        """pi P = pi for the Gibbs measure of the potential (Equation 4)."""
        beta = 1.7
        dynamics = LogitDynamics(two_well_game, beta)
        P = dynamics.transition_matrix()
        pi = gibbs_measure(two_well_game.potential_vector(), beta)
        np.testing.assert_allclose(pi @ P, pi, atol=1e-12)

    def test_stationary_of_nonpotential_game(self, small_random_game):
        dynamics = LogitDynamics(small_random_game, 0.9)
        chain = dynamics.markov_chain()
        pi = chain.stationary
        np.testing.assert_allclose(pi @ chain.transition_matrix, pi, atol=1e-9)

    def test_stationary_distribution_method(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.2)
        pi = dynamics.stationary_distribution()
        np.testing.assert_allclose(
            pi, gibbs_measure(ring5_ising_game.potential_vector(), 1.2)
        )


class TestSimulation:
    def test_trajectory_shape(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        traj = dynamics.simulate((0, 0, 0, 0, 0), 50, rng=np.random.default_rng(0))
        assert traj.shape == (51, 5)
        assert np.all((traj >= 0) & (traj <= 1))

    def test_record_every(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        traj = dynamics.simulate((0, 0, 0, 0, 0), 50, rng=np.random.default_rng(0), record_every=10)
        assert traj.shape == (6, 5)

    def test_consecutive_profiles_differ_in_at_most_one_player(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        traj = dynamics.simulate((0, 1, 0, 1, 0), 100, rng=np.random.default_rng(1))
        diffs = np.count_nonzero(traj[1:] != traj[:-1], axis=1)
        assert np.all(diffs <= 1)

    def test_empirical_distribution_converges_to_gibbs(self, two_well_game):
        """Long-run occupation frequencies approach the Gibbs measure."""
        beta = 0.5
        dynamics = LogitDynamics(two_well_game, beta)
        rng = np.random.default_rng(5)
        traj = dynamics.simulate((0, 0, 0, 0), 40_000, rng=rng)
        indices = two_well_game.space.encode_many(traj[2000:])
        counts = np.bincount(indices, minlength=two_well_game.space.size)
        empirical = counts / counts.sum()
        pi = gibbs_measure(two_well_game.potential_vector(), beta)
        assert total_variation(empirical, pi) < 0.05

    def test_hitting_time_zero_if_already_there(self, dominant_game):
        dynamics = LogitDynamics(dominant_game, 1.0)
        target = dominant_game.space.encode((0, 0, 0))
        assert dynamics.simulate_hitting_time((0, 0, 0), target) == 0

    def test_hitting_time_reaches_dominant_profile(self, dominant_game):
        dynamics = LogitDynamics(dominant_game, 5.0)
        target = dominant_game.space.encode((0, 0, 0))
        t = dynamics.simulate_hitting_time(
            (1, 1, 1), target, rng=np.random.default_rng(2), max_steps=10_000
        )
        assert t > 0

    def test_start_length_validation(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        with pytest.raises(ValueError):
            dynamics.simulate((0, 0), 10)
