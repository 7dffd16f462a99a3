"""Tests for the dynamics variants (repro.core.variants)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LogitDynamics, gibbs_measure
from repro.core.variants import (
    AnnealedLogitDynamics,
    BestResponseDynamics,
    ConcurrentLogitDynamics,
    ParallelLogitDynamics,
    RoundRobinLogitDynamics,
)
from repro.games import (
    AnonymousDominantGame,
    CoordinationParams,
    IsingGame,
    NormalFormGame,
    TwoPlayerCoordinationGame,
    TwoWellGame,
)
from repro.graphs import ring_graph
from repro.markov.chain import is_stochastic_matrix

from conftest import is_aperiodic, is_irreducible


def prisoners_dilemma() -> NormalFormGame:
    row = np.array([[1.0, 5.0], [0.0, 3.0]])
    return NormalFormGame(row, row.T)


class TestParallelLogitDynamics:
    def test_transition_matrix_is_stochastic(self, ring5_ising_game):
        P = ParallelLogitDynamics(ring5_ising_game, 0.9).transition_matrix()
        assert is_stochastic_matrix(P, tol=1e-9)

    def test_factorisation_of_entries(self):
        game = TwoPlayerCoordinationGame(CoordinationParams.from_deltas(2.0, 1.0))
        beta = 0.7
        parallel = ParallelLogitDynamics(game, beta)
        sequential = LogitDynamics(game, beta)
        P = parallel.transition_matrix()
        space = game.space
        for x in range(space.size):
            for y in range(space.size):
                expected = 1.0
                for player in range(2):
                    probs = sequential.update_distribution_by_index(x, player)
                    expected *= probs[space.strategy_of(y, player)]
                assert P[x, y] == pytest.approx(expected)

    def test_beta_zero_is_uniform_over_profiles(self):
        game = TwoWellGame(3, barrier=1.0)
        P = ParallelLogitDynamics(game, 0.0).transition_matrix()
        np.testing.assert_allclose(P, np.full((8, 8), 1 / 8))

    def test_stationary_differs_from_gibbs_in_general(self):
        """The synchronous chain does not have the Gibbs measure as its
        stationary distribution (unlike the sequential logit dynamics)."""
        game = TwoPlayerCoordinationGame(CoordinationParams.from_deltas(2.0, 1.0))
        beta = 2.0
        chain = ParallelLogitDynamics(game, beta).markov_chain()
        gibbs = gibbs_measure(game.potential_vector(), beta)
        assert not np.allclose(chain.stationary, gibbs, atol=1e-3)

    def test_simulation_shape(self, ring5_ising_game):
        traj = ParallelLogitDynamics(ring5_ising_game, 1.0).simulate(
            (0,) * 5, 20, rng=np.random.default_rng(0)
        )
        assert traj.shape == (21, 5)

    def test_negative_beta_rejected(self, ring5_ising_game):
        with pytest.raises(ValueError):
            ParallelLogitDynamics(ring5_ising_game, -1.0)


class TestBetaValidation:
    @pytest.mark.parametrize(
        "dynamics",
        [
            LogitDynamics,
            ParallelLogitDynamics,
            ConcurrentLogitDynamics,
            RoundRobinLogitDynamics,
        ],
    )
    @pytest.mark.parametrize("beta", [-0.5, np.nan, np.inf, -np.inf])
    def test_fixed_beta_dynamics_reject_negative_and_non_finite_beta(
        self, ring5_ising_game, dynamics, beta
    ):
        with pytest.raises(ValueError, match="beta"):
            dynamics(ring5_ising_game, beta)

    def test_ising_ring_at_infinite_beta_fails_loud_instead_of_drifting(self):
        """At beta = inf the softmax rows were NaN and the sampler mapped
        them to strategy 0: a 6-ring Ising game started at the all-ones
        strict equilibrium drifted to all-zeros within 200 steps."""
        game = IsingGame(ring_graph(6), coupling=1.0)
        with pytest.raises(ValueError, match="BestResponseDynamics"):
            LogitDynamics(game, np.inf)
        # the chain beta = inf stands for keeps the equilibrium absorbing
        for state in ("index", "matrix"):
            sim = BestResponseDynamics(game).ensemble(
                16, start=np.ones(6, dtype=np.int64),
                rng=np.random.default_rng(0), state=state,
            )
            sim.run(200)
            assert np.all(sim.profiles == 1)

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-12, np.nan, np.inf])
    def test_best_response_rejects_negative_and_non_finite_tie_tolerance(
        self, ring5_ising_game, tolerance
    ):
        """A negative or NaN tolerance marked no strategy as a best
        response: every row was NaN and the sampler drove every replica to
        all-zeros."""
        with pytest.raises(ValueError, match="tie_tolerance"):
            BestResponseDynamics(ring5_ising_game, tie_tolerance=tolerance)

    def test_best_response_accepts_zero_tie_tolerance(self, ring5_ising_game):
        dynamics = BestResponseDynamics(ring5_ising_game, tie_tolerance=0.0)
        sim = dynamics.ensemble(
            8, start=np.ones(5, dtype=np.int64), rng=np.random.default_rng(0)
        )
        sim.run(20)
        # all-ones is a strict equilibrium of the ferromagnetic ring
        assert np.all(sim.profiles == 1)


class TestBestResponseDynamics:
    def test_high_beta_logit_converges_to_best_response(self):
        game = prisoners_dilemma()
        np.testing.assert_allclose(
            LogitDynamics(game, 300.0).transition_matrix(),
            BestResponseDynamics(game).transition_matrix(),
            atol=1e-6,
        )

    def test_strict_equilibria_are_absorbing(self):
        game = TwoPlayerCoordinationGame(CoordinationParams.from_deltas(2.0, 1.0))
        dynamics = BestResponseDynamics(game)
        P = dynamics.transition_matrix()
        absorbing = set(int(x) for x in np.flatnonzero(np.isclose(np.diag(P), 1.0)))
        assert game.space.encode((0, 0)) in absorbing
        assert game.space.encode((1, 1)) in absorbing
        assert game.space.encode((0, 1)) not in absorbing

    def test_update_distribution_uniform_over_ties(self):
        # a game where both strategies are best responses
        row = np.array([[1.0, 1.0], [1.0, 1.0]])
        game = NormalFormGame(row, row)
        probs = BestResponseDynamics(game).update_distribution(0, 0)
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_matrix_stochastic(self, clique4_game):
        P = BestResponseDynamics(clique4_game).transition_matrix()
        assert is_stochastic_matrix(P)

    def test_dominant_game_absorbs_at_dominant_profile(self):
        game = AnonymousDominantGame(3, 2)
        dynamics = BestResponseDynamics(game)
        chain = dynamics.markov_chain()
        # after many best-response rounds from anywhere, all mass is on 0
        mu = np.full(game.space.size, 1.0 / game.space.size)
        out = mu @ chain.t_step_matrix(200)
        assert out[game.space.encode((0, 0, 0))] == pytest.approx(1.0, abs=1e-6)


class TestAnnealedLogitDynamics:
    def test_schedule_validation(self):
        game = TwoWellGame(3, barrier=1.0)
        annealed = AnnealedLogitDynamics(game, lambda t: -1.0)
        with pytest.raises(ValueError):
            annealed.beta_at(0)
        with pytest.raises(ValueError):
            AnnealedLogitDynamics.logarithmic_schedule(scale=0.0)

    def test_constant_schedule_matches_fixed_beta(self):
        game = TwoWellGame(3, barrier=1.0)
        beta = 0.8
        annealed = AnnealedLogitDynamics(game, lambda t: beta)
        fixed = LogitDynamics(game, beta)
        mu = np.zeros(game.space.size)
        mu[0] = 1.0
        out_annealed = annealed.evolve_distribution(mu, 5)
        out_fixed = mu.copy()
        for _ in range(5):
            out_fixed = out_fixed @ fixed.transition_matrix()
        np.testing.assert_allclose(out_annealed, out_fixed, atol=1e-12)

    def test_logarithmic_schedule_monotone(self):
        schedule = AnnealedLogitDynamics.logarithmic_schedule(scale=1.0)
        values = [schedule(t) for t in range(0, 100, 10)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_annealing_concentrates_on_potential_minimiser(self):
        """With a logarithmic schedule the distribution drifts towards the
        potential minimisers (the deep well) as time grows."""
        game = TwoWellGame(4, barrier=1.0, depth_ratio=0.5)
        deep_well = game.well_indices[0]
        annealed = AnnealedLogitDynamics(
            game, AnnealedLogitDynamics.logarithmic_schedule(scale=0.25)
        )
        mu = np.full(game.space.size, 1.0 / game.space.size)
        out = annealed.evolve_distribution(mu, 150)
        assert out[deep_well] == pytest.approx(np.max(out))
        assert out[deep_well] > 0.5

    def test_simulation_shape(self):
        game = TwoWellGame(3, barrier=1.0)
        annealed = AnnealedLogitDynamics(game, lambda t: 0.5)
        traj = annealed.simulate((0, 0, 0), 30, rng=np.random.default_rng(1))
        assert traj.shape == (31, 3)


class TestRoundRobinLogitDynamics:
    def test_player_step_matrix_stochastic(self, ring5_ising_game):
        rr = RoundRobinLogitDynamics(ring5_ising_game, 1.0)
        for player in range(5):
            assert is_stochastic_matrix(rr.player_step_matrix(player))

    def test_round_matrix_stochastic_and_ergodic(self, clique4_game):
        rr = RoundRobinLogitDynamics(clique4_game, 0.8)
        chain = rr.markov_chain()
        assert is_stochastic_matrix(np.asarray(chain.transition_matrix))
        assert is_irreducible(chain) and is_aperiodic(chain)

    def test_gibbs_not_exactly_stationary_but_close_at_low_beta(self):
        """Round-robin scanning preserves the Gibbs measure only approximately;
        at low beta the two stationary distributions are close."""
        game = TwoWellGame(3, barrier=1.0)
        beta = 0.2
        rr_chain = RoundRobinLogitDynamics(game, beta).markov_chain()
        gibbs = gibbs_measure(game.potential_vector(), beta)
        from repro.markov import total_variation

        assert total_variation(rr_chain.stationary, gibbs) < 0.05

    def test_one_round_mixes_at_least_as_fast_as_one_uniform_step(self):
        """A full round touches every player, so the round-level chain mixes
        in fewer rounds than the uniform chain needs steps."""
        from repro.markov.mixing import mixing_time

        game = TwoWellGame(3, barrier=1.0)
        beta = 0.5
        rounds = mixing_time(RoundRobinLogitDynamics(game, beta).markov_chain()).mixing_time
        steps = mixing_time(LogitDynamics(game, beta).markov_chain()).mixing_time
        assert rounds <= steps
