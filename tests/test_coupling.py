"""Tests for the coupling machinery (repro.markov.coupling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LogitDynamics
from repro.games import AnonymousDominantGame, CoordinationParams, GraphicalCoordinationGame
from repro.markov.coupling import (
    CouplingResult,
    coalescence_time_bound,
    maximal_coupling_update,
)


class TestMaximalCouplingUpdate:
    def test_identical_distributions_always_agree(self):
        probs = np.array([0.2, 0.5, 0.3])
        for u in np.linspace(0, 0.999, 25):
            s_x, s_y = maximal_coupling_update(probs, probs, float(u))
            assert s_x == s_y

    def test_marginals_are_correct(self):
        """Pushing a fine uniform grid through the coupling recovers both marginals."""
        probs_x = np.array([0.7, 0.2, 0.1])
        probs_y = np.array([0.1, 0.3, 0.6])
        grid = np.linspace(0, 1, 200_001)[:-1] + 0.5 / 200_000
        outcomes_x = np.zeros(3)
        outcomes_y = np.zeros(3)
        for u in grid:
            s_x, s_y = maximal_coupling_update(probs_x, probs_y, float(u))
            outcomes_x[s_x] += 1
            outcomes_y[s_y] += 1
        np.testing.assert_allclose(outcomes_x / grid.size, probs_x, atol=2e-4)
        np.testing.assert_allclose(outcomes_y / grid.size, probs_y, atol=2e-4)

    def test_agreement_probability_is_overlap(self):
        """P(same outcome) equals sum_s min(p(s), q(s)) — the maximal coupling."""
        probs_x = np.array([0.6, 0.4])
        probs_y = np.array([0.3, 0.7])
        grid = np.linspace(0, 1, 100_001)[:-1] + 0.5 / 100_000
        agree = sum(
            1
            for u in grid
            if maximal_coupling_update(probs_x, probs_y, float(u))[0]
            == maximal_coupling_update(probs_x, probs_y, float(u))[1]
        )
        overlap = np.minimum(probs_x, probs_y).sum()
        assert agree / grid.size == pytest.approx(overlap, abs=2e-4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            maximal_coupling_update(np.array([0.5, 0.5]), np.array([1.0]), 0.3)


class TestGrandCouplingSimulation:
    def test_result_quantile_counts_unmet_as_horizon(self):
        result = CouplingResult(
            coalescence_times=np.array([5, -1, 7, -1]), horizon=100, num_coalesced=2
        )
        assert result.quantile(1.0) == 100
        assert result.fraction_coalesced == 0.5


class TestCouplingAgainstLogitDynamics:
    def test_coalescence_bound_upper_bounds_true_mixing(self, ring5_ising_game):
        """Theorem 2.1: the coupling-time quantile dominates the exact t_mix
        for the simulated starting pair (here the two consensus profiles,
        which are the hardest pair for a coordination game)."""
        from repro.core import measure_mixing_time

        beta = 0.5
        game = ring5_ising_game
        exact = measure_mixing_time(game, beta).mixing_time
        dynamics = LogitDynamics(game, beta)
        n = game.num_players
        result = dynamics.grand_coupling(
            start_x=(0,) * n,
            start_y=(1,) * n,
            horizon=50 * exact,
            num_runs=48,
            rng=np.random.default_rng(7),
        )
        bound = coalescence_time_bound(result, epsilon=0.25)
        assert bound >= exact * 0.5  # sanity: same order of magnitude or larger

    def test_dominant_game_couples_within_theorem42_budget(self):
        game = AnonymousDominantGame(3, 2)
        dynamics = LogitDynamics(game, beta=10.0)
        result = dynamics.grand_coupling(
            start_x=(1, 1, 1),
            start_y=(0, 0, 0),
            horizon=2000,
            num_runs=24,
            rng=np.random.default_rng(3),
        )
        assert result.fraction_coalesced == 1.0

    def test_epsilon_validation(self):
        result = CouplingResult(np.array([1, 2]), horizon=10, num_coalesced=2)
        with pytest.raises(ValueError):
            coalescence_time_bound(result, epsilon=0.0)
