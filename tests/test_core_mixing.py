"""Tests for the mixing-time measurement drivers (repro.core.mixing)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.mixing as core_mixing
from repro.core import (
    LogitDynamics,
    estimate_mixing_time_coupling,
    measure_mixing_time,
    measure_relaxation_time,
    measure_spectral_summary,
)
from repro.games import CoordinationParams, GraphicalCoordinationGame, TwoWellGame
from repro.markov.coupling import coalescence_time_bound

import networkx as nx


class TestExactMeasurement:
    def test_mixing_time_positive(self, ring5_ising_game):
        result = measure_mixing_time(ring5_ising_game, beta=1.0)
        assert result.mixing_time > 0
        assert not result.capped

    def test_relaxation_time_at_least_one(self, ring5_ising_game):
        assert measure_relaxation_time(ring5_ising_game, beta=1.0) >= 1.0

    def test_spectrum_nonnegative_for_potential_game(self, clique4_game):
        """Theorem 3.1: the logit chain of a potential game has a non-negative
        spectrum."""
        summary = measure_spectral_summary(clique4_game, beta=1.4)
        assert summary.all_nonnegative

    def test_exact_guard_rejects_huge_spaces(self, monkeypatch):
        monkeypatch.setattr(core_mixing, "MAX_EXACT_PROFILES", 8)
        game = TwoWellGame(num_players=5, barrier=1.0)  # 32 profiles > 8
        with pytest.raises(ValueError):
            core_mixing.measure_mixing_time(game, beta=1.0)

    def test_mixing_monotone_in_beta_for_two_well(self, two_well_game):
        """For a two-well potential, raising beta raises the mixing time."""
        times = [
            measure_mixing_time(two_well_game, beta).mixing_time
            for beta in (0.0, 1.0, 2.0)
        ]
        assert times[0] <= times[1] <= times[2]
        assert times[2] > times[0]


class TestCouplingEstimator:
    def test_estimate_upper_bounds_exact_on_ring(self):
        game = GraphicalCoordinationGame(nx.cycle_graph(4), CoordinationParams.ising(1.0))
        beta = 0.5
        exact = measure_mixing_time(game, beta).mixing_time
        estimate = estimate_mixing_time_coupling(
            game,
            beta,
            start_x=(0, 0, 0, 0),
            start_y=(1, 1, 1, 1),
            horizon=200 * exact,
            num_runs=64,
            seed=11,
        )
        # coupling-time quantile is an upper bound in expectation; allow
        # Monte-Carlo slack of a factor of 2 on the lower side
        assert estimate >= exact / 2

    def test_estimate_finite_for_dominant_game(self, dominant_game):
        estimate = estimate_mixing_time_coupling(
            dominant_game,
            beta=20.0,
            start_x=(1, 1, 1),
            start_y=(0, 0, 0),
            horizon=5000,
            num_runs=16,
            seed=2,
        )
        assert np.isfinite(estimate)
        assert estimate < 5000

    def test_seed_gives_the_generator_runs(self, ring5_ising_game):
        # an int seed is bit for bit the former rng=np.random.default_rng(seed)
        args = (ring5_ising_game, 1.0, (0,) * 5, (1,) * 5, 400)
        estimate = estimate_mixing_time_coupling(*args, num_runs=24, seed=7)
        assert estimate_mixing_time_coupling(*args, num_runs=24, seed=7) == estimate
        coupled = LogitDynamics(ring5_ising_game, 1.0).grand_coupling(
            (0,) * 5, (1,) * 5, 400, num_runs=24, rng=np.random.default_rng(7)
        )
        assert estimate == coalescence_time_bound(coupled, epsilon=0.25)

    def test_seed_sequence_is_a_seed(self, ring5_ising_game):
        args = (ring5_ising_game, 1.0, (0,) * 5, (1,) * 5, 400)
        assert estimate_mixing_time_coupling(
            *args, num_runs=24, seed=np.random.SeedSequence(7)
        ) == estimate_mixing_time_coupling(*args, num_runs=24, seed=7)

    def test_rng_is_not_a_knob(self, ring5_ising_game):
        with pytest.raises(TypeError, match="rng"):
            estimate_mixing_time_coupling(
                ring5_ising_game, 1.0, (0,) * 5, (1,) * 5, 10,
                rng=np.random.default_rng(1),
            )

    def test_generator_seed_is_refused(self, ring5_ising_game):
        with pytest.raises(TypeError, match="Generator"):
            estimate_mixing_time_coupling(
                ring5_ising_game, 1.0, (0,) * 5, (1,) * 5, 10,
                seed=np.random.default_rng(1),
            )
