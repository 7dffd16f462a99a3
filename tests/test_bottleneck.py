"""Tests for bottleneck-ratio lower bounds (repro.markov.bottleneck)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LogitDynamics, measure_mixing_time
from repro.games import Theorem35Game, TwoWellGame
from repro.markov.bottleneck import (
    best_sublevel_bottleneck,
    bottleneck_ratio,
    mixing_time_lower_bound,
)
from repro.markov.chain import MarkovChain


def two_state_chain(p: float = 0.3, q: float = 0.2) -> MarkovChain:
    return MarkovChain(np.array([[1 - p, p], [q, 1 - q]]))


class TestBottleneckRatio:
    def test_two_state_closed_form(self):
        p, q = 0.3, 0.2
        chain = two_state_chain(p, q)
        # R = {0}: B(R) = Q(0,1)/pi(0) = pi(0) p / pi(0) = p
        assert bottleneck_ratio(chain, [0]) == pytest.approx(p)
        assert bottleneck_ratio(chain, [1]) == pytest.approx(q)

    def test_whole_space_has_zero_escape(self):
        chain = two_state_chain()
        assert bottleneck_ratio(chain, [0, 1]) == pytest.approx(0.0)

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            bottleneck_ratio(two_state_chain(), [])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bottleneck_ratio(two_state_chain(), [5])


class TestTheorem27LowerBound:
    def test_lower_bound_below_true_mixing_time(self):
        p, q = 0.05, 0.05
        chain = two_state_chain(p, q)
        from repro.markov.mixing import mixing_time

        true_tmix = mixing_time(chain, epsilon=0.25).mixing_time
        bound = mixing_time_lower_bound(chain, [0], epsilon=0.25)
        assert bound <= true_tmix

    def test_requires_small_stationary_mass(self):
        chain = two_state_chain(0.1, 0.4)  # pi(0) = 0.8 > 1/2
        with pytest.raises(ValueError):
            mixing_time_lower_bound(chain, [0])

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            mixing_time_lower_bound(two_state_chain(), [0], epsilon=0.7)

    def test_two_well_game_lower_bound_is_valid(self):
        """The bottleneck bound around one well never exceeds the exact t_mix."""
        game = TwoWellGame(num_players=4, barrier=1.5)
        beta = 1.5
        chain = LogitDynamics(game, beta).markov_chain()
        all0, _ = game.well_indices
        lower = mixing_time_lower_bound(chain, [all0], epsilon=0.25)
        exact = measure_mixing_time(game, beta).mixing_time
        assert lower <= exact


class TestSublevelSearch:
    def test_finds_the_ridge_cut_for_theorem35(self):
        game = Theorem35Game(6, 2.0, 1.0)
        beta = 1.5
        chain = LogitDynamics(game, beta).markov_chain()
        w = game.space.weight(np.arange(game.space.size)).astype(float)
        result = best_sublevel_bottleneck(chain, w, epsilon=0.25)
        # the best cut is below the ridge weight c = 2: R = {w <= 1}
        assert np.max(w[result.states]) <= 1
        assert result.stationary_mass <= 0.5
        # it is a valid lower bound
        exact = measure_mixing_time(game, beta).mixing_time
        assert result.lower_bound <= exact

    def test_lower_bound_from_potential_ordering(self):
        game = TwoWellGame(num_players=4, barrier=2.0, depth_ratio=0.5)
        beta = 2.0
        chain = LogitDynamics(game, beta).markov_chain()
        # At this beta the deep well holds most of the mass, so the valid
        # bottleneck sets are the ones around the *shallow* well: order by
        # minus the Hamming weight so that sub-level sets grow from all-ones.
        w = game.space.weight(np.arange(game.space.size)).astype(float)
        result = best_sublevel_bottleneck(chain, -w)
        exact = measure_mixing_time(game, beta).mixing_time
        assert result.lower_bound <= exact

    def test_requires_nontrivial_ordering(self):
        chain = two_state_chain(0.1, 0.4)
        # constant ordering gives no cut with mass <= 1/2 on this asymmetric chain
        with pytest.raises(ValueError):
            best_sublevel_bottleneck(chain, np.zeros(2))

    def test_ordering_length_validation(self):
        with pytest.raises(ValueError):
            best_sublevel_bottleneck(two_state_chain(), np.zeros(3))
