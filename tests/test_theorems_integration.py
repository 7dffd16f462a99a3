"""Integration tests: every theorem's bound checked against exact measurements.

These are small-instance versions of the benchmark harness: for each of the
paper's results we build the relevant game, measure the exact mixing or
relaxation time of the logit chain, and assert that the paper's bound holds
(upper bounds dominate the measurement, lower bounds are dominated by it).
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import (
    LogitDynamics,
    lemma32_relaxation_upper,
    lemma33_relaxation_upper,
    lemma37_relaxation_upper,
    measure_mixing_time,
    measure_relaxation_time,
    measure_spectral_summary,
    theorem34_mixing_upper,
    theorem36_beta_threshold,
    theorem36_mixing_upper,
    theorem38_mixing_upper,
    theorem42_mixing_upper,
    theorem51_mixing_upper,
    theorem56_ring_mixing_upper,
    theorem57_ring_mixing_lower,
)
from repro.games import (
    AnonymousDominantGame,
    CoordinationParams,
    GraphicalCoordinationGame,
    Theorem35Game,
    TwoWellGame,
    random_dominant_game,
    random_game,
)
from repro.games.potential import ExplicitPotentialGame
from repro.graphs.cutwidth import cutwidth_exact
from repro.markov.bottleneck import mixing_time_lower_bound

from conftest import potential_from_game


class TestTheorem31Spectrum:
    """Theorem 3.1: the logit chain of a potential game has no negative eigenvalues."""

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 10.0])
    def test_random_potential_games(self, beta):
        rng = np.random.default_rng(int(beta * 10) + 1)
        phi = rng.normal(size=16)
        game = ExplicitPotentialGame.from_potential((2, 2, 2, 2), phi)
        summary = measure_spectral_summary(game, beta)
        assert summary.lambda_min >= -1e-9
        assert summary.relaxation_time == pytest.approx(
            1.0 / (1.0 - summary.lambda_2), rel=1e-9
        )

    def test_nonpotential_game_may_fail_hypothesis(self):
        """Sanity: the statement is specific to potential games — a generic
        game's logit chain need not even be reversible, so we only check that
        the potential-game guarantee is not vacuous (chain differs)."""
        game = random_game((2, 2, 2), rng=np.random.default_rng(9))
        assert potential_from_game(game) is None


class TestLemma32BetaZero:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2), (2, 3, 2)])
    def test_relaxation_at_most_n(self, shape):
        game = random_game(shape, rng=np.random.default_rng(sum(shape)))
        # at beta = 0 the chain does not depend on utilities at all
        t_rel = measure_relaxation_time(game, beta=0.0)
        assert t_rel <= lemma32_relaxation_upper(len(shape)) + 1e-9


class TestTheorem34PotentialUpper:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
    def test_two_well_respects_bound(self, beta):
        game = TwoWellGame(num_players=4, barrier=1.0)
        measured = measure_mixing_time(game, beta).mixing_time
        bound = theorem34_mixing_upper(4, 2, beta, game.max_global_variation())
        assert measured <= bound

    @pytest.mark.parametrize("beta", [0.5, 1.5])
    def test_lemma33_relaxation_bound(self, beta):
        game = TwoWellGame(num_players=4, barrier=1.0)
        t_rel = measure_relaxation_time(game, beta)
        assert t_rel <= lemma33_relaxation_upper(4, 2, beta, game.max_global_variation())

    def test_clique_coordination_respects_bound(self):
        game = GraphicalCoordinationGame(
            nx.complete_graph(4), CoordinationParams.from_deltas(1.0, 0.5)
        )
        beta = 1.0
        measured = measure_mixing_time(game, beta).mixing_time
        bound = theorem34_mixing_upper(4, 2, beta, game.max_global_variation())
        assert measured <= bound


class TestTheorem35LowerBound:
    def test_bottleneck_lower_bound_below_measured(self):
        game = Theorem35Game(num_players=6, global_variation=2.0, local_variation=1.0)
        beta = 2.0
        chain = LogitDynamics(game, beta).markov_chain()
        R = game.bottleneck_set()
        lower = mixing_time_lower_bound(chain, R, epsilon=0.25)
        measured = measure_mixing_time(game, beta).mixing_time
        assert lower <= measured

    def test_mixing_grows_with_beta(self):
        game = Theorem35Game(num_players=6, global_variation=2.0, local_variation=1.0)
        t1 = measure_mixing_time(game, 1.0).mixing_time
        t2 = measure_mixing_time(game, 2.5).mixing_time
        assert t2 > t1


class TestTheorem36SmallBeta:
    def test_nlogn_mixing_below_threshold(self):
        game = GraphicalCoordinationGame(
            nx.cycle_graph(6), CoordinationParams.ising(1.0)
        )
        delta_local = game.max_local_variation()
        beta = theorem36_beta_threshold(6, delta_local, c=0.5)
        measured = measure_mixing_time(game, beta).mixing_time
        assert measured <= theorem36_mixing_upper(6, c=0.5)

    def test_bound_also_holds_at_beta_zero(self):
        game = TwoWellGame(num_players=5, barrier=1.0)
        measured = measure_mixing_time(game, 0.0).mixing_time
        assert measured <= theorem36_mixing_upper(5, c=0.5)


class TestTheorem38And39Zeta:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_upper_bound_with_zeta(self, beta):
        game = TwoWellGame(num_players=4, barrier=1.5, depth_ratio=0.5)
        zeta = game.zeta()
        measured = measure_mixing_time(game, beta).mixing_time
        bound = theorem38_mixing_upper(4, 2, beta, zeta, game.max_global_variation())
        assert measured <= bound

    def test_lemma37_relaxation_bound(self):
        game = TwoWellGame(num_players=4, barrier=1.5, depth_ratio=0.5)
        beta = 1.0
        t_rel = measure_relaxation_time(game, beta)
        assert t_rel <= lemma37_relaxation_upper(4, 2, beta, game.zeta())

    def test_growth_rate_tracks_zeta_not_delta_phi(self):
        """For an asymmetric two-well game with zeta < DeltaPhi, the mixing
        time's exponential growth rate in beta stays near zeta."""
        from repro.analysis import exponential_growth_rate

        game = TwoWellGame(num_players=4, barrier=2.0, depth_ratio=0.5)
        zeta = game.zeta()  # = 1.0
        delta_phi = game.max_global_variation()  # = 2.0
        betas = np.array([2.0, 2.5, 3.0, 3.5])
        times = np.array(
            [measure_mixing_time(game, float(b)).mixing_time for b in betas], dtype=float
        )
        rate = exponential_growth_rate(betas, times)
        assert abs(rate - zeta) < abs(rate - delta_phi)


class TestTheorem42DominantStrategies:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 5.0, 50.0])
    def test_bound_independent_of_beta(self, beta):
        game = AnonymousDominantGame(3, 2)
        measured = measure_mixing_time(game, beta).mixing_time
        assert measured <= theorem42_mixing_upper(3, 2)

    def test_mixing_time_saturates_in_beta(self):
        """Unlike potential barriers, a dominant profile caps the mixing time:
        it stops growing once beta is large."""
        game = AnonymousDominantGame(3, 2)
        t_moderate = measure_mixing_time(game, 5.0).mixing_time
        t_huge = measure_mixing_time(game, 100.0).mixing_time
        assert t_huge <= 2 * t_moderate

    def test_random_dominant_games_respect_bound(self):
        for seed in range(3):
            game = random_dominant_game((2, 2, 2), rng=np.random.default_rng(seed))
            measured = measure_mixing_time(game, 10.0).mixing_time
            assert measured <= theorem42_mixing_upper(3, 2)


class TestTheorem43DominantLower:
    @pytest.mark.parametrize("n,m", [(3, 2), (2, 3)])
    def test_lower_bound_holds_for_large_beta(self, n, m):
        game = AnonymousDominantGame(n, m)
        beta = 3.0 * np.log(m**n)  # comfortably above log(m^n - 1)
        measured = measure_mixing_time(game, beta).mixing_time
        assert measured >= game.mixing_time_lower_bound()

    def test_bottleneck_certificate(self):
        game = AnonymousDominantGame(3, 2)
        beta = 10.0
        chain = LogitDynamics(game, beta).markov_chain()
        zero = game.space.encode((0, 0, 0))
        R = [x for x in range(game.space.size) if x != zero]
        lower = mixing_time_lower_bound(chain, R, epsilon=0.25)
        measured = measure_mixing_time(game, beta).mixing_time
        assert lower <= measured


class TestTheorem51Cutwidth:
    @pytest.mark.parametrize(
        "graph_builder",
        [
            lambda: nx.path_graph(4),
            lambda: nx.cycle_graph(4),
            lambda: nx.star_graph(3),
            lambda: nx.complete_graph(4),
        ],
    )
    def test_bound_holds_on_standard_topologies(self, graph_builder):
        graph = graph_builder()
        params = CoordinationParams.from_deltas(1.0, 0.5)
        game = GraphicalCoordinationGame(graph, params)
        beta = 0.8
        measured = measure_mixing_time(game, beta).mixing_time
        chi = cutwidth_exact(graph)
        bound = theorem51_mixing_upper(
            game.num_players, beta, params.delta0, params.delta1, chi
        )
        assert measured <= bound


class TestTheorems56And57Ring:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_ring_sandwich(self, beta):
        n, delta = 6, 1.0
        game = GraphicalCoordinationGame(nx.cycle_graph(n), CoordinationParams.ising(delta))
        measured = measure_mixing_time(game, beta).mixing_time
        upper = theorem56_ring_mixing_upper(n, beta, delta)
        lower = theorem57_ring_mixing_lower(beta, delta)
        assert measured <= upper
        assert measured >= lower * 0.99  # allow tiny rounding at beta = 0

    def test_ring_bottleneck_set_certificate(self):
        n, delta, beta = 5, 1.0, 1.5
        game = GraphicalCoordinationGame(nx.cycle_graph(n), CoordinationParams.ising(delta))
        chain = LogitDynamics(game, beta).markov_chain()
        all1 = game.space.encode((1,) * n)
        lower = mixing_time_lower_bound(chain, [all1], epsilon=0.25)
        measured = measure_mixing_time(game, beta).mixing_time
        assert lower <= measured
        # the paper's closed form for B({1}) gives the same order
        assert lower == pytest.approx(
            0.5 * (1 - 0.5) * (1 + np.exp(2 * delta * beta)) / 1.0, rel=0.35
        )
