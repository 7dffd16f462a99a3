"""Cross-validation grid for finite opinion games (repro.games.opinion).

Four layers of evidence that the opinion game drops correctly onto every
layer of the stack:

1. **exact potential** — ``derive_edge_potential`` recovers the arXiv
   1311.1610 per-edge potential from the disagreement payoffs exactly, the
   game potential matches an independent brute-force evaluation, and
   non-potential / inconsistent edge payoffs are rejected with clear
   errors;
2. **fixed-seed equality** — scalar ``simulate_loop`` vs the batched
   engine, bit-for-bit, for the sequential / parallel / concurrent
   kernels;
3. **matrix cross-validation** — engine ensemble occupation vs dense
   transition-matrix powers at small ``n``, for all three kernels, on
   *both* the IndexState and MatrixState backends;
4. **theory targets** — measured mixing / stationary social cost checked
   against the ``theorem1311_*`` bound callables at small ``n``, plus the
   content-addressed ``store_spec`` round-trip that makes scenario-matrix
   cells cache stably.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LogitDynamics, gibbs_measure
from repro.core.bounds import (
    lemma1311_social_cost_sandwich,
    theorem1311_mixing_upper,
    theorem1311_stability_upper,
    theorem1311_stationary_cost_upper,
)
from repro.core.mixing import measure_mixing_time
from repro.core.stationary import gibbs_expectation
from repro.core.variants import ConcurrentLogitDynamics, ParallelLogitDynamics
from repro.games import (
    FiniteOpinionGame,
    LocalInteractionGame,
    derive_edge_potential,
    opinion_edge_payoffs,
    opinion_edge_potential,
)
from repro.graphs import cutwidth_exact, path_graph, ring_graph, star_graph
from repro.markov.tv import total_variation
from repro.parallel.store import canonical_key, describe

BELIEFS4 = (0.1, 0.8, 0.35, 0.6)
BELIEFS3 = (0.2, 0.9, 0.5)


def ring_opinion_game(num_opinions: int = 2) -> FiniteOpinionGame:
    return FiniteOpinionGame(ring_graph(4), BELIEFS4, num_opinions=num_opinions)


def kernel_factories():
    """(name, factory) pairs for the three cross-validated kernels."""
    return [
        ("sequential", lambda g: LogitDynamics(g, 1.0)),
        ("parallel", lambda g: ParallelLogitDynamics(g, 1.0)),
        ("concurrent", lambda g: ConcurrentLogitDynamics(g, 1.0, p=0.6)),
    ]


class TestOpinionPotentialExact:
    """Layer 1: the 1311.1610 potential, recovered and verified exactly."""

    @pytest.mark.parametrize("num_opinions", [2, 3, 5])
    def test_derive_edge_potential_recovers_paper_potential(self, num_opinions):
        derived = derive_edge_potential(opinion_edge_payoffs(num_opinions))
        assert derived is not None
        expected = opinion_edge_potential(num_opinions)
        np.testing.assert_allclose(derived, expected, atol=1e-12)
        assert derived[0, 0] == 0.0  # the paper's normalisation survives

    @pytest.mark.parametrize("num_opinions", [2, 3])
    def test_game_potential_matches_brute_force(self, num_opinions):
        graph = ring_graph(4)
        game = FiniteOpinionGame(graph, BELIEFS4, num_opinions=num_opinions)
        opinions = np.linspace(0.0, 1.0, num_opinions)
        beliefs = np.asarray(BELIEFS4)
        profiles = game.space.all_profiles()
        x = opinions[profiles]
        expected = ((x - beliefs[None, :]) ** 2).sum(axis=1)
        for u, v in graph.edges():
            expected += (x[:, u] - x[:, v]) ** 2
        np.testing.assert_allclose(
            game.potential_of_profiles(profiles), expected, atol=1e-12
        )

    def test_social_cost_decomposition(self):
        game = ring_opinion_game(3)
        profiles = game.space.all_profiles()
        sc = game.social_cost_of_profiles(profiles)
        # SC = 2 * disagreement + belief cost, and also Phi + disagreement
        np.testing.assert_allclose(
            sc,
            2.0 * game.disagreement_of_profiles(profiles)
            + game.belief_cost_of_profiles(profiles),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            sc,
            game.potential_of_profiles(profiles)
            + game.disagreement_of_profiles(profiles),
            atol=1e-12,
        )
        # social cost is minus the utilitarian welfare the sweeps report
        welfare = game.utility_profile_many(np.arange(game.space.size)).sum(axis=1)
        np.testing.assert_allclose(sc, -welfare, atol=1e-12)

    def test_gibbs_is_stationary_for_the_sequential_chain(self):
        game = ring_opinion_game(2)
        beta = 1.3
        pi = gibbs_measure(game.potential_vector(), beta)
        P = LogitDynamics(game, beta).transition_matrix()
        np.testing.assert_allclose(pi @ P, pi, atol=1e-12)

    def test_non_potential_edge_payoffs_rejected(self):
        # this asymmetric 3x3 matrix has no exact potential (Equation (1)
        # is unsolvable on the edge) — derivation must refuse, and a game
        # built on it must raise a clear error when the potential is needed
        bad = np.array([[0.0, 2.0, 1.0], [0.0, 0.0, 3.0], [5.0, 0.0, 0.0]])
        assert derive_edge_potential(bad) is None
        game = LocalInteractionGame(path_graph(3), bad, num_strategies=3)
        with pytest.raises(ValueError, match="not a potential game"):
            game.potential_of_profiles(np.zeros((1, 3), dtype=np.int64))

    def test_inconsistent_explicit_potentials_rejected(self):
        with pytest.raises(ValueError, match=r"Equation \(1\)"):
            LocalInteractionGame(
                path_graph(3),
                opinion_edge_payoffs(2),
                edge_potentials=np.array([[0.0, 5.0], [5.0, 0.0]]),
            )

    def test_beliefs_validated(self):
        with pytest.raises(ValueError, match="shape"):
            FiniteOpinionGame(ring_graph(4), [0.5, 0.5])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FiniteOpinionGame(ring_graph(4), [0.5, 0.5, 1.5, 0.0])
        with pytest.raises(ValueError, match="two opinions"):
            FiniteOpinionGame(ring_graph(4), BELIEFS4, num_opinions=1)


class TestStoreSpecRoundTrip:
    """The content identity that makes scenario-matrix cells cache stably."""

    def test_identical_games_share_a_canonical_key(self):
        a = FiniteOpinionGame(ring_graph(4), BELIEFS4, num_opinions=3)
        b = FiniteOpinionGame(ring_graph(4), list(BELIEFS4), num_opinions=3)
        assert canonical_key(describe(a)) == canonical_key(describe(b))

    def test_key_tracks_every_content_axis(self):
        base = FiniteOpinionGame(ring_graph(4), BELIEFS4, num_opinions=2)
        keys = {
            canonical_key(describe(base)),
            # different beliefs
            canonical_key(
                describe(FiniteOpinionGame(ring_graph(4), (0.1, 0.8, 0.35, 0.61)))
            ),
            # different discretisation
            canonical_key(
                describe(FiniteOpinionGame(ring_graph(4), BELIEFS4, num_opinions=3))
            ),
            # different social graph
            canonical_key(describe(FiniteOpinionGame(star_graph(4), BELIEFS4))),
        }
        assert len(keys) == 4

    def test_spec_is_self_describing(self):
        game = ring_opinion_game(3)
        spec = game.store_spec()
        assert spec["class"] == "FiniteOpinionGame"
        assert spec["num_opinions"] == 3
        np.testing.assert_allclose(spec["beliefs"], BELIEFS4)
        # round-trips through describe/canonical_key without error and
        # deterministically
        assert canonical_key(describe(game)) == canonical_key(describe(game))


class TestFixedSeedLoopVsEngine:
    """Layer 2: scalar reference loop vs batched engine, bit-for-bit."""

    @pytest.mark.parametrize("kernel_name,factory", kernel_factories())
    @pytest.mark.parametrize("num_opinions", [2, 3])
    def test_engine_matches_loop(self, kernel_name, factory, num_opinions):
        game = FiniteOpinionGame(path_graph(3), BELIEFS3, num_opinions=num_opinions)
        dynamics = factory(game)
        start = (0,) * game.num_players
        loop = dynamics.simulate_loop(start, 200, rng=np.random.default_rng(42))
        engine = dynamics.simulate(start, 200, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(loop, engine)


class TestEnsembleMatchesMatrixPowers:
    """Layer 3: engine occupation vs transition-matrix powers, both states."""

    @staticmethod
    def _empirical_after(dynamics, start_index, num_steps, state, seed):
        sim = dynamics.ensemble(
            6000, start=int(start_index), rng=np.random.default_rng(seed), state=state
        )
        sim.run(num_steps)
        return sim.empirical_distribution()

    @staticmethod
    def _matrix_power_distribution(P, start_index, num_steps):
        mu = np.zeros(P.shape[0])
        mu[start_index] = 1.0
        for _ in range(num_steps):
            mu = mu @ P
        return mu

    @pytest.mark.slow
    @pytest.mark.parametrize("state", ["index", "matrix"])
    @pytest.mark.parametrize("kernel_name,factory", kernel_factories())
    def test_kernel_occupation_matches_matrix_power(self, state, kernel_name, factory):
        game = ring_opinion_game(2)
        dynamics = factory(game)
        steps = 6
        emp = self._empirical_after(dynamics, 0, steps, state, seed=11)
        exact = self._matrix_power_distribution(
            dynamics.transition_matrix(), 0, steps
        )
        assert total_variation(emp, exact) < 0.03

    @pytest.mark.slow
    def test_index_and_matrix_states_agree_bit_for_bit(self):
        game = FiniteOpinionGame(path_graph(3), BELIEFS3, num_opinions=3)
        for _, factory in kernel_factories():
            dynamics = factory(game)
            runs = {}
            for state in ("index", "matrix"):
                sim = dynamics.ensemble(
                    32, start=(0,) * 3, rng=np.random.default_rng(5), state=state
                )
                runs[state] = sim.run(120, record_every=1)
            np.testing.assert_array_equal(runs["index"], runs["matrix"])


class TestTheoryTargetsAtSmallN:
    """Layer 4: measured quantities vs the theorem1311_* callables."""

    def test_sandwich_holds_pointwise_on_the_whole_space(self):
        game = ring_opinion_game(3)
        phi = game.potential_vector()
        sc = game.social_cost_vector()
        for phi_x, sc_x in zip(phi, sc):
            lower, upper = lemma1311_social_cost_sandwich(phi_x)
            assert lower - 1e-12 <= sc_x <= upper + 1e-12

    def test_measured_mixing_below_cutwidth_bound(self):
        game = ring_opinion_game(2)
        beta = 1.0
        measured = measure_mixing_time(game, beta, epsilon=0.25, max_time=10**5)
        bound = theorem1311_mixing_upper(
            game.num_players, beta, cutwidth_exact(ring_graph(4))
        )
        assert measured.mixing_time <= bound

    def test_potential_minimiser_certifies_the_stability_bound(self):
        game = ring_opinion_game(3)
        # the potential minimiser is a pure Nash; its social cost must obey
        # SC(x*) <= 2 SC(opt) — the price-of-stability factor
        x_star = int(np.argmin(game.potential_vector()))
        opt = game.optimal_social_cost()
        assert game.social_cost(x_star) <= theorem1311_stability_upper(opt) + 1e-12

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
    def test_exact_stationary_cost_below_bound(self, beta):
        game = ring_opinion_game(2)
        expected_cost = gibbs_expectation(
            game.potential_vector(), beta, game.social_cost_vector()
        )
        bound = theorem1311_stationary_cost_upper(
            game.optimal_social_cost(), beta, game.num_players, game.num_opinions
        )
        assert expected_cost <= bound

    @pytest.mark.slow
    def test_empirical_stationary_cost_below_bound(self):
        """An engine ensemble settled into stationarity respects the bound."""
        game = ring_opinion_game(2)
        beta = 2.0
        pi = gibbs_measure(game.potential_vector(), beta)
        rng = np.random.default_rng(17)
        starts = rng.choice(game.space.size, size=4000, p=pi)
        sim = LogitDynamics(game, beta).ensemble(4000, start_indices=starts, rng=rng)
        sim.run(60)
        profiles = game.space.decode_many(sim.indices)
        mean_cost = float(game.social_cost_of_profiles(profiles).mean())
        bound = theorem1311_stationary_cost_upper(
            game.optimal_social_cost(), beta, game.num_players, game.num_opinions
        )
        # statistical slack on top of the exact-expectation guarantee
        assert mean_cost <= bound * 1.05

    def test_consensus_indices_decode_to_consensus(self):
        game = ring_opinion_game(3)
        for s in range(3):
            profile = game.space.decode(game.consensus_index(s))
            assert set(profile) == {s}
        with pytest.raises(ValueError, match="opinion"):
            game.consensus_index(3)
