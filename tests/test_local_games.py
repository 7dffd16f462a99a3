"""Tests for local-interaction games (repro.games.local).

The load-bearing contract is *agreement with the dense constructions*: on
small graphs :class:`GraphicalCoordinationGame`, a local-interaction game,
must reproduce the tabulated coordination game (``conftest``'s
``dense_coordination_game``) bit for bit — utilities, potential, logit
chain and its stationary law — and :class:`IsingGame` the Ising
Hamiltonian, while computing everything from neighbor strategies only,
which is then exercised far past the int64 profile-index ceiling.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import LogitDynamics
from repro.core.variants import BestResponseDynamics, ParallelLogitDynamics
from repro.games import (
    CoordinationParams,
    FiniteOpinionGame,
    GraphicalCoordinationGame,
    IsingGame,
    LocalInteractionGame,
    TwoPlayerCoordinationGame,
    derive_edge_potential,
)
from repro.games.ising import spins_from_profile

from conftest import dense_coordination_game, ising_hamiltonian


class TestAgainstDenseConstructions:
    @pytest.mark.parametrize(
        "params",
        [
            CoordinationParams.from_deltas(2.0, 1.0),
            CoordinationParams(a=0.3, b=0.7, c=0.1, d=0.2),  # non-dyadic
        ],
        ids=["dyadic", "non-dyadic"],
    )
    @pytest.mark.parametrize(
        "graph",
        [
            nx.cycle_graph(5),
            nx.path_graph(4),
            nx.complete_graph(4),
            nx.complete_graph(6),
            nx.complete_graph(9),  # 36 edges, degree 8
            nx.star_graph(9),
        ],
        ids=["ring5", "path4", "K4", "K6", "K9", "star9"],
    )
    def test_matches_graphical_coordination_game(self, graph, params):
        dense = dense_coordination_game(graph, params)
        local = GraphicalCoordinationGame(graph, params)
        for player in range(dense.num_players):
            np.testing.assert_array_equal(
                local.utility_matrix(player), dense.utility_matrix(player)
            )
        np.testing.assert_array_equal(
            local.potential_vector(), dense.potential_vector()
        )
        np.testing.assert_array_equal(
            LogitDynamics(local, 0.8).transition_matrix(),
            LogitDynamics(dense, 0.8).transition_matrix(),
        )
        np.testing.assert_array_equal(
            LogitDynamics(local, 0.8).stationary_distribution(),
            LogitDynamics(dense, 0.8).stationary_distribution(),
        )

    def test_two_player_game_is_the_one_edge_case(self):
        params = CoordinationParams(a=0.3, b=0.7, c=0.1, d=0.2)
        game = TwoPlayerCoordinationGame(params)
        dense = dense_coordination_game(nx.path_graph(2), params)
        for player in range(2):
            np.testing.assert_array_equal(
                game.utility_matrix(player), dense.utility_matrix(player)
            )
        np.testing.assert_array_equal(game.potential_vector(), dense.potential_vector())
        for dynamics in (
            lambda g: LogitDynamics(g, 0.8),
            lambda g: ParallelLogitDynamics(g, 0.8),
            BestResponseDynamics,
        ):
            np.testing.assert_array_equal(
                dynamics(game).transition_matrix(), dynamics(dense).transition_matrix()
            )

    def test_ising_potential_is_hamiltonian(self):
        graph = nx.cycle_graph(4)
        game = IsingGame(graph, coupling=1.3, field=0.4)
        for x in range(game.space.size):
            spins = spins_from_profile(np.asarray(game.space.decode(x)))
            assert game.potential(x) == pytest.approx(
                ising_hamiltonian(graph, spins, coupling=1.3, field=0.4)
            )

    def test_verify_potential_on_small_graphs(self):
        params = CoordinationParams(a=3.0, b=2.0, c=0.5, d=1.0)
        game = GraphicalCoordinationGame(nx.cycle_graph(4), params)
        assert game.verify_potential()

    def test_derived_potential_defines_same_gibbs_as_explicit(self):
        # auto-derived edge potentials differ from the coordination ones by
        # an additive constant per edge — same Gibbs measure, same dynamics
        from repro.core import gibbs_measure

        params = CoordinationParams.from_deltas(1.5, 1.0)
        payoff = np.array([[params.a, params.c], [params.d, params.b]])
        derived = LocalInteractionGame(nx.cycle_graph(4), payoff)
        explicit = GraphicalCoordinationGame(nx.cycle_graph(4), params)
        np.testing.assert_allclose(
            gibbs_measure(derived.potential_vector(), 0.7),
            gibbs_measure(explicit.potential_vector(), 0.7),
            atol=1e-12,
        )


class TestUtilityPaths:
    """All utility entry points must agree with each other."""

    @pytest.fixture
    def game(self):
        return IsingGame(nx.random_regular_graph(3, 8, seed=1), coupling=1.0, field=0.3)

    def test_deviations_scalar_vs_profiles_vs_many(self, game, rng):
        idx = rng.integers(0, game.space.size, size=13)
        profiles = game.space.decode_many(idx)
        for player in range(game.num_players):
            batched = game.utility_deviations_many(player, idx)
            rows = game.utility_deviations_profiles(player, profiles)
            np.testing.assert_array_equal(batched, rows)
            for j, x in enumerate(idx):
                np.testing.assert_array_equal(
                    game.utility_deviations(player, int(x)), batched[j]
                )

    def test_rowwise_matches_per_player_rows(self, game, rng):
        # the 3-regular +-1 game cannot show summation order; the hub's 11
        # random edge payoffs can, past numpy's pairwise threshold (8 slots)
        hub = LocalInteractionGame(
            nx.star_graph(11),
            {edge: rng.normal(size=(2, 2)) for edge in nx.star_graph(11).edges()},
            external_field=rng.normal(size=(12, 2)),
        )
        for g in (game, hub):
            for k in (1, 2, 17):
                for _ in range(5):
                    profiles = g.space.decode_many(
                        rng.integers(0, g.space.size, size=k)
                    )
                    players = rng.integers(0, g.num_players, size=k)
                    players[0] = 0  # the hub moves in every batch
                    rowwise = g.utility_deviations_rowwise(players, profiles)
                    for j in range(k):
                        np.testing.assert_array_equal(
                            rowwise[j],
                            g.utility_deviations_profiles(
                                int(players[j]), profiles[j : j + 1]
                            )[0],
                        )

    def test_rowwise_reuses_scratch_allocation_free(self, game, rng):
        # perf regression guard: the padded-gather scratch is hoisted into
        # grow-only per-game buffers — a call with any batch size up to the
        # largest seen so far works in the same memory, with values
        # identical to a fresh per-player compute.  Callers consume the
        # result before the next call, so aliasing is part of the
        # documented contract.
        n, capacity = game.num_players, 17

        def fresh(players, profiles):
            return np.stack([
                game.utility_deviations_profiles(int(i), row[None, :])[0]
                for i, row in zip(players, profiles)
            ])

        players = rng.integers(0, n, size=capacity)
        profiles = game.space.decode_many(
            rng.integers(0, game.space.size, size=capacity)
        )
        first = game.utility_deviations_rowwise(players, profiles)
        np.testing.assert_array_equal(first, fresh(players, profiles))
        for k in (1, 5, 16, capacity):
            p = rng.integers(0, n, size=k)
            prof = game.space.decode_many(rng.integers(0, game.space.size, size=k))
            # int8 strategy rows (what MatrixState stores) use the same memory
            for dtype in (np.int64, np.int8):
                out = game.utility_deviations_rowwise(p, prof.astype(dtype))
                assert out.shape == (k, 2)
                assert np.shares_memory(out, first)  # reused, not reallocated
                np.testing.assert_array_equal(out, fresh(p, prof))
        # rows= reads each mover's row of a taller matrix, in the same memory
        rows = rng.integers(0, capacity, size=9)
        p = rng.integers(0, n, size=9)
        out = game.utility_deviations_rowwise(p, profiles.astype(np.int8), rows)
        assert np.shares_memory(out, first)
        np.testing.assert_array_equal(out, fresh(p, profiles[rows]))

    @pytest.mark.parametrize("graph", [nx.cycle_graph(5), nx.empty_graph(5)])
    @pytest.mark.parametrize("bad", [-1, -5, 5, 6])
    def test_rowwise_refuses_players_out_of_range(self, graph, bad):
        # regression: player -1 silently read player 4's row ([[2.0, -2.0]]
        # at the 5-ring's all-zeros profile) instead of raising
        game = IsingGame(graph, coupling=1.0)
        profiles = np.zeros((2, 5), dtype=np.int64)
        with pytest.raises(IndexError, match="players"):
            game.utility_deviations_rowwise(np.array([0, bad]), profiles)
        ok = game.utility_deviations_rowwise(np.array([0, 4]), profiles)
        np.testing.assert_array_equal(
            ok[1], game.utility_deviations_profiles(4, profiles[:1])[0]
        )

    @pytest.mark.parametrize("graph", [nx.cycle_graph(5), nx.empty_graph(5)])
    @pytest.mark.parametrize("bad", [-1, -3, 2, 7])
    def test_rowwise_refuses_rows_out_of_range(self, graph, bad):
        # regression: rows=[-1] silently read row 1 of a two-row matrix
        # instead of raising, and rows=[2] failed inside numpy's take
        game = IsingGame(graph, coupling=1.0)
        profiles = np.array([[0, 0, 0, 0, 0], [1, 1, 0, 0, 0]], dtype=np.int64)
        with pytest.raises(IndexError, match="rows must lie in"):
            game.utility_deviations_rowwise(
                np.array([0]), profiles, rows=np.array([bad])
            )
        ok = game.utility_deviations_rowwise(
            np.array([0]), profiles, rows=np.array([1])
        )
        np.testing.assert_array_equal(
            ok[0], game.utility_deviations_profiles(0, profiles[1:])[0]
        )

    def test_utility_profile_many_matches_scalar(self, game, rng):
        idx = rng.integers(0, game.space.size, size=9)
        bulk = game.utility_profile_many(idx)
        for j, x in enumerate(idx):
            for player in range(game.num_players):
                assert bulk[j, player] == pytest.approx(
                    game.utility(player, int(x))
                )

    def test_index_free_paths_at_large_n(self):
        # 200 players: no profile index fits; everything must still work
        game = IsingGame(nx.cycle_graph(200), coupling=1.0)
        prof = np.zeros((3, 200), dtype=np.int64)
        prof[1, ::2] = 1
        prof[2, :] = 1
        devs = game.utility_deviations_profiles(0, prof)
        assert devs.shape == (3, 2)
        # all-down consensus: playing 0 (spin -1) agrees with both neighbors
        assert devs[0, 0] == pytest.approx(2.0)
        assert devs[0, 1] == pytest.approx(-2.0)
        phi = game.potential_of_profiles(prof)
        assert phi[0] == pytest.approx(-200.0)  # ring: n agreeing edges
        assert phi[2] == pytest.approx(-200.0)
        assert phi[1] == pytest.approx(200.0)  # alternating: all disagree
        np.testing.assert_allclose(
            game.magnetization_of_profiles(prof), [-1.0, 0.0, 1.0]
        )
        # scalar index accessors use exact Python ints past int64
        top = game.space.size - 1
        assert game.potential(top) == pytest.approx(-200.0)
        assert game.utility(0, top) == pytest.approx(2.0)


class TestEdgeSpecifications:
    def test_per_edge_mapping_payoffs(self):
        # a two-edge path with different couplings per edge
        g = nx.path_graph(3)
        spins = np.array([-1.0, 1.0])
        mats = {
            (0, 1): 1.0 * np.outer(spins, spins),
            (2, 1): 3.0 * np.outer(spins, spins),  # reversed orientation key
        }
        game = LocalInteractionGame(g, mats)
        # middle player deviations at all-down: agreeing with both earns J1+J2
        devs = game.utility_deviations_profiles(1, np.zeros((1, 3), dtype=int))
        assert devs[0, 0] == pytest.approx(4.0)
        assert devs[0, 1] == pytest.approx(-4.0)
        # endpoint 2 only sees its own edge
        devs2 = game.utility_deviations_profiles(2, np.zeros((1, 3), dtype=int))
        assert devs2[0, 0] == pytest.approx(3.0)

    def test_missing_edge_in_mapping_raises(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError, match="missing edge"):
            LocalInteractionGame(g, {(0, 1): np.zeros((2, 2))})

    def test_shape_and_finiteness_validation(self):
        g = nx.path_graph(2)
        with pytest.raises(ValueError, match="shape"):
            LocalInteractionGame(g, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="finite"):
            LocalInteractionGame(g, np.full((2, 2), np.inf))
        with pytest.raises(ValueError, match="strategies"):
            LocalInteractionGame(g, np.zeros((1, 1)), num_strategies=1)
        with pytest.raises(ValueError, match="node"):
            LocalInteractionGame(nx.Graph(), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda g: IsingGame(g, coupling=1.0),
            lambda g: GraphicalCoordinationGame(g, CoordinationParams.from_deltas(2.0, 1.0)),
            lambda g: FiniteOpinionGame(g, [0.2, 0.5, 0.8]),
        ],
        ids=["ising", "coordination", "opinion"],
    )
    def test_self_loop_is_refused(self, build):
        # a loop would count twice in its node's utility but once in the
        # potential: no Equation (1), so the Gibbs law would be false
        graph = nx.path_graph(3)
        graph.add_edge(1, 1)
        with pytest.raises(ValueError, match="node 1 has a self-loop"):
            build(graph)

    def test_external_field_shapes(self):
        g = nx.path_graph(3)
        M = np.outer([-1.0, 1.0], [-1.0, 1.0])
        shared = LocalInteractionGame(g, M, external_field=np.array([0.0, 1.0]))
        per_player = LocalInteractionGame(
            g, M, external_field=np.tile([0.0, 1.0], (3, 1))
        )
        for player in range(3):
            np.testing.assert_allclose(
                shared.utility_matrix(player), per_player.utility_matrix(player)
            )
        with pytest.raises(ValueError, match="external_field"):
            LocalInteractionGame(g, M, external_field=np.zeros((4, 2)))

    def test_inconsistent_explicit_potential_rejected(self):
        g = nx.path_graph(2)
        M = np.outer([-1.0, 1.0], [-1.0, 1.0])
        with pytest.raises(ValueError, match="Equation"):
            LocalInteractionGame(g, M, edge_potentials=np.array([[0.0, 5.0], [1.0, 0.0]]))


class TestNonPotentialGames:
    #: symmetric-role rock-paper-scissors: cyclic best responses, no potential
    RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])

    def test_every_symmetric_role_2x2_game_has_a_potential(self, rng):
        # classical fact the derivation must reproduce: with two strategies
        # the symmetric-role edge game always admits an exact potential
        for _ in range(20):
            M = rng.normal(size=(2, 2))
            assert derive_edge_potential(M) is not None

    def test_non_potential_payoffs_have_no_potential(self):
        game = LocalInteractionGame(
            nx.path_graph(2), self.RPS, num_strategies=3
        )
        with pytest.raises(ValueError, match="potential"):
            game.potential_vector()
        with pytest.raises(ValueError, match="potential"):
            game.potential_of_profiles(np.zeros((1, 2), dtype=int))
        # utilities and the engine still work — only potential accessors go
        dynamics = LogitDynamics(game, 1.0)
        sim = dynamics.ensemble(4, rng=np.random.default_rng(0))
        sim.run(50)

    def test_derive_edge_potential_roundtrip(self):
        params = CoordinationParams(a=2.0, b=1.5, c=0.25, d=0.5)
        M = np.array([[params.a, params.c], [params.d, params.b]])
        P = derive_edge_potential(M)
        assert P is not None
        assert P[0, 0] == pytest.approx(0.0)
        np.testing.assert_allclose(P, P.T)
        # Equation (1): deviating from b to a changes utility by the
        # opposite of the potential change
        for t in range(2):
            assert M[0, t] - M[1, t] == pytest.approx(P[1, t] - P[0, t])

    def test_genuinely_non_potential_matrix(self):
        assert derive_edge_potential(self.RPS) is None


class TestEngineIntegration:
    def test_edgeless_graph_runs_on_both_backends(self):
        # regression: the row-wise fast path indexed an empty edge stack on
        # graphs with no edges and crashed with an IndexError
        game = LocalInteractionGame(
            nx.empty_graph(4),
            np.outer([-1.0, 1.0], [-1.0, 1.0]),
            external_field=np.array([0.0, 1.0]),
        )
        dynamics = LogitDynamics(game, 1.0)
        runs = {}
        for state in ("index", "matrix"):
            sim = dynamics.ensemble(6, rng=np.random.default_rng(0), state=state)
            runs[state] = sim.run(80, record_every=1)
        np.testing.assert_array_equal(runs["index"], runs["matrix"])

    def test_predicate_well_rejects_start_distribution(self):
        from repro.core import empirical_escape_times

        game = IsingGame(nx.cycle_graph(5), coupling=1.0)
        with pytest.raises(ValueError, match="start_profiles"):
            empirical_escape_times(
                game,
                0.5,
                lambda prof: prof.min(axis=1) == 0,
                num_replicas=4,
                start_profiles=np.zeros(5, dtype=np.int64),
                start_distribution=np.ones(3),
            )

    def test_neighbors_of_matches_graph(self):
        game = IsingGame(nx.random_regular_graph(3, 8, seed=2), coupling=1.0)
        offsets, neighbors = game.csr_arrays()[:2]
        for u in range(8):
            mine = neighbors[offsets[u]:offsets[u + 1]]
            assert sorted(mine.tolist()) == sorted(game.graph.neighbors(u))

    def test_small_local_game_whole_pipeline(self):
        """Dense pipeline agreement: Gibbs stationarity of the logit chain."""
        game = GraphicalCoordinationGame(
            nx.cycle_graph(4), CoordinationParams.ising(1.0)
        )
        from repro.core import gibbs_measure

        dynamics = LogitDynamics(game, 0.9)
        pi = gibbs_measure(game.potential_vector(), 0.9)
        P = dynamics.transition_matrix()
        np.testing.assert_allclose(pi @ P, pi, atol=1e-12)

    def test_coordination_game_runs_far_past_the_dense_cap(self):
        # 2^2000 profiles: the game never tabulates, and its levelled
        # matrix-state run is the J = 1 Ising ring's, delta = 2J
        graph = nx.cycle_graph(2000)
        coordination = GraphicalCoordinationGame(graph, CoordinationParams.ising(2.0))
        start = np.random.default_rng(4).integers(0, 2, size=2000)
        resolved = LogitDynamics(coordination, 1.0).ensemble(32, start)
        assert resolved.state.kind == "matrix" and resolved._levelled
        runs = []
        for game in (coordination, IsingGame(graph, coupling=1.0)):
            sim = LogitDynamics(game, 1.0).ensemble(
                32, start, rng=np.random.default_rng(5), state="matrix"
            )
            sim.run(500)
            runs.append(sim.profiles)
        np.testing.assert_array_equal(runs[0], runs[1])
