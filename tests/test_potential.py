"""Tests for potential games and structural quantities (repro.games.potential)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.games.base import NormalFormGame, TableGame, random_game
from repro.games.potential import (
    ExplicitPotentialGame,
    local_variations,
    max_global_variation,
    max_local_variation,
    zeta_barrier,
)
from repro.games.space import ProfileSpace

from conftest import (
    minimax_barrier_matrix,
    potential_from_game,
    pure_nash_equilibria,
    zeta_barrier_bruteforce,
)


def coordination_2x2(delta0: float = 2.0, delta1: float = 1.0) -> NormalFormGame:
    row = np.array([[delta0, 0.0], [0.0, delta1]])
    return NormalFormGame(row, row.T)


class TestExplicitPotentialGame:
    def test_from_potential_verifies(self):
        phi = np.array([0.0, 1.0, 2.0, 0.5])
        game = ExplicitPotentialGame.from_potential((2, 2), phi)
        assert game.verify_potential()
        np.testing.assert_allclose(game.potential_vector(), phi)

    def test_from_potential_callable(self):
        game = ExplicitPotentialGame.from_potential((2, 2), lambda prof: float(sum(prof)))
        assert game.potential(game.space.encode((1, 1))) == 2.0

    def test_rejects_wrong_potential_length(self):
        with pytest.raises(ValueError):
            ExplicitPotentialGame((2, 2), np.zeros((2, 4)), np.zeros(5))

    def test_potential_minimizers(self):
        phi = np.array([3.0, 1.0, 1.0, 2.0])
        game = ExplicitPotentialGame.from_potential((2, 2), phi)
        potential = game.potential_vector()
        minimizers = np.flatnonzero(potential == potential.min())
        np.testing.assert_array_equal(minimizers, [1, 2])
        # every global minimiser of the potential is a pure Nash equilibrium
        assert set(minimizers.tolist()) <= set(pure_nash_equilibria(game))

    def test_verify_detects_inconsistency(self):
        # utilities that do NOT match the declared potential
        utilities = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0]])
        bad = ExplicitPotentialGame((2, 2), utilities, np.zeros(4))
        assert not bad.verify_potential()


class TestPotentialExtraction:
    def test_extracted_potential_satisfies_equation1(self):
        game = coordination_2x2(2.0, 1.0)
        phi = potential_from_game(game)
        assert phi is not None
        rebuilt = ExplicitPotentialGame(
            game.num_strategies,
            np.stack([game.utility_matrix(i) for i in range(2)]),
            phi,
        )
        assert rebuilt.verify_potential()

    def test_extracted_potential_differences(self):
        game = coordination_2x2(2.0, 1.0)
        phi = potential_from_game(game)
        space = game.space
        # Equation (1) on a specific deviation: player 0 moving 1 -> 0 while
        # the opponent plays 0 gains delta0 utility, so potential drops by delta0.
        x10 = space.encode((1, 0))
        x00 = space.encode((0, 0))
        assert phi[x10] - phi[x00] == pytest.approx(2.0)

    def test_random_game_usually_not_potential(self):
        game = random_game((2, 2, 2), rng=np.random.default_rng(3))
        assert potential_from_game(game) is None

    def test_identical_interest_game_is_potential(self):
        rng = np.random.default_rng(5)
        common = rng.uniform(size=8)
        utilities = np.tile(common, (3, 1))
        game = TableGame((2, 2, 2), utilities)
        phi = potential_from_game(game)
        assert phi is not None
        # the recovered potential equals -common up to an additive constant
        diff = phi + common
        np.testing.assert_allclose(diff, diff[0] * np.ones_like(diff), atol=1e-9)


class TestStructuralQuantities:
    def test_max_global_variation(self):
        assert max_global_variation(np.array([0.0, -2.0, 3.0])) == 5.0

    def test_max_local_variation_two_well(self):
        space = ProfileSpace((2, 2, 2))
        phi = np.full(space.size, 2.0)
        phi[0] = 0.0
        assert max_local_variation(phi, space) == 2.0

    def test_local_variations_edge_count(self):
        space = ProfileSpace((2, 2))
        phi = np.array([0.0, 1.0, 2.0, 3.0])
        assert local_variations(phi, space).shape == (4,)

    def test_constant_potential_zero_everything(self):
        space = ProfileSpace((2, 2, 2))
        phi = np.ones(space.size)
        assert max_global_variation(phi) == 0.0
        assert max_local_variation(phi, space) == 0.0
        assert zeta_barrier(phi, space) == 0.0


class TestZetaBarrier:
    def test_zeta_two_well_symmetric(self):
        # wells at 000 and 111 of equal depth, ridge at height 2
        space = ProfileSpace((2, 2, 2))
        phi = np.full(space.size, 2.0)
        phi[space.encode((0, 0, 0))] = 0.0
        phi[space.encode((1, 1, 1))] = 0.0
        assert zeta_barrier(phi, space) == pytest.approx(2.0)
        assert zeta_barrier_bruteforce(phi, space) == pytest.approx(2.0)

    def test_zeta_asymmetric_wells(self):
        # well depths 0 and 1, ridge 3: the barrier seen from the shallower
        # well is 3 - 1 = 2
        space = ProfileSpace((2, 2, 2))
        phi = np.full(space.size, 3.0)
        phi[space.encode((0, 0, 0))] = 0.0
        phi[space.encode((1, 1, 1))] = 1.0
        assert zeta_barrier(phi, space) == pytest.approx(2.0)

    def test_zeta_monotone_potential_is_zero(self):
        # potential = Hamming weight: every pair is joined by a monotone path
        space = ProfileSpace((2, 2, 2, 2))
        phi = space.weight(np.arange(space.size)).astype(float)
        assert zeta_barrier(phi, space) == pytest.approx(0.0)

    def test_zeta_matches_bruteforce_random(self):
        rng = np.random.default_rng(11)
        space = ProfileSpace((2, 2, 2))
        for _ in range(10):
            phi = rng.uniform(0.0, 5.0, size=space.size)
            assert zeta_barrier(phi, space) == pytest.approx(
                zeta_barrier_bruteforce(phi, space), abs=1e-12
            )

    def test_zeta_matches_bruteforce_mixed_radix(self):
        rng = np.random.default_rng(13)
        space = ProfileSpace((3, 2, 2))
        for _ in range(5):
            phi = rng.normal(size=space.size)
            assert zeta_barrier(phi, space) == pytest.approx(
                zeta_barrier_bruteforce(phi, space), abs=1e-12
            )

    def test_zeta_nonnegative(self):
        rng = np.random.default_rng(17)
        space = ProfileSpace((2, 3))
        for _ in range(20):
            phi = rng.normal(size=space.size)
            assert zeta_barrier(phi, space) >= 0.0

    def test_minimax_barrier_matrix_symmetric(self):
        rng = np.random.default_rng(23)
        space = ProfileSpace((2, 2, 2))
        phi = rng.uniform(size=space.size)
        M = minimax_barrier_matrix(phi, space)
        np.testing.assert_allclose(M, M.T)
        np.testing.assert_allclose(np.diag(M), phi)

    def test_zeta_at_most_delta_phi(self):
        # zeta can never exceed the global variation
        rng = np.random.default_rng(29)
        space = ProfileSpace((2, 2, 2, 2))
        for _ in range(10):
            phi = rng.uniform(0.0, 3.0, size=space.size)
            assert zeta_barrier(phi, space) <= max_global_variation(phi) + 1e-12


class TestGameLevelAccessors:
    def test_game_structural_methods(self, theorem35_game):
        game = theorem35_game
        assert game.max_global_variation() == pytest.approx(2.0)
        assert game.max_local_variation() == pytest.approx(1.0)
        # for the Theorem 3.5 potential the barrier equals DeltaPhi
        assert game.zeta() == pytest.approx(2.0)

    def test_two_well_zeta_with_depth_ratio(self):
        from repro.games import TwoWellGame

        game = TwoWellGame(num_players=4, barrier=2.0, depth_ratio=0.5)
        # shallow well sits at potential 1.0, ridge at 2.0 -> zeta = 1.0
        assert game.zeta() == pytest.approx(1.0)
        assert game.max_global_variation() == pytest.approx(2.0)
