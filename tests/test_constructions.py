"""Tests for the paper's lower-bound potential constructions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.games.constructions import (
    BirthDeathPotentialGame,
    Theorem35Game,
    TwoWellGame,
    theorem35_potential,
)


class TestTheorem35Potential:
    def test_shape_and_extremes(self):
        n, g, l = 6, 2.0, 1.0
        phi = theorem35_potential(n, g, l)
        assert phi.shape == (2**n,)
        # maximum 0 attained on the ridge w(x) = c = 2, minimum -g at w=0
        assert np.max(phi) == pytest.approx(0.0)
        assert np.min(phi) == pytest.approx(-g)

    def test_symmetry_around_ridge(self):
        game = Theorem35Game(6, 2.0, 1.0)
        phi = game.potential_vector()
        w = game.space.weight(np.arange(game.space.size))
        c = 2
        # profiles with |w - c| equal have equal potential
        for k in range(3):
            vals_left = phi[w == c - k] if np.any(w == c - k) else None
            vals_right = phi[w == c + k] if np.any(w == c + k) else None
            if vals_left is not None and vals_right is not None:
                assert np.allclose(vals_left, vals_left[0])
                assert vals_left[0] == pytest.approx(vals_right[0])

    def test_structural_quantities_match_parameters(self):
        game = Theorem35Game(8, 3.0, 1.0)
        assert game.max_global_variation() == pytest.approx(3.0)
        assert game.max_local_variation() == pytest.approx(1.0)
        # the ridge must be crossed: zeta equals DeltaPhi for this family
        assert game.zeta() == pytest.approx(3.0)

    def test_validates_parameter_regime(self):
        with pytest.raises(ValueError):
            theorem35_potential(4, 10.0, 1.0)  # l < 2g/n violated
        with pytest.raises(ValueError):
            theorem35_potential(4, 1.0, 2.0)  # l > g violated
        with pytest.raises(ValueError):
            theorem35_potential(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            theorem35_potential(4, -1.0, 1.0)

    def test_bottleneck_set_mass_below_half(self):
        from repro.core import gibbs_measure

        game = Theorem35Game(6, 2.0, 1.0)
        R = game.bottleneck_set()
        pi = gibbs_measure(game.potential_vector(), beta=2.0)
        assert pi[R].sum() <= 0.5 + 1e-12

    def test_zero_profile_in_bottleneck_set(self):
        game = Theorem35Game(6, 2.0, 1.0)
        assert 0 in game.bottleneck_set()

    def test_potential_game_property(self):
        assert Theorem35Game(5, 2.0, 1.0).verify_potential()


class TestTwoWellGame:
    def test_wells_and_barrier(self):
        game = TwoWellGame(4, barrier=1.5)
        phi = game.potential_vector()
        all0, all1 = game.well_indices
        assert phi[all0] == 0.0
        assert phi[all1] == 0.0
        mask = np.ones(game.space.size, dtype=bool)
        mask[[all0, all1]] = False
        assert np.all(phi[mask] == 1.5)

    def test_structural_quantities(self):
        game = TwoWellGame(4, barrier=2.0)
        assert game.max_global_variation() == pytest.approx(2.0)
        assert game.max_local_variation() == pytest.approx(2.0)
        assert game.zeta() == pytest.approx(2.0)

    def test_depth_ratio_validation(self):
        with pytest.raises(ValueError):
            TwoWellGame(4, barrier=1.0, depth_ratio=0.0)
        with pytest.raises(ValueError):
            TwoWellGame(4, barrier=1.0, depth_ratio=1.5)
        with pytest.raises(ValueError):
            TwoWellGame(4, barrier=-1.0)
        with pytest.raises(ValueError):
            TwoWellGame(1, barrier=1.0)

    def test_is_potential_game(self):
        assert TwoWellGame(3, barrier=1.0).verify_potential()


class TestWeightPotentialGame:
    def test_levels_applied_per_weight(self):
        levels = [0.0, 2.0, 1.0, 5.0]
        game = BirthDeathPotentialGame(3, levels)
        phi = game.potential_vector()
        w = game.space.weight(np.arange(game.space.size))
        np.testing.assert_allclose(phi, np.asarray(levels)[w])

    def test_callable_form(self):
        game = BirthDeathPotentialGame(4, lambda k: float(k * k))
        phi = game.potential_vector()
        w = game.space.weight(np.arange(game.space.size))
        np.testing.assert_allclose(phi, w.astype(float) ** 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            BirthDeathPotentialGame(3, [0.0, 1.0])

    def test_birth_death_records_levels(self):
        levels = [0.0, 3.0, 1.0, 2.0, 0.5]
        game = BirthDeathPotentialGame(4, levels)
        np.testing.assert_allclose(game.weight_levels, levels)
        assert game.verify_potential()
