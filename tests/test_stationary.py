"""Tests for Gibbs measures and partition functions (repro.core.stationary)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stationary import (
    gibbs_expectation,
    gibbs_measure,
    stationary_mass,
)


class TestGibbsMeasure:
    def test_beta_zero_is_uniform(self):
        phi = np.array([0.0, 5.0, -2.0, 1.0])
        np.testing.assert_allclose(gibbs_measure(phi, 0.0), np.full(4, 0.25))

    def test_normalisation(self):
        rng = np.random.default_rng(0)
        phi = rng.normal(size=16)
        for beta in (0.1, 1.0, 10.0):
            assert gibbs_measure(phi, beta).sum() == pytest.approx(1.0)

    def test_low_potential_gets_high_mass(self):
        phi = np.array([0.0, 1.0, 2.0])
        pi = gibbs_measure(phi, 2.0)
        assert pi[0] > pi[1] > pi[2]

    def test_ratio_matches_boltzmann_factor(self):
        phi = np.array([0.0, 1.5])
        beta = 1.3
        pi = gibbs_measure(phi, beta)
        assert pi[1] / pi[0] == pytest.approx(np.exp(-beta * 1.5))

    def test_large_beta_no_overflow(self):
        phi = np.array([0.0, 1000.0, 2000.0])
        pi = gibbs_measure(phi, beta=100.0)
        assert np.all(np.isfinite(pi))
        assert pi[0] == pytest.approx(1.0)

    def test_shift_invariance(self):
        """Adding a constant to the potential does not change the measure."""
        rng = np.random.default_rng(1)
        phi = rng.normal(size=8)
        np.testing.assert_allclose(
            gibbs_measure(phi, 1.7), gibbs_measure(phi + 42.0, 1.7), atol=1e-12
        )

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            gibbs_measure(np.zeros(2), -0.1)

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_non_finite_beta_rejected(self, beta):
        # inf * 0 and nan weights would otherwise come back as a NaN measure
        with pytest.raises(ValueError, match="beta"):
            gibbs_measure(np.array([0.0, 1.0]), beta)

    def test_concentration_as_beta_grows(self):
        """As beta -> infinity the measure concentrates on the minimisers."""
        phi = np.array([0.0, 0.0, 1.0, 2.0])
        pi = gibbs_measure(phi, beta=50.0)
        assert pi[0] == pytest.approx(0.5, abs=1e-9)
        assert pi[1] == pytest.approx(0.5, abs=1e-9)


class TestObservables:
    def test_gibbs_expectation_uniform_case(self):
        phi = np.zeros(4)
        obs = np.array([1.0, 2.0, 3.0, 4.0])
        assert gibbs_expectation(phi, 1.0, obs) == pytest.approx(2.5)

    def test_gibbs_expectation_shape_check(self):
        with pytest.raises(ValueError):
            gibbs_expectation(np.zeros(4), 1.0, np.zeros(3))

    def test_stationary_mass(self):
        phi = np.array([0.0, 0.0, 10.0, 10.0])
        mass = stationary_mass(phi, beta=5.0, states=np.array([0, 1]))
        assert mass == pytest.approx(1.0, abs=1e-9)
