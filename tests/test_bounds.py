"""Tests for the theorem-level bound formulas (repro.core.bounds)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.bounds import (
    clique_delta_phi,
    clique_potential_barrier,
    lemma32_relaxation_upper,
    lemma33_relaxation_upper,
    lemma37_relaxation_upper,
    relaxation_to_mixing_upper,
    structural_quantities,
    theorem34_log_mixing_upper,
    theorem34_mixing_upper,
    theorem35_mixing_lower,
    theorem36_beta_threshold,
    theorem36_mixing_upper,
    theorem38_mixing_upper,
    theorem39_mixing_lower,
    theorem42_mixing_upper,
    theorem43_mixing_lower,
    theorem51_mixing_upper,
    theorem55_clique_bounds,
    theorem56_ring_mixing_upper,
    theorem57_ring_mixing_lower,
)
from repro.games import Theorem35Game
from repro.graphs.cutwidth import cutwidth_exact, cutwidth_of_ordering
from repro.graphs.topologies import ring_graph


class TestStructuralQuantities:
    def test_theorem35_game_quantities(self):
        game = Theorem35Game(6, 2.0, 1.0)
        sq = structural_quantities(game)
        assert sq.num_players == 6
        assert sq.max_strategies == 2
        assert sq.num_profiles == 64
        assert sq.delta_phi_global == pytest.approx(2.0)
        assert sq.delta_phi_local == pytest.approx(1.0)
        assert sq.zeta == pytest.approx(2.0)


class TestSection3Formulas:
    def test_lemma32(self):
        assert lemma32_relaxation_upper(7) == 7.0
        with pytest.raises(ValueError):
            lemma32_relaxation_upper(0)

    def test_lemma33_formula(self):
        assert lemma33_relaxation_upper(3, 2, 1.0, 2.0) == pytest.approx(
            2 * 2 * 3 * math.exp(2.0)
        )

    def test_lemma33_beta_zero_matches_2mn(self):
        assert lemma33_relaxation_upper(4, 3, 0.0, 5.0) == pytest.approx(24.0)

    def test_theorem34_formula(self):
        n, m, beta, dphi, eps = 3, 2, 1.5, 2.0, 0.25
        expected = 2 * m * n * math.exp(beta * dphi) * (
            math.log(1 / eps) + beta * dphi + n * math.log(m)
        )
        assert theorem34_mixing_upper(n, m, beta, dphi, eps) == pytest.approx(expected)

    def test_theorem34_log_version_consistent(self):
        n, m, beta, dphi = 4, 3, 2.0, 1.5
        assert theorem34_log_mixing_upper(n, m, beta, dphi) == pytest.approx(
            math.log(theorem34_mixing_upper(n, m, beta, dphi))
        )

    def test_theorem34_monotone_in_beta(self):
        values = [theorem34_mixing_upper(4, 2, b, 1.0) for b in (0.0, 1.0, 2.0)]
        assert values[0] < values[1] < values[2]

    def test_theorem35_lower_grows_exponentially(self):
        lows = [theorem35_mixing_lower(8, 2, b, 2.0, 1.0) for b in (1.0, 2.0, 4.0)]
        assert lows[0] < lows[1] < lows[2]
        # slope in beta is DeltaPhi
        assert math.log(lows[2] / lows[1]) == pytest.approx(2.0 * 2.0)

    def test_theorem36_threshold(self):
        assert theorem36_beta_threshold(10, 2.0, c=0.5) == pytest.approx(0.025)
        with pytest.raises(ValueError):
            theorem36_beta_threshold(10, 2.0, c=1.5)

    def test_theorem36_bound_is_n_log_n(self):
        n = 50
        bound = theorem36_mixing_upper(n, c=0.5, epsilon=0.25)
        assert bound == pytest.approx(n * (math.log(n) + math.log(4)) / 0.5)

    def test_lemma37_formula(self):
        assert lemma37_relaxation_upper(2, 2, 1.0, 0.5) == pytest.approx(
            2 * 2**5 * math.exp(0.5)
        )

    def test_theorem38_reduces_to_relaxation_times_log_term(self):
        n, m, beta, zeta, dphi = 3, 2, 1.0, 0.5, 2.0
        expected = lemma37_relaxation_upper(n, m, beta, zeta) * (
            math.log(4) + beta * dphi + n * math.log(m)
        )
        assert theorem38_mixing_upper(n, m, beta, zeta, dphi) == pytest.approx(expected)

    def test_theorem39_formula(self):
        got = theorem39_mixing_lower(2.0, 1.5, 2, boundary_size=3, epsilon=0.25)
        assert got == pytest.approx((0.5 / (2 * 1 * 3)) * math.exp(3.0))

    def test_relaxation_to_mixing_conversion(self):
        assert relaxation_to_mixing_upper(10.0, 0.01, 0.25) == pytest.approx(
            10.0 * math.log(400.0)
        )
        with pytest.raises(ValueError):
            relaxation_to_mixing_upper(10.0, 0.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            theorem34_mixing_upper(0, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            theorem34_mixing_upper(2, 2, -1.0, 1.0)
        with pytest.raises(ValueError):
            theorem34_mixing_upper(2, 2, 1.0, 1.0, epsilon=0.9)
        with pytest.raises(ValueError):
            theorem39_mixing_lower(1.0, 1.0, 1, 1)
        with pytest.raises(ValueError):
            theorem35_mixing_lower(4, 2, 1.0, 1.0, 0.0)


class TestSection4Formulas:
    def test_theorem42_is_beta_free_and_finite(self):
        bound = theorem42_mixing_upper(3, 2)
        assert np.isfinite(bound) and bound > 0

    def test_theorem42_scales_like_mn(self):
        b2 = theorem42_mixing_upper(3, 2)
        b3 = theorem42_mixing_upper(3, 3)
        # ratio should roughly track (3/2)^3
        assert b3 / b2 == pytest.approx((3 / 2) ** 3, rel=0.05)

    def test_theorem43_formula(self):
        assert theorem43_mixing_lower(3, 2) == pytest.approx((8 - 1) / 4)
        assert theorem43_mixing_lower(2, 3) == pytest.approx((9 - 1) / 8)

    def test_theorem43_below_theorem42(self):
        """The lower-bound family never contradicts the general upper bound."""
        for n in (2, 3, 4):
            for m in (2, 3):
                assert theorem43_mixing_lower(n, m) <= theorem42_mixing_upper(n, m)

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem42_mixing_upper(0, 2)
        with pytest.raises(ValueError):
            theorem43_mixing_lower(2, 1)


class TestSection5Formulas:
    def test_theorem51_formula(self):
        n, beta, d0, d1, chi = 4, 0.5, 2.0, 1.0, 2
        expected = 2 * n**3 * math.exp(chi * 3.0 * beta) * (n * d0 * beta + 1)
        assert theorem51_mixing_upper(n, beta, d0, d1, chi) == pytest.approx(expected)

    def test_theorem51_monotone_in_cutwidth(self):
        a = theorem51_mixing_upper(5, 1.0, 1.0, 1.0, 1)
        b = theorem51_mixing_upper(5, 1.0, 1.0, 1.0, 3)
        assert b > a

    def test_theorem51_fed_from_cutwidth_of_the_graph(self):
        # chi(ring) = 2 reaches the bound exactly; any other ordering's width
        # is at least chi, so it gives a valid but looser bound
        ring = ring_graph(10)
        chi = cutwidth_exact(ring)
        assert chi == 2
        exact = theorem51_mixing_upper(10, 0.5, 1.0, 1.0, chi)
        assert exact == pytest.approx(2 * 10**3 * math.exp(2 * 2.0 * 0.5) * (10 * 0.5 + 1))
        interleaved = [0, 5, 1, 6, 2, 7, 3, 8, 4, 9]
        looser = theorem51_mixing_upper(10, 0.5, 1.0, 1.0, cutwidth_of_ordering(ring, interleaved))
        assert looser > exact

    def test_clique_barrier_symmetric_case(self):
        """No risk dominance: Phi_max - Phi(1) = Theta(n^2 delta) as the paper notes."""
        n, delta = 6, 1.0
        barrier = clique_potential_barrier(n, delta, delta)
        # Phi(all ones) = -C(6,2) = -15; Phi_max at k*=3: -(C(3,2)+C(3,2)) = -6
        assert barrier == pytest.approx(15.0 - 6.0)

    def test_clique_barrier_risk_dominant_case(self):
        # strong risk dominance shrinks the barrier measured from all-ones
        strong = clique_potential_barrier(6, 5.0, 1.0)
        weak = clique_potential_barrier(6, 1.2, 1.0)
        # with delta0 >> delta1 the max over k is attained near k = n (ridge
        # close to the all-ones well), so the barrier is smaller relative to
        # the symmetric case scaled by delta
        assert strong / 5.0 < weak / 1.2

    def test_clique_delta_phi(self):
        n, delta = 4, 1.0
        # min potential = -C(4,2) = -6 (consensus), max = Phi at k*=2 = -2
        assert clique_delta_phi(n, delta, delta) == pytest.approx(4.0)

    def test_theorem55_bounds_ordered(self):
        lower, upper = theorem55_clique_bounds(5, beta=1.0, delta0=1.0, delta1=1.0)
        assert lower < upper

    def test_theorem56_formula(self):
        n, beta, delta = 6, 1.0, 1.0
        expected = 0.5 * n * (1 + math.exp(2.0)) * (math.log(n) + math.log(4))
        assert theorem56_ring_mixing_upper(n, beta, delta) == pytest.approx(expected)

    def test_theorem57_formula(self):
        assert theorem57_ring_mixing_lower(1.0, 1.0) == pytest.approx(
            0.25 * (1 + math.exp(2.0))
        )

    def test_ring_lower_below_upper(self):
        for beta in (0.0, 0.5, 1.0, 2.0):
            lower = theorem57_ring_mixing_lower(beta, 1.0)
            upper = theorem56_ring_mixing_upper(8, beta, 1.0)
            assert lower <= upper

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem51_mixing_upper(3, 1.0, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            theorem56_ring_mixing_upper(2, 1.0, 1.0)
        with pytest.raises(ValueError):
            theorem57_ring_mixing_lower(1.0, -1.0)
        with pytest.raises(ValueError):
            clique_potential_barrier(1, 1.0, 1.0)


class Test1311OpinionFormulas:
    """Formula tests for the finite-opinion-game bounds (arXiv 1311.1610)."""

    def test_mixing_upper_formula(self):
        from repro.core.bounds import theorem1311_mixing_upper

        n, beta, chi = 5, 0.7, 3
        expected = 2.0 * n**3 * math.exp(beta * (2 * chi + 1)) * (n * beta + 1.0)
        assert theorem1311_mixing_upper(n, beta, chi) == pytest.approx(expected)

    def test_mixing_upper_matches_theorem51_with_unit_deltas(self):
        # the opinion bound is the Theorem 5.1 schema at delta0 = 2, delta1
        # accounting: exponent chi*(delta0+delta1) = 2*chi ... plus the
        # belief term; check the exact relation exp(beta) * thm51(d0=d1=1)
        from repro.core.bounds import theorem1311_mixing_upper

        n, beta, chi = 4, 0.5, 2
        base = theorem51_mixing_upper(n, beta, 1.0, 1.0, chi)
        assert theorem1311_mixing_upper(n, beta, chi) == pytest.approx(
            base * math.exp(beta) * (n * beta + 1.0) / (n * 1.0 * beta + 1.0)
        )

    def test_mixing_upper_monotone_in_cutwidth_and_beta(self):
        from repro.core.bounds import theorem1311_mixing_upper

        assert theorem1311_mixing_upper(6, 1.0, 2) < theorem1311_mixing_upper(6, 1.0, 3)
        assert theorem1311_mixing_upper(6, 0.5, 2) < theorem1311_mixing_upper(6, 1.5, 2)

    def test_sandwich_pair(self):
        from repro.core.bounds import lemma1311_social_cost_sandwich

        lower, upper = lemma1311_social_cost_sandwich(3.5)
        assert lower == pytest.approx(3.5)
        assert upper == pytest.approx(7.0)
        assert lemma1311_social_cost_sandwich(0.0) == (0.0, 0.0)

    def test_stability_is_twice_optimum(self):
        from repro.core.bounds import theorem1311_stability_upper

        assert theorem1311_stability_upper(1.25) == pytest.approx(2.5)

    def test_stationary_cost_formula_and_limits(self):
        from repro.core.bounds import theorem1311_stationary_cost_upper

        opt, beta, n, m = 2.0, 4.0, 6, 3
        expected = 2.0 * opt + 2.0 * n * math.log(m) / beta
        assert theorem1311_stationary_cost_upper(opt, beta, n, m) == pytest.approx(expected)
        # beta -> inf recovers the price-of-stability bound
        assert theorem1311_stationary_cost_upper(opt, 1e12, n, m) == pytest.approx(
            2.0 * opt, abs=1e-9
        )
        assert theorem1311_stationary_cost_upper(opt, 0.0, n, m) == math.inf

    def test_validation(self):
        from repro.core.bounds import (
            lemma1311_social_cost_sandwich,
            theorem1311_mixing_upper,
            theorem1311_stability_upper,
            theorem1311_stationary_cost_upper,
        )

        with pytest.raises(ValueError):
            theorem1311_mixing_upper(0, 1.0, 2)
        with pytest.raises(ValueError):
            theorem1311_mixing_upper(3, -1.0, 2)
        with pytest.raises(ValueError):
            theorem1311_mixing_upper(3, 1.0, -1)
        with pytest.raises(ValueError):
            lemma1311_social_cost_sandwich(-0.1)
        with pytest.raises(ValueError):
            theorem1311_stability_upper(-1.0)
        with pytest.raises(ValueError):
            theorem1311_stationary_cost_upper(-1.0, 1.0, 3)
        with pytest.raises(ValueError):
            theorem1311_stationary_cost_upper(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            theorem1311_stationary_cost_upper(1.0, 1.0, 3, 1)
