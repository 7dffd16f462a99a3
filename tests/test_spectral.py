"""Tests for the spectral machinery (repro.markov.spectral)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LogitDynamics
from repro.markov.chain import MarkovChain
from repro.markov.mixing import mixing_time
from repro.markov.spectral import (
    relaxation_time,
    reversible_eigenvalues,
    spectral_gap,
    spectral_summary,
)


def relaxation_mixing_bounds(chain: MarkovChain, epsilon: float = 0.25) -> tuple[float, float]:
    """The Theorem 2.3 sandwich ``(t_rel - 1) log(1/(2 eps)) <= t_mix(eps)
    <= t_rel log(1/(eps pi_min))``."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    t_rel = spectral_summary(chain).relaxation_time
    lower = (t_rel - 1.0) * np.log(1.0 / (2.0 * epsilon))
    upper = t_rel * np.log(1.0 / (epsilon * np.min(chain.stationary)))
    return max(lower, 0.0), upper


def two_state_chain(p: float = 0.3, q: float = 0.2) -> MarkovChain:
    return MarkovChain(np.array([[1 - p, p], [q, 1 - q]]))


def lazy_cycle(n: int = 6) -> MarkovChain:
    P = np.zeros((n, n))
    for i in range(n):
        P[i, i] = 0.5
        P[i, (i + 1) % n] += 0.25
        P[i, (i - 1) % n] += 0.25
    return MarkovChain(P)


class TestEigenvalues:
    def test_two_state_eigenvalues(self):
        p, q = 0.3, 0.2
        eigs = reversible_eigenvalues(two_state_chain(p, q))
        np.testing.assert_allclose(eigs, [1.0, 1.0 - p - q], atol=1e-10)

    def test_leading_eigenvalue_is_one(self):
        eigs = reversible_eigenvalues(lazy_cycle(7))
        assert eigs[0] == pytest.approx(1.0)
        assert np.all(np.diff(eigs) <= 1e-12)  # sorted non-increasing

    def test_lazy_cycle_eigenvalues_closed_form(self):
        n = 6
        eigs = reversible_eigenvalues(lazy_cycle(n))
        expected = np.sort(0.5 + 0.5 * np.cos(2 * np.pi * np.arange(n) / n))[::-1]
        np.testing.assert_allclose(eigs, expected, atol=1e-10)

    def test_rejects_nonreversible(self):
        n = 4
        P = np.zeros((n, n))
        for i in range(n):
            P[i, (i + 1) % n] = 0.8
            P[i, (i - 1) % n] = 0.2
        with pytest.raises(ValueError):
            reversible_eigenvalues(MarkovChain(P))


class TestRelaxation:
    def test_two_state_relaxation_time(self):
        p, q = 0.3, 0.2
        assert relaxation_time(two_state_chain(p, q)) == pytest.approx(1.0 / (p + q))

    def test_spectral_gap(self):
        assert spectral_gap(two_state_chain(0.3, 0.2)) == pytest.approx(0.5)

    def test_summary_fields_consistent(self):
        summary = spectral_summary(lazy_cycle(5))
        assert summary.lambda_2 == pytest.approx(summary.eigenvalues[1])
        assert summary.lambda_min == pytest.approx(summary.eigenvalues[-1])
        assert summary.relaxation_time == pytest.approx(
            1.0 / (1.0 - summary.lambda_star)
        )
        assert summary.all_nonnegative  # lazy chain has non-negative spectrum

    def test_negative_eigenvalue_detected(self):
        # period-ish chain (non-lazy cycle on even n) has eigenvalue -1 < lambda_2;
        # use a two-state chain with p = q = 0.9 which has eigenvalue 1 - 1.8 = -0.8
        chain = two_state_chain(0.9, 0.9)
        summary = spectral_summary(chain)
        assert summary.lambda_min == pytest.approx(-0.8)
        assert not summary.all_nonnegative
        assert summary.relaxation_time == pytest.approx(1.0 / (1.0 - 0.8))


class TestTheorem23Sandwich:
    def test_bounds_bracket_true_mixing_time(self):
        chain = lazy_cycle(6)
        lower, upper = relaxation_mixing_bounds(chain, epsilon=0.25)
        measured = mixing_time(chain, epsilon=0.25).mixing_time
        assert lower <= measured <= upper

    def test_sandwich_for_logit_chain(self, ring5_ising_game):
        chain = LogitDynamics(ring5_ising_game, beta=0.8).markov_chain()
        lower, upper = relaxation_mixing_bounds(chain, epsilon=0.25)
        measured = mixing_time(chain, epsilon=0.25).mixing_time
        assert lower <= measured <= upper

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            relaxation_mixing_bounds(two_state_chain(), epsilon=0.0)
