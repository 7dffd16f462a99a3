"""Tests for the generic Markov chain wrapper (repro.markov.chain)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.markov.chain import MarkovChain, is_stochastic_matrix, stationary_distribution

from conftest import is_aperiodic, is_irreducible


def two_state_chain(p: float = 0.3, q: float = 0.2) -> MarkovChain:
    P = np.array([[1 - p, p], [q, 1 - q]])
    return MarkovChain(P)


def random_walk_cycle(n: int = 5, lazy: float = 0.5) -> MarkovChain:
    P = np.zeros((n, n))
    for i in range(n):
        P[i, i] = lazy
        P[i, (i + 1) % n] += (1 - lazy) / 2
        P[i, (i - 1) % n] += (1 - lazy) / 2
    return MarkovChain(P)


class TestValidation:
    def test_is_stochastic(self):
        assert is_stochastic_matrix(np.array([[0.5, 0.5], [0.1, 0.9]]))
        assert not is_stochastic_matrix(np.array([[0.5, 0.6], [0.1, 0.9]]))
        assert not is_stochastic_matrix(np.array([[1.2, -0.2], [0.0, 1.0]]))
        assert not is_stochastic_matrix(np.ones((2, 3)) / 3)

    def test_constructor_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            MarkovChain(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_constructor_rejects_bad_stationary(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            MarkovChain(P, stationary=np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError):
            MarkovChain(P, stationary=np.array([0.9, 0.5]))

    def test_transition_matrix_readonly(self):
        chain = two_state_chain()
        with pytest.raises(ValueError):
            chain.transition_matrix[0, 0] = 1.0


class TestStationary:
    def test_two_state_closed_form(self):
        p, q = 0.3, 0.2
        chain = two_state_chain(p, q)
        pi = chain.stationary
        np.testing.assert_allclose(pi, [q / (p + q), p / (p + q)], atol=1e-10)

    def test_stationary_is_invariant(self):
        chain = random_walk_cycle(6)
        pi = chain.stationary
        np.testing.assert_allclose(pi @ chain.transition_matrix, pi, atol=1e-10)

    def test_supplied_stationary_used(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        chain = MarkovChain(P, stationary=np.array([0.5, 0.5]))
        np.testing.assert_allclose(chain.stationary, [0.5, 0.5])

    def test_standalone_function(self):
        P = np.array([[0.9, 0.1], [0.4, 0.6]])
        pi = stationary_distribution(P)
        np.testing.assert_allclose(pi @ P, pi, atol=1e-10)
        assert pi.sum() == pytest.approx(1.0)


class TestStructure:
    def test_irreducible_chain(self):
        assert is_irreducible(random_walk_cycle(5))

    def test_reducible_chain(self):
        P = np.array([[1.0, 0.0], [0.0, 1.0]])
        chain = MarkovChain(P)
        assert not is_irreducible(chain)

    def test_aperiodic_with_self_loops(self):
        assert is_aperiodic(random_walk_cycle(5, lazy=0.5))

    def test_periodic_two_cycle(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        chain = MarkovChain(P)
        assert is_irreducible(chain)
        assert not is_aperiodic(chain)

    def test_odd_cycle_without_laziness_is_aperiodic(self):
        chain = random_walk_cycle(5, lazy=0.0)
        assert is_aperiodic(chain)

    def test_even_cycle_without_laziness_is_periodic(self):
        chain = random_walk_cycle(4, lazy=0.0)
        assert not is_aperiodic(chain)

    def test_ergodic(self):
        chain = two_state_chain()
        assert is_irreducible(chain) and is_aperiodic(chain)

    def test_reversibility_of_birth_death(self):
        # birth-death chains are always reversible
        P = np.array(
            [
                [0.7, 0.3, 0.0],
                [0.2, 0.5, 0.3],
                [0.0, 0.4, 0.6],
            ]
        )
        assert MarkovChain(P).is_reversible()

    def test_nonreversible_chain(self):
        # a biased cycle walk is not reversible
        n = 4
        P = np.zeros((n, n))
        for i in range(n):
            P[i, (i + 1) % n] = 0.8
            P[i, (i - 1) % n] = 0.2
        assert not MarkovChain(P).is_reversible()


class TestDynamics:
    def test_step_distribution_preserves_mass(self):
        chain = two_state_chain()
        mu = np.array([1.0, 0.0])
        out = mu @ chain.t_step_matrix(7)
        assert out.sum() == pytest.approx(1.0)
        assert np.all(out >= 0)

    def test_t_step_matrix_matches_power(self):
        chain = two_state_chain()
        P = np.asarray(chain.transition_matrix)
        np.testing.assert_allclose(chain.t_step_matrix(5), np.linalg.matrix_power(P, 5))
        np.testing.assert_allclose(chain.t_step_matrix(0), np.eye(2))

    def test_t_step_matrix_rejects_negative(self):
        with pytest.raises(ValueError):
            two_state_chain().t_step_matrix(-1)

    def test_expected_hitting_time_two_state(self):
        p = 0.25
        P = np.array([[1 - p, p], [0.0, 1.0]])
        chain = MarkovChain(P)
        h = chain.expected_hitting_time(1)
        assert h[1] == 0.0
        assert h[0] == pytest.approx(1.0 / p)

    def test_expected_hitting_time_target_set(self):
        chain = random_walk_cycle(5)
        h = chain.expected_hitting_time([0, 1])
        assert h[0] == 0.0 and h[1] == 0.0
        assert np.all(h[2:] > 0)
