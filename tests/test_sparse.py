"""Tests for the sparse chain machinery (repro.markov.sparse + LogitDynamics sparse path)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import LogitDynamics, measure_mixing_time, measure_relaxation_time
from repro.games import CoordinationParams, GraphicalCoordinationGame, TwoWellGame
from repro.markov.chain import MarkovChain
from repro.markov.mixing import mixing_time
from repro.markov.sparse import (
    SparseMarkovChain,
    sparse_mixing_time_from_state,
    sparse_relaxation_time,
    sparse_spectral_gap,
    sparse_stationary_power_iteration,
)


def mixing_time_from_state(chain: MarkovChain, start: int, epsilon: float = 0.25) -> int:
    """Dense reference: smallest ``t`` with ``||P^t(start, .) - pi||_TV <= eps``."""
    row = np.zeros(chain.num_states)
    row[start] = 1.0
    t = 0
    while 0.5 * np.abs(row - chain.stationary).sum() > epsilon:
        row = row @ chain.transition_matrix
        t += 1
    return t


def test_dense_reference_maximised_over_starts_is_the_mixing_time():
    P = np.zeros((6, 6))
    for i in range(6):
        P[i, i] = 0.5
        P[i, (i + 1) % 6] += 0.25
        P[i, (i - 1) % 6] += 0.25
    chain = MarkovChain(P)
    singles = [mixing_time_from_state(chain, s) for s in range(6)]
    assert max(singles) == mixing_time(chain).mixing_time


def lazy_cycle_sparse(n: int = 6) -> SparseMarkovChain:
    rows, cols, vals = [], [], []
    for i in range(n):
        rows += [i, i, i]
        cols += [i, (i + 1) % n, (i - 1) % n]
        vals += [0.5, 0.25, 0.25]
    P = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return SparseMarkovChain(P)


class TestSparseMarkovChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseMarkovChain(sp.csr_matrix(np.array([[0.5, 0.6], [0.5, 0.5]])))
        with pytest.raises(ValueError):
            SparseMarkovChain(sp.csr_matrix(np.ones((2, 3)) / 3))
        with pytest.raises(ValueError):
            SparseMarkovChain(
                sp.csr_matrix(np.array([[0.5, 0.5], [0.5, 0.5]])),
                stationary=np.array([0.5, 0.5, 0.0]),
            )

    def test_stationary_power_iteration_matches_uniform(self):
        chain = lazy_cycle_sparse(7)
        np.testing.assert_allclose(chain.stationary, np.full(7, 1 / 7), atol=1e-9)

    def test_step_distribution_preserves_mass(self):
        chain = lazy_cycle_sparse(5)
        mu = np.zeros(5)
        mu[0] = 1.0
        for _ in range(10):
            mu = chain.transition_matrix.T @ mu
        assert mu.sum() == pytest.approx(1.0)
        assert np.all(mu >= 0)

    def test_power_iteration_two_state(self):
        P = sp.csr_matrix(np.array([[0.7, 0.3], [0.2, 0.8]]))
        pi = sparse_stationary_power_iteration(P)
        np.testing.assert_allclose(pi, [0.4, 0.6], atol=1e-8)

    def test_nnz_reported(self):
        assert lazy_cycle_sparse(6).transition_matrix.nnz == 18


class TestSparseSpectral:
    def test_gap_matches_dense_on_cycle(self):
        chain = lazy_cycle_sparse(8)
        expected_lambda2 = 0.5 + 0.5 * np.cos(2 * np.pi / 8)
        assert sparse_spectral_gap(chain) == pytest.approx(1 - expected_lambda2, abs=1e-8)

    def test_relaxation_time_matches_dense_logit(self):
        game = TwoWellGame(num_players=5, barrier=1.0)
        beta = 1.0
        dense_trel = measure_relaxation_time(game, beta)
        sparse_chain = LogitDynamics(game, beta).sparse_markov_chain()
        # Theorem 3.1: lambda_2 governs, so the sparse path (which only looks
        # at the top of the spectrum) must agree with the dense relaxation time
        assert sparse_relaxation_time(sparse_chain) == pytest.approx(dense_trel, rel=1e-6)


class TestSparseLogitPath:
    def test_sparse_matrix_matches_dense(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.2)
        dense = dynamics.transition_matrix()
        sparse = dynamics.sparse_transition_matrix().toarray()
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_sparse_chain_uses_gibbs_stationary(self, two_well_game):
        dynamics = LogitDynamics(two_well_game, 0.8)
        chain = dynamics.sparse_markov_chain()
        np.testing.assert_allclose(
            chain.stationary, dynamics.stationary_distribution(), atol=1e-12
        )

    def test_sparse_single_start_mixing_matches_dense(self):
        game = GraphicalCoordinationGame(nx.cycle_graph(4), CoordinationParams.ising(1.0))
        beta = 0.8
        dynamics = LogitDynamics(game, beta)
        dense_chain = dynamics.markov_chain()
        sparse_chain = dynamics.sparse_markov_chain()
        start = game.space.encode((0, 0, 0, 0))
        dense_t = mixing_time_from_state(dense_chain, start)
        sparse_t = sparse_mixing_time_from_state(sparse_chain, start)
        assert dense_t == sparse_t

    def test_worst_consensus_start_matches_full_mixing_time(self):
        """For the symmetric ring game the consensus profiles are the worst
        starting states, so the sparse single-start measurement reproduces
        the dense worst-case t_mix."""
        game = GraphicalCoordinationGame(nx.cycle_graph(5), CoordinationParams.ising(1.0))
        beta = 1.0
        full = measure_mixing_time(game, beta).mixing_time
        sparse_chain = LogitDynamics(game, beta).sparse_markov_chain()
        start = game.space.encode((1,) * 5)
        assert sparse_mixing_time_from_state(sparse_chain, start) == full

    def test_sparse_scales_to_larger_spaces(self):
        """A 12-player ring has 4096 profiles; the sparse path builds the
        chain and computes a single-start convergence time without densifying."""
        game = GraphicalCoordinationGame(nx.cycle_graph(12), CoordinationParams.ising(1.0))
        dynamics = LogitDynamics(game, beta=0.3)
        chain = dynamics.sparse_markov_chain()
        assert chain.num_states == 4096
        assert chain.transition_matrix.nnz <= 4096 * (12 * 2)
        t = sparse_mixing_time_from_state(chain, game.space.encode((0,) * 12), epsilon=0.25)
        assert 0 < t < 2000

    def test_mixing_time_start_validation(self):
        chain = lazy_cycle_sparse(4)
        with pytest.raises(ValueError):
            sparse_mixing_time_from_state(chain, 10)
        with pytest.raises(ValueError):
            sparse_mixing_time_from_state(chain, 0, epsilon=2.0)
