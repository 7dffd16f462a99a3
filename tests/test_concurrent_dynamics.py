"""Concurrent-update (probabilistic-schedule) logit dynamics, arXiv 1207.2908.

Covers the :class:`~repro.engine.kernels.ProbabilisticKernel` family and
:class:`~repro.core.variants.ConcurrentLogitDynamics` end to end:

* random-stream contracts — the scalar loop, the batched engine (both state
  backends) and the seeded per-replica kernels are bit-for-bit consistent,
  and ``p = 1`` consumes exactly the :class:`ParallelKernel` stream;
* the *parallel trap* property grid — on an even coordination ring the
  concurrent chain's empirical occupation matches its transition-matrix
  powers while both sit far from the Gibbs measure;
* the doubled-potential results of ``core.bounds`` (symmetry, detailed
  balance, the product-form stationary law, and the mixing bounds);
* adaptive (``precision=``) and sharded (``executor=``) estimation for
  concurrent dynamics — chunk-size and shard-count bit-for-bit invariance.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import (
    ConcurrentLogitDynamics,
    ParallelLogitDynamics,
    empirical_hitting_times,
    estimate_tv_convergence,
    gibbs_measure,
    lemma1207_doubled_potential,
    lemma1207_update_rate_lower,
    theorem1207_beta_threshold,
    theorem1207_mixing_lower,
    theorem1207_mixing_upper,
    theorem1207_stationary_product,
)
from repro.engine import EnsembleSimulator, ProbabilisticKernel, seeded_kernel_for
from repro.engine.kernels import (
    SeededParallelKernel,
    SeededProbabilisticKernel,
    SeededSequentialKernel,
)
from repro.games import IsingGame, LocalInteractionGame
from repro.markov.tv import total_variation
from repro.parallel import ShardedExecutor


@pytest.fixture
def ring6_game() -> IsingGame:
    return IsingGame(nx.cycle_graph(6), coupling=1.0)


@pytest.fixture
def ring4_game() -> IsingGame:
    return IsingGame(nx.cycle_graph(4), coupling=1.0)


def consensus_target(game: IsingGame) -> int:
    return int(game.space.encode(np.ones(game.space.num_players, dtype=np.int64)))


# ---------------------------------------------------------------------------
# random-stream contracts
# ---------------------------------------------------------------------------


def test_p_equal_one_matches_parallel_kernel_stream(ring6_game):
    """At p = 1 the mask draws are skipped entirely, so the probabilistic
    kernel consumes exactly the ParallelKernel stream — bit-for-bit."""
    par = ParallelLogitDynamics(ring6_game, 0.8)
    conc = ConcurrentLogitDynamics(ring6_game, 0.8, p=1.0)
    e1 = par.ensemble(5, rng=np.random.default_rng(3))
    e2 = conc.ensemble(5, rng=np.random.default_rng(3))
    e1.run(25)
    e2.run(25)
    np.testing.assert_array_equal(e1.indices, e2.indices)


def test_simulate_loop_matches_engine_both_state_backends(ring6_game):
    conc = ConcurrentLogitDynamics(ring6_game, 0.8, p=0.6)
    start = np.zeros(6, dtype=np.int64)
    traj = conc.simulate_loop(start, 15, np.random.default_rng(7))
    loop_indices = [int(ring6_game.space.encode(row)) for row in traj]
    for state in ("index", "matrix"):
        sim = conc.ensemble(1, start=start, rng=np.random.default_rng(7), state=state)
        engine_indices = [int(sim.indices[0])]
        for _ in range(15):
            sim.run(1)
            engine_indices.append(int(sim.indices[0]))
        assert loop_indices == engine_indices


def test_transition_matrix_p1_matches_parallel(ring6_game):
    P_par = ParallelLogitDynamics(ring6_game, 0.7).transition_matrix()
    P_conc = ConcurrentLogitDynamics(ring6_game, 0.7, p=1.0).transition_matrix()
    np.testing.assert_allclose(P_par, P_conc)


def test_transition_matrix_rows_are_stochastic(ring6_game):
    P = ConcurrentLogitDynamics(ring6_game, 0.7, p=0.4).transition_matrix()
    np.testing.assert_allclose(P.sum(axis=1), 1.0)
    assert (P >= 0).all()


def test_invalid_update_probability_rejected(ring6_game):
    for p in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="update probability"):
            ConcurrentLogitDynamics(ring6_game, 0.5, p=p)
        with pytest.raises(ValueError, match="update probability"):
            ProbabilisticKernel(ParallelLogitDynamics(ring6_game, 0.5), p=p)


def test_seeded_kernel_dispatch(ring6_game):
    seeds = np.random.SeedSequence(0).spawn(3)
    conc = ConcurrentLogitDynamics(ring6_game, 0.5, p=0.3)
    kern = seeded_kernel_for(conc.kernel(), seeds)
    assert type(kern) is SeededProbabilisticKernel
    assert kern.p == pytest.approx(0.3)
    par = ParallelLogitDynamics(ring6_game, 0.5)
    assert type(seeded_kernel_for(par.kernel(), seeds)) is SeededParallelKernel
    with pytest.raises(ValueError, match="seeded"):
        seeded_kernel_for(object(), seeds)


def test_seeded_concurrent_chunk_size_invariance(ring6_game):
    conc = ConcurrentLogitDynamics(ring6_game, 0.8, p=0.6)
    start = np.zeros(6, dtype=np.int64)

    def run_chunks(chunks):
        sim = EnsembleSimulator.seeded(
            conc, np.random.SeedSequence(99).spawn(4), start=start
        )
        assert type(sim.kernel) is SeededProbabilisticKernel
        for c in chunks:
            sim.run(c)
        return sim.indices

    whole = run_chunks([12])
    np.testing.assert_array_equal(whole, run_chunks([1] * 12))
    np.testing.assert_array_equal(whole, run_chunks([5, 7]))


def test_seeded_parallel_matches_seeded_concurrent_p1(ring6_game):
    """The seeded p = 1 kernel also skips mask rows, so it replays the
    SeededParallelKernel streams exactly."""
    start = np.zeros(6, dtype=np.int64)
    results = []
    for dyn in (
        ParallelLogitDynamics(ring6_game, 0.8),
        ConcurrentLogitDynamics(ring6_game, 0.8, p=1.0),
    ):
        sim = EnsembleSimulator.seeded(
            dyn, np.random.SeedSequence(123).spawn(5), start=start
        )
        sim.run(20)
        results.append(sim.indices)
    np.testing.assert_array_equal(results[0], results[1])


# ---------------------------------------------------------------------------
# the parallel trap (stationary law != Gibbs)
# ---------------------------------------------------------------------------


class TestParallelTrap:
    """Even coordination ring, p = 1: the concurrent chain provably settles
    away from the Gibbs measure of the sequential dynamics."""

    BETA = 2.0

    def test_empirical_occupation_matches_matrix_powers(self, ring4_game):
        conc = ConcurrentLogitDynamics(ring4_game, self.BETA, p=1.0)
        P = conc.transition_matrix()
        mu = np.zeros(ring4_game.space.size)
        mu[0] = 1.0
        steps = 50
        for _ in range(steps):
            mu = mu @ P
        sim = conc.ensemble(8192, start=0, rng=np.random.default_rng(11))
        sim.run(steps)
        emp = np.bincount(sim.indices, minlength=ring4_game.space.size) / 8192
        assert total_variation(emp, mu) < 0.03

    def test_concurrent_law_far_from_gibbs(self, ring4_game):
        conc = ConcurrentLogitDynamics(ring4_game, self.BETA, p=1.0)
        pi_conc = conc.stationary_distribution()
        pi_gibbs = gibbs_measure(ring4_game.potential_vector(), self.BETA)
        # the anti-aligned "blinking" profiles carry half the stationary mass
        assert total_variation(pi_conc, pi_gibbs) > 0.4
        P = conc.transition_matrix()
        mu = np.zeros(ring4_game.space.size)
        mu[0] = 1.0
        for _ in range(50):
            mu = mu @ P
        assert total_variation(mu, pi_gibbs) > 0.4

    def test_p_below_one_has_neither_gibbs_nor_product_form(self, ring4_game):
        beta = 1.0  # moderate temperature keeps all three laws distinct
        pi_half = ConcurrentLogitDynamics(
            ring4_game, beta, p=0.5
        ).stationary_distribution()
        pi_gibbs = gibbs_measure(ring4_game.potential_vector(), beta)
        pi_prod = theorem1207_stationary_product(ring4_game, beta)
        assert total_variation(pi_half, pi_gibbs) > 0.01
        assert total_variation(pi_half, pi_prod) > 0.1


# ---------------------------------------------------------------------------
# doubled potential and the 1207 bounds
# ---------------------------------------------------------------------------


class TestDoubledPotential:
    def test_psi_is_symmetric(self, ring6_game):
        psi = lemma1207_doubled_potential(ring6_game)
        np.testing.assert_allclose(psi, psi.T)

    def test_product_form_is_stationary_and_reversible(self, ring6_game):
        beta = 0.7
        conc = ConcurrentLogitDynamics(ring6_game, beta, p=1.0)
        pi = theorem1207_stationary_product(ring6_game, beta)
        np.testing.assert_allclose(pi, conc.stationary_distribution(), atol=1e-9)
        flow = pi[:, None] * conc.transition_matrix()
        np.testing.assert_allclose(flow, flow.T, atol=1e-12)

    def test_asymmetric_edge_payoffs_rejected(self):
        asymmetric = np.array([[0.0, 1.0], [0.0, 0.0]])
        game = LocalInteractionGame(nx.cycle_graph(4), asymmetric)
        with pytest.raises(ValueError, match="symmetric"):
            lemma1207_doubled_potential(game)

    def test_games_without_local_structure_rejected(self):
        with pytest.raises(TypeError, match="csr_arrays"):
            lemma1207_doubled_potential(object())


class TestConcurrentBounds:
    def test_mixing_upper_monotone_in_beta_and_p(self):
        lo = theorem1207_mixing_upper(64, 2, 0.1, 1.0)
        hi = theorem1207_mixing_upper(64, 2, 0.4, 1.0)
        assert np.isfinite(lo) and lo <= hi
        # lower update probability slows the contraction
        slow = theorem1207_mixing_upper(64, 2, 0.1, 1.0, p=0.25)
        assert lo <= slow < np.inf

    def test_mixing_upper_diverges_past_threshold(self):
        delta = 1.0
        beta_c = theorem1207_beta_threshold(4, delta)
        assert np.isfinite(beta_c)
        assert np.isfinite(theorem1207_mixing_upper(64, 4, 0.9 * beta_c, delta))
        assert theorem1207_mixing_upper(64, 4, 1.1 * beta_c, delta) == np.inf

    def test_beta_threshold_infinite_for_degree_at_most_one(self):
        assert theorem1207_beta_threshold(1, 1.0) == np.inf
        assert theorem1207_beta_threshold(0, 1.0) == np.inf

    def test_mixing_lower_grows_exponentially_in_beta(self):
        small = theorem1207_mixing_lower(1.0, 4.0, 8)
        large = theorem1207_mixing_lower(2.0, 4.0, 8)
        assert large > small > 0
        assert large / small == pytest.approx(np.exp(4.0))

    def test_update_rate_lower(self):
        assert lemma1207_update_rate_lower(2, 1.0) == 1.0
        # eps already above the per-player gap: zero steps needed
        assert lemma1207_update_rate_lower(2, 0.5, epsilon=0.49) > 0.0
        assert lemma1207_update_rate_lower(1, 0.5) == 0.0
        # fewer updates per step means more steps
        assert lemma1207_update_rate_lower(2, 0.1) > lemma1207_update_rate_lower(2, 0.9)


# ---------------------------------------------------------------------------
# adaptive + sharded estimation for concurrent dynamics
# ---------------------------------------------------------------------------


class TestConcurrentAdaptiveEstimation:
    def test_hitting_times_chunk_size_invariance(self, ring6_game):
        conc = ConcurrentLogitDynamics(ring6_game, 0.8, p=0.5)
        target = consensus_target(ring6_game)
        runs = [
            empirical_hitting_times(
                ring6_game, 0.8, 0, target, max_steps=500,
                precision=1e-9, seed=42, chunk_size=k, max_replicas=48,
                dynamics=conc,
            )
            for k in (1, 7, 64)
        ]
        np.testing.assert_array_equal(runs[0].samples, runs[1].samples)
        np.testing.assert_array_equal(runs[0].samples, runs[2].samples)

    def test_hitting_times_shard_count_invariance(self, ring6_game):
        conc = ConcurrentLogitDynamics(ring6_game, 0.8, p=0.5)
        target = consensus_target(ring6_game)
        serial = empirical_hitting_times(
            ring6_game, 0.8, 0, target, max_steps=500,
            precision=1e-9, seed=42, chunk_size=16, max_replicas=48,
            dynamics=conc,
        )
        for k in (1, 3, 8):
            with ShardedExecutor(k) as ex:
                sharded = empirical_hitting_times(
                    ring6_game, 0.8, 0, target, max_steps=500,
                    precision=1e-9, seed=42, chunk_size=16, max_replicas=48,
                    dynamics=conc, executor=ex,
                )
            np.testing.assert_array_equal(serial.samples, sharded.samples)

    def test_parallel_dynamics_now_supports_precision(self, ring6_game):
        """Before this change ParallelLogitDynamics was rejected outright;
        now it runs on its own seeded per-replica streams."""
        est = empirical_hitting_times(
            ring6_game, 0.8, 0, consensus_target(ring6_game), max_steps=500,
            precision=1e-9, seed=5, chunk_size=16, max_replicas=32,
            dynamics=ParallelLogitDynamics(ring6_game, 0.8),
        )
        assert est.n == 32
        assert est.samples.min() >= 0

    def test_tv_convergence_executor_shard_invariance(self, ring6_game):
        conc = ConcurrentLogitDynamics(ring6_game, 0.8, p=0.5)
        reference = conc.stationary_distribution()
        estimates = []
        for k in (1, 3, 8):
            with ShardedExecutor(k) as ex:
                estimates.append(
                    estimate_tv_convergence(
                        conc, reference, num_replicas=64, epsilon=0.1,
                        start=0, max_time=200, check_every=20, seed=7,
                        executor=ex,
                    )
                )
        for other in estimates[1:]:
            np.testing.assert_array_equal(estimates[0].tv_curve, other.tv_curve)
            np.testing.assert_array_equal(
                estimates[0].final_indices, other.final_indices
            )

    def test_tv_convergence_process_executor_matches_serial(self, ring6_game):
        conc = ConcurrentLogitDynamics(ring6_game, 0.8, p=0.5)
        reference = conc.stationary_distribution()
        with ShardedExecutor(2) as serial_ex:
            serial = estimate_tv_convergence(
                conc, reference, num_replicas=32, epsilon=0.1,
                start=0, max_time=100, check_every=25, seed=7, executor=serial_ex,
            )
        with ShardedExecutor(2, backend="process", max_workers=2) as proc_ex:
            process = estimate_tv_convergence(
                conc, reference, num_replicas=32, epsilon=0.1,
                start=0, max_time=100, check_every=25, seed=7, executor=proc_ex,
            )
        np.testing.assert_array_equal(serial.tv_curve, process.tv_curve)
        np.testing.assert_array_equal(serial.final_indices, process.final_indices)
