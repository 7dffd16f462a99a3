"""Tests for the batched simulation engine (repro.engine).

The contract under test is *equivalence*: the batched paths must reproduce
the single-replica reference loop bit-for-bit under a fixed seed, the
batched coupling update must agree with the scalar maximal-overlap
construction row by row, and the ensemble mixing estimator must land in the
same ballpark as the exact dense computation.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import (
    LogitDynamics,
    empirical_escape_times,
    empirical_hitting_times,
    escape_time_from,
    estimate_mixing_time_ensemble,
    measure_mixing_time,
)
from repro.core.logit import UtilityRule
from repro.core.variants import ConcurrentLogitDynamics, RoundRobinLogitDynamics
from repro.engine import (
    EnsembleSimulator,
    maximal_coupling_update_many,
    sample_from_cumulative,
    sample_inverse_cdf,
    simulate_grand_coupling_ensemble,
)
from repro.games import (
    CoordinationParams,
    GraphicalCoordinationGame,
    IsingGame,
    SingletonCongestionGame,
    random_game,
)
from repro.markov.coupling import maximal_coupling_update

from conftest import CallableGame


class TestSamplingHelpers:
    def test_scalar_matches_searchsorted(self):
        probs = np.array([0.25, 0.5, 0.25])
        cum = np.cumsum(probs)
        for u in np.linspace(0, 0.999, 37):
            expected = min(int(np.searchsorted(cum, u, side="right")), 2)
            assert sample_inverse_cdf(probs, float(u)) == expected

    def test_rows_match_scalar(self, rng):
        probs = rng.dirichlet(np.ones(4), size=64)
        uniforms = rng.random(64)
        batched = sample_inverse_cdf(probs, uniforms)
        for j in range(64):
            assert batched[j] == sample_inverse_cdf(probs[j], float(uniforms[j]))

    def test_clamps_roundoff_above_total_mass(self):
        # cumulative sums that fall short of 1.0 must clamp, not overflow
        probs = np.array([0.5, 0.5 - 1e-12])
        assert sample_inverse_cdf(probs, 0.9999999999999) == 1

    def test_cumulative_shape_validation(self):
        with pytest.raises(ValueError):
            sample_from_cumulative(np.zeros((2, 2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            sample_from_cumulative(np.zeros((3, 2)), np.zeros(2))


class TestFixedSeedEquivalence:
    """Batched engine vs. the pure-Python reference loop, same seed."""

    @pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
    def test_single_replica_matches_loop(self, ring5_ising_game, beta):
        dynamics = LogitDynamics(ring5_ising_game, beta)
        start = (0, 1, 0, 1, 1)
        loop = dynamics.simulate_loop(start, 400, rng=np.random.default_rng(42))
        batched = dynamics.simulate(start, 400, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(loop, batched)

    def test_single_replica_matches_loop_multistrategy(self):
        game = SingletonCongestionGame(num_players=4, num_resources=3)
        dynamics = LogitDynamics(game, 1.2)
        start = (0, 1, 2, 0)
        loop = dynamics.simulate_loop(start, 300, rng=np.random.default_rng(7))
        batched = dynamics.simulate(start, 300, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(loop, batched)

    def test_record_every_matches_loop(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        loop = dynamics.simulate_loop(
            (0,) * 5, 100, rng=np.random.default_rng(3), record_every=10
        )
        batched = dynamics.simulate(
            (0,) * 5, 100, rng=np.random.default_rng(3), record_every=10
        )
        np.testing.assert_array_equal(loop, batched)

    def test_index_and_matrix_states_agree(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 0.8)
        start = np.zeros(5, dtype=np.int64)
        runs = {}
        for state in ("index", "matrix"):
            sim = EnsembleSimulator(
                dynamics, 32, start=start, rng=np.random.default_rng(11), state=state
            )
            runs[state] = sim.run(200, record_every=1)
        np.testing.assert_array_equal(runs["index"], runs["matrix"])

    def test_index_matches_matrix_with_unequal_strategy_counts(self):
        # (2, 3, 4): players 0 and 1 read padded columns of the gather table
        game = random_game((2, 3, 4), rng=np.random.default_rng(21))
        dynamics = LogitDynamics(game, 1.3)
        target = game.space.size - 1
        times, finals, runs = {}, {}, {}
        for state in ("index", "matrix"):
            seeds = np.random.SeedSequence(5).spawn(48)
            sim = EnsembleSimulator.seeded(dynamics, seeds, start=0, state=state)
            times[state] = sim.hitting_times(target, max_steps=60)
            finals[state] = sim.indices
            sim = EnsembleSimulator(
                dynamics, 16, start=0, rng=np.random.default_rng(9), state=state
            )
            runs[state] = sim.run(120, record_every=7)
        assert (times["index"] > 0).any() and (times["index"] < 0).any()
        np.testing.assert_array_equal(times["index"], times["matrix"])
        np.testing.assert_array_equal(finals["index"], finals["matrix"])
        np.testing.assert_array_equal(runs["index"], runs["matrix"])

    def test_gather_clamps_roundoff_to_each_players_last_strategy(self):
        # rows summing to 1 - 1e-12 and uniforms above that mass: both
        # states must clamp to the mover's own last strategy, never to a
        # padded one
        game = random_game((2, 3, 4), rng=np.random.default_rng(0))
        space = game.space

        class ShortMassRule(UtilityRule):
            def __init__(self):
                self.game = game

            def player_update_matrix(self, player):
                m = space.num_strategies[player]
                return np.full((space.size, m), (1.0 - 1e-12) / m)

            def update_distribution_profiles(self, player, profiles):
                rows = space.encode_many(np.asarray(profiles, dtype=np.int64))
                return self.player_update_matrix(player)[rows]

        rule = ShortMassRule()
        starts = np.arange(space.size, dtype=np.int64)
        batches = {"index": starts, "matrix": space.decode_many(starts)}
        players = starts % space.num_players
        uniforms = np.where(starts % 2 == 0, 1.0 - 1e-13, 0.4)
        results = {}
        for state, batch in batches.items():
            sim = EnsembleSimulator(
                rule, space.size, start_indices=starts, state=state
            )
            sim._advance_batch(players, uniforms)
            moves = [
                sim._sample_moves(i, batch, np.full(space.size, 1.0 - 1e-13))
                for i in range(space.num_players)
            ]
            results[state] = sim.indices, moves
        np.testing.assert_array_equal(results["index"][0], results["matrix"][0])
        for i, m in enumerate(space.num_strategies):
            np.testing.assert_array_equal(results["index"][1][i], m - 1)
            np.testing.assert_array_equal(results["matrix"][1][i], m - 1)

    def test_generic_fallback_agrees_with_table_fast_path(self):
        # the same game expressed as a tabulated and as a callable game must
        # produce identical batched utilities and identical trajectories
        table = random_game((2, 3, 2), rng=np.random.default_rng(5))
        callable_game = CallableGame(
            (2, 3, 2), lambda i, prof: table.utility(i, table.space.encode(prof))
        )
        idx = np.random.default_rng(6).integers(0, table.space.size, size=20)
        for player in range(3):
            np.testing.assert_allclose(
                table.utility_deviations_many(player, idx),
                callable_game.utility_deviations_many(player, idx),
            )


class TestRecordEvery:
    """One validation rule for the snapshot interval at every recording site."""

    SITES = [
        "run", "simulate", "sequential_loop", "concurrent_loop", "round_robin_loop"
    ]

    @staticmethod
    def record(game, site, every):
        start = (0,) * game.num_players
        logit = LogitDynamics(game, 1.0)
        if site == "run":
            return logit.ensemble(2).run(4, record_every=every)
        if site == "simulate":
            return logit.simulate(start, 4, record_every=every)
        if site == "sequential_loop":
            return logit.simulate_loop(start, 4, record_every=every)
        variant = (
            ConcurrentLogitDynamics(game, 1.0, p=0.5)
            if site == "concurrent_loop"
            else RoundRobinLogitDynamics(game, 1.0)
        )
        return variant.simulate_loop(start, 4, record_every=every)

    @pytest.mark.parametrize("site", SITES)
    def test_rejects_intervals_below_one_and_non_integers(self, ring5_ising_game, site):
        # regression: max(int(record_every), 1) read 0 and -3 as 1, 2.7 as 2
        for bad in (0, -3):
            with pytest.raises(ValueError, match="record_every"):
                self.record(ring5_ising_game, site, bad)
        for bad in (2.7, 2.0):
            with pytest.raises(TypeError):
                self.record(ring5_ising_game, site, bad)
        assert len(self.record(ring5_ising_game, site, np.int64(2))) == 3


class TestEnsembleSimulator:
    def test_every_step_is_a_single_site_update(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        sim = dynamics.ensemble(8, start=(0, 1, 0, 1, 0), rng=np.random.default_rng(0))
        traj = sim.run(50, record_every=1)  # (51, 8, 5)
        diffs = np.count_nonzero(traj[1:] != traj[:-1], axis=2)
        assert np.all(diffs <= 1)

    def test_start_broadcasting_forms(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        space = ring5_ising_game.space
        by_index = dynamics.ensemble(4, start=7)
        by_profile = dynamics.ensemble(4, start=space.decode(7))
        by_indices = dynamics.ensemble(4, start_indices=np.full(4, 7))
        by_profiles = dynamics.ensemble(4, start=np.tile(space.decode(7), (4, 1)))
        for sim in (by_index, by_profile, by_indices, by_profiles):
            np.testing.assert_array_equal(sim.indices, np.full(4, 7))

    def test_one_d_start_is_a_profile_even_when_replicas_equal_players(
        self, ring5_ising_game
    ):
        # with R == n a 1-D array could be read two ways; the contract is
        # that `start` always means a profile and indices go through
        # `start_indices`, so no silent misparse is possible
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        profile = np.array([0, 1, 0, 1, 1])
        sim = dynamics.ensemble(5, start=profile)
        expected = ring5_ising_game.space.encode(profile)
        np.testing.assert_array_equal(sim.indices, np.full(5, expected))
        by_indices = dynamics.ensemble(5, start_indices=np.array([3, 7, 31, 0, 1]))
        np.testing.assert_array_equal(by_indices.indices, [3, 7, 31, 0, 1])

    def test_start_validation(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        with pytest.raises(ValueError):
            dynamics.ensemble(4, start=np.zeros((3, 5), dtype=np.int64))
        with pytest.raises(ValueError):
            dynamics.ensemble(4, start=ring5_ising_game.space.size)
        with pytest.raises(ValueError):
            dynamics.ensemble(4, start_indices=np.full(4, ring5_ising_game.space.size))
        with pytest.raises(ValueError):
            dynamics.ensemble(4, start=3, start_indices=np.full(4, 3))
        with pytest.raises(ValueError):
            dynamics.ensemble(4, start_indices=np.full(3, 1))
        with pytest.raises(ValueError):
            EnsembleSimulator(dynamics, 0)
        with pytest.raises(ValueError):
            EnsembleSimulator(dynamics, 4, state="warp")

    def test_num_replicas_must_be_an_integer(self, ring5_ising_game):
        # regression: 2.7 was cast to int and built two replicas
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        with pytest.raises(TypeError):
            EnsembleSimulator(dynamics, 2.7)
        with pytest.raises(TypeError):
            dynamics.ensemble(2.0)
        assert EnsembleSimulator(dynamics, np.int64(3)).num_replicas == 3

    def test_empirical_distribution_sums_to_one(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 0.5)
        sim = dynamics.ensemble(64, rng=np.random.default_rng(2))
        sim.run(100)
        dist = sim.empirical_distribution()
        assert dist.shape == (32,)
        assert dist.sum() == pytest.approx(1.0)

    def test_hitting_times_zero_at_target(self, dominant_game):
        dynamics = LogitDynamics(dominant_game, 1.0)
        target = dominant_game.space.encode((0, 0, 0))
        sim = dynamics.ensemble(5, start=target)
        np.testing.assert_array_equal(sim.hitting_times(target), np.zeros(5))

    def test_hitting_times_reach_dominant_profile(self, dominant_game):
        dynamics = LogitDynamics(dominant_game, 5.0)
        target = dominant_game.space.encode((0, 0, 0))
        sim = dynamics.ensemble(16, start=(1, 1, 1), rng=np.random.default_rng(4))
        times = sim.hitting_times(target, max_steps=20_000)
        assert np.all(times > 0)

    def test_out_of_range_index_targets_raise(self):
        game = IsingGame(nx.cycle_graph(6), coupling=1.0)
        dynamics = LogitDynamics(game, 0.7)
        sim = dynamics.ensemble(8, start=0, rng=np.random.default_rng(1))
        for bad in (64, -1, [3, 99]):
            with pytest.raises(ValueError, match="must lie in"):
                sim.hitting_times(bad, max_steps=10)
        with pytest.raises(ValueError, match="must lie in"):
            sim.exit_times([0, 200], max_steps=10)
        with pytest.raises(ValueError, match="must lie in"):
            empirical_hitting_times(
                game, 0.7, 0, 64, num_replicas=8, max_steps=10,
                seed=1,
            )
        assert sim.hitting_times([0, 63], max_steps=10).tolist() == [0] * 8

    def test_negative_max_steps_raises(self, dominant_game):
        dynamics = LogitDynamics(dominant_game, 1.0)
        sim = dynamics.ensemble(4, start_indices=np.array([0, 5, 0, 7]))
        with pytest.raises(ValueError, match="non-negative"):
            sim.hitting_times(0, max_steps=-5)
        with pytest.raises(ValueError, match="non-negative"):
            sim.exit_times([0], max_steps=-1)
        np.testing.assert_array_equal(sim.hitting_times(0, max_steps=0), [0, -1, 0, -1])

    def test_exit_times_leave_shallow_well(self, two_well_game):
        all0, _ = two_well_game.well_indices
        times = empirical_escape_times(
            two_well_game,
            beta=0.1,
            states=[all0],
            num_replicas=32,
            max_steps=10_000,
            seed=8,
        ).samples
        assert np.all(times > 0)

    @pytest.mark.slow
    def test_ensemble_empirical_matches_gibbs(self, two_well_game):
        """Many replicas, moderate horizon: occupation ~ Gibbs measure."""
        from repro.core import gibbs_measure
        from repro.markov.tv import total_variation

        beta = 0.5
        dynamics = LogitDynamics(two_well_game, beta)
        sim = dynamics.ensemble(4000, rng=np.random.default_rng(9))
        sim.run(600)
        pi = gibbs_measure(two_well_game.potential_vector(), beta)
        assert total_variation(sim.empirical_distribution(), pi) < 0.05


class TestBatchedCoupling:
    def test_batched_update_matches_scalar_exactly(self, rng):
        m = 4
        probs_x = rng.dirichlet(np.ones(m), size=50)
        probs_y = rng.dirichlet(np.ones(m), size=50)
        uniforms = rng.random(50)
        sx, sy = maximal_coupling_update_many(probs_x, probs_y, uniforms)
        for j in range(50):
            ex, ey = maximal_coupling_update(probs_x[j], probs_y[j], float(uniforms[j]))
            assert (sx[j], sy[j]) == (ex, ey)

    def test_identical_rows_always_agree(self, rng):
        probs = rng.dirichlet(np.ones(3), size=40)
        uniforms = rng.random(40)
        sx, sy = maximal_coupling_update_many(probs, probs, uniforms)
        np.testing.assert_array_equal(sx, sy)

    @pytest.mark.slow
    def test_batched_marginals_are_correct(self):
        """A fine uniform grid through the batched coupling recovers both marginals."""
        probs_x = np.array([0.7, 0.2, 0.1])
        probs_y = np.array([0.1, 0.3, 0.6])
        k = 200_000
        grid = (np.arange(k) + 0.5) / k
        sx, sy = maximal_coupling_update_many(
            np.tile(probs_x, (k, 1)), np.tile(probs_y, (k, 1)), grid
        )
        np.testing.assert_allclose(np.bincount(sx, minlength=3) / k, probs_x, atol=2e-4)
        np.testing.assert_allclose(np.bincount(sy, minlength=3) / k, probs_y, atol=2e-4)
        overlap = np.minimum(probs_x, probs_y).sum()
        assert np.mean(sx == sy) == pytest.approx(overlap, abs=2e-4)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            maximal_coupling_update_many(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            maximal_coupling_update_many(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(3))

    def test_equal_starts_coalesce_immediately(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        result = simulate_grand_coupling_ensemble(
            dynamics, (0,) * 5, (0,) * 5, horizon=10, num_runs=6,
            rng=np.random.default_rng(0),
        )
        assert np.all(result.coalescence_times == 0)

    def test_beta_zero_coalesces_fast(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 0.0)
        result = simulate_grand_coupling_ensemble(
            dynamics, (0,) * 5, (1,) * 5, horizon=500, num_runs=32,
            rng=np.random.default_rng(1),
        )
        # at beta = 0 both copies make identical uniform choices on every
        # selected coordinate, so coalescence is a coupon-collector event
        assert result.fraction_coalesced == 1.0
        assert result.coalescence_times.mean() < 100

    def test_negative_horizon_is_rejected(self, ring5_ising_game):
        # used to come back as a mixing-time estimate of -5.0
        from repro.core.mixing import estimate_mixing_time_coupling

        with pytest.raises(ValueError, match="horizon"):
            estimate_mixing_time_coupling(
                ring5_ising_game, 1.0, (0,) * 5, (1,) * 5, horizon=-5
            )
        with pytest.raises(ValueError, match="horizon"):
            simulate_grand_coupling_ensemble(
                LogitDynamics(ring5_ising_game, 1.0), (0,) * 5, (0,) * 5, horizon=-1
            )

    def test_zero_runs_are_rejected(self, ring5_ising_game):
        # used to raise IndexError from inside np.quantile
        from repro.core.mixing import estimate_mixing_time_coupling

        with pytest.raises(ValueError, match="num_runs"):
            estimate_mixing_time_coupling(
                ring5_ising_game, 1.0, (0,) * 5, (1,) * 5, horizon=10, num_runs=0
            )

    def test_start_of_wrong_length_is_rejected(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        with pytest.raises(ValueError, match="length num_players"):
            simulate_grand_coupling_ensemble(dynamics, (0,) * 4, (1,) * 5, horizon=10)
        with pytest.raises(ValueError, match="length num_players"):
            simulate_grand_coupling_ensemble(dynamics, (0,) * 5, (1,) * 6, horizon=10)


class TestEnsembleMixingEstimate:
    def test_tv_convergence_clamps_to_finite_annealing_schedule(self):
        """Regression: a finite beta_t schedule shorter than max_time must
        come back as a capped estimate from the estimator itself, not raise
        mid-measurement."""
        from repro.core import estimate_tv_convergence, gibbs_measure
        from repro.core.variants import AnnealedLogitDynamics
        from repro.games import TwoWellGame

        game = TwoWellGame(num_players=3, barrier=1.0)
        pi = gibbs_measure(game.potential_vector(), 0.05)
        estimate = estimate_tv_convergence(
            AnnealedLogitDynamics(game, np.full(50, 0.05)),
            pi,
            num_replicas=64,
            epsilon=1e-9,  # unreachable: force the run to the horizon
            max_time=10**4,
            seed=0,
        )
        assert estimate.capped
        assert estimate.mixing_time_estimate <= 50

    def test_simulator_dynamics_is_the_kernel_rule(self, two_well_game):
        """An explicit kernel carries its own rule; the simulator must report
        the rule it actually advances, not the constructor argument."""
        from repro.engine import SequentialKernel

        slow = LogitDynamics(two_well_game, 0.5)
        fast = LogitDynamics(two_well_game, 5.0)
        sim = EnsembleSimulator(slow, 4, kernel=SequentialKernel(fast))
        assert sim.dynamics is fast
        assert EnsembleSimulator(slow, 4).dynamics is slow

    @pytest.mark.slow
    def test_brackets_exact_mixing_time(self):
        """Sampled mixing estimate lands around the dense exact t_mix."""
        game = GraphicalCoordinationGame(nx.cycle_graph(4), CoordinationParams.ising(1.0))
        beta = 0.5
        exact = measure_mixing_time(game, beta).mixing_time
        estimate = estimate_mixing_time_ensemble(
            game,
            beta,
            num_replicas=4096,
            check_every=1,
            seed=10,
        )
        assert not estimate.capped
        # single-start sampled estimate vs worst-case exact quantity, with
        # sampling bias pushing the estimate up: bracket generously.
        assert 0.25 * exact <= estimate.mixing_time_estimate <= 4.0 * exact

    def test_tv_curve_is_recorded_and_decreasing_overall(self):
        game = IsingGame(nx.cycle_graph(5))
        estimate = estimate_mixing_time_ensemble(
            game, 0.3, num_replicas=512, seed=3, max_time=500
        )
        curve = estimate.tv_curve
        assert curve.ndim == 2 and curve.shape[1] == 2
        assert curve[0, 1] > curve[-1, 1]
        assert curve[-1, 1] <= 0.25 or estimate.capped

    def test_epsilon_validation(self, ring5_ising_game):
        with pytest.raises(ValueError):
            estimate_mixing_time_ensemble(ring5_ising_game, 1.0, epsilon=0.0)

    def test_non_potential_game_guarded_beyond_dense_cap(self):
        # without a Gibbs closed form pi needs the dense eigen-solve, which
        # must be refused (not attempted) beyond the exact-measurement cap
        big = CallableGame((2,) * 20, lambda i, prof: float(prof[i]))
        with pytest.raises(ValueError, match="cap"):
            estimate_mixing_time_ensemble(big, 0.5, num_replicas=8, max_time=10)


class TestEnsembleMetastability:
    @pytest.mark.slow
    def test_empirical_escape_matches_exact_scale(self, two_well_game):
        """Ensemble escape-time samples agree with the linear-system solve."""
        beta = 1.0
        all0, _ = two_well_game.well_indices
        well = [all0] + [int(x) for x in two_well_game.space.neighbors(all0)]
        chain = LogitDynamics(two_well_game, beta).markov_chain()
        exact = escape_time_from(chain, well)
        samples = empirical_escape_times(
            two_well_game,
            beta,
            well,
            num_replicas=400,
            max_steps=200_000,
            seed=12,
        ).samples
        assert np.all(samples > 0)
        assert samples.mean() == pytest.approx(exact, rel=0.35)

    def test_empirical_hitting_times_from_well_to_well(self, two_well_game):
        all0, all1 = two_well_game.well_indices
        samples = empirical_hitting_times(
            two_well_game,
            beta=0.5,
            start=all0,
            targets=all1,
            num_replicas=32,
            max_steps=100_000,
            seed=13,
        ).samples
        assert np.all(samples > 0)


class TestProfileSpaceBatchSurgery:
    def test_deviations_many_matches_scalar(self, rng):
        from repro.games import ProfileSpace

        space = ProfileSpace((2, 3, 4))
        idx = rng.integers(0, space.size, size=17)
        for player in range(3):
            batched = space.deviations_many(idx, player)
            for j, x in enumerate(idx):
                np.testing.assert_array_equal(batched[j], space.deviations(int(x), player))

    def test_set_strategy_many(self, rng):
        from repro.games import ProfileSpace

        space = ProfileSpace((2, 3, 4))
        idx = rng.integers(0, space.size, size=23)
        for player in range(3):
            strategies = rng.integers(0, space.num_strategies[player], size=23)
            new = space.set_strategy_many(idx, player, strategies)
            for j in range(23):
                assert new[j] == space.replace(int(idx[j]), player, int(strategies[j]))

    def test_set_strategy_many_validation(self):
        from repro.games import ProfileSpace

        space = ProfileSpace((2, 2))
        with pytest.raises(ValueError):
            space.set_strategy_many(np.zeros(3, dtype=np.int64), 0, np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            space.set_strategy_many(np.zeros(2, dtype=np.int64), 0, np.full(2, 5))


class TestProfileSpaceSizeOverflow:
    def test_size_is_exact_python_int(self):
        from repro.games import ProfileSpace

        space = ProfileSpace((3,) * 50)
        assert space.size == 3**50  # would wrap around under int64 np.prod
        assert isinstance(space.size, int)

    def test_scalar_encode_decode_beyond_int64(self):
        from repro.games import ProfileSpace

        space = ProfileSpace((3,) * 50)
        profile = tuple([2] * 50)
        idx = space.encode(profile)
        assert idx == 3**50 - 1
        assert space.decode(idx) == profile
        assert space.strategy_of(idx, 49) == 2

    def test_vectorised_paths_raise_clearly_beyond_int64(self):
        from repro.games import ProfileSpace

        space = ProfileSpace((3,) * 50)
        with pytest.raises(ValueError, match="int64"):
            space.decode_many(np.array([0, 1]))
        with pytest.raises(ValueError, match="int64"):
            space.encode_many(np.zeros((2, 50), dtype=np.int64))

    def test_dense_paths_raise_clearly_above_cap(self):
        from repro.games import ProfileSpace

        space = ProfileSpace((2,) * 40)  # ~10^12 profiles: int64-fine, dense-impossible
        with pytest.raises(ValueError, match="profiles"):
            space.all_profiles()
        with pytest.raises(ValueError, match="profiles"):
            space.deviation_matrix(0)


class TestSparseCache:
    def test_sparse_transition_matrix_cached(self, ring5_ising_game):
        dynamics = LogitDynamics(ring5_ising_game, 1.0)
        assert dynamics.sparse_transition_matrix() is dynamics.sparse_transition_matrix()
