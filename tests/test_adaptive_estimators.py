"""Tests for adaptive (chunked, interval-returning) Monte-Carlo estimators.

Covers the engine's per-replica seeded streams
(:class:`repro.engine.SeededSequentialKernel`), the deterministic-chunking
contract of the adaptive estimators, the fixed-budget contract (a run
without a stopping target is the driver's full-budget run), and the
``converged`` / ``-1`` sentinel semantics of the ensemble mixing
estimators.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.analysis.welfare import (
    estimate_stationary_welfare,
    stationary_expected_welfare,
    welfare_of_profiles,
)
from repro.core import (
    LogitDynamics,
    empirical_escape_times,
    empirical_hitting_times,
    estimate_mixing_time_ensemble,
    estimate_tv_convergence,
)
from repro.core.variants import AnnealedLogitDynamics, RoundRobinLogitDynamics
from repro.engine import EnsembleSimulator, SeededSequentialKernel
from repro.games import IsingGame, TwoWellGame
from repro.parallel import ShardedExecutor
from repro.stats import StreamingEstimate


@pytest.fixture
def ring6_game() -> IsingGame:
    return IsingGame(nx.cycle_graph(6), coupling=1.0)


def consensus_target(game: IsingGame) -> int:
    return int(game.space.encode(np.ones(game.space.num_players, dtype=np.int64)))


def lower_well(game: TwoWellGame) -> np.ndarray:
    w = game.space.weight(np.arange(game.space.size))
    return np.flatnonzero(w < game.num_players / 2)


class TestSeededKernel:
    def test_chunked_pooled_hitting_times_identical(self, ring6_game):
        """The satellite regression: a fixed master seed gives identical
        pooled hitting-time samples for chunk sizes 1, 7 and 64."""
        dynamics = LogitDynamics(ring6_game, 1.0)
        target = consensus_target(ring6_game)

        def pooled(chunk_size, total=21):
            root = np.random.SeedSequence(2024)
            out = []
            remaining = total
            while remaining:
                k = min(chunk_size, remaining)
                sim = EnsembleSimulator.seeded(
                    dynamics, root.spawn(k), start=(0,) * 6
                )
                out.append(sim.hitting_times(target, max_steps=5000))
                remaining -= k
            return np.concatenate(out)

        reference = pooled(64)
        np.testing.assert_array_equal(pooled(1), reference)
        np.testing.assert_array_equal(pooled(7), reference)

    def test_runs_are_resumable(self, ring6_game):
        dynamics = LogitDynamics(ring6_game, 0.8)
        seeds = np.random.SeedSequence(3).spawn(8)
        one_shot = EnsembleSimulator.seeded(dynamics, seeds, start=(0,) * 6)
        one_shot.run(120)
        split = EnsembleSimulator.seeded(
            dynamics, np.random.SeedSequence(3).spawn(8), start=(0,) * 6
        )
        split.run(40)
        split.run(80)
        np.testing.assert_array_equal(one_shot.profiles, split.profiles)

    def test_resume_after_first_passage_keeps_per_replica_streams(self, ring6_game):
        """A replica retired early by a first-passage call must continue its
        own stream — not jump to the other replicas' global offset — when
        the simulator is advanced again afterwards."""
        dynamics = LogitDynamics(ring6_game, 1.0)
        target = consensus_target(ring6_game)
        seeds = np.random.SeedSequence(77).spawn(8)
        mixed = EnsembleSimulator.seeded(dynamics, seeds, start=(0,) * 6)
        times = mixed.hitting_times(target, max_steps=400)
        mixed.run(300)  # documented resumable usage after retirement
        for r, seed in enumerate(np.random.SeedSequence(77).spawn(8)):
            solo = EnsembleSimulator.seeded(dynamics, [seed], start=(0,) * 6)
            solo_time = solo.hitting_times(target, max_steps=400)[0]
            solo.run(300)
            assert solo_time == times[r]
            np.testing.assert_array_equal(
                solo.profiles[0], mixed.profiles[r],
                err_msg=f"replica {r} desynced from its own stream",
            )

    def test_reset_replays_seed_sequences(self, ring6_game):
        dynamics = LogitDynamics(ring6_game, 0.8)
        sim = EnsembleSimulator.seeded(
            dynamics, np.random.SeedSequence(11).spawn(4), start=(0,) * 6
        )
        sim.run(60)
        first = sim.profiles
        sim.reset((0,) * 6)
        sim.run(60)
        np.testing.assert_array_equal(first, sim.profiles)

    def test_matrix_backend_past_int64(self):
        """Per-replica streams work index-free on 100-player games."""
        game = IsingGame(nx.cycle_graph(100), coupling=1.0)
        dynamics = LogitDynamics(game, 0.7)
        sim = EnsembleSimulator.seeded(
            dynamics,
            np.random.SeedSequence(5).spawn(4),
            start=np.zeros(100, dtype=np.int64),
        )
        assert sim.state.kind == "matrix"
        times = sim.hitting_times(lambda p: p.sum(axis=1) >= 8, max_steps=2000)
        assert times.shape == (4,)
        assert np.all(times > 0)

    def test_replica_count_mismatch_rejected(self, ring6_game):
        dynamics = LogitDynamics(ring6_game, 1.0)
        kernel = SeededSequentialKernel(dynamics, np.random.SeedSequence(0).spawn(3))
        with pytest.raises(ValueError, match="per-replica streams"):
            EnsembleSimulator(dynamics, 5, kernel=kernel)


class TestAdaptiveHittingTimes:
    def test_adaptive_returns_interval_carrying_estimate(self, ring6_game):
        target = consensus_target(ring6_game)
        est = empirical_hitting_times(
            ring6_game, 1.0, 0, target, max_steps=5000,
            precision=0.1, seed=17, chunk_size=64, max_replicas=2048,
        )
        assert isinstance(est, StreamingEstimate)
        assert est.lower <= est.estimate <= est.upper
        assert est.stopped_early
        assert est.width <= 0.1 * 5000
        assert est.n % 64 == 0
        # truncated samples live on [0, max_steps]
        assert est.samples.min() >= 0 and est.samples.max() <= 5000

    def test_adaptive_chunk_size_invariance(self, ring6_game):
        target = consensus_target(ring6_game)
        runs = [
            empirical_hitting_times(
                ring6_game, 1.0, 0, target, max_steps=2000,
                precision=1e-9, seed=99, chunk_size=k, max_replicas=40,
            )
            for k in (1, 7, 64)
        ]
        np.testing.assert_array_equal(runs[0].samples, runs[1].samples)
        np.testing.assert_array_equal(runs[0].samples, runs[2].samples)
        assert runs[0].estimate == pytest.approx(runs[2].estimate)

    def test_non_seedable_dynamics_rejected(self, ring6_game):
        # round-robin has no seeded per-replica counterpart (parallel and
        # probabilistic schedules now do); the error names the supported ones
        with pytest.raises(ValueError, match="seeded streams"):
            empirical_hitting_times(
                ring6_game, 1.0, 0, consensus_target(ring6_game),
                precision=0.1, dynamics=RoundRobinLogitDynamics(ring6_game, 1.0),
            )

    def test_per_replica_starts_rejected_in_adaptive_mode(self, ring6_game):
        with pytest.raises(ValueError, match="one shared start"):
            empirical_hitting_times(
                ring6_game, 1.0, np.zeros((8, 6), dtype=np.int64),
                consensus_target(ring6_game), precision=0.1,
            )

    def test_fixed_mode_knobs_rejected_in_adaptive_mode(self, ring6_game):
        """num_replicas belongs to the fixed path; accepting and silently
        ignoring it next to precision= would change what the caller asked
        for."""
        target = consensus_target(ring6_game)
        with pytest.raises(ValueError, match="max_replicas"):
            empirical_hitting_times(
                ring6_game, 1.0, 0, target, num_replicas=20_000, precision=0.1,
            )
        game = TwoWellGame(num_players=4, barrier=1.5)
        with pytest.raises(ValueError, match="max_replicas"):
            empirical_escape_times(
                game, 1.0, lower_well(game), num_replicas=512, precision=0.1,
            )

    @pytest.mark.parametrize("target_kind", ["index", "predicate"])
    def test_adaptive_brackets_exact_hitting_time(self, ring6_game, target_kind):
        """The adaptive interval for E[min(tau, T)] must contain the exact
        linear-system hitting time when T dwarfs it, whether the target is
        a profile index or the equivalent profile predicate."""
        beta, max_steps = 0.5, 5000
        target = consensus_target(ring6_game)
        exact = LogitDynamics(ring6_game, beta).markov_chain().expected_hitting_time(
            target
        )[0]
        if target_kind == "index":
            start, targets = 0, target
        else:
            start = np.zeros(6, dtype=np.int64)
            targets = lambda p: p.min(axis=1) == 1  # noqa: E731
        est = empirical_hitting_times(
            ring6_game, beta, start, targets, max_steps=max_steps,
            precision=0.005, seed=7, chunk_size=256, max_replicas=4096,
        )
        assert est.stopped_early
        assert est.samples.max() < max_steps  # the horizon never binds
        assert est.lower <= exact <= est.upper

    def test_profile_start_and_predicate_target(self):
        game = IsingGame(nx.cycle_graph(80), coupling=1.0)
        est = empirical_hitting_times(
            game, 0.7, np.zeros(80, dtype=np.int64),
            lambda p: p.sum(axis=1) >= 8,
            max_steps=1500, precision=0.2, seed=1, chunk_size=32,
            max_replicas=256,
        )
        assert isinstance(est, StreamingEstimate)
        assert est.n >= 32


class TestAdaptiveEscapeTimes:
    def test_adaptive_interval_and_chunk_invariance(self):
        game = TwoWellGame(num_players=4, barrier=1.5)
        well = lower_well(game)
        runs = [
            empirical_escape_times(
                game, 1.0, well, max_steps=2000,
                precision=1e-9, seed=31, chunk_size=k, max_replicas=28,
            )
            for k in (1, 7, 64)
        ]
        np.testing.assert_array_equal(runs[0].samples, runs[1].samples)
        np.testing.assert_array_equal(runs[0].samples, runs[2].samples)
        est = runs[0]
        assert isinstance(est, StreamingEstimate)
        assert est.lower <= est.estimate <= est.upper

    def test_adaptive_tracks_exact_escape_scale(self):
        """The adaptive interval for E[min(tau, T)] must be consistent with
        the exact linear-system escape time when T dwarfs it."""
        from repro.core.metastability import escape_time_from

        game = TwoWellGame(num_players=4, barrier=1.5)
        well = lower_well(game)
        beta = 1.0
        exact = escape_time_from(LogitDynamics(game, beta).markov_chain(), well)
        est = empirical_escape_times(
            game, beta, well, max_steps=50_000,
            precision=0.0005, seed=7, chunk_size=256, max_replicas=4096,
        )
        assert est.lower <= exact <= est.upper

    def test_predicate_well_adaptive_requires_single_profile(self):
        game = TwoWellGame(num_players=4, barrier=1.5)
        inside = lambda p: p.sum(axis=1) < 2  # noqa: E731
        with pytest.raises(ValueError, match="one shared start"):
            empirical_escape_times(
                game, 1.0, inside,
                start_profiles=np.zeros((8, 4), dtype=np.int64),
                precision=0.1,
            )
        est = empirical_escape_times(
            game, 1.0, inside, start_profiles=np.zeros(4, dtype=np.int64),
            max_steps=1000, precision=0.2, seed=2, chunk_size=32,
            max_replicas=128,
        )
        assert isinstance(est, StreamingEstimate)


FIRST_PASSAGE_CASES = {
    "hitting-index": lambda game, **kw: empirical_hitting_times(
        game, 1.0, 0, consensus_target(game), max_steps=300, **kw
    ),
    "hitting-predicate": lambda game, **kw: empirical_hitting_times(
        game, 1.0, np.zeros(6, dtype=np.int64),
        lambda p: p.min(axis=1) == 1, max_steps=300, **kw,
    ),
    "escape-index": lambda game, **kw: empirical_escape_times(
        game, 1.0, np.flatnonzero(game.space.weight(np.arange(64)) < 2),
        max_steps=300, **kw,
    ),
    "escape-predicate": lambda game, **kw: empirical_escape_times(
        game, 1.0, lambda p: p.sum(axis=1) < 2,
        start_profiles=np.zeros(6, dtype=np.int64), max_steps=300, **kw,
    ),
}


class TestFixedBudget:
    """A run without a stopping target is the driver's full-budget run."""

    @pytest.mark.parametrize("case", list(FIRST_PASSAGE_CASES))
    def test_fixed_budget_is_the_untargeted_driver_run(self, ring6_game, case):
        run = FIRST_PASSAGE_CASES[case]
        reference = run(ring6_game, precision=1e-12, max_replicas=24, seed=19)
        assert reference.n == 24 and not reference.stopped_early
        for chunk_size in (1, 7, 64):
            for executor in (None, ShardedExecutor(1), ShardedExecutor(3)):
                fixed = run(
                    ring6_game, num_replicas=24, chunk_size=chunk_size,
                    executor=executor, seed=19,
                )
                assert isinstance(fixed, StreamingEstimate)
                np.testing.assert_array_equal(fixed.samples, reference.samples)

    def test_unreached_target_reads_the_horizon(self, ring6_game):
        est = empirical_hitting_times(
            ring6_game, 3.0, 0, consensus_target(ring6_game), num_replicas=8,
            max_steps=5, seed=1,
        )
        np.testing.assert_array_equal(est.samples, np.full(8, 5.0))

    @pytest.mark.parametrize("case", ["hitting-index", "escape-predicate"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda game: RoundRobinLogitDynamics(game, 1.0),
            lambda game: AnnealedLogitDynamics(game, np.full(400, 1.0)),
        ],
        ids=["round-robin", "annealed"],
    )
    def test_unseedable_dynamics_rejected_without_a_target(
        self, ring6_game, case, make
    ):
        with pytest.raises(ValueError, match="seeded streams"):
            FIRST_PASSAGE_CASES[case](
                ring6_game, num_replicas=8, dynamics=make(ring6_game), seed=0,
            )

    def test_per_replica_starts_rejected_without_a_target(self, ring6_game):
        starts = np.zeros((8, 6), dtype=np.int64)
        with pytest.raises(ValueError, match="one shared start"):
            empirical_hitting_times(
                ring6_game, 1.0, starts, consensus_target(ring6_game),
                num_replicas=8, seed=0,
            )
        with pytest.raises(ValueError, match="one shared start"):
            empirical_escape_times(
                ring6_game, 1.0, lambda p: p.sum(axis=1) < 2,
                start_profiles=starts, num_replicas=8, seed=0,
            )


class TestConvergedSentinel:
    def test_capped_run_reports_minus_one_and_not_converged(self, ring6_game):
        """The fixed-horizon footgun: running out of time must be
        distinguishable from genuine convergence at the last checkpoint."""
        estimate = estimate_mixing_time_ensemble(
            ring6_game, 2.5, num_replicas=64, max_time=30,
            seed=0,
        )
        assert not estimate.converged
        assert estimate.capped
        assert estimate.mixing_time_estimate == -1

    def test_converged_run_reports_time_and_flag(self, ring6_game):
        estimate = estimate_mixing_time_ensemble(
            ring6_game, 0.2, num_replicas=512, max_time=5000,
            seed=1,
        )
        assert estimate.converged
        assert not estimate.capped
        assert estimate.mixing_time_estimate >= 0

    def test_certified_stopping_with_alpha(self, ring6_game):
        """With alpha, stopping requires the band's upper endpoint (not the
        point estimate) to clear epsilon, and the band is recorded."""
        pi = LogitDynamics(ring6_game, 0.2).stationary_distribution()
        certified = estimate_tv_convergence(
            LogitDynamics(ring6_game, 0.2), pi, num_replicas=4096,
            epsilon=0.25, max_time=2000, seed=3,
            alpha=0.05,
        )
        assert certified.alpha == 0.05
        assert certified.tv_band is not None
        assert certified.tv_band.shape == (certified.tv_curve.shape[0], 2)
        band_lo, band_hi = certified.tv_band[-1]
        tv_final = certified.tv_curve[-1, 1]
        assert band_lo <= tv_final <= band_hi
        if certified.converged:
            assert band_hi <= 0.25
            # certification is stricter than the point-estimate rule
            point = estimate_tv_convergence(
                LogitDynamics(ring6_game, 0.2), pi, num_replicas=4096,
                epsilon=0.25, max_time=2000, seed=3,
            )
            assert certified.mixing_time_estimate >= point.mixing_time_estimate

    def test_alpha_none_matches_legacy_stopping(self, ring6_game):
        """alpha=None keeps the legacy point-estimate rule bit-for-bit."""
        pi = LogitDynamics(ring6_game, 0.3).stationary_distribution()
        a = estimate_tv_convergence(
            LogitDynamics(ring6_game, 0.3), pi, num_replicas=256,
            max_time=1000, seed=5,
        )
        assert a.tv_band is None and a.alpha is None
        assert a.converged == (not a.capped)
        assert a.tv_curve[-1, 1] <= 0.25 or a.mixing_time_estimate == -1


class TestStationaryWelfareEstimator:
    def test_interval_contains_exact_value(self, ring6_game):
        beta = 0.4
        exact = stationary_expected_welfare(ring6_game, beta)
        est = estimate_stationary_welfare(
            ring6_game, beta, num_steps=600, precision=0.8, seed=21,
            max_replicas=8192,
        )
        assert isinstance(est, StreamingEstimate)
        assert est.lower <= exact <= est.upper

    def test_fixed_replica_mode_and_chunk_invariance(self, ring6_game):
        a = estimate_stationary_welfare(
            ring6_game, 0.5, num_steps=100, seed=4, num_replicas=60,
            chunk_size=7,
        )
        b = estimate_stationary_welfare(
            ring6_game, 0.5, num_steps=100, seed=4, num_replicas=60,
            chunk_size=64,
        )
        assert a.n == b.n == 60
        assert not a.stopped_early
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_index_free_welfare_matches_gather(self, ring6_game):
        sim = LogitDynamics(ring6_game, 0.5).ensemble(
            32, rng=np.random.default_rng(0)
        )
        sim.run(50)
        np.testing.assert_allclose(
            welfare_of_profiles(ring6_game, sim.profiles),
            ring6_game.utility_profile_many(sim.indices).sum(axis=1),
        )

    def test_runs_index_free_past_int64(self):
        game = IsingGame(nx.cycle_graph(80), coupling=1.0)
        est = estimate_stationary_welfare(
            game, 0.4, num_steps=400, seed=2, num_replicas=32, support=None,
        )
        assert isinstance(est, StreamingEstimate)
        assert np.isfinite(est.lower) and np.isfinite(est.upper)

    def test_non_seedable_dynamics_rejected(self, ring6_game):
        with pytest.raises(ValueError, match="seeded streams"):
            estimate_stationary_welfare(
                ring6_game, 0.5, num_steps=50,
                dynamics=RoundRobinLogitDynamics(ring6_game, 0.5),
            )

    def test_non_positive_precision_rejected(self, ring6_game):
        with pytest.raises(ValueError, match="precision"):
            estimate_stationary_welfare(ring6_game, 0.5, precision=0.0)

    @pytest.mark.parametrize(
        "adaptive",
        [dict(precision=0.5), dict(q=0.5, precision_quantile=0.5)],
    )
    def test_num_replicas_refused_in_adaptive_mode(self, ring6_game, adaptive):
        # regression: precision=0.5 with num_replicas=10 silently ran 64
        # samples under max_replicas=64
        with pytest.raises(ValueError, match="num_replicas is the fixed-mode"):
            estimate_stationary_welfare(
                ring6_game, 0.5, num_steps=20, num_replicas=10,
                max_replicas=64, seed=1, **adaptive,
            )

    def test_tracer_knob_leaves_samples_unchanged(self, ring6_game):
        from repro.obs import Tracer

        common = dict(num_steps=100, seed=4, num_replicas=24, chunk_size=8)
        bare = estimate_stationary_welfare(ring6_game, 0.5, **common)
        tracer = Tracer()
        traced = estimate_stationary_welfare(
            ring6_game, 0.5, tracer=tracer, **common
        )
        np.testing.assert_array_equal(bare.samples, traced.samples)
        assert tracer.counters["driver.samples"] == 24
        assert tracer.counters["driver.chunks"] == 3


class TestSweepPropagation:
    def test_dynamics_family_sweep_welfare_bars(self, ring6_game):
        from repro.analysis.sweep import dynamics_family_sweep

        result = dynamics_family_sweep(
            ring6_game,
            {"sequential": lambda g: LogitDynamics(g, 0.3)},
            num_replicas=256,
            max_time=2000,
            seed=8,
        )
        extra = result.records[0].extra
        assert extra["welfare_lower"] <= extra["mean_welfare"]
        assert extra["mean_welfare"] <= extra["welfare_upper"]
        assert extra["converged"] == (not extra["capped"])

    def test_interval_cells_render_in_tables(self):
        from repro.analysis.report import render_table

        est = StreamingEstimate(
            estimate=12.5, lower=11.0, upper=14.0, n=256, stopped_early=True
        )
        table = render_table(["n", "hitting time"], [[6, est]])
        assert "12.5 [11, 14]" in table
