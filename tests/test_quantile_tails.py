"""Tests for time-uniform quantile/CDF tails and the driver's tail knobs.

Covers the gamma-exponential mixture boundary itself (closed form,
inversion, validity knobs), :class:`repro.stats.QuantileCS` coverage under
continuous peeking, the chunk- and shard-count invariance of tail
intervals riding the :class:`repro.stats.SampleDriver` stream, the P99
interval bracketing the *exact* (linear-system) truncated hitting-time
quantile on a small ring game, the end-to-end ``precision_quantile``
stopping through a process pool, and the ``n/c`` / ``P99:`` table cells.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.analysis.report import format_interval, format_value
from repro.analysis.welfare import estimate_stationary_welfare
from repro.core import LogitDynamics, empirical_escape_times, empirical_hitting_times
from repro.games import IsingGame, TwoWellGame
from repro.parallel import ShardedExecutor
from repro.stats import (
    QuantileCS,
    QuantileEstimate,
    StreamingEstimate,
    dkw_epsilon,
    gamma_exponential_boundary,
    gamma_exponential_log_mixture,
    run_until_width,
)


def uniform_sampler(children):
    """Module-level (hence picklable) reference sampler: one U(0,1) each."""
    return np.array([np.random.default_rng(c).random() for c in children])


def lower_well(game: TwoWellGame) -> np.ndarray:
    w = game.space.weight(np.arange(game.space.size))
    return np.flatnonzero(w < game.num_players / 2)


# ---------------------------------------------------------------------------
# the gamma-exponential mixture and its boundary
# ---------------------------------------------------------------------------


class TestMixtureBoundary:
    def test_mixture_is_one_at_the_origin(self):
        # m(0, 0) = 1 exactly; evaluate just off the origin (z > 0 needed)
        assert gamma_exponential_log_mixture(1e-9, 1e-9, rho=10.0) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_mixture_monotone_in_s(self):
        s = np.linspace(0.0, 50.0, 200)
        logm = gamma_exponential_log_mixture(s, 30.0, rho=20.0)
        assert np.all(np.diff(logm) > 0)

    def test_boundary_inverts_the_mixture(self):
        u = gamma_exponential_boundary(100.0, 0.05, rho=50.0)
        assert gamma_exponential_log_mixture(u, 100.0, rho=50.0) == pytest.approx(
            np.log(1 / 0.05), abs=1e-8
        )

    def test_boundary_grows_sublinearly_in_v(self):
        # sub-exponential boundaries are ~sqrt(v log ...) for large v
        u1 = gamma_exponential_boundary(100.0, 0.05, rho=50.0)
        u2 = gamma_exponential_boundary(10_000.0, 0.05, rho=50.0)
        assert u1 < u2 < 100.0 * u1

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            gamma_exponential_log_mixture(1.0, 1.0, rho=0.0)
        with pytest.raises(ValueError, match="c must be positive"):
            gamma_exponential_log_mixture(1.0, 1.0, rho=1.0, c=-1.0)
        with pytest.raises(ValueError, match="alpha"):
            gamma_exponential_boundary(1.0, 1.5, rho=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            gamma_exponential_boundary(-1.0, 0.05, rho=1.0)

    def test_dkw_epsilon_shrinks_and_validates(self):
        eps = [dkw_epsilon(t, 0.05) for t in (10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(eps, eps[1:]))
        with pytest.raises(ValueError, match="positive sample count"):
            dkw_epsilon(0, 0.05)
        with pytest.raises(ValueError, match="alpha"):
            dkw_epsilon(10, 0.0)


# ---------------------------------------------------------------------------
# QuantileCS mechanics
# ---------------------------------------------------------------------------


class TestQuantileCS:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="quantile level"):
            QuantileCS(0.0)
        with pytest.raises(ValueError, match="hi > lo"):
            QuantileCS(0.5, support=(1.0, 1.0))
        with pytest.raises(ValueError, match="grid"):
            QuantileCS(0.5, grid_size=1)
        with pytest.raises(ValueError, match="rho"):
            QuantileCS(0.5, rho=-1.0)

    def test_out_of_support_observations_rejected(self):
        cs = QuantileCS(0.9, support=(0.0, 1.0))
        with pytest.raises(ValueError, match="outside the declared support"):
            cs.update(np.array([0.5, 1.5]))

    def test_non_flat_chunks_rejected(self):
        cs = QuantileCS(0.9)
        with pytest.raises(ValueError, match=r"\(c,\) observation arrays"):
            cs.update(np.zeros((4, 2)))

    def test_estimate_matches_numpy_quantile_to_grid_resolution(self):
        rng = np.random.default_rng(0)
        x = rng.random(5000)
        cs = QuantileCS(0.75, support=(0.0, 1.0), grid_size=2048)
        cs.update(x)
        grid_step = 1.0 / 2047
        assert cs.estimate() == pytest.approx(
            float(np.quantile(x, 0.75)), abs=2 * grid_step
        )
        lo, hi = cs.interval()
        assert lo <= cs.estimate() <= hi

    def test_chunking_does_not_change_the_interval(self):
        """The CS state is a pure function of (t, counts): feeding the same
        pooled samples in chunks of 1, 7 or 64 gives identical intervals."""
        rng = np.random.default_rng(3)
        x = rng.random(320)
        results = []
        for k in (1, 7, 64):
            cs = QuantileCS(0.9, support=(0.0, 1.0))
            for i in range(0, x.size, k):
                cs.update(x[i : i + k])
            results.append((cs.estimate(), *cs.interval(), cs.n))
        assert results[0] == results[1] == results[2]

    def test_coverage_under_continuous_peeking(self):
        """The acceptance criterion: peeking after every chunk, the fraction
        of replications whose interval *ever* misses the true quantile must
        stay at or below alpha (here far below — the bound is conservative)."""
        q, alpha = 0.8, 0.1
        reps, peeks, chunk = 400, 20, 50
        misses = 0
        for rep in range(reps):
            rng = np.random.default_rng(10_000 + rep)
            cs = QuantileCS(q, alpha=alpha, support=(0.0, 1.0), grid_size=256)
            ever_missed = False
            for _ in range(peeks):
                cs.update(rng.random(chunk))
                lo, hi = cs.interval()
                # uniform samples: the true q-quantile is q itself
                if not lo <= q <= hi:
                    ever_missed = True
            misses += ever_missed
        assert misses / reps <= alpha

    def test_cdf_band_covers_the_uniform_cdf(self):
        rng = np.random.default_rng(7)
        cs = QuantileCS(0.5, alpha=0.05, support=(0.0, 1.0), grid_size=512)
        for _ in range(10):
            cs.update(rng.random(200))
            thresholds, f_lo, f_hi = cs.cdf_band()
            # F(x) = x for U(0,1); the band is simultaneous over thresholds
            assert np.all(f_lo <= thresholds + 1e-12)
            assert np.all(thresholds <= f_hi + 1e-12)
        # and it is actually informative by t = 2000
        assert np.max(f_hi - f_lo) < 0.25

    def test_result_snapshot_carries_the_state(self):
        cs = QuantileCS(0.99, support=(0.0, 10.0))
        cs.update(np.linspace(0.0, 10.0, 500))
        est = cs.result(target_width=2.5)
        assert isinstance(est, QuantileEstimate)
        assert est.q == 0.99 and est.n == 500
        assert est.target_width == 2.5
        assert est.width == est.upper - est.lower
        assert float(est) == est.estimate


# ---------------------------------------------------------------------------
# tail knobs on the sample-stream driver
# ---------------------------------------------------------------------------


class TestDriverTailKnobs:
    def test_precision_quantile_requires_q(self):
        with pytest.raises(ValueError, match="precision_quantile"):
            run_until_width(
                uniform_sampler, 0.0, support=(0.0, 1.0), precision_quantile=0.1
            )

    def test_q_requires_support(self):
        with pytest.raises(ValueError, match="bounded samples"):
            run_until_width(uniform_sampler, 0.0, q=0.9)

    def test_chunk_size_invariance_with_tail(self):
        runs = [
            run_until_width(
                uniform_sampler, 0.0, max_n=48, chunk_size=k,
                support=(0.0, 1.0), seed=123, q=0.9,
            )
            for k in (1, 7, 64)
        ]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].samples, other.samples)
            assert (
                runs[0].quantile.estimate,
                runs[0].quantile.lower,
                runs[0].quantile.upper,
                runs[0].quantile.n,
            ) == (
                other.quantile.estimate,
                other.quantile.lower,
                other.quantile.upper,
                other.quantile.n,
            )

    def test_shard_count_invariance_with_tail(self):
        serial = run_until_width(
            uniform_sampler, 0.0, max_n=48, chunk_size=16,
            support=(0.0, 1.0), seed=77, q=0.9,
        )
        for k in (1, 3, 8):
            sharded = run_until_width(
                uniform_sampler, 0.0, max_n=48, chunk_size=16,
                support=(0.0, 1.0), seed=77, q=0.9,
                executor=ShardedExecutor(num_shards=k),
            )
            np.testing.assert_array_equal(serial.samples, sharded.samples)
            assert (
                serial.quantile.estimate,
                serial.quantile.lower,
                serial.quantile.upper,
            ) == (
                sharded.quantile.estimate,
                sharded.quantile.lower,
                sharded.quantile.upper,
            )

    def test_tail_rides_the_same_stream_as_the_mean(self):
        plain = run_until_width(
            uniform_sampler, 0.0, max_n=64, chunk_size=16,
            support=(0.0, 1.0), seed=5,
        )
        tailed = run_until_width(
            uniform_sampler, 0.0, max_n=64, chunk_size=16,
            support=(0.0, 1.0), seed=5, q=0.5,
        )
        np.testing.assert_array_equal(plain.samples, tailed.samples)
        assert (plain.estimate, plain.lower, plain.upper) == (
            tailed.estimate,
            tailed.lower,
            tailed.upper,
        )
        assert tailed.quantile is not None and plain.quantile is None

    def test_precision_quantile_stops_the_run(self):
        est = run_until_width(
            uniform_sampler, 0.0, max_n=4096, chunk_size=64,
            support=(0.0, 1.0), seed=11, q=0.9, precision_quantile=0.5,
        )
        assert est.stopped_early
        assert est.n < 4096
        assert est.quantile.width <= 0.5
        assert est.quantile.target_width == 0.5

    def test_both_targets_must_be_met(self):
        """With a mean target *and* a tail target, the driver stops only when
        both intervals are tight — never on the easier one alone."""
        est = run_until_width(
            uniform_sampler, 0.25, max_n=4096, chunk_size=64,
            support=(0.0, 1.0), seed=11, q=0.9, precision_quantile=0.5,
        )
        assert est.upper - est.lower <= 0.25
        assert est.quantile.width <= 0.5
        only_mean = run_until_width(
            uniform_sampler, 0.25, max_n=4096, chunk_size=64,
            support=(0.0, 1.0), seed=11,
        )
        assert est.n >= only_mean.n

    def test_process_pool_end_to_end(self):
        """The acceptance criterion: a quantile CS certifies stopping through
        run_until_width(executor=) with a real process pool, bit-for-bit
        identical to the serial run."""
        serial = run_until_width(
            uniform_sampler, 0.0, max_n=1024, chunk_size=64,
            support=(0.0, 1.0), seed=42, q=0.9, precision_quantile=0.4,
        )
        with ShardedExecutor(num_shards=2, backend="process") as executor:
            pooled = run_until_width(
                uniform_sampler, 0.0, max_n=1024, chunk_size=64,
                support=(0.0, 1.0), seed=42, q=0.9, precision_quantile=0.4,
                executor=executor,
            )
        assert serial.stopped_early and pooled.stopped_early
        assert serial.quantile.width <= 0.4
        np.testing.assert_array_equal(serial.samples, pooled.samples)
        assert (
            serial.n,
            serial.quantile.estimate,
            serial.quantile.lower,
            serial.quantile.upper,
        ) == (
            pooled.n,
            pooled.quantile.estimate,
            pooled.quantile.lower,
            pooled.quantile.upper,
        )


# ---------------------------------------------------------------------------
# estimator-level tails: the exact-linear-system bracket
# ---------------------------------------------------------------------------


class TestEstimatorTails:
    def test_p99_brackets_the_exact_truncated_quantile_on_a_ring(self):
        """The acceptance criterion: the P99 interval from the Monte-Carlo
        stream must bracket the exact quantile of min(tau, T), computed from
        the chain's linear system (absorbing-target iteration)."""
        game = IsingGame(nx.cycle_graph(4), coupling=1.0)
        beta = 0.8
        target = int(game.space.encode(np.ones(4, dtype=np.int64)))
        max_steps, q = 2000, 0.99

        # exact distribution of tau: make the target absorbing and iterate
        P = LogitDynamics(game, beta).markov_chain().transition_matrix.copy()
        P[target, :] = 0.0
        P[target, target] = 1.0
        p = np.zeros(P.shape[0])
        p[0] = 1.0  # start at profile index 0 (all -1 spins)
        exact_quantile = float(max_steps)
        for t in range(1, max_steps + 1):
            p = p @ P
            if p[target] >= q:  # P(tau <= t) >= q
                exact_quantile = float(t)
                break

        est = empirical_hitting_times(
            game, beta, 0, target, max_steps=max_steps,
            q=q, seed=99, chunk_size=256, max_replicas=1024,
        )
        assert isinstance(est, StreamingEstimate)
        tail = est.quantile
        assert isinstance(tail, QuantileEstimate)
        assert tail.n == 1024
        assert tail.lower <= exact_quantile <= tail.upper

    def test_p99_certifies_stopping_through_a_process_pool(self):
        """The acceptance criterion end-to-end: a P99 hitting-time CS is the
        stopping rule, the chunks run on a real process pool, and the result
        is bit-for-bit the serial one."""
        game = IsingGame(nx.cycle_graph(4), coupling=1.0)
        target = int(game.space.encode(np.ones(4, dtype=np.int64)))
        common = dict(
            max_steps=400, q=0.99, precision_quantile=0.5, seed=7,
            chunk_size=64, max_replicas=2048,
        )
        serial = empirical_hitting_times(game, 0.8, 0, target, **common)
        with ShardedExecutor(num_shards=2, backend="process") as executor:
            pooled = empirical_hitting_times(
                game, 0.8, 0, target, executor=executor, **common
            )
        assert serial.stopped_early and pooled.stopped_early
        assert serial.quantile.width <= 0.5 * 400
        np.testing.assert_array_equal(serial.samples, pooled.samples)
        assert (
            serial.n,
            serial.quantile.estimate,
            serial.quantile.lower,
            serial.quantile.upper,
        ) == (
            pooled.n,
            pooled.quantile.estimate,
            pooled.quantile.lower,
            pooled.quantile.upper,
        )

    def test_q_alone_switches_to_adaptive_mode(self):
        game = TwoWellGame(num_players=4, barrier=1.5)
        est = empirical_escape_times(
            game, 1.0, lower_well(game), max_steps=1000,
            q=0.9, seed=3, chunk_size=32, max_replicas=64,
        )
        assert isinstance(est, StreamingEstimate)
        assert est.quantile is not None and est.quantile.q == 0.9
        assert est.quantile.lower <= est.quantile.estimate <= est.quantile.upper

    def test_precision_quantile_is_a_fraction_of_the_horizon(self):
        game = TwoWellGame(num_players=4, barrier=1.5)
        est = empirical_escape_times(
            game, 1.0, lower_well(game), max_steps=1000,
            q=0.9, precision_quantile=0.5, seed=3, chunk_size=32,
            max_replicas=4096,
        )
        assert est.stopped_early
        assert est.quantile.width <= 0.5 * 1000

    def test_estimator_tail_knob_conflicts(self):
        game = IsingGame(nx.cycle_graph(4), coupling=1.0)
        with pytest.raises(ValueError, match="precision_quantile="):
            empirical_hitting_times(
                game, 1.0, 0, 0, max_steps=100, precision_quantile=0.1, seed=0,
            )
        with pytest.raises(ValueError, match="precision_quantile must be positive"):
            empirical_hitting_times(
                game, 1.0, 0, 0, max_steps=100, q=0.9, precision_quantile=0.0,
                seed=0,
            )
        with pytest.raises(ValueError, match="max_replicas"):
            empirical_hitting_times(
                game, 1.0, 0, 0, max_steps=100, q=0.9, num_replicas=32,
            )

    def test_welfare_estimator_attaches_a_tail(self):
        game = IsingGame(nx.cycle_graph(6), coupling=1.0)
        est = estimate_stationary_welfare(
            game, 0.5, num_steps=100, q=0.5, seed=8, chunk_size=32,
            max_replicas=64,
        )
        assert isinstance(est.quantile, QuantileEstimate)
        assert est.quantile.q == 0.5
        assert est.quantile.lower <= est.quantile.estimate <= est.quantile.upper

    def test_welfare_precision_quantile_is_absolute(self):
        game = IsingGame(nx.cycle_graph(6), coupling=1.0)
        with pytest.raises(ValueError, match="absolute welfare units"):
            estimate_stationary_welfare(
                game, 0.5, num_steps=50, q=0.5, precision_quantile=-1.0, seed=8,
            )


class TestSweepTailColumns:
    def test_family_sweep_tail_requires_escape_states(self):
        from repro.analysis.sweep import dynamics_family_sweep

        game = TwoWellGame(num_players=4, barrier=1.5)
        with pytest.raises(ValueError, match="escape_states"):
            dynamics_family_sweep(
                game,
                {"sequential": lambda g: LogitDynamics(g, 0.5)},
                num_replicas=16,
                max_time=50,
                tail_q=0.9,
                seed=0,
            )

    def test_family_sweep_escape_quantile_extras(self):
        from repro.analysis.sweep import dynamics_family_sweep

        game = TwoWellGame(num_players=4, barrier=1.5)
        result = dynamics_family_sweep(
            game,
            {"sequential": lambda g: LogitDynamics(g, 1.0)},
            num_replicas=64,
            max_time=200,
            escape_states=lower_well(game),
            max_escape_steps=500,
            tail_q=0.9,
            seed=2,
        )
        extra = result.records[0].extra
        assert extra["escape_quantile_q"] == 0.9
        assert extra["escape_quantile_lower"] <= extra["escape_quantile"]
        assert extra["escape_quantile"] <= extra["escape_quantile_upper"]


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


class TestTailRendering:
    def test_never_converged_sentinel_renders_nc(self):
        assert format_interval(-1, -1, -1) == "n/c"
        # a genuine interval that merely touches -1 still renders numerically
        assert format_interval(-1.0, -2.0, 0.0) == "-1 [-2, 0]"

    def test_quantile_cells_render_with_level_prefix(self):
        est = QuantileEstimate(
            q=0.99, estimate=120.0, lower=100.0, upper=150.0, n=512
        )
        assert format_value(est) == "P99: 120 [100, 150]"

    def test_sentinel_quantile_cell_renders_nc(self):
        est = QuantileEstimate(q=0.99, estimate=-1, lower=-1, upper=-1, n=0)
        assert format_value(est) == "P99: n/c"

    def test_streaming_estimate_cells_unchanged(self):
        est = StreamingEstimate(
            estimate=12.5, lower=11.0, upper=14.0, n=256, stopped_early=True
        )
        assert format_value(est) == "12.5 [11, 14]"
