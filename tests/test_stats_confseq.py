"""Tests for the anytime-valid statistics subsystem (repro.stats)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats import (
    EmpiricalBernsteinCS,
    NormalMixtureCS,
    StreamingEstimate,
    StreamingMoments,
    checkpoint_alpha,
    fixed_n_clt_interval,
    run_until_width,
    tv_distance_band,
)


class TestStreamingMoments:
    def test_matches_numpy_moments(self, rng):
        x = rng.normal(3.0, 2.0, size=500)
        acc = StreamingMoments()
        acc.update(x)
        assert acc.count == 500
        assert acc.mean == pytest.approx(x.mean())
        assert acc.variance == pytest.approx(x.var(ddof=1))

    def test_chunked_equals_one_shot(self, rng):
        x = rng.random(301)
        one = StreamingMoments()
        one.update(x)
        chunked = StreamingMoments()
        for i in range(0, 301, 17):
            chunked.update(x[i : i + 17])
        assert chunked.count == one.count
        assert chunked.mean == pytest.approx(one.mean)
        assert chunked.variance == pytest.approx(one.variance)

    def test_vectorised_over_estimands(self, rng):
        x = rng.random((100, 3))
        acc = StreamingMoments()
        acc.update(x[:60])
        acc.update(x[60:])
        np.testing.assert_allclose(acc.mean, x.mean(axis=0))
        np.testing.assert_allclose(acc.variance, x.var(axis=0, ddof=1))

    def test_empty_chunk_is_a_no_op(self, rng):
        x = rng.random(40)
        acc = StreamingMoments()
        acc.update(x[:25])
        acc.update(np.empty(0))
        acc.update(x[25:])
        assert acc.count == 40
        assert acc.mean == pytest.approx(x.mean())
        assert acc.variance == pytest.approx(x.var(ddof=1))

    def test_rejects_higher_rank_chunks(self):
        with pytest.raises(ValueError, match="chunks must be"):
            StreamingMoments().update(np.zeros((2, 2, 2)))

    def test_variance_nan_before_two_observations(self):
        acc = StreamingMoments()
        acc.update(np.array([1.0]))
        assert np.isnan(acc.variance)


class TestEmpiricalBernsteinCS:
    def test_contains_truth_and_shrinks(self, rng):
        cs = EmpiricalBernsteinCS(alpha=0.05)
        widths = []
        for _ in range(8):
            cs.update(rng.random(250))
            lo, hi = cs.interval()
            assert lo <= 0.5 <= hi
            widths.append(float(hi - lo))
        assert widths[-1] < widths[0] / 2

    def test_chunking_does_not_change_the_interval(self, rng):
        x = rng.random(400)
        one = EmpiricalBernsteinCS(alpha=0.05)
        one.update(x)
        chunked = EmpiricalBernsteinCS(alpha=0.05)
        for i in range(0, 400, 7):
            chunked.update(x[i : i + 7])
        np.testing.assert_allclose(one.interval(), chunked.interval())
        assert one.mean() == pytest.approx(chunked.mean())

    def test_vectorised_matches_scalar_columns(self, rng):
        x = rng.random((300, 4))
        vec = EmpiricalBernsteinCS(alpha=0.05)
        vec.update(x)
        lo, hi = vec.interval()
        for k in range(4):
            ref = EmpiricalBernsteinCS(alpha=0.05)
            ref.update(x[:, k])
            assert lo[k] == pytest.approx(float(ref.interval()[0]))
            assert hi[k] == pytest.approx(float(ref.interval()[1]))

    def test_support_scaling(self, rng):
        raw = rng.random(300)
        unit = EmpiricalBernsteinCS(alpha=0.05)
        unit.update(raw)
        scaled = EmpiricalBernsteinCS(alpha=0.05, support=(-5.0, 15.0))
        scaled.update(-5.0 + 20.0 * raw)
        lo_u, hi_u = unit.interval()
        lo_s, hi_s = scaled.interval()
        assert lo_s == pytest.approx(-5.0 + 20.0 * float(lo_u))
        assert hi_s == pytest.approx(-5.0 + 20.0 * float(hi_u))

    def test_out_of_support_rejected(self):
        cs = EmpiricalBernsteinCS(alpha=0.05, support=(0.0, 1.0))
        with pytest.raises(ValueError, match="support"):
            cs.update(np.array([0.2, 1.7]))

    def test_variance_adaptivity(self, rng):
        """Lower-variance observations give a tighter interval at equal n."""
        noisy = EmpiricalBernsteinCS(alpha=0.05)
        noisy.update((rng.random(500) > 0.5).astype(float))
        quiet = EmpiricalBernsteinCS(alpha=0.05)
        quiet.update(0.5 + 0.02 * (rng.random(500) - 0.5))
        lo_n, hi_n = noisy.interval()
        lo_q, hi_q = quiet.interval()
        assert (hi_q - lo_q) < 0.3 * (hi_n - lo_n)

    def test_coverage_under_continuous_peeking(self):
        """The satellite contract: peeked EB CS keeps >= 1 - alpha coverage
        where the naive fixed-n CLT interval measurably exceeds its nominal
        miscoverage.  K independent Bernoulli repetitions run in lock-step
        (one vectorised CS), peeking after every chunk; a repetition counts
        as a miss if the truth is EVER outside the current interval."""
        alpha = 0.05
        p = 0.3
        reps, total, chunk = 400, 1500, 50
        rng = np.random.default_rng(987)
        cs = EmpiricalBernsteinCS(alpha=alpha)
        moments = StreamingMoments()
        cs_missed = np.zeros(reps, dtype=bool)
        clt_missed = np.zeros(reps, dtype=bool)
        for _ in range(total // chunk):
            x = (rng.random((chunk, reps)) < p).astype(float)
            cs.update(x)
            moments.update(x)
            lo, hi = cs.interval()
            cs_missed |= (p < lo) | (p > hi)
            clt_lo, clt_hi = fixed_n_clt_interval(
                moments.mean, moments.variance, moments.count, alpha=alpha
            )
            clt_missed |= (p < clt_lo) | (p > clt_hi)
        cs_miss_rate = cs_missed.mean()
        clt_miss_rate = clt_missed.mean()
        # time-uniform coverage holds under peeking ...
        assert cs_miss_rate <= alpha
        # ... while the peeked CLT interval's realized miscoverage clearly
        # exceeds its nominal level (the optional-stopping failure)
        assert clt_miss_rate > 2 * alpha


class TestNormalMixtureCS:
    def test_contains_truth_for_gaussian_stream(self, rng):
        cs = NormalMixtureCS(alpha=0.05, rho2=10.0)
        for _ in range(6):
            cs.update(rng.normal(7.0, 3.0, size=200))
            lo, hi = cs.interval()
            assert lo <= 7.0 <= hi
        assert hi - lo < 1.5

    def test_infinite_until_two_observations(self):
        cs = NormalMixtureCS()
        cs.update(np.array([1.0]))
        lo, hi = cs.interval()
        assert np.isinf(lo) and np.isinf(hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            NormalMixtureCS(alpha=1.5)
        with pytest.raises(ValueError):
            NormalMixtureCS(rho2=0.0)


class TestFixedNClt:
    def test_closed_form(self):
        lo, hi = fixed_n_clt_interval(0.5, 0.25, 100, alpha=0.05)
        half = 1.959963984540054 * np.sqrt(0.25 / 100)
        assert lo == pytest.approx(0.5 - half)
        assert hi == pytest.approx(0.5 + half)


class TestTvBand:
    def test_alpha_spending_sums_below_alpha(self):
        total = sum(checkpoint_alpha(j, 0.05) for j in range(1, 10_000))
        assert total <= 0.05

    def test_band_contains_estimate_and_clips(self):
        lo, hi = tv_distance_band(0.5, num_replicas=4096, support_size=16, alpha_j=0.01)
        assert 0.0 <= lo < 0.5 < hi <= 1.0
        lo, _ = tv_distance_band(0.01, num_replicas=64, support_size=16, alpha_j=0.01)
        assert lo == 0.0

    def test_band_shrinks_with_replicas(self):
        w_small = np.diff(tv_distance_band(0.5, 256, 16, 0.01))[0]
        w_big = np.diff(tv_distance_band(0.5, 16384, 16, 0.01))[0]
        assert w_big < 0.3 * w_small


class TestRunUntilWidth:
    @staticmethod
    def _uniform_chunk(children):
        return np.array([np.random.default_rng(c).random() for c in children])

    def test_stops_early_when_target_reached(self):
        est = run_until_width(
            self._uniform_chunk, 0.2, max_n=4096, chunk_size=64,
            support=(0.0, 1.0), seed=5,
        )
        assert isinstance(est, StreamingEstimate)
        assert est.stopped_early
        assert est.n < 4096
        assert est.width <= 0.2
        assert est.lower <= est.estimate <= est.upper

    def test_budget_exhaustion_reported_honestly(self):
        est = run_until_width(
            self._uniform_chunk, 1e-6, max_n=128, chunk_size=64,
            support=(0.0, 1.0), seed=5,
        )
        assert not est.stopped_early
        assert est.n == 128
        assert est.width > 1e-6

    def test_same_seed_reproduces_everything(self):
        a = run_until_width(
            self._uniform_chunk, 0.3, support=(0.0, 1.0), seed=42
        )
        b = run_until_width(
            self._uniform_chunk, 0.3, support=(0.0, 1.0), seed=42
        )
        assert a.n == b.n and a.estimate == b.estimate
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_pooled_samples_independent_of_chunk_size(self):
        runs = [
            run_until_width(
                self._uniform_chunk, 0.0, max_n=96, chunk_size=k,
                support=(0.0, 1.0), seed=7,
            )
            for k in (1, 7, 64)
        ]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].samples, other.samples)

    def test_unbounded_path_uses_normal_mixture(self):
        def gaussian_chunk(children):
            return np.array(
                [np.random.default_rng(c).normal(3.0, 1.0) for c in children]
            )

        est = run_until_width(gaussian_chunk, 1.0, max_n=4096, seed=1)
        assert est.stopped_early
        assert est.lower <= 3.0 <= est.upper or abs(est.estimate - 3.0) < 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one sample per spawned child"):
            run_until_width(lambda children: np.zeros(3), 0.1, chunk_size=8, seed=0)
