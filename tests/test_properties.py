"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import LogitDynamics, gibbs_measure, logit_update_distribution
from repro.engine import sample_from_cumulative, sample_inverse_cdf
from repro.engine.sampling import columns_pay
from repro.games import ExplicitPotentialGame, random_game
from repro.games.potential import zeta_barrier
from repro.games.space import ProfileSpace
from repro.markov.chain import is_stochastic_matrix
from repro.markov.tv import normalize_distribution, total_variation

from conftest import zeta_barrier_bruteforce

# -- strategies -------------------------------------------------------------

strategy_shapes = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4).filter(
    lambda ms: int(np.prod(ms)) <= 64
)

small_binary_players = st.integers(min_value=2, max_value=5)

betas = st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False)

#: inverse noises and utilities whose product can overflow to +-inf
extreme_betas = st.one_of(
    st.floats(min_value=0.0, max_value=1e308),
    st.sampled_from([0.0, 1.0, 1e6, 1e300, 1e308]),
)
extreme_utilities = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
    elements=st.one_of(
        st.floats(min_value=-1e308, max_value=1e308),
        st.sampled_from([-1e300, -2.0, 0.0, 1.0, 1e300]),
    ),
)


#: the column passes' shapes: every strategy count up to and past numpy's
#: pairwise-summation threshold (8), one row, a few rows and many rows;
#: 700 rows take the column passes at every m here, the others do not
column_pass_ms = range(1, 10)
column_pass_ks = (1, 2, 3, 64, 700)


def row_reduction_softmax(utilities: np.ndarray, beta: float) -> np.ndarray:
    """The softmax as numpy row reductions along the last axis (the oracle)."""
    u = np.asarray(utilities, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = beta * u
        peak = np.max(logits, axis=-1, keepdims=True)
        shifted = beta * (u - np.max(u, axis=-1, keepdims=True))
        logits = np.where(np.isfinite(peak), logits - peak, shifted)
    weights = np.exp(logits)
    return weights / np.sum(weights, axis=-1, keepdims=True)


def row_reduction_count(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Right-side ``searchsorted`` per row, clamped to the last column (the oracle)."""
    count = np.sum(cumulative <= uniforms[:, None], axis=1)
    return np.minimum(count, cumulative.shape[1] - 1)


def column_pass_utilities(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """Non-dyadic ``(k, m)`` utilities with entries at +-1e308 and ties."""
    u = rng.normal(scale=3.0, size=(k, m))
    extreme = rng.random((k, m)) < 0.2
    u[extreme] = rng.choice([-1e308, 1e308], size=int(extreme.sum()))
    u[rng.random(k) < 0.2] = 0.5  # whole rows of ties
    return u


def column_pass_rows(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """``(k, m)`` probability rows, some short of 1 and some with zeros."""
    probs = rng.dirichlet(np.ones(m), size=k)
    probs[rng.random((k, m)) < 0.2] = 0.0
    return probs * rng.choice([1.0, 1.0 - 1e-12], size=(k, 1))


def column_pass_uniforms(rng: np.random.Generator, k: int) -> np.ndarray:
    """``(k,)`` uniforms, with the ends of ``[0, 1)`` among them."""
    u = rng.random(k)
    u[rng.random(k) < 0.2] = 0.0
    u[rng.random(k) < 0.2] = np.nextafter(1.0, 0.0)
    return u


def potentials(num_profiles: int):
    return arrays(
        dtype=np.float64,
        shape=num_profiles,
        elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    )


# -- ProfileSpace invariants --------------------------------------------------


class TestProfileSpaceProperties:
    @given(shape=strategy_shapes)
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_roundtrip(self, shape):
        space = ProfileSpace(shape)
        indices = np.arange(space.size)
        decoded = space.decode_many(indices)
        np.testing.assert_array_equal(space.encode_many(decoded), indices)

    @given(shape=strategy_shapes, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_replace_is_idempotent_and_local(self, shape, data):
        space = ProfileSpace(shape)
        idx = data.draw(st.integers(min_value=0, max_value=space.size - 1))
        player = data.draw(st.integers(min_value=0, max_value=space.num_players - 1))
        strategy = data.draw(st.integers(min_value=0, max_value=shape[player] - 1))
        replaced = space.replace(idx, player, strategy)
        # idempotent
        assert space.replace(replaced, player, strategy) == replaced
        # only the chosen coordinate changes
        before = space.decode(idx)
        after = space.decode(replaced)
        for j in range(space.num_players):
            if j != player:
                assert before[j] == after[j]
        assert after[player] == strategy

    @given(shape=strategy_shapes, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_neighbors_are_symmetric(self, shape, data):
        space = ProfileSpace(shape)
        idx = data.draw(st.integers(min_value=0, max_value=space.size - 1))
        for nb in space.neighbors(idx):
            assert idx in set(int(v) for v in space.neighbors(int(nb)))


# -- Gibbs / softmax invariants ----------------------------------------------


class TestGibbsProperties:
    @given(num_profiles=st.integers(min_value=2, max_value=32), beta=betas, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_gibbs_is_distribution_and_orders_by_potential(self, num_profiles, beta, data):
        phi = data.draw(potentials(num_profiles))
        pi = gibbs_measure(phi, beta)
        assert pi.shape == (num_profiles,)
        assert np.all(pi >= 0)
        assert pi.sum() == pytest.approx(1.0)
        # lower potential never gets strictly less mass
        order = np.argsort(phi)
        sorted_pi = pi[order]
        assert np.all(np.diff(sorted_pi) <= 1e-12)

    @given(
        beta=betas,
        utilities=arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=6),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_softmax_is_distribution(self, beta, utilities):
        probs = logit_update_distribution(utilities, beta)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0)

    @given(beta=extreme_betas, utilities=extreme_utilities)
    @settings(max_examples=200, deadline=None)
    def test_softmax_rows_stay_distributions_under_overflow(self, beta, utilities):
        with np.errstate(over="ignore"):
            probs = logit_update_distribution(utilities, beta)
        assert np.isfinite(probs).all()
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-12)
        # every argmax entry carries the same, largest mass
        top = utilities == utilities.max(axis=-1, keepdims=True)
        largest = probs.max(axis=-1, keepdims=True)
        assert (np.where(top, probs, largest) == largest).all()

    @given(beta=extreme_betas, utilities=extreme_utilities)
    @settings(max_examples=200, deadline=None)
    @example(beta=1.0, utilities=np.array([[-1e308, 1e308]]))
    @example(beta=1e308, utilities=np.array([[-1.0, 1.0]]))
    def test_softmax_overflow_raises_no_warning(self, beta, utilities):
        # the product and the max shift may each overflow, at any beta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = logit_update_distribution(utilities, beta)
        assert np.isfinite(probs).all()

    @given(beta=extreme_betas, utilities=extreme_utilities)
    @settings(max_examples=200, deadline=None)
    def test_softmax_is_the_max_shift_formula_when_nothing_overflows(
        self, beta, utilities
    ):
        # the max shift itself may still overflow to -inf, weight 0
        with np.errstate(over="ignore"):
            logits = beta * utilities
            assume(np.isfinite(logits).all())
            logits -= np.max(logits, axis=-1, keepdims=True)
            weights = np.exp(logits)
            expected = weights / np.sum(weights, axis=-1, keepdims=True)
            probs = logit_update_distribution(utilities, beta)
        np.testing.assert_array_equal(probs, expected)

    @pytest.mark.parametrize("k", column_pass_ks)
    @pytest.mark.parametrize("m", column_pass_ms)
    @pytest.mark.parametrize("beta", [0.0, 0.7, 1e6, 1e308])
    def test_softmax_column_passes_match_row_reductions(self, m, k, beta):
        rng = np.random.default_rng([m, k])
        u = column_pass_utilities(rng, k, m)
        probs = logit_update_distribution(u, beta)
        # the running column sum is numpy's sequential short-row sum (m < 8);
        # rows of 8 or more, which numpy sums pairwise, stay row reductions
        np.testing.assert_array_equal(probs, row_reduction_softmax(u, beta))
        # a 1-D row and a row of any batch agree: the scalar loops' floats
        for row, got in zip(u, probs):
            np.testing.assert_array_equal(logit_update_distribution(row, beta), got)

    @pytest.mark.parametrize("m", column_pass_ms)
    def test_column_pass_shapes_reach_both_paths(self, m):
        # the shapes above exercise the column passes and the row reductions
        taken = {columns_pay(k, m) for k in column_pass_ks}
        assert taken == {True, False}

    @pytest.mark.parametrize("k", column_pass_ks)
    @pytest.mark.parametrize("m", column_pass_ms)
    def test_inverse_cdf_column_count_matches_searchsorted(self, m, k):
        rng = np.random.default_rng([m, k])
        probs = column_pass_rows(rng, k, m)
        uniforms = column_pass_uniforms(rng, k)
        cum = np.cumsum(probs, axis=-1)
        expected = row_reduction_count(cum, uniforms)
        chosen = sample_inverse_cdf(probs, uniforms)
        assert chosen.dtype == np.int64
        np.testing.assert_array_equal(chosen, expected)
        np.testing.assert_array_equal(sample_from_cumulative(cum, uniforms), expected)
        # the 1-D path (searchsorted) agrees row by row
        for row, x, got in zip(probs, uniforms, chosen):
            assert sample_inverse_cdf(row, float(x)) == got

    @pytest.mark.parametrize("k", column_pass_ks)
    @pytest.mark.parametrize("m", column_pass_ms)
    def test_inverse_cdf_count_on_gather_rows_with_inf_padding(self, m, k):
        # gather tables: a row's own last column and its padding are +inf,
        # so the count stops at the row's own last strategy
        rng = np.random.default_rng([m, k, 1])
        own = rng.integers(1, m + 1, size=k)
        cum = np.cumsum(column_pass_rows(rng, k, m), axis=-1)
        cum[np.arange(m) >= own[:, None] - 1] = np.inf
        uniforms = column_pass_uniforms(rng, k)
        chosen = sample_from_cumulative(cum, uniforms)
        np.testing.assert_array_equal(chosen, row_reduction_count(cum, uniforms))
        assert (chosen < own).all()
        for row, x, got in zip(cum, uniforms, chosen):
            assert np.searchsorted(row, x, side="right") == got

    @given(num_profiles=st.integers(min_value=2, max_value=16), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_gibbs_shift_invariance(self, num_profiles, data):
        phi = data.draw(potentials(num_profiles))
        shift = data.draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
        np.testing.assert_allclose(
            gibbs_measure(phi, 1.0), gibbs_measure(phi + shift, 1.0), atol=1e-10
        )


# -- Total variation invariants ------------------------------------------------


class TestTVProperties:
    @given(
        weights_p=arrays(np.float64, 8, elements=st.floats(0.01, 10.0)),
        weights_q=arrays(np.float64, 8, elements=st.floats(0.01, 10.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_tv_in_unit_interval_and_symmetric(self, weights_p, weights_q):
        p = normalize_distribution(weights_p)
        q = normalize_distribution(weights_q)
        d = total_variation(p, q)
        assert 0.0 <= d <= 1.0 + 1e-12
        assert d == pytest.approx(total_variation(q, p))
        assert total_variation(p, p) == 0.0


# -- Logit dynamics invariants --------------------------------------------------


class TestLogitDynamicsProperties:
    @given(shape=strategy_shapes, beta=betas, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_transition_matrix_stochastic_for_random_games(self, shape, beta, seed):
        game = random_game(shape, rng=np.random.default_rng(seed))
        P = LogitDynamics(game, beta).transition_matrix()
        assert is_stochastic_matrix(P, tol=1e-8)

    @given(num_players=small_binary_players, beta=betas, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_gibbs_stationarity_for_random_potentials(self, num_players, beta, data):
        space_size = 2**num_players
        phi = data.draw(potentials(space_size))
        game = ExplicitPotentialGame.from_potential((2,) * num_players, phi)
        dynamics = LogitDynamics(game, beta)
        P = dynamics.transition_matrix()
        pi = gibbs_measure(phi, beta)
        np.testing.assert_allclose(pi @ P, pi, atol=1e-9)

    @given(num_players=small_binary_players, beta=betas, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_detailed_balance_for_random_potentials(self, num_players, beta, data):
        space_size = 2**num_players
        phi = data.draw(potentials(space_size))
        game = ExplicitPotentialGame.from_potential((2,) * num_players, phi)
        dynamics = LogitDynamics(game, beta)
        P = dynamics.transition_matrix()
        pi = gibbs_measure(phi, beta)
        flow = pi[:, None] * P
        np.testing.assert_allclose(flow, flow.T, atol=1e-9)


# -- zeta barrier invariants ------------------------------------------------------


class TestZetaProperties:
    @given(num_players=st.integers(2, 4), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_union_find_matches_bruteforce(self, num_players, data):
        space = ProfileSpace((2,) * num_players)
        phi = data.draw(potentials(space.size))
        fast = zeta_barrier(phi, space)
        slow = zeta_barrier_bruteforce(phi, space)
        assert fast == pytest.approx(slow, abs=1e-9)

    @given(num_players=st.integers(2, 4), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_zeta_between_zero_and_delta_phi(self, num_players, data):
        space = ProfileSpace((2,) * num_players)
        phi = data.draw(potentials(space.size))
        z = zeta_barrier(phi, space)
        assert -1e-12 <= z <= float(np.ptp(phi)) + 1e-12
