"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import LogitDynamics, gibbs_measure, logit_update_distribution
from repro.games import ExplicitPotentialGame, random_game
from repro.games.potential import zeta_barrier, zeta_barrier_bruteforce
from repro.games.space import ProfileSpace
from repro.markov.chain import is_stochastic_matrix
from repro.markov.tv import normalize_distribution, total_variation

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
