"""Tests for the exact mixing-time computation (repro.markov.mixing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.markov.chain import MarkovChain
from repro.markov.mixing import mixing_time, worst_case_tv


def two_state_chain(p: float = 0.3, q: float = 0.2) -> MarkovChain:
    return MarkovChain(np.array([[1 - p, p], [q, 1 - q]]))


def lazy_cycle(n: int = 6) -> MarkovChain:
    P = np.zeros((n, n))
    for i in range(n):
        P[i, i] = 0.5
        P[i, (i + 1) % n] += 0.25
        P[i, (i - 1) % n] += 0.25
    return MarkovChain(P)


class TestWorstCaseTV:
    def test_t_zero_near_one(self):
        chain = lazy_cycle(8)
        # at t=0 the chain is a point mass, far from the uniform stationary
        assert worst_case_tv(chain, 0) == pytest.approx(1.0 - 1.0 / 8)

    def test_monotone_decay(self):
        chain = lazy_cycle(6)
        values = [worst_case_tv(chain, t) for t in (0, 2, 5, 10, 30)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_converges_to_zero(self):
        chain = two_state_chain()
        assert worst_case_tv(chain, 200) < 1e-8


class TestMixingTime:
    def test_two_state_exact_value(self):
        # for the two-state chain d(t) = max(pi0, pi1) * |1 - p - q|^t
        p, q = 0.3, 0.2
        chain = two_state_chain(p, q)
        result = mixing_time(chain, epsilon=0.25)
        lam = 1 - p - q
        worst_start_mass = max(q, p) / (p + q)
        expected = int(np.ceil(np.log(0.25 / worst_start_mass) / np.log(lam)))
        assert result.mixing_time == expected
        assert not result.capped
        assert result.tv_at_mixing <= 0.25 < result.tv_before_mixing

    def test_definition_minimality(self):
        chain = lazy_cycle(6)
        result = mixing_time(chain, epsilon=0.25)
        t = result.mixing_time
        assert worst_case_tv(chain, t) <= 0.25
        assert worst_case_tv(chain, t - 1) > 0.25

    def test_already_mixed_chain(self):
        # a chain that jumps straight to stationarity mixes in one step
        pi = np.array([0.2, 0.3, 0.5])
        P = np.tile(pi, (3, 1))
        result = mixing_time(MarkovChain(P))
        assert result.mixing_time == 1

    def test_trivial_single_state(self):
        result = mixing_time(MarkovChain(np.array([[1.0]])))
        assert result.mixing_time == 0

    def test_epsilon_monotonicity(self):
        chain = lazy_cycle(7)
        loose = mixing_time(chain, epsilon=0.4).mixing_time
        tight = mixing_time(chain, epsilon=0.05).mixing_time
        assert tight >= loose

    def test_cap_reported(self):
        # slow two-state chain with tiny transition probabilities
        chain = two_state_chain(1e-4, 1e-4)
        result = mixing_time(chain, epsilon=0.25, max_time=10)
        assert result.capped
        assert result.mixing_time == 10

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            mixing_time(two_state_chain(), epsilon=1.5)

    def test_log_epsilon_relation(self):
        # t_mix(eps) <= t_mix(1/4) * ceil(log2(1/eps)) (standard relation);
        # check the weaker monotone consequence on an actual chain
        chain = lazy_cycle(6)
        t_quarter = mixing_time(chain, epsilon=0.25).mixing_time
        t_small = mixing_time(chain, epsilon=0.25**3).mixing_time
        assert t_small <= 3 * t_quarter + 3

