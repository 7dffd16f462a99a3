"""Exact mixing-time computation for finite chains.

The mixing time is ``t_mix(eps) = min { t : d(t) <= eps }`` where
``d(t) = max_x || P^t(x, .) - pi ||_TV`` (Section 2 of the paper), with the
standard convention ``t_mix = t_mix(1/4)``.

For the state-space sizes this package targets (up to a few tens of
thousands of profiles) we can afford the exact computation: evolve all rows
of ``P^t`` simultaneously and evaluate the worst-case TV distance.  To keep
the number of dense matrix products at ``O(log t_mix)`` we use *geometric
doubling* to bracket the mixing time followed by bisection, exploiting the
monotonicity of ``d(t)`` (Levin–Peres–Wilmer, Lemma 4.11-4.12 — ``d̄(t)``
is submultiplicative and ``d(t)`` non-increasing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import MarkovChain, check_count
from .tv import total_variation_to_reference

__all__ = [
    "worst_case_tv",
    "MixingTimeResult",
    "mixing_time",
]


def worst_case_tv(chain: MarkovChain, t: int) -> float:
    """``d(t) = max_x ||P^t(x, .) - pi||_TV`` computed exactly."""
    Pt = chain.t_step_matrix(t)
    distances = total_variation_to_reference(Pt, chain.stationary)
    return float(np.max(distances))


@dataclass(frozen=True)
class MixingTimeResult:
    """Result of an exact mixing-time computation."""

    mixing_time: int
    epsilon: float
    tv_at_mixing: float
    tv_before_mixing: float
    evaluations: int
    capped: bool

    def __int__(self) -> int:  # pragma: no cover - convenience
        return self.mixing_time


def mixing_time(
    chain: MarkovChain,
    epsilon: float = 0.25,
    max_time: int = 10**7,
) -> MixingTimeResult:
    """Exact ``t_mix(eps)`` via doubling + bisection on ``d(t)``.

    Parameters
    ----------
    chain:
        The (ergodic) chain; its stationary distribution is used as the
        reference.
    epsilon:
        The TV threshold; the paper's convention is ``1/4``.
    max_time:
        Safety cap; if ``d(max_time) > eps`` the result is flagged
        ``capped=True`` and ``mixing_time = max_time``.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    max_time = check_count(max_time, "max_time")
    evaluations = 0

    d0 = worst_case_tv(chain, 0)
    evaluations += 1
    if d0 <= epsilon:
        return MixingTimeResult(0, epsilon, d0, d0, evaluations, False)

    # geometric doubling to find an upper bracket
    lo, d_lo = 0, d0
    hi = 1
    while True:
        d_hi = worst_case_tv(chain, hi)
        evaluations += 1
        if d_hi <= epsilon:
            break
        lo, d_lo = hi, d_hi
        if hi >= max_time:
            return MixingTimeResult(max_time, epsilon, d_hi, d_lo, evaluations, True)
        hi = min(hi * 2, max_time)

    # bisection: smallest t in (lo, hi] with d(t) <= epsilon
    d_at_hi = d_hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        d_mid = worst_case_tv(chain, mid)
        evaluations += 1
        if d_mid <= epsilon:
            hi, d_at_hi = mid, d_mid
        else:
            lo, d_lo = mid, d_mid
    return MixingTimeResult(hi, epsilon, d_at_hi, d_lo, evaluations, False)
