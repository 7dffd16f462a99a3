"""Bottleneck-ratio lower bounds (Theorem 2.7 of the paper).

For a set of states ``R`` with ``pi(R) <= 1/2`` the bottleneck ratio is
``B(R) = Q(R, R^c) / pi(R)`` where ``Q(x, y) = pi(x) P(x, y)``, and the
mixing time satisfies ``t_mix(eps) >= (1 - 2 eps) / (2 B(R))``.  The
paper's lower bounds (Theorems 3.5, 3.9, 4.3, 5.7) are all instances of
this with hand-picked ``R``; this module computes ``B(R)`` exactly for any
``R`` and also searches for good bottleneck sets among the sub-level sets
of a potential, which is how the paper's constructions find them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import MarkovChain

__all__ = [
    "bottleneck_ratio",
    "mixing_time_lower_bound",
    "BottleneckResult",
    "best_sublevel_bottleneck",
]


def _as_index_array(states: Sequence[int] | np.ndarray, num_states: int) -> np.ndarray:
    idx = np.unique(np.asarray(states, dtype=np.int64))
    if idx.size == 0:
        raise ValueError("the bottleneck set must be non-empty")
    if idx.min() < 0 or idx.max() >= num_states:
        raise ValueError("bottleneck set contains out-of-range states")
    return idx


def bottleneck_ratio(chain: MarkovChain, states: Sequence[int] | np.ndarray) -> float:
    """Exact ``B(R) = Q(R, R^c) / pi(R)`` for the given set of states."""
    idx = _as_index_array(states, chain.num_states)
    pi = chain.stationary
    P = chain.transition_matrix
    mask = np.zeros(chain.num_states, dtype=bool)
    mask[idx] = True
    pi_R = float(np.sum(pi[idx]))
    if pi_R <= 0:
        raise ValueError("the bottleneck set has zero stationary mass")
    # Q(R, R^c) = sum_{x in R} pi(x) * sum_{y not in R} P(x, y)
    escape = P[idx][:, ~mask].sum(axis=1)
    q_out = float(np.sum(pi[idx] * escape))
    return q_out / pi_R


def mixing_time_lower_bound(
    chain: MarkovChain, states: Sequence[int] | np.ndarray, epsilon: float = 0.25
) -> float:
    """Theorem 2.7 lower bound ``(1 - 2 eps) / (2 B(R))``.

    Requires ``pi(R) <= 1/2`` (raises otherwise), matching the theorem's
    hypothesis.
    """
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    idx = _as_index_array(states, chain.num_states)
    pi_R = float(np.sum(chain.stationary[idx]))
    if pi_R > 0.5 + 1e-12:
        raise ValueError(
            f"Theorem 2.7 requires pi(R) <= 1/2, got pi(R) = {pi_R:.6f}; "
            "apply the bound to the complement instead"
        )
    B = bottleneck_ratio(chain, idx)
    if B <= 0:
        return float("inf")
    return (1.0 - 2.0 * epsilon) / (2.0 * B)


@dataclass(frozen=True)
class BottleneckResult:
    """A bottleneck set together with its ratio and the induced lower bound."""

    states: np.ndarray
    stationary_mass: float
    ratio: float
    lower_bound: float


def best_sublevel_bottleneck(
    chain: MarkovChain,
    ordering_values: np.ndarray,
    epsilon: float = 0.25,
) -> BottleneckResult:
    """Search the sub-level sets of a scalar ordering for the best bottleneck.

    ``ordering_values`` assigns a scalar to every state (e.g. the potential,
    or the Hamming weight); the candidate sets are
    ``R_c = { x : ordering_values[x] <= c }`` over all thresholds ``c``,
    restricted to those with ``pi(R_c) <= 1/2``.  The paper's lower-bound
    sets are of exactly this sub-level form (e.g. ``w(x) < c`` in Theorem
    3.5).  Returns the set with the largest Theorem-2.7 lower bound.
    """
    values = np.asarray(ordering_values, dtype=float)
    if values.shape != (chain.num_states,):
        raise ValueError("ordering_values must assign one value per state")
    order = np.argsort(values, kind="stable")
    pi = chain.stationary
    best: BottleneckResult | None = None
    sorted_vals = values[order]
    # candidate cut points: after every block of equal values
    cut_positions = np.flatnonzero(np.diff(sorted_vals) > 0) + 1
    for cut in cut_positions:
        members = order[:cut]
        mass = float(np.sum(pi[members]))
        if mass > 0.5 or mass <= 0.0:
            continue
        ratio = bottleneck_ratio(chain, members)
        bound = (1.0 - 2.0 * epsilon) / (2.0 * ratio) if ratio > 0 else float("inf")
        if best is None or bound > best.lower_bound:
            best = BottleneckResult(
                states=np.sort(members), stationary_mass=mass, ratio=ratio, lower_bound=bound
            )
    if best is None:
        raise ValueError(
            "no sub-level set with stationary mass in (0, 1/2]; "
            "try a different ordering or pass an explicit set to bottleneck_ratio"
        )
    return best
