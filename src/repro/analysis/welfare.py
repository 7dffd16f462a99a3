"""Stationary expected social welfare of the logit dynamics.

The companion paper the authors cite ([4], "Mixing time and stationary
expected social welfare of logit dynamics", SAGT 2010) evaluates the logit
dynamics not only by how fast it converges but by *how good* the states it
visits are: the expected social welfare under the stationary distribution.
This module implements those observables so the package covers that
evaluation axis as well:

* :func:`social_welfare_vector` — utilitarian welfare (sum of utilities) of
  every profile;
* :func:`stationary_expected_welfare` — its exact expectation under the
  logit stationary distribution at a given beta;
* :func:`welfare_of_profiles` — the welfare of a batch of profile rows,
  without profile indices, for spaces beyond the dense cap;
* :func:`estimate_stationary_welfare` — a Monte-Carlo estimate of that
  expectation after a burn-in, with an anytime-valid confidence interval;
* :func:`optimal_welfare` — the social optimum, the reference point of the
  welfare tables.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.logit import LogitDynamics
from ..core.samplers import BurnInWelfareSampler
from ..engine.kernels import require_sequential_dynamics
from ..games.base import Game
from ..games.space import DENSE_PROFILE_CAP
from ..markov.chain import check_count
from ..stats.accumulators import StreamingEstimate
from ..stats.adaptive import run_until_width
from ..stats.knobs import reject_fixed_mode_knobs, reject_quantile_knob_conflicts
from ..stats.quantile import QuantileEstimate

__all__ = [
    "social_welfare_vector",
    "stationary_expected_welfare",
    "estimate_stationary_welfare",
    "welfare_of_profiles",
    "optimal_welfare",
]


def social_welfare_vector(game: Game) -> np.ndarray:
    """Utilitarian social welfare ``W(x) = sum_i u_i(x)`` for every profile."""
    welfare = np.zeros(game.space.size, dtype=float)
    for player in range(game.num_players):
        welfare += game.utility_matrix(player)
    return welfare


def stationary_expected_welfare(game: Game, beta: float) -> float:
    """``E_pi[W]`` under the logit stationary distribution at inverse noise beta."""
    pi = LogitDynamics(game, beta).stationary_distribution()
    return float(np.dot(pi, social_welfare_vector(game)))


def welfare_of_profiles(game: Game, profiles: np.ndarray) -> np.ndarray:
    """Utilitarian welfare of ``(k, n)`` strategy-profile rows, index-free.

    ``u_i(x)`` is the ``x_i`` column of player ``i``'s deviation row, so
    the welfare of a batch of profiles costs one
    :meth:`~repro.games.Game.utility_deviations_profiles` call per player
    and never touches a profile index — the welfare observable that keeps
    working past the int64 profile-index ceiling.
    """
    profiles = np.asarray(profiles)
    welfare = np.zeros(profiles.shape[0], dtype=float)
    rows = np.arange(profiles.shape[0])
    for player in range(game.num_players):
        devs = game.utility_deviations_profiles(player, profiles)
        welfare += devs[rows, profiles[:, player]]
    return welfare


def estimate_stationary_welfare(
    game: Game,
    beta: float,
    num_steps: int | None = None,
    precision: float | None = None,
    alpha: float = 0.05,
    num_replicas: int | None = None,
    chunk_size: int = 64,
    max_replicas: int = 4096,
    seed: int | np.random.SeedSequence | None = None,
    start: Sequence[int] | np.ndarray | int | None = None,
    dynamics=None,
    support: tuple[float, float] | str | None = "auto",
    executor=None,
    q: float | None = None,
    precision_quantile: float | None = None,
    tracer=None,
) -> StreamingEstimate:
    """Sampled ``E[W(X_T)]`` with an anytime-valid confidence interval.

    The Monte-Carlo counterpart of :func:`stationary_expected_welfare` for
    profile spaces beyond the dense pipeline: each replica runs ``T =
    num_steps`` steps of the logit dynamics (default ``100 * n``, i.e. one
    hundred player-sweeps) from ``start`` and contributes the welfare of
    its final profile.  The estimand is the burn-in-``T`` expectation
    ``E[W(X_T)]``, which approximates the stationary expectation once
    ``T`` dominates the mixing time — the burn-in choice is the caller's
    statement about mixing, not something this estimator can certify.

    Replicas are spawned in chunks under the ``SeedSequence.spawn``
    discipline (pooled samples independent of ``chunk_size``); with
    ``precision`` given, chunks keep coming until the confidence interval
    is at most ``precision`` wide — absolute welfare units — or
    ``max_replicas`` is reached, otherwise exactly ``num_replicas``
    (default 256) replicas run and the interval is whatever they support.
    Passing ``num_replicas`` together with ``precision`` or
    ``precision_quantile`` is an error, not a silent ignore.  ``support``
    selects the boundary: an explicit ``(lo, hi)`` welfare range uses the
    empirical-Bernstein CS, ``None`` the CLT-style normal-mixture CS, and
    ``"auto"`` (default) derives the exact range from
    :func:`social_welfare_vector` while the space is within the dense cap
    and falls back to the CLT-style boundary beyond it.

    Because the sampler always runs on per-replica seeded streams,
    ``dynamics`` must be sequential (the default logit chain or any rule
    advanced one random mover per step); parallel / round-robin / annealed
    overrides are rejected rather than silently simulated as a different
    chain.

    ``executor`` (``"serial"``, ``"process"``, or a
    :class:`repro.parallel.ShardedExecutor`) shards every replica chunk
    across processes; pooled welfare samples are bit-for-bit identical to
    the serial run for any shard count.

    ``q`` certifies a quantile of the burn-in welfare on the same sample
    stream (attached to the result's ``quantile`` field) and
    ``precision_quantile`` — absolute welfare units, like ``precision`` —
    makes the tail interval a stopping target as well; both need a
    bounded ``support``.

    ``tracer`` (telemetry, :mod:`repro.obs`) works as on the sibling
    estimators (:func:`~repro.core.metastability.empirical_hitting_times`):
    it receives the sample driver's chunk and sample counters and never
    changes a sample.
    """
    if dynamics is None:
        dynamics = LogitDynamics(game, beta)
    require_sequential_dynamics(dynamics)
    if precision is not None and precision <= 0:
        raise ValueError("precision must be positive (absolute welfare units)")
    if precision_quantile is not None and precision_quantile <= 0:
        raise ValueError(
            "precision_quantile must be positive (absolute welfare units)"
        )
    adaptive = precision is not None or precision_quantile is not None
    if adaptive:
        reject_fixed_mode_knobs(num_replicas)
    elif num_replicas is None:
        num_replicas = 256
    if num_steps is None:
        num_steps = 100 * game.space.num_players
    num_steps = check_count(num_steps, "num_steps", minimum=0)
    if support == "auto":
        if game.space.size <= DENSE_PROFILE_CAP:
            welfare = social_welfare_vector(game)
            support = (float(welfare.min()), float(welfare.max()))
        else:
            support = None
    reject_quantile_knob_conflicts(q, precision_quantile, support)
    if support is not None and support[0] == support[1]:
        # constant welfare: every sample equals the mean, no interval needed
        value = float(support[0])
        return StreamingEstimate(
            estimate=value, lower=value, upper=value, n=0,
            stopped_early=False, alpha=float(alpha),
            target_width=precision,
            quantile=(
                QuantileEstimate(
                    q=float(q), estimate=value, lower=value, upper=value,
                    n=0, alpha=float(alpha), target_width=precision_quantile,
                )
                if q is not None
                else None
            ),
        )

    return run_until_width(
        BurnInWelfareSampler(game, dynamics, start, num_steps),
        target_width=float(precision) if precision is not None else 0.0,
        alpha=alpha,
        max_n=max_replicas if adaptive else num_replicas,
        chunk_size=chunk_size,
        seed=seed,
        executor=executor,
        support=support,
        q=q,
        precision_quantile=precision_quantile,
        tracer=tracer,
    )


def optimal_welfare(game: Game) -> float:
    """The maximum social welfare over all profiles (the social optimum)."""
    return float(np.max(social_welfare_vector(game)))
