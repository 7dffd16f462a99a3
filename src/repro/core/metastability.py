"""Transient-phase / metastability analysis of slow logit chains.

When the mixing time is exponential, the paper's conclusions (and the
follow-up work [2] it cites, "Metastability of logit dynamics for
coordination games", SODA 2012) ask what can be said about the chain's
behaviour *before* equilibrium: the dynamics typically gets trapped near a
potential well, behaves for a long while as if the well's conditional
stationary distribution were the equilibrium, and only escapes on the
exponential time-scale.  This module provides the standard tools to make
that picture quantitative:

* :func:`restricted_chain` — the chain watched inside a set ``R`` (moves out
  of ``R`` are cancelled and turned into holding probability), whose
  stationary distribution is the metastable "pseudo-equilibrium";
* :func:`conditional_stationary` — the true stationary distribution
  conditioned on ``R`` (the Gibbs measure restricted to the well);
* :func:`quasi_stationary_distribution` — the left Perron eigenvector of the
  sub-stochastic matrix ``P_R``: the law of the chain conditioned on not yet
  having escaped ``R``;
* :func:`escape_time_from` — exact expected exit time of a set from a given
  starting distribution;
* :func:`pseudo_mixing_time` — the time needed for the chain started inside
  ``R`` to get close to the restricted stationary distribution (the
  "metastable mixing" time, typically polynomial even when the true mixing
  time is exponential).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..engine.kernels import require_sequential_dynamics
from ..engine.streams import as_seed_sequence
from ..games.base import Game
from ..games.potential import PotentialGame
from ..markov.chain import MarkovChain, check_count
from ..markov.tv import total_variation
from ..stats.accumulators import StreamingEstimate
from ..stats.adaptive import run_until_width
from ..stats.knobs import (
    reject_executor_without_precision,
    reject_fixed_mode_knobs,
    reject_quantile_knob_conflicts,
)
from .logit import LogitDynamics
from .samplers import (
    TruncatedGibbsEscapeSampler,
    TruncatedHittingSampler,
    TruncatedPredicateEscapeSampler,
    check_start_inside_well,
)

__all__ = [
    "restricted_chain",
    "conditional_stationary",
    "quasi_stationary_distribution",
    "escape_time_from",
    "empirical_escape_times",
    "empirical_hitting_times",
    "pseudo_mixing_time",
    "metastable_report",
]


def _validate_subset(states: Sequence[int] | np.ndarray, num_states: int) -> np.ndarray:
    idx = np.unique(np.asarray(states, dtype=np.int64))
    if idx.size == 0:
        raise ValueError("the restriction set must be non-empty")
    if idx.min() < 0 or idx.max() >= num_states:
        raise ValueError("restriction set contains out-of-range states")
    return idx


def restricted_chain(chain: MarkovChain, states: Sequence[int] | np.ndarray) -> MarkovChain:
    """The chain *reflected* into ``R``: outgoing mass is added to the diagonal.

    This is the standard "censored at the boundary" construction: inside
    ``R`` transitions are unchanged, and any probability of leaving ``R`` is
    turned into staying put.  For a reversible chain the restricted chain is
    reversible with stationary distribution proportional to ``pi`` on ``R``.
    """
    idx = _validate_subset(states, chain.num_states)
    P = np.asarray(chain.transition_matrix, dtype=float)
    sub = P[np.ix_(idx, idx)].copy()
    escape = 1.0 - sub.sum(axis=1)
    sub[np.arange(idx.size), np.arange(idx.size)] += np.clip(escape, 0.0, None)
    pi = np.asarray(chain.stationary, dtype=float)[idx]
    return MarkovChain(sub, stationary=pi / pi.sum())


def conditional_stationary(chain: MarkovChain, states: Sequence[int] | np.ndarray) -> np.ndarray:
    """The stationary distribution conditioned on ``R`` (indexed within ``R``)."""
    idx = _validate_subset(states, chain.num_states)
    pi = np.asarray(chain.stationary, dtype=float)[idx]
    total = float(pi.sum())
    if total <= 0:
        raise ValueError("the restriction set has zero stationary mass")
    return pi / total


def quasi_stationary_distribution(
    chain: MarkovChain,
    states: Sequence[int] | np.ndarray,
    tol: float = 1e-12,
    max_iterations: int = 1_000_000,
) -> tuple[np.ndarray, float]:
    """Quasi-stationary distribution and survival rate of the set ``R``.

    Returns ``(nu, rho)`` where ``nu`` is the normalised left Perron
    eigenvector of the sub-stochastic matrix ``P_R`` (the law of ``X_t``
    conditioned on ``tau_exit > t``, as ``t`` grows) and ``rho`` is the
    corresponding eigenvalue — the per-step survival probability, so the
    expected exit time from quasi-stationarity is ``1 / (1 - rho)``.
    Computed by power iteration with renormalisation.
    """
    idx = _validate_subset(states, chain.num_states)
    P = np.asarray(chain.transition_matrix, dtype=float)
    sub = P[np.ix_(idx, idx)]
    nu = np.full(idx.size, 1.0 / idx.size)
    rho = 0.0
    for _ in range(max_iterations):
        unnorm = nu @ sub
        new_rho = float(unnorm.sum())
        if new_rho <= 0:
            raise ValueError("the set is left in one step from everywhere; no QSD exists")
        new_nu = unnorm / new_rho
        if total_variation(new_nu, nu) <= tol and abs(new_rho - rho) <= tol:
            return new_nu, new_rho
        nu, rho = new_nu, new_rho
    return nu, rho


def escape_time_from(
    chain: MarkovChain,
    states: Sequence[int] | np.ndarray,
    start_distribution: np.ndarray | None = None,
) -> float:
    """Exact expected exit time of ``R`` under a starting distribution on ``R``.

    Solves ``(I - P_R) h = 1`` for the vector of expected exit times and
    averages it under ``start_distribution`` (defaults to the conditional
    stationary distribution on ``R``).
    """
    idx = _validate_subset(states, chain.num_states)
    P = np.asarray(chain.transition_matrix, dtype=float)
    sub = P[np.ix_(idx, idx)]
    h = np.linalg.solve(np.eye(idx.size) - sub, np.ones(idx.size))
    if start_distribution is None:
        start = conditional_stationary(chain, idx)
    else:
        start = np.asarray(start_distribution, dtype=float)
        if start.shape != (idx.size,):
            raise ValueError("start_distribution must be indexed within R")
        total = float(start.sum())
        if total <= 0:
            raise ValueError("start_distribution must have positive mass")
        start = start / total
    return float(start @ h)


def _conditional_gibbs_weights(game: Game, beta: float, idx: np.ndarray) -> np.ndarray:
    """Start weights on the set ``idx``: pi conditioned on the well.

    For potential games the conditional Gibbs weights come straight from the
    potential vector (no transition matrix needed); otherwise the start is
    uniform over the set, which is the standard choice when the stationary
    distribution is unavailable in closed form.
    """
    if isinstance(game, PotentialGame):
        phi = game.potential_vector()[idx]
        logw = -float(beta) * (phi - phi.min())
        weights = np.exp(logw)
        weights /= weights.sum()
    else:
        weights = np.full(idx.size, 1.0 / idx.size)
    return weights


def _adaptive_truncated_times(
    sampler,
    precision: float | None,
    alpha: float,
    max_steps: int,
    chunk_size: int,
    max_replicas: int,
    seed,
    executor=None,
    q: float | None = None,
    precision_quantile: float | None = None,
    tracer=None,
) -> StreamingEstimate:
    """Adaptive driver shared by the hitting/escape estimators.

    ``sampler(children)`` maps spawned SeedSequence children to per-replica
    first-passage times *truncated at the horizon* (``-1`` not-reached
    entries count as ``max_steps``), so the estimand is the bounded
    quantity ``min(tau, max_steps)`` and the empirical-Bernstein CS
    applies with support ``[0, max_steps]``.  ``precision`` (mean target)
    and ``precision_quantile`` (``q``-quantile target) are relative to
    that support: the driver stops when every requested interval is at
    most ``precision * max_steps`` (resp. ``precision_quantile *
    max_steps``) wide.  ``executor`` shards each chunk across processes
    without changing any sample (see
    :func:`repro.stats.adaptive.run_until_width`).
    """
    if precision is not None and not 0 < precision:
        raise ValueError("precision must be positive (fraction of max_steps)")
    if precision_quantile is not None and not 0 < precision_quantile:
        raise ValueError(
            "precision_quantile must be positive (fraction of max_steps)"
        )
    return run_until_width(
        sampler,
        target_width=float(precision) * float(max_steps) if precision else 0.0,
        alpha=alpha,
        max_n=max_replicas,
        chunk_size=chunk_size,
        support=(0.0, float(max_steps)),
        seed=seed,
        executor=executor,
        q=q,
        precision_quantile=(
            float(precision_quantile) * float(max_steps)
            if precision_quantile is not None
            else None
        ),
        tracer=tracer,
    )


def empirical_escape_times(
    game: Game,
    beta: float,
    states,
    num_replicas: int | None = None,
    max_steps: int = 10**6,
    start_distribution: np.ndarray | None = None,
    dynamics=None,
    start_profiles: np.ndarray | None = None,
    precision: float | None = None,
    alpha: float = 0.05,
    chunk_size: int = 64,
    max_replicas: int = 4096,
    seed: int | np.random.SeedSequence | None = None,
    executor=None,
    q: float | None = None,
    precision_quantile: float | None = None,
    tracer=None,
) -> np.ndarray | StreamingEstimate:
    """Monte-Carlo exit times of the well ``R``, one per replica.

    A matrix-free, ensemble-based counterpart of :func:`escape_time_from`:
    ``num_replicas`` independent copies of the chain start inside ``R``
    (from the conditional Gibbs measure for potential games, or from the
    given ``start_distribution`` over ``R``) and all are advanced in bulk by
    the batched engine until they first leave the set.  Entries equal to
    ``-1`` mean the replica had not escaped within ``max_steps`` — for a
    deep well at large ``beta`` that is the expected outcome and is itself
    evidence of metastability.

    ``states`` describes the well either as profile indices or as a
    *profile predicate* — a callable mapping ``(k, n)`` strategy-profile
    rows to a boolean membership mask.  Predicates are the only well form
    available past the int64 profile-index ceiling (e.g. a magnetization
    band on a 1000-player local-interaction game); they require explicit
    ``start_profiles`` (an ``(n,)`` profile or ``(R, n)`` per-replica
    profiles inside the well), since the conditional-Gibbs start sampler
    enumerates indices.

    ``dynamics`` overrides the chain being escaped from: any object with an
    ``ensemble`` method (the Section 6 variants included) works, so escape
    behaviour can be compared across dynamics families; ``game`` and
    ``beta`` still pick the conditional-Gibbs start inside the well.

    ``precision`` switches the estimator to *adaptive* mode: replicas run
    in chunks of ``chunk_size`` (one ``SeedSequence.spawn`` child per
    replica, so pooled samples are identical for every chunk size), an
    empirical-Bernstein confidence sequence tracks the mean escape time
    truncated at the horizon — the bounded estimand ``E[min(tau,
    max_steps)]``, with ``-1`` never-escaped entries counted as
    ``max_steps`` — and the run stops as soon as the interval is at most
    ``precision * max_steps`` wide (or ``max_replicas`` is exhausted).
    The return type is then a
    :class:`~repro.stats.accumulators.StreamingEstimate` carrying the
    interval; with ``precision=None`` (default) the legacy fixed-replica
    sample array is returned, bit-for-bit unchanged.  Adaptive mode sizes
    the run itself: it is budgeted by ``max_replicas`` (not
    ``num_replicas``) — passing ``num_replicas`` together with
    ``precision`` is an error, not a silent ignore.  It needs sequential
    dynamics, and for a predicate well accepts only a single shared
    ``(n,)`` start profile.

    ``seed`` (an int, a ``SeedSequence``, or ``None`` for fresh entropy)
    is the one randomness knob of both modes: the fixed-replica path
    draws its starts and the whole ensemble from
    ``numpy.random.default_rng(seed)``, and adaptive mode spawns one
    ``SeedSequence`` child per replica from it.

    ``executor`` (adaptive mode only) shards each replica chunk across
    processes via :class:`repro.parallel.ShardedExecutor` — pooled samples
    are bit-for-bit identical to the serial run for any shard count, so it
    is purely a wall-clock knob; the process backend requires the
    game/dynamics and the well description to be picklable (module-level
    predicates, not lambdas).

    ``q`` certifies a quantile of the truncated escape time on the same
    sample stream (e.g. ``q=0.99`` for the P99), attached to the result's
    ``quantile`` field; ``precision_quantile`` (a fraction of
    ``max_steps``, like ``precision``) additionally makes the tail
    interval a stopping target.  Passing ``q=`` alone switches to
    adaptive mode exactly like ``precision=`` does.
    """
    adaptive = precision is not None or q is not None
    max_steps = check_count(max_steps, "max_steps", minimum=0)
    reject_quantile_knob_conflicts(q, precision_quantile, (0.0, float(max_steps)))
    if adaptive:
        reject_fixed_mode_knobs(num_replicas)
    else:
        reject_executor_without_precision(precision, executor)
    num_replicas = (
        128 if num_replicas is None else check_count(num_replicas, "num_replicas")
    )
    if dynamics is None:
        dynamics = LogitDynamics(game, beta)
    if adaptive:
        require_sequential_dynamics(dynamics)
    else:
        rng = np.random.default_rng(as_seed_sequence(seed))
    if callable(states):
        if start_distribution is not None:
            raise ValueError(
                "start_distribution weights an index well and cannot be "
                "combined with a predicate well; pass start_profiles instead"
            )
        if start_profiles is None:
            raise ValueError(
                "a predicate well has no index set to sample a start from; "
                "pass start_profiles (an (n,) profile or (R, n) per-replica "
                "profiles inside the well)"
            )

        if adaptive:
            profile = np.asarray(start_profiles)
            if profile.ndim != 1:
                raise ValueError(
                    "adaptive mode replays a single (n,) start profile per "
                    "chunk; per-replica (R, n) start profiles would tie the "
                    "samples to one fixed replica count"
                )
            return _adaptive_truncated_times(
                TruncatedPredicateEscapeSampler(
                    dynamics, profile, states, max_steps
                ),
                precision, alpha, max_steps,
                chunk_size, max_replicas, seed, executor,
                q, precision_quantile, tracer,
            )
        sim = dynamics.ensemble(
            num_replicas,
            start=np.asarray(start_profiles),
            rng=rng,
            tracer=tracer,
        )
        check_start_inside_well(states, sim, num_replicas)
        return sim.exit_times(states, max_steps=max_steps)
    if start_profiles is not None:
        raise ValueError("start_profiles is only for predicate wells; use "
                         "start_distribution with an index well")
    idx = _validate_subset(states, game.space.size)
    if start_distribution is None:
        weights = _conditional_gibbs_weights(game, beta, idx)
    else:
        weights = np.asarray(start_distribution, dtype=float)
        if weights.shape != (idx.size,):
            raise ValueError("start_distribution must be indexed within R")
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("start_distribution must have positive mass")
        weights = weights / total
    if adaptive:
        return _adaptive_truncated_times(
            TruncatedGibbsEscapeSampler(dynamics, idx, weights, max_steps),
            precision, alpha, max_steps,
            chunk_size, max_replicas, seed, executor,
            q, precision_quantile, tracer,
        )
    starts = rng.choice(idx, size=num_replicas, p=weights)
    sim = dynamics.ensemble(num_replicas, start_indices=starts, rng=rng, tracer=tracer)
    return sim.exit_times(idx, max_steps=max_steps)


def empirical_hitting_times(
    game: Game,
    beta: float,
    start: Sequence[int] | int,
    targets,
    num_replicas: int | None = None,
    max_steps: int = 10**6,
    dynamics=None,
    precision: float | None = None,
    alpha: float = 0.05,
    chunk_size: int = 64,
    max_replicas: int = 4096,
    seed: int | np.random.SeedSequence | None = None,
    executor=None,
    q: float | None = None,
    precision_quantile: float | None = None,
    tracer=None,
) -> np.ndarray | StreamingEstimate:
    """Monte-Carlo first-hitting times of a profile set, one per replica.

    The metastability picture of the paper's slow-mixing regimes (e.g. the
    tunnelling time from one consensus well of a coordination game to the
    other) is exactly a hitting time of a set; this runs all replicas
    simultaneously on the batched engine.  ``targets`` is a profile index,
    an array of them, or a *profile predicate* (a callable mapping
    ``(k, n)`` strategy-profile rows to a boolean mask) — with a predicate
    target and a profile-array ``start`` the measurement is fully
    index-free and runs on local-interaction games of any size (e.g. a
    magnetization threshold at ``n = 1000``).  ``-1`` entries mean the
    target set was not reached within ``max_steps``.  ``dynamics``
    overrides the chain (any object with an ``ensemble`` method, variants
    included); ``game`` and ``beta`` are then only documentation of the
    default.

    ``precision`` switches to adaptive mode (see
    :func:`empirical_escape_times` — same chunked ``SeedSequence.spawn``
    discipline, same truncated-mean estimand ``E[min(tau, max_steps)]``,
    same stopping rule, same rejection of the fixed-mode ``num_replicas``
    knob): the return type becomes a
    :class:`~repro.stats.accumulators.StreamingEstimate` whose interval is
    at most ``precision * max_steps`` wide when ``stopped_early`` is true.
    With ``precision=None`` the legacy fixed-replica sample array is
    returned unchanged.  ``executor`` shards the adaptive chunks across
    processes without changing any sample, and ``seed`` seeds either mode
    (both see :func:`empirical_escape_times`): in fixed mode one seed
    gives one array.

    >>> from repro import IsingGame, ring_graph
    >>> game = IsingGame(ring_graph(6), coupling=1.0)
    >>> a = empirical_hitting_times(game, 1.0, 0, 63, num_replicas=8, seed=3)
    >>> b = empirical_hitting_times(game, 1.0, 0, 63, num_replicas=8, seed=3)
    >>> bool((a == b).all())
    True

    ``q`` / ``precision_quantile`` certify (and optionally stop on) a
    quantile of the truncated hitting time — e.g. ``q=0.99,
    precision_quantile=0.01`` runs until the P99 time-to-hit is pinned to
    within ``0.01 * max_steps`` — on the same sample stream as the mean
    (see :func:`empirical_escape_times`).
    """
    adaptive = precision is not None or q is not None
    max_steps = check_count(max_steps, "max_steps", minimum=0)
    reject_quantile_knob_conflicts(q, precision_quantile, (0.0, float(max_steps)))
    if adaptive:
        reject_fixed_mode_knobs(num_replicas)
    else:
        reject_executor_without_precision(precision, executor)
    num_replicas = (
        128 if num_replicas is None else check_count(num_replicas, "num_replicas")
    )
    if dynamics is None:
        dynamics = LogitDynamics(game, beta)
    if isinstance(start, (int, np.integer)):
        start_state: np.ndarray | int = int(start)
    else:
        start_state = np.asarray(start, dtype=np.int64)
    if adaptive:
        require_sequential_dynamics(dynamics)
        if isinstance(start_state, np.ndarray) and start_state.ndim != 1:
            raise ValueError(
                "adaptive mode replays a single start (profile index or (n,) "
                "profile) per chunk; per-replica (R, n) start profiles would "
                "tie the samples to one fixed replica count"
            )

        return _adaptive_truncated_times(
            TruncatedHittingSampler(dynamics, start_state, targets, max_steps),
            precision, alpha, max_steps,
            chunk_size, max_replicas, seed, executor,
            q, precision_quantile, tracer,
        )
    sim = dynamics.ensemble(
        num_replicas,
        start=start_state,
        rng=np.random.default_rng(as_seed_sequence(seed)),
        tracer=tracer,
    )
    return sim.hitting_times(targets, max_steps=max_steps)


def pseudo_mixing_time(
    chain: MarkovChain,
    states: Sequence[int] | np.ndarray,
    epsilon: float = 0.25,
    max_time: int = 10**6,
) -> int:
    """Mixing time of the restricted chain — the metastable relaxation time.

    The chain started anywhere inside the well ``R`` reaches the well's
    conditional stationary distribution within this many steps, even when
    the *global* mixing time is exponentially larger (because escaping the
    well is not required).
    """
    from ..markov.mixing import mixing_time

    restricted = restricted_chain(chain, states)
    return mixing_time(restricted, epsilon=epsilon, max_time=max_time).mixing_time


def metastable_report(
    game: Game,
    beta: float,
    states: Sequence[int] | np.ndarray,
    epsilon: float = 0.25,
) -> dict[str, float]:
    """Convenience bundle of the metastability quantities for a game and a well.

    Returns a dict with the well's stationary mass, its pseudo-mixing time,
    the expected escape time from the conditional stationary distribution,
    the quasi-stationary survival rate, and the ratio escape / pseudo-mixing
    (a large ratio is the signature of metastability).
    """
    dynamics = LogitDynamics(game, beta)
    chain = dynamics.markov_chain()
    idx = _validate_subset(states, chain.num_states)
    mass = float(np.sum(np.asarray(chain.stationary)[idx]))
    pseudo = pseudo_mixing_time(chain, idx, epsilon=epsilon)
    escape = escape_time_from(chain, idx)
    _, survival = quasi_stationary_distribution(chain, idx)
    return {
        "stationary_mass": mass,
        "pseudo_mixing_time": float(pseudo),
        "expected_escape_time": escape,
        "qsd_survival_rate": survival,
        "metastability_ratio": escape / max(float(pseudo), 1.0),
    }
