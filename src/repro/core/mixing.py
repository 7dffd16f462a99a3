"""Mixing-time measurement drivers for the logit dynamics.

These are the high-level entry points the benchmarks and examples use: give
them a game and a ``beta`` and they build the logit chain and compute exact
or estimated convergence quantities.

Two measurement regimes are supported, mirroring DESIGN.md §6:

* *exact* — for profile spaces small enough to hold the dense transition
  matrix: exact worst-case total-variation mixing time
  (:func:`measure_mixing_time`), exact relaxation time
  (:func:`measure_relaxation_time`) and the full spectrum
  (:func:`measure_spectral_summary`);
* *Monte Carlo* — for larger spaces: the grand-coupling coalescence-time
  estimator (:func:`estimate_mixing_time_coupling`), which upper-bounds the
  mixing time in expectation per Theorem 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

import numpy as np

from ..obs import as_tracer
from ..engine.ensemble import EnsembleSimulator
from ..engine.kernels import require_sequential_dynamics
from ..engine.state import IndexState
from ..engine.streams import as_seed_sequence, spawn_words
from ..games.base import Game
from ..games.potential import PotentialGame
from ..markov.chain import check_count
from ..markov.coupling import coalescence_time_bound
from ..markov.mixing import MixingTimeResult, mixing_time
from ..markov.spectral import SpectralSummary, spectral_summary
from ..markov.tv import total_variation
from ..parallel.sharding import _trace_round, claim_executor, shard_plan
from ..stats.confseq import checkpoint_alpha, tv_distance_band
from .logit import LogitDynamics

__all__ = [
    "EnsembleMixingEstimate",
    "measure_mixing_time",
    "measure_relaxation_time",
    "measure_spectral_summary",
    "estimate_mixing_time_coupling",
    "estimate_mixing_time_ensemble",
    "estimate_tv_convergence",
]

#: Refuse to build dense transition matrices beyond this many profiles.
MAX_EXACT_PROFILES = 40_000

#: Above this many profiles the ensemble TV checkpoints use the sparse
#: (occupied indices, counts) histogram instead of a dense (|S|,) one —
#: the per-checkpoint memory then scales with the number of replicas, not
#: with the profile space.
SPARSE_HISTOGRAM_THRESHOLD = 1 << 20


def _tv_from_indices(indices: np.ndarray, reference: np.ndarray, space_size: int) -> float:
    """TV distance between a replica occupation and ``reference``.

    Dense histogram up to ``SPARSE_HISTOGRAM_THRESHOLD`` profiles; beyond
    that, the sparse occupied-index form: with occupied indices ``I`` and
    frequencies ``p``, ``TV = (sum_{x in I} |p_x - ref_x| + (1 - sum_{x
    in I} ref_x)) / 2`` — exactly the dense formula with the
    zero-occupation terms folded into the reference tail.  Memory is then
    ``O(R)`` regardless of ``|S|``.  The serial and sharded convergence
    drivers share this one TV implementation by construction.
    """
    num_replicas = indices.size
    if space_size <= SPARSE_HISTOGRAM_THRESHOLD:
        counts = np.bincount(indices, minlength=space_size)
        return float(total_variation(counts / num_replicas, reference))
    occupied, counts = np.unique(indices, return_counts=True)
    emp = counts / num_replicas
    ref_occupied = reference[occupied]
    return float(
        0.5 * (np.abs(emp - ref_occupied).sum() + (1.0 - ref_occupied.sum()))
    )


def _advance_tv_shard(dynamics, streams, start, steps: int):
    """Advance one replica shard ``steps`` steps; module-level, picklable.

    ``streams`` is the shard's per-replica randomness: ``(root, offset,
    count)`` on the first round, from which the worker seeds its children
    of ``root`` itself (:func:`~repro.engine.streams.spawn_words`), and
    afterwards the ``(R_shard, 6)`` uint64 stream-word array this function
    returned the round before, from which every stream *continues*.
    ``start`` is the caller's start (its own rows when it is per-replica)
    on the first round, the shard's ``(R_shard, n)`` profile rows
    afterwards.  Returns
    ``(streams, profiles, indices, seconds)``: the next round's shard
    state, the profile indices the checkpoint TV is computed from, and the
    worker wall-clock spent advancing — the coordinator's per-shard load
    signal (carries no randomness, never affects results).
    """
    tic = perf_counter()
    words = streams if isinstance(streams, np.ndarray) else spawn_words(*streams)
    sim = EnsembleSimulator.seeded(dynamics, words, start=start)
    sim.run(steps)
    return (
        sim.kernel_state["streams"].words,
        sim.profiles,
        np.asarray(sim.state.indices_at(None), dtype=np.int64),
        perf_counter() - tic,
    )


def _exact_guard(game: Game) -> None:
    if game.space.size > MAX_EXACT_PROFILES:
        raise ValueError(
            f"profile space has {game.space.size} profiles which exceeds the exact-"
            f"measurement cap of {MAX_EXACT_PROFILES}; use the coupling estimator instead"
        )


def measure_mixing_time(
    game: Game,
    beta: float,
    epsilon: float = 0.25,
    max_time: int = 10**7,
) -> MixingTimeResult:
    """Exact ``t_mix(eps)`` of the logit dynamics for ``game`` at ``beta``."""
    _exact_guard(game)
    dynamics = LogitDynamics(game, beta)
    return mixing_time(dynamics.markov_chain(), epsilon=epsilon, max_time=max_time)


def measure_relaxation_time(game: Game, beta: float) -> float:
    """Exact relaxation time ``1/(1 - lambda*)`` of the logit chain."""
    return measure_spectral_summary(game, beta).relaxation_time


def measure_spectral_summary(game: Game, beta: float) -> SpectralSummary:
    """Full eigenvalue summary of the logit chain (requires reversibility)."""
    _exact_guard(game)
    dynamics = LogitDynamics(game, beta)
    return spectral_summary(dynamics.markov_chain())


def estimate_mixing_time_coupling(
    game: Game,
    beta: float,
    start_x: Sequence[int],
    start_y: Sequence[int],
    horizon: int,
    num_runs: int = 32,
    epsilon: float = 0.25,
    seed: int | np.random.SeedSequence | None = None,
) -> float:
    """Monte-Carlo upper estimate of the mixing time via the grand coupling.

    Simulates the paper's grand coupling from the given pair of starting
    profiles and returns the empirical ``(1 - eps)``-quantile of the
    coalescence time (Theorem 2.1).  For a worst-case estimate pick the two
    profiles expected to be hardest to couple, e.g. the two consensus
    profiles of a coordination game.  ``seed`` (an int, a ``SeedSequence``
    or ``None`` for fresh entropy) seeds the one stream all runs draw from;
    an int gives the runs of ``rng=numpy.random.default_rng(seed)``.
    """
    dynamics = LogitDynamics(game, beta)
    result = dynamics.grand_coupling(
        start_x=start_x,
        start_y=start_y,
        horizon=horizon,
        num_runs=num_runs,
        rng=np.random.default_rng(as_seed_sequence(seed)),
    )
    return coalescence_time_bound(result, epsilon=epsilon)


@dataclass(frozen=True)
class EnsembleMixingEstimate:
    """Sampled mixing-time estimate from an ensemble of replicas."""

    #: First checkpoint at which the stopping criterion held, or ``-1``
    #: when it never did within the horizon — the not-reached sentinel
    #: (same convention as the first-passage ``-1`` and the annealed
    #: horizon clamp), so running out of time is never mistaken for
    #: convergence at the last checkpoint.
    mixing_time_estimate: int
    epsilon: float
    num_replicas: int
    check_every: int
    #: ``(k, 2)`` array of ``(t, TV(empirical_t, pi))`` at the checkpoints.
    tv_curve: np.ndarray
    capped: bool
    #: Per-replica profile indices at the final checkpoint (``None`` for
    #: estimates built before this field existed); lets downstream code
    #: compute state observables (welfare, magnetisation) without re-running.
    final_indices: np.ndarray | None = None
    #: Whether the run actually satisfied its stopping criterion (TV point
    #: estimate at or below ``epsilon``; certified upper band when ``alpha``
    #: was given).  Always ``not capped`` — carried explicitly so callers
    #: never have to infer convergence from the estimate value.
    converged: bool = True
    #: Significance level of the anytime-valid TV sampling band (``None``
    #: when the band was not requested).
    alpha: float | None = None
    #: ``(k, 2)`` array of per-checkpoint ``(lower, upper)`` band endpoints
    #: aligned with ``tv_curve`` rows; ``None`` without ``alpha``.
    tv_band: np.ndarray | None = None

    def __int__(self) -> int:  # pragma: no cover - convenience
        return self.mixing_time_estimate


def _array_bytes(items) -> int:
    """Total ``nbytes`` of the arrays among ``items`` (a task or a result)."""
    return sum(int(x.nbytes) for x in items if isinstance(x, np.ndarray))


def _sharded_tv_stepper(dynamics, num_replicas, start, seed, executor, tracer):
    """``(indices, advance)`` of the sharded TV driver: the ``executor=`` path.

    The ensemble is split into contiguous replica shards, each advanced in
    its own (possibly remote) process between checkpoints by
    :func:`_advance_tv_shard`; ``advance(steps)`` is one ``map_tasks``
    round and returns the shards' pooled profile indices, to which the
    caller applies the identical stopping logic.  Replica ``r`` draws all
    randomness from ``SeedSequence`` child ``r`` of the master ``seed``
    (:func:`~repro.engine.streams.spawn_words`, run in the worker), so the
    pooled indices — hence the TV curve, the band and the estimate — are
    bit-for-bit identical for **any** shard count and executor.  Note the
    randomness contract differs from the serial path (per-replica streams
    vs one shared stream, and a fresh draw block after every checkpoint):
    results are reproducible against the same ``seed`` and checkpoint
    schedule, not against ``executor=None`` runs.

    ``indices`` — the t = 0 occupation — is the start itself, validated
    and encoded here, so a bad start raises before any dispatch and a run
    that converges at t = 0 dispatches nothing.  Between rounds the
    coordinator keeps each shard's streams as the ``(R_shard, 6)`` uint64
    stream-word array its worker returned (48 bytes per replica,
    :mod:`repro.engine.streams`) and ships it back unchanged.  An enabled
    ``tracer`` counts ``shard.bytes_out`` / ``shard.bytes_in``, the
    ``nbytes`` of the arrays each round ships and receives, and puts the
    round's figures on its ``shard.chunk`` event.
    """
    require_sequential_dynamics(dynamics)
    state = IndexState(dynamics.game.space)
    state.init(num_replicas, start, None)
    root = as_seed_sequence(seed)
    plan = shard_plan(num_replicas, executor.num_shards)
    streams = [(root, root.n_children_spawned + off, cnt) for off, cnt in plan]
    per_replica = np.ndim(start) == 2
    starts = [start[off : off + cnt] if per_replica else start for off, cnt in plan]

    def advance(steps: int) -> np.ndarray:
        tasks = [(dynamics, s, x, steps) for s, x in zip(streams, starts)]
        results = executor.map_tasks(_advance_tv_shard, tasks, tracer=tracer)
        for j, result in enumerate(results):
            streams[j], starts[j] = result[0], result[1]
        if tracer.enabled:
            # workers build their sims untraced, so the coordinator does
            # the counting: every shard advanced `steps` steps per replica
            tracer.count("engine.replica_steps", int(steps) * int(num_replicas))
            _trace_round(
                tracer,
                [float(r[3]) for r in results],
                [{"replicas": cnt, "steps": int(steps)} for _, cnt in plan],
                steps=int(steps),
                bytes_out=sum(_array_bytes(task) for task in tasks),
                bytes_in=sum(_array_bytes(result) for result in results),
            )
        return np.concatenate([r[2] for r in results])

    return state.indices_at(None), advance


def estimate_tv_convergence(
    dynamics,
    reference: np.ndarray,
    num_replicas: int = 1024,
    epsilon: float = 0.25,
    start: Sequence[int] | int | None = None,
    max_time: int = 10**5,
    check_every: int | None = None,
    alpha: float | None = None,
    executor=None,
    seed: int | np.random.SeedSequence | None = None,
    tracer=None,
) -> EnsembleMixingEstimate:
    """Time for an ensemble of ``dynamics`` to reach ``reference`` in TV.

    Kernel-generic core of :func:`estimate_mixing_time_ensemble`: works for
    *any* dynamics exposing ``ensemble(num_replicas, ...)`` — the standard
    logit chain and all Section 6 variants (parallel, best-response,
    annealed, round-robin) — against any reference distribution over
    profile indices.  For a non-reversible variant pass its numerical
    stationary distribution; passing the Gibbs measure instead measures how
    *far* from Gibbs the variant settles (the parallel-trap diagnostic).
    Non-ergodic dynamics (best response) may never converge, and annealed
    dynamics with a finite schedule cannot run past their horizon (the
    measurement is clamped to the kernel's remaining step budget) — both
    cases come back ``capped`` rather than raising.

    Above ``SPARSE_HISTOGRAM_THRESHOLD`` profiles the per-checkpoint TV is
    computed from the sparse occupation histogram (occupied indices +
    counts, ``O(R)`` memory) instead of a dense ``(|S|,)`` one; the
    ``reference`` distribution itself is still dense, which is the real
    ceiling of this estimator.

    ``alpha`` requests the anytime-valid sampling band around the TV curve
    (:func:`repro.stats.confseq.tv_distance_band` with
    :func:`~repro.stats.confseq.checkpoint_alpha` spending, simultaneously
    valid over every checkpoint): the result then carries per-checkpoint
    ``tv_band`` endpoints, and the stopping rule becomes *certified* — the
    run stops once the band's **upper** endpoint is at or below
    ``epsilon``, so a reported convergence time cannot be a sampling
    fluke.  The band's honesty costs replicas: its radius includes the
    ``sqrt(|S| / (4 R))`` empirical-TV bias term, so certification needs
    ``num_replicas`` large compared to the profile-space size.  With
    ``alpha=None`` (default) the legacy point-estimate stopping rule is
    used unchanged.

    Whatever the rule, never-converging runs come back with ``converged
    False`` and the ``-1`` sentinel in ``mixing_time_estimate`` — running
    out of horizon is reported as such, not as a convergence time at the
    last checkpoint.

    ``seed`` (an int, a ``SeedSequence``, or ``None`` for fresh entropy)
    is the one randomness knob.  The serial path draws the whole ensemble
    from ``numpy.random.default_rng(seed)``.  ``executor`` (``"serial"``,
    ``"process"``, or a :class:`repro.parallel.ShardedExecutor`) switches
    to the *sharded* driver: the ensemble splits into contiguous replica
    shards, each advanced in its own process between checkpoints, with
    one independent ``SeedSequence`` child per replica spawned from
    ``seed``.  Pooled checkpoint histograms — and therefore the whole
    estimate — are bit-for-bit identical for every shard count (an
    ``(R, n)`` start hands each shard its own rows), so the shard count
    is purely a wall-clock knob.  Sharded mode requires a dynamics whose
    kernel has a seeded per-replica-stream variant (sequential, parallel
    or probabilistic schedules).  The serial and sharded drivers draw
    different samples from one seed, so compare sharded runs against
    sharded runs.

    ``tracer`` (:mod:`repro.obs`) records ``mixing.checkpoint`` events
    (TV, and the band when ``alpha`` is set), ``engine.replica_steps``
    counts, and — on the sharded path — per-shard worker wall-clock,
    load-imbalance events and the array bytes each round ships
    (``shard.bytes_out`` / ``shard.bytes_in``).  Tracing never touches
    the random streams: traced and untraced runs are bit-for-bit
    identical.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    reference = np.asarray(reference, dtype=float)
    space = dynamics.game.space
    if reference.shape != (space.size,):
        raise ValueError(
            f"reference must be a distribution over the {space.size} profiles"
        )
    if start is None:
        start = int(np.argmax(reference))
    elif not isinstance(start, (int, np.integer)):
        start = np.asarray(start, dtype=np.int64)
    check_every = check_count(
        space.num_players if check_every is None else check_every, "check_every"
    )
    num_replicas = check_count(num_replicas, "num_replicas")
    max_time = check_count(max_time, "max_time", minimum=0)
    tracer = as_tracer(tracer)
    sharder, owned = claim_executor(executor)
    try:
        if sharder is None:
            sim = dynamics.ensemble(
                num_replicas,
                start=start,
                rng=np.random.default_rng(as_seed_sequence(seed)),
                tracer=tracer,
            )
            budget = sim.kernel.remaining_steps(sim)
            if budget is not None:
                max_time = min(max_time, budget)
            indices = sim.indices

            def advance(steps: int) -> np.ndarray:
                sim.run(steps)
                return sim.indices

        else:
            indices, advance = _sharded_tv_stepper(
                dynamics, num_replicas, start, seed, sharder, tracer
            )
        curve: list[tuple[float, float]] = []
        band: list[tuple[float, float]] = []
        t = 0
        while True:
            tv = _tv_from_indices(indices, reference, space.size)
            curve.append((float(t), float(tv)))
            if alpha is None:
                converged = tv <= epsilon
                if tracer.enabled:
                    tracer.event("mixing.checkpoint", t=int(t), tv=float(tv))
            else:
                lower, upper = tv_distance_band(
                    tv, num_replicas, space.size, checkpoint_alpha(len(curve), alpha)
                )
                band.append((lower, upper))
                converged = upper <= epsilon
                if tracer.enabled:
                    tracer.event(
                        "mixing.checkpoint",
                        t=int(t),
                        tv=float(tv),
                        lower=float(lower),
                        upper=float(upper),
                    )
            if converged or t >= max_time:
                break
            steps = min(check_every, max_time - t)
            indices = advance(steps)
            t += steps
    finally:
        if owned:
            sharder.close()
    return EnsembleMixingEstimate(
        mixing_time_estimate=int(t) if converged else -1,
        epsilon=epsilon,
        num_replicas=num_replicas,
        check_every=check_every,
        tv_curve=np.asarray(curve, dtype=float),
        capped=not converged,
        final_indices=indices,
        converged=converged,
        alpha=alpha,
        tv_band=np.asarray(band, dtype=float) if alpha is not None else None,
    )


def estimate_mixing_time_ensemble(
    game: Game,
    beta: float,
    num_replicas: int = 1024,
    epsilon: float = 0.25,
    start: Sequence[int] | int | None = None,
    max_time: int = 10**5,
    check_every: int | None = None,
    alpha: float | None = None,
    executor=None,
    seed: int | np.random.SeedSequence | None = None,
    tracer=None,
) -> EnsembleMixingEstimate:
    """Sampled TV mixing estimate from ``num_replicas`` parallel replicas.

    All replicas start at the same profile — by default the stationary-most-
    likely one, i.e. the bottom of the deepest potential well, which is the
    worst-case-style start for the slow-mixing regimes the paper studies
    (escaping the deepest well is what takes exponentially long; a start on
    a potential barrier would fall into the wells and undershoot badly) —
    and advance in bulk on the batched engine; at every checkpoint the TV
    distance between the ensemble's empirical distribution and the
    stationary distribution is measured, and the first checkpoint at which
    it drops to ``epsilon`` is reported.

    This is the measurement of choice when the dense/spectral pipeline is
    out of reach: for potential games (``pi`` = Gibbs, no matrix ever
    built) memory is ``O(R + |S|)`` — the ``|S|`` term only for the
    histogram and ``pi``.  For non-potential games ``pi`` itself requires
    the dense eigen-solve, so those are only accepted within the exact-
    measurement cap.  Two caveats: the estimate is a single-start quantity
    (run from several starts for a worst-case picture), and the empirical
    TV of ``R`` samples has a positive sampling bias of order
    ``sqrt(|S| / R)``, so ``num_replicas`` should be large compared to the
    profile-space size for tight estimates — the estimate is biased
    *upward* (conservative) otherwise.

    A run that never crosses ``epsilon`` within ``max_time`` reports
    ``converged False`` and the ``-1`` sentinel, never the last checkpoint
    as if it were a measurement; ``seed`` seeds the run, ``alpha``
    additionally requests the anytime-valid TV sampling band and
    certified stopping, and ``executor`` the sharded multi-process driver
    with shard-count-invariant results (all three see
    :func:`estimate_tv_convergence`).
    """
    dynamics = LogitDynamics(game, beta)
    if not isinstance(game, PotentialGame):
        # without the Gibbs closed form, pi needs the dense eigen-solve —
        # only legitimate in the dense regime, so fail early and clearly
        _exact_guard(game)
    pi = dynamics.stationary_distribution()
    return estimate_tv_convergence(
        dynamics,
        pi,
        num_replicas=num_replicas,
        epsilon=epsilon,
        start=start,
        max_time=max_time,
        check_every=check_every,
        alpha=alpha,
        executor=executor,
        seed=seed,
        tracer=tracer,
    )

