"""Batched simulation of update dynamics over replicas.

The Monte-Carlo entry points of the package used to advance one replica of
the chain one step at a time in pure Python, which caps experiments at toy
sizes exactly where the paper's claims are about *scaling*.
:class:`EnsembleSimulator` removes that cap: it holds ``R`` independent
replicas of the chain in a pluggable state backend
(:mod:`repro.engine.state`) and advances all of them per step with a
handful of numpy operations:

1. the update-rule *kernel* (:mod:`repro.engine.kernels`) draws the step's
   movers and uniforms in bulk — a uniformly random player per replica for
   the paper's dynamics, all players for the synchronous variant, the
   cursor player for round-robin scanning,
2. each mover's ``(k, m_i)`` move-distribution rows come from the route
   the state backend selects (below), and
3. the uniforms are mapped through the row-wise inverse CDF
   (:mod:`repro.engine.sampling`).

Two routes, one per state backend (``state=`` argument):

* ``"index"`` — *gather*: each replica is a flat int64 profile index
  (:class:`~repro.engine.state.IndexState`), and every player's full
  update matrix ``sigma_i(. | x)`` over all profiles is precomputed once
  into one padded cumulative table plus the matching next-profile table.
  A step is then one table lookup, one inverse-CDF sample and one index
  write for the whole batch, whatever the movers — no utility or softmax
  work and no per-player grouping.  Only legal for kernels whose update
  rows are time-invariant
  (:attr:`~repro.engine.kernels.UpdateKernel.supports_gather`) and spaces
  of at most ``DENSE_PROFILE_CAP`` profiles;
* ``"matrix"`` — each replica is a strategy row in an ``(R, n)``
  int8/int16 matrix (:class:`~repro.engine.state.MatrixState`), and the
  rule's rows are produced on demand: one row-wise call per step (per
  level of a block on CSR-structured games) when the game supports it,
  otherwise one batched profile-row call per moving player (replicas
  grouped by one stable argsort).  No index is ever computed on the
  stepping path, so memory is ``O(R * n)`` whatever ``|S|``, and
  graph-structured games with thousands of players
  (:class:`~repro.games.local.LocalInteractionGame`) simulate without
  ever touching ``|S|``.

``"auto"`` (the default) picks gather for time-invariant kernels on spaces
of at most :data:`GATHER_CAP` profiles, where building the tables pays
for itself, and the matrix state otherwise.  Both routes produce the same
trajectories, bit for bit, under a fixed seed.

Replicas are statistically independent: grouping them by moving player
within a step is exact, not an approximation, because each replica receives
exactly the moves its kernel prescribes per step.

Sequential runs on the row-wise path go further.  The sequential kernel
draws a run's whole ``(steps, R)`` block of movers and uniforms up front,
and on a CSR-structured game an update reads only its mover's closed
neighbourhood, so updates whose movers are at graph distance 2 or more
commute.  :meth:`EnsembleSimulator.run` hands the kernel blocks of at most
:data:`LEVEL_BLOCK_SLOTS` closed-neighbourhood slots that end at recording
boundaries, and the kernel runs each conflict-free *level* of a block as
one row-wise call (:func:`repro.engine.kernels.dependency_levels`): the
step-by-step trajectory, bit for bit, in a few calls per block instead of
about a hundred per step.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from ..games.space import DENSE_PROFILE_CAP
from ..markov.chain import check_count
from ..obs import as_tracer
from .kernels import (
    SeededSequentialKernel,
    SequentialKernel,
    UpdateKernel,
    seeded_kernel_for,
)
from .sampling import sample_from_cumulative, sample_inverse_cdf
from .state import EngineState, IndexState, MatrixState, integral_array
from .streams import stream_words

__all__ = ["EnsembleSimulator"]

#: Target predicate for first-passage observables: maps a ``(k, n)``
#: strategy-profile array to a ``(k,)`` boolean membership mask.
ProfilePredicate = Callable[[np.ndarray], np.ndarray]

#: most closed-neighbourhood slots one ``run_block`` call of
#: :meth:`EnsembleSimulator.run` spans: a block of ``steps`` steps over ``R``
#: replicas whose updates touch at most ``w`` players each (mover plus
#: padded neighbours) has ``steps * R * w`` of them.  The level schedule's
#: temporaries — three (few keys repeat, as on a large ring) to twelve
#: (nearly all do, as on a small ring) int64 arrays per closed-neighbourhood
#: entry, and the row-wise scratch's padded ``(max_degree, k)`` buffers for
#: a level of ``k`` updates — are linear in the slots, so a block stays
#: within about 13 MB on any graph.  A levelled block thus has at most
#: 2**17 updates, so its conflict keys pack into int64 for any
#: ``R * n`` up to 2**44
LEVEL_BLOCK_SLOTS = 1 << 17

#: largest profile space ``state="auto"`` serves on the gather route
GATHER_CAP = 1 << 16


class EnsembleSimulator:
    """Vectorised ensemble of replicas of a single-site update chain.

    Parameters
    ----------
    dynamics:
        The dynamics to simulate: a
        :class:`~repro.core.logit.UtilityRule`, which supplies ``game``, the
        index state's ``gather_tables()`` (built once per rule from
        ``player_update_matrix``) and the matrix state's
        ``update_distribution_profiles(player, profiles)``;
        :class:`~repro.core.logit.LogitDynamics` is the canonical provider.
        Without an explicit ``kernel`` it is advanced one uniformly random
        player per step (:class:`~repro.engine.kernels.SequentialKernel`).
    num_replicas:
        Number of independent replicas ``R`` (an integer, at least 1).
    start:
        Initial state of the ensemble: ``None`` (all replicas at the
        all-zeros profile), a single profile index, an ``(n,)`` strategy
        profile broadcast to every replica, or an ``(R, n)`` array of
        per-replica profiles.  A 1-D array is *always* read as a strategy
        profile; to start each replica at its own profile index use
        ``start_indices`` (keeping the two channels separate avoids a
        silent ambiguity when ``R == n``).
    start_indices:
        ``(R,)`` array of per-replica profile indices; mutually exclusive
        with ``start``.
    rng:
        Numpy random generator (a fresh default generator if omitted).
    kernel:
        The :class:`~repro.engine.kernels.UpdateKernel` deciding who moves
        per step.  Defaults to ``SequentialKernel(dynamics)`` — the paper's
        one-uniformly-random-player-per-step rule.
    state:
        The route (see the module docs): ``"index"`` (gather tables over
        profile indices), ``"matrix"`` (strategy rows, rule rows on
        demand), or ``"auto"`` (index when the kernel is time-invariant and
        the space has at most ``GATHER_CAP`` = 2**16 profiles, matrix
        otherwise).  ``"index"`` raises ``ValueError`` for a
        time-inhomogeneous kernel and for spaces past
        ``DENSE_PROFILE_CAP`` or int64.  Trajectories are bit-for-bit
        identical across the two routes under a fixed seed.
    tracer:
        Telemetry sink (:mod:`repro.obs`): ``None`` (default — the shared
        no-op tracer, zero hot-path cost), a
        :class:`~repro.obs.Tracer`, or a path for a JSONL trace file.
        When enabled the simulator counts ``engine.replica_steps``, times
        ``engine.run`` / ``engine.first_passage``, and emits an
        ``engine.backend_resolved`` event at construction.  Tracing never
        touches the random streams, so traced and untraced runs are
        bit-for-bit identical under the same seed.

    Example
    -------
    >>> import networkx as nx
    >>> import numpy as np
    >>> from repro.core import LogitDynamics
    >>> from repro.games import IsingGame
    >>> game = IsingGame(nx.cycle_graph(4), coupling=1.0)
    >>> dynamics = LogitDynamics(game, beta=0.8)
    >>> sim = dynamics.ensemble(32, start=(0, 0, 0, 0), rng=np.random.default_rng(0))
    >>> sim.run(500)
    >>> sim.profiles.shape
    (32, 4)
    >>> consensus = game.space.encode(np.ones(4, dtype=np.int64))
    >>> sim.reset(start=(0, 0, 0, 0))
    >>> times = sim.hitting_times(consensus, max_steps=10_000)
    >>> times.shape, bool(np.all(times >= 0))
    ((32,), True)
    >>> sim.state.kind  # 16 profiles: the gather route
    'index'
    >>> ring20 = IsingGame(nx.cycle_graph(20), coupling=1.0)  # 2**20 > GATHER_CAP
    >>> LogitDynamics(ring20, beta=0.8).ensemble(4).state.kind
    'matrix'
    """

    def __init__(
        self,
        dynamics,
        num_replicas: int,
        start: Sequence[int] | np.ndarray | int | None = None,
        rng: np.random.Generator | None = None,
        start_indices: np.ndarray | None = None,
        kernel: UpdateKernel | None = None,
        state: str = "auto",
        tracer=None,
    ):
        num_replicas = check_count(num_replicas, "num_replicas")
        self.tracer = as_tracer(tracer)
        self.kernel = SequentialKernel(dynamics) if kernel is None else kernel
        if self.kernel.game is not dynamics.game:
            raise ValueError("kernel and dynamics must play the same game")
        # every move distribution comes from the kernel's rule, so that is
        # what this simulator truthfully reports as its dynamics (identical
        # to the `dynamics` argument unless an explicit kernel carrying its
        # own rule was supplied)
        self.dynamics = self.kernel.rule
        self.game = self.kernel.game
        self.space = self.game.space
        self.num_replicas = num_replicas
        self.rng = np.random.default_rng() if rng is None else rng
        if state == "auto":
            state = (
                "index"
                if self.kernel.supports_gather and self.space.size <= GATHER_CAP
                else "matrix"
            )
        if state == "index":
            # refuses spaces past int64 itself
            self.state: EngineState = IndexState(self.space)
            if not self.kernel.supports_gather:
                raise ValueError(
                    f"the index state precomputes time-invariant update rows "
                    f"but {type(self.kernel).__name__} is time-inhomogeneous; "
                    f"use state='matrix'"
                )
            if self.space.size > DENSE_PROFILE_CAP:
                raise ValueError(
                    f"the index state precomputes (|S|, m) update tables but "
                    f"the space has {self.space.size} profiles; use "
                    f"state='matrix'"
                )
        elif state == "matrix":
            self.state = MatrixState(self.space)
        else:
            raise ValueError(f"unknown state backend {state!r}")
        self._gather: tuple[np.ndarray, np.ndarray] | None = None
        # Row-wise fast path: on the matrix backend, games with uniform
        # strategy counts that expose utility_deviations_rowwise (local-
        # interaction games) let a step with k distinct movers run as ONE
        # vectorised rule call instead of ~k per-player groups.  Produces
        # float-identical move distributions, so trajectories are unchanged.
        self._rowwise = (
            self.state.kind == "matrix"
            and getattr(self.game, "utility_deviations_rowwise", None) is not None
        )
        # Level schedule: on the row-wise path of a CSR-structured game
        # an update reads only its mover's closed neighbourhood, so
        # SequentialKernel.run_block runs a pre-drawn block level by level
        # (kernels.dependency_levels); the neighbourhoods are built on the
        # first such run.  An update there spans its mover's slot plus the
        # padded neighbour slots, which sizes run's blocks
        self._levelled = (
            self._rowwise
            and hasattr(self.kernel.rule, "update_distribution_rowwise")
            and callable(getattr(self.game, "csr_arrays", None))
        )
        self._update_slots = 1
        if self._levelled:
            csr_offsets = self.game.csr_arrays()[0]
            self._update_slots = 1 + int(np.diff(csr_offsets).max(initial=0))
        self._neighbourhoods = None
        self._rows_all = np.arange(self.num_replicas, dtype=np.int64)
        if self.tracer.enabled:
            self.tracer.event(
                "engine.backend_resolved",
                state=self.state.kind,
                replicas=self.num_replicas,
            )
        self.reset(start, start_indices=start_indices)

    @classmethod
    def seeded(
        cls,
        dynamics,
        seeds,
        start: Sequence[int] | np.ndarray | int | None = None,
        start_indices: np.ndarray | None = None,
        state: str = "auto",
        block_size: int = 256,
        tracer=None,
    ) -> "EnsembleSimulator":
        """An ensemble with one independent random stream per replica.

        Builds the simulator around the seeded counterpart of the
        dynamics' own kernel
        (:func:`~repro.engine.kernels.seeded_kernel_for`): sequential
        dynamics get a
        :class:`~repro.engine.kernels.SeededSequentialKernel`, concurrent
        (parallel / probabilistic-schedule) dynamics their
        :class:`~repro.engine.kernels.SeededParallelKernel` /
        :class:`~repro.engine.kernels.SeededProbabilisticKernel`; kernels
        without a seeded counterpart raise.  Replica ``r`` draws all of
        its randomness from ``seeds[r]`` (a
        :class:`numpy.random.SeedSequence` child or raw int; or row ``r``
        of an ``(R, 6)`` uint64 stream-word array, see
        :mod:`repro.engine.streams`), so its trajectory is a pure function
        of its own seed.  Pre-built ``Generator`` objects raise
        ``TypeError``: the kernel copies stream state, so they would stop
        advancing; continue a run's streams through
        ``sim.kernel_state["streams"].words`` instead.  This is the
        chunked/resumable run mode the adaptive estimators use: replica
        chunks of any size pool into bit-for-bit identical samples, and
        consecutive ``run`` / first-passage calls continue each stream
        where the previous call stopped.  ``block_size`` only affects the
        sequential seeded kernel (it is part of that kernel's stream
        definition); the concurrent kernels draw whole per-sweep rows
        instead.
        """
        seeds = stream_words(seeds)
        kernel = dynamics.kernel() if hasattr(dynamics, "kernel") else None
        if kernel is None:
            seeded_kernel: UpdateKernel = SeededSequentialKernel(
                dynamics, seeds, block_size=block_size
            )
        else:
            seeded_kernel = seeded_kernel_for(kernel, seeds, block_size=block_size)
        return cls(
            dynamics,
            seeds.shape[0],
            start=start,
            start_indices=start_indices,
            state=state,
            kernel=seeded_kernel,
            tracer=tracer,
        )

    # -- state ------------------------------------------------------------

    def reset(
        self,
        start: Sequence[int] | np.ndarray | int | None = None,
        *,
        start_indices: np.ndarray | None = None,
    ) -> None:
        """(Re-)initialise every replica from ``start`` (see class docs).

        Also resets the kernel's per-simulator state (round-robin cursor,
        annealed step counter) — a reset restarts the dynamics from time 0.
        """
        self.kernel_state = self.kernel.init_state(self)
        self.state.init(self.num_replicas, start, start_indices)

    @property
    def indices(self) -> np.ndarray:
        """Current profile indices of the replicas (``(R,)`` copy).

        Only available while the profile space fits in int64 (always for
        the index backend; for the matrix backend the rows are encoded on
        demand, and spaces beyond int64 raise with a pointer to the
        profile-row observables).
        """
        return np.array(self.state.indices_at(None), dtype=np.int64)

    @property
    def profiles(self) -> np.ndarray:
        """Current strategy profiles of the replicas (``(R, n)``)."""
        return self.state.profiles_at(None)

    def empirical_distribution(self) -> np.ndarray:
        """Occupation frequencies of the ensemble over profile indices."""
        if not self.space.fits_int64 or self.space.size > DENSE_PROFILE_CAP:
            count = (
                f"{self.space.size}" if self.space.fits_int64
                else "more than 2**63"
            )
            raise ValueError(
                "empirical_distribution materialises a (|S|,) histogram; the "
                f"profile space has {count} profiles — use "
                f"empirical_distribution_sparse (occupied indices + counts) "
                f"or empirical_profile_counts (occupied profiles + counts)"
            )
        counts = np.bincount(self.state.indices_at(None), minlength=self.space.size)
        return counts / self.num_replicas

    def empirical_distribution_sparse(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied profile indices and their replica counts.

        Returns ``(indices, counts)`` — the sorted unique profile indices
        currently occupied by at least one replica and the number of
        replicas at each.  Memory is ``O(R)`` regardless of ``|S|``, which
        is what occupation statistics on large spaces need; requires only
        that the space fits in int64 (beyond that, indices do not exist —
        use :meth:`empirical_profile_counts`).
        """
        unique, counts = np.unique(self.state.indices_at(None), return_counts=True)
        return unique, counts

    def empirical_profile_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied strategy profiles and their replica counts.

        Returns ``(profiles, counts)`` with ``profiles`` of shape
        ``(u, n)``.  Works for every space size on both state backends —
        the index-free counterpart of :meth:`empirical_distribution_sparse`.
        """
        return np.unique(self.state.profiles_at(None), axis=0, return_counts=True)

    # -- stepping ---------------------------------------------------------

    def _gather_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The rule's gather-mode ``(cum, next)`` tables, fetched on first use.

        The rule builds and keeps them
        (:meth:`~repro.core.logit.UtilityRule.gather_tables`), so every
        simulator of one rule shares a single build.  Every engine read of
        the tables comes through here (the index-state step, the inverse
        CDF and the seeded kernel's first-passage window); the simulator
        keeps the reference, so a step pays one call for it, not the
        rule's three.
        """
        if self._gather is None:
            self._gather = self.kernel.rule.gather_tables()
        return self._gather

    def _sample_moves(
        self, player: int, batch: np.ndarray, uniforms: np.ndarray, rule=None
    ) -> np.ndarray:
        """New strategies of ``player`` for the replicas in ``batch``.

        The shared inner move of every kernel: produce the ``(k, m_player)``
        move-distribution rows (a gather-table lookup on the index state,
        an on-demand profile-row rule call on the matrix state) and map the
        uniforms through the row-wise inverse CDF.  ``rule`` as in
        :meth:`_advance_batch`.
        """
        if self.state.kind == "index":
            cum = self._gather_tables()[0][player, batch]
            return sample_from_cumulative(cum, uniforms)
        rule = self.kernel.rule if rule is None else rule
        probs = rule.update_distribution_profiles(player, batch)
        return sample_inverse_cdf(probs, uniforms)

    def _advance_batch(
        self,
        players: np.ndarray,
        uniforms: np.ndarray,
        where: np.ndarray | None = None,
        rule=None,
    ) -> None:
        """Apply one single-site update to each selected replica.

        ``players`` and ``uniforms`` are ``(k,)`` arrays aligned with
        ``where`` (``(k,)`` replica positions; all replicas when ``None``).
        ``rule`` evaluates that rule instead of the kernel's own (the
        annealed kernel passes the fixed-``beta`` rule of its current step;
        such kernels never run on the index state).

        On the index state the whole batch advances through the gather
        tables (:meth:`_gather_tables`): one lookup of the cumulative rows,
        one inverse-CDF sample, one next-profile lookup and one write.  On
        the matrix state with a row-wise-capable game the whole batch
        advances as one vectorised call; otherwise replicas are grouped by
        moving player (one stable argsort) and each group gets one batched
        rule evaluation.  All paths produce float-identical move
        distributions and consume the same uniforms per replica, so
        trajectories do not depend on which one ran.
        """
        state = self.state
        if state.kind == "index":
            cum, nxt = self._gather_tables()
            batch = state.take(where)
            chosen = sample_from_cumulative(cum[players, batch], uniforms)
            state.put(where, nxt[players, batch, chosen])
            return
        rule = self.kernel.rule if rule is None else rule
        if players.size > 1:
            if self._rowwise and hasattr(rule, "update_distribution_rowwise"):
                rows = self._rows_all if where is None else where
                self._advance_rows(rows, players, uniforms, rule)
                return
            order = np.argsort(players, kind="stable")
            boundaries = np.flatnonzero(np.diff(players[order])) + 1
            groups = np.split(order, boundaries)
        else:
            # single-replica fast path: no grouping machinery
            groups = [np.zeros(1, dtype=np.int64)]
        for group in groups:
            player = int(players[group[0]])
            sel = group if where is None else where[group]
            batch = state.take(sel)
            chosen = self._sample_moves(player, batch, uniforms[group], rule)
            state.put(sel, state.set_strategies(batch, player, chosen))

    def _advance_rows(
        self,
        rows: np.ndarray,
        players: np.ndarray,
        uniforms: np.ndarray,
        rule=None,
    ) -> None:
        """Apply a batch of row-wise moves (one step, or one level).

        Replica ``rows[j]`` revises ``players[j]`` with ``uniforms[j]``.
        Every row reads the live strategy matrix (no row copies) and no row
        of the batch reads what another writes — distinct replicas in a
        step, conflict-free updates in a level of the level schedule — so
        one row-wise rule call, one inverse-CDF sample and one column write
        apply them all.  ``rule`` as in :meth:`_advance_batch`.
        """
        rule = self.kernel.rule if rule is None else rule
        probs = rule.update_distribution_rowwise(players, self.state.matrix, rows)
        chosen = sample_inverse_cdf(probs, uniforms)
        self.state.set_strategies_rowwise(rows, players, chosen)

    def step(self) -> None:
        """Advance every replica by one step of the dynamics."""
        self.kernel.step(self)

    def run(self, num_steps: int, record_every: int | None = None) -> np.ndarray | None:
        """Advance the ensemble ``num_steps`` steps, optionally recording.

        Randomness is drawn as the kernel prescribes — the sequential
        kernels pre-draw every player and uniform for the whole run (players
        first, then uniforms), so for ``R = 1`` the random stream — and
        hence the trajectory — is *identical* to the single-replica
        reference loop (:meth:`repro.core.logit.LogitDynamics.simulate_loop`
        and the variant ``simulate_loop`` methods) under the same generator
        state.  Recording only copies the state array; it never touches the
        kernel's bookkeeping (round-robin cursor, annealed step counter), so
        snapshots cannot desync the dynamics.  The kernel advances the steps
        in blocks (:meth:`~repro.engine.kernels.UpdateKernel.run_block`)
        that end at recording boundaries and span at most
        :data:`LEVEL_BLOCK_SLOTS` closed-neighbourhood slots (one step at
        least); on the numpy row-wise path of a CSR-structured
        game the sequential kernel runs each block level by level
        (:func:`~repro.engine.kernels.dependency_levels`), with the same
        trajectory, bit for bit, as stepping.

        Returns ``None`` when ``record_every`` is ``None``; otherwise the
        recorded snapshots as a ``(k, R, n)`` int array whose first entry is
        the state on entry and subsequent entries are snapshots every
        ``record_every`` steps (an integer of at least 1:
        :func:`~repro.engine.state.check_count`).
        """
        num_steps = check_count(num_steps, "num_steps", minimum=0)
        tracer = self.tracer
        tic = perf_counter() if tracer.enabled else 0.0
        draws = self.kernel.begin_run(self, num_steps)
        snapshots: list[np.ndarray] | None = None
        if record_every is not None:
            record_every = check_count(record_every, "record_every")
            snapshots = [self.state.snapshot()]
        block = max(1, LEVEL_BLOCK_SLOTS // self.kernel.block_slots(self))
        start = 0
        while start < num_steps:
            stop = min(num_steps, start + block)
            if snapshots is not None:
                stop = min(stop, (start // record_every + 1) * record_every)
            self.kernel.run_block(self, draws, start, stop)
            start = stop
            if snapshots is not None and stop % record_every == 0:
                snapshots.append(self.state.snapshot())
        if tracer.enabled:
            tracer.count("engine.replica_steps", int(num_steps) * self.num_replicas)
            tracer.timing(
                "engine.run",
                perf_counter() - tic,
                payload={"steps": int(num_steps), "replicas": self.num_replicas},
            )
        if snapshots is None:
            return None
        return self.state.stack_snapshots(snapshots)

    # -- first-passage observables ----------------------------------------

    def _first_times(
        self,
        in_target: Callable[[np.ndarray | None], np.ndarray],
        max_steps: int,
        stop: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-replica first time ``in_target`` holds (``-1`` if never).

        ``in_target(sel)`` returns the membership mask of the selected
        replica positions (all replicas when ``sel`` is ``None``); ``stop``
        is the same membership as a boolean ``(|S|,)`` profile-index mask,
        when the target is an index set (see :meth:`_membership`).
        Replicas that reach the target stop being advanced; the others keep
        their own independent randomness.  Mutates the ensemble state.  For
        kernels with a bounded horizon (finite annealing schedules) the
        search is clamped to the remaining schedule, so exhaustion reads as
        ``-1`` (not reached) rather than a mid-run error.

        Under the seeded sequential kernel with a ``stop`` mask (index
        state) the search runs one refill window at a time: one
        ``kernel.step`` (which refills exhausted blocks) and one membership
        test, then
        :meth:`~repro.engine.kernels.SeededSequentialKernel.advance_window`
        through the rest of every active replica's block.  Hit times, final
        states, cursors and streams are those of the one-step-at-a-time
        loop every other case runs, bit for bit.
        """
        max_steps = check_count(max_steps, "max_steps", minimum=0)
        tracer = self.tracer
        tic = perf_counter() if tracer.enabled else 0.0
        advanced = 0
        times = np.full(self.num_replicas, -1, dtype=np.int64)
        inside = in_target(None)
        times[inside] = 0
        active = np.flatnonzero(~inside)
        budget = self.kernel.remaining_steps(self)
        if budget is not None:
            max_steps = min(max_steps, budget)
        windowed = stop is not None and isinstance(self.kernel, SeededSequentialKernel)
        t = 0
        while t < max_steps and active.size:
            advanced += active.size
            self.kernel.step(self, where=active)
            t += 1
            hit = in_target(active)
            times[active[hit]] = t
            active = active[~hit]
            if not windowed or active.size == 0:
                continue
            window = min(self.kernel.block_room(self, active), max_steps - t)
            if window > 0:
                hit, taken = self.kernel.advance_window(self, active, window, stop)
                advanced += int(taken.sum())
                times[active[hit]] = t + taken[hit]
                active = active[~hit]
                t += window
        if tracer.enabled:
            tracer.count("engine.replica_steps", int(advanced))
            tracer.timing(
                "engine.first_passage",
                perf_counter() - tic,
                payload={"replicas": self.num_replicas},
            )
        return times

    def _membership(
        self, targets: int | Sequence[int] | np.ndarray | ProfilePredicate
    ) -> tuple[Callable[[np.ndarray | None], np.ndarray], np.ndarray | None]:
        """Membership evaluator for index targets or a profile predicate.

        A callable target is a *profile predicate*: it receives the
        ``(k, n)`` strategy profiles of the queried replicas and returns a
        ``(k,)`` boolean mask.  Predicates are the only target form that
        works past the int64 profile-index ceiling (e.g. a magnetization
        threshold on a 1000-player local-interaction game).  Index targets
        that are not integral or lie outside ``[0, |S|)`` raise rather than
        read as some other set or as never reached.

        Returns ``(in_target, stop)``: the evaluator, and on the index
        state for an index target the same membership as a boolean ``(|S|,)``
        profile-index mask (``None`` otherwise), which windowed first
        passage looks hits up in.
        """
        if callable(targets):
            predicate = targets
            return (
                lambda sel: np.atleast_1d(
                    np.asarray(predicate(self.state.profiles_at(sel)), dtype=bool)
                ),
                None,
            )
        target_arr = np.unique(
            integral_array(np.atleast_1d(targets), "target profile indices")
        )
        if target_arr.size and (
            target_arr.min() < 0 or int(target_arr.max()) >= self.space.size
        ):
            raise ValueError(
                f"target profile indices must lie in [0, {self.space.size}), "
                f"got values from {target_arr.min()} to {target_arr.max()}"
            )
        stop = None
        if self.state.kind == "index":
            stop = np.zeros(self.space.size, dtype=bool)
            stop[target_arr] = True
        if target_arr.size == 1:
            target = int(target_arr[0])
            return lambda sel: self.state.indices_at(sel) == target, stop
        return lambda sel: np.isin(self.state.indices_at(sel), target_arr), stop

    def hitting_times(
        self,
        targets: int | Sequence[int] | np.ndarray | ProfilePredicate,
        max_steps: int = 10**6,
    ) -> np.ndarray:
        """First time each replica hits a target set (``-1`` if never).

        ``targets`` is one profile index, an array of them (hitting any
        counts), or a *profile predicate* — a callable mapping the
        ``(k, n)`` strategy profiles of the queried replicas to a ``(k,)``
        boolean mask.  Predicates never touch profile indices, so they are
        the target form to use on spaces beyond int64.  Replicas already at
        a target report 0.  Index targets that are not integers or lie
        outside ``[0, |S|)`` and a negative ``max_steps`` raise
        ``ValueError``; a ``max_steps`` that is not an integer raises
        ``TypeError``.
        """
        in_target, stop = self._membership(targets)
        return self._first_times(in_target, max_steps, stop)

    def exit_times(
        self,
        states: Sequence[int] | np.ndarray | ProfilePredicate,
        max_steps: int = 10**6,
    ) -> np.ndarray:
        """First time each replica leaves the profile set (``-1`` if never).

        ``states`` is an array of profile indices or a profile predicate
        describing membership of the set being escaped from.
        """
        inside, stop = self._membership(states)
        return self._first_times(
            lambda sel: ~inside(sel), max_steps, None if stop is None else ~stop
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EnsembleSimulator(replicas={self.num_replicas}, "
            f"state={self.state.kind!r}, kernel={type(self.kernel).__name__}, "
            f"game={self.game!r})"
        )
