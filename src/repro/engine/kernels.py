"""Pluggable update-rule kernels for the batched simulation engine.

The paper's standard logit dynamics and all of its Section 6 variants share
one shape: at every step some player (or set of players) revises her
strategy by drawing from a per-player move distribution.  A *kernel*
captures exactly that decomposition so the engine can advance ``R``
replicas of *any* of the variants with the same vectorised machinery:

* the **kernel** decides *who moves* at each step (a uniformly random
  player, every player at once, the next player in a cyclic order, ...) and
  *how the randomness is consumed*;
* the **rule** decides *how a mover picks her new strategy*: a
  :class:`~repro.core.logit.UtilityRule`, whose one hook
  ``move_probabilities`` maps utilities to move distributions and backs
  every batched entry point the engine calls (index batches, strategy
  rows, row-wise movers, gather tables).  The logit families share the
  softmax; best response is the sequential kernel under uniform-over-argmax,
  the beta -> infinity limit the paper contrasts against.  The annealed
  kernel asks its schedule for the fixed-``beta_t`` rule of each step
  (``rule_at``) and hands that rule to the simulator's one-step update.

Kernel contract
---------------
A kernel subclasses :class:`UpdateKernel` and implements:

``step(sim, where=None)``
    Advance the selected replicas of ``sim`` (an
    :class:`~repro.engine.ensemble.EnsembleSimulator`) by one step, drawing
    per-step randomness from ``sim.rng``.  ``where`` is an optional array of
    replica positions (first-passage runs retire replicas one by one).

``begin_run(sim, num_steps) -> draws | None``, ``run_step(sim, t, draws)``
and ``run_block(sim, draws, start, stop)``
    Optional bulk-drawing hooks used by :meth:`EnsembleSimulator.run`.  The
    sequential kernels pre-draw every player selection and uniform for the
    whole run (players first, then uniforms) so that a single-replica run
    is bit-for-bit identical to the scalar reference loops; kernels that
    don't pre-draw inherit the default (``begin_run`` returns ``None`` and
    ``run_step`` falls through to :meth:`step`).  ``run`` hands the steps
    to ``run_block`` in blocks that end at recording boundaries; the
    default block calls ``run_step`` once per step, while
    :class:`SequentialKernel` runs a block level by level on the row-wise
    path (:func:`dependency_levels`), :class:`SeededProbabilisticKernel`
    draws each replica's rows for the block at once and
    :class:`SeededSequentialKernel` takes the run's length as its
    ``draws``, so a step reads its blocks only as far as the run goes.
    ``block_slots(sim)``
    is one step's share of the block budget, which sizes the blocks.

``seeded(seeds, block_size=256)``
    The kernel on one random stream per replica (see the end of this
    docstring); the default refuses.

``init_state(sim) -> dict``
    Per-simulator mutable state, stored by the simulator and reset together
    with the replicas.  The round-robin kernel keeps its player cursor here
    and the annealed kernel its global step counter — on the simulator, not
    on the kernel, so one kernel object can serve several simulators.

``supports_gather``
    Whether the per-player update rows are time-invariant, i.e. whether the
    engine may precompute ``(|S|, m_i)`` cumulative update matrices once
    and simulate by indexed gathers (``state="index"``).
    Time-inhomogeneous kernels (annealed schedules) must say ``False``;
    they run on the matrix state.

Randomness contracts (what the cross-validation tests pin down):

=============================  ===============================================
kernel                         per step consumes
=============================  ===============================================
:class:`SequentialKernel`      one player index, then one uniform, per replica
:class:`ProbabilisticKernel`   ``n`` mask uniforms then ``n`` move uniforms
                               per replica, player order (mask draw skipped
                               entirely at ``p = 1``)
:class:`ParallelKernel`        the ``p = 1`` probabilistic kernel: ``n``
                               uniforms per replica, in player order
:class:`RoundRobinKernel`      one uniform per replica (the mover is the
                               cursor)
:class:`AnnealedKernel`        one player index, then one uniform, per replica
                               (the step's rule is ``rule.rule_at(t)``)
=============================  ===============================================

The seeded kernels (:class:`SeededSequentialKernel`,
:class:`SeededProbabilisticKernel`) consume the same quantities per step,
but from one independent PCG64 stream per replica instead of the
simulator's shared stream — the contract that makes pooled
adaptive/sharded samples invariant to chunk size and shard count.  A
kernel builds its own seeded form, :meth:`UpdateKernel.seeded`: the
sequential kernel its seeded twin, the probabilistic kernel (the parallel
one included) the seeded probabilistic kernel at its ``p``.  Every other
kernel refuses, since substituting a different schedule would simulate a
different Markov chain.
"""

from __future__ import annotations

import abc

import numpy as np

from ..markov.chain import check_count
from .streams import WORDS_PER_STREAM, StreamBank, _children, stream_words

__all__ = [
    "UpdateKernel",
    "SequentialKernel",
    "SeededSequentialKernel",
    "ParallelKernel",
    "ProbabilisticKernel",
    "SeededProbabilisticKernel",
    "RoundRobinKernel",
    "AnnealedKernel",
    "closed_neighbourhoods",
    "dependency_levels",
]

# Binary first-passage windows with at most this many live replicas step
# replica by replica over Python ints (SeededSequentialKernel.advance_window).
# A time-major numpy step costs about 5 us at any width and a replica-major
# replica-step about 0.3 us, so on 255-step windows in which no replica hits
# the two loops break even at 16-20 replicas (2-core x86, 6-ring); a replica
# that hits early stops early, which only favours the replica-major loop.
REPLICA_MAJOR_WINDOW = 16


class UpdateKernel(abc.ABC):
    """Decides which player(s) move per step and with what distribution.

    Parameters
    ----------
    rule:
        The move-distribution provider: a
        :class:`~repro.core.logit.UtilityRule` (the annealed kernel takes a
        schedule of them instead).
    """

    #: whether per-player update rows are time-invariant (index state legal)
    supports_gather: bool = True

    def __init__(self, rule):
        self.rule = rule

    @property
    def game(self):
        """The game the rule plays on."""
        return self.rule.game

    def init_state(self, sim) -> dict:
        """Fresh per-simulator kernel state (cursor, step counter, ...)."""
        return {}

    def begin_run(self, sim, num_steps: int):
        """Pre-draw randomness for a bulk run; ``None`` means draw per step."""
        return None

    def run_step(self, sim, t: int, draws) -> None:
        """Advance all replicas at run step ``t`` (default: per-step draws)."""
        self.step(sim)

    def run_block(self, sim, draws, start: int, stop: int) -> None:
        """Advance all replicas through run steps ``start .. stop - 1``."""
        for t in range(start, stop):
            self.run_step(sim, t, draws)

    def block_slots(self, sim) -> int:
        """One run step's share of a block's ``LEVEL_BLOCK_SLOTS`` budget.

        :meth:`EnsembleSimulator.run` hands :meth:`run_block` at most
        ``LEVEL_BLOCK_SLOTS // block_slots`` steps (one at least).  The
        default counts the closed-neighbourhood slots a levelled step spans.
        """
        return sim.num_replicas * sim._update_slots

    def remaining_steps(self, sim) -> int | None:
        """How many more steps this kernel can take (``None`` = unbounded).

        Finite annealing schedules are the bounded case: first-passage runs
        clamp their ``max_steps`` to this budget so that replicas that have
        not hit by the end of the schedule report the ``-1`` sentinel
        instead of raising mid-flight.
        """
        return None

    @abc.abstractmethod
    def step(self, sim, where: np.ndarray | None = None) -> None:
        """Advance the selected replicas one step, drawing from ``sim.rng``."""

    def seeded(self, seeds, block_size: int = 256) -> "UpdateKernel":
        """This kernel on one independent random stream per replica.

        ``seeds`` is one ``SeedSequence`` (or int) per replica, or an
        ``(R, 6)`` uint64 stream-word array (:mod:`repro.engine.streams`);
        ``block_size`` is part of the sequential form's stream definition.
        The default refuses: only the kernels that override this have a
        seeded form, and a subclass that changes how a step moves must
        override it again.
        """
        raise ValueError(
            "per-replica seeded streams exist only for SequentialKernel and "
            "ProbabilisticKernel (ParallelKernel is its p = 1 case); simulate "
            "other kernels on one shared generator with "
            "dynamics.ensemble(R, rng=...)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rule={self.rule!r})"


def kernel_of(dynamics) -> UpdateKernel:
    """The kernel ``dynamics`` advances by: its own ``kernel()``, else the
    paper's sequential kernel (a bare rule)."""
    return dynamics.kernel() if hasattr(dynamics, "kernel") else SequentialKernel(dynamics)


def check_seedable(dynamics) -> None:
    """Refuse, before any sampling, dynamics without a seeded kernel form."""
    kernel_of(dynamics).seeded(np.zeros((1, WORDS_PER_STREAM), dtype=np.uint64))


def _seed_words(seeds) -> np.ndarray:
    """Validated per-replica stream words for a seeded kernel."""
    words = stream_words(seeds)
    if words.shape[0] == 0:
        raise ValueError("need one seed (or stream-word row) per replica")
    return words


def _stream_bank(words: np.ndarray, sim) -> StreamBank:
    """A fresh bank of the kernel's streams for one simulator run."""
    if words.shape[0] != sim.num_replicas:
        raise ValueError(
            f"kernel carries {words.shape[0]} per-replica streams but the "
            f"simulator has {sim.num_replicas} replicas"
        )
    return StreamBank(words)


def check_update_probability(p: float) -> float:
    """Validate a concurrent schedule's update probability, as a float."""
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError("the update probability p must lie in (0, 1]")
    return p


def _concurrent_sweep(sim, where, old, mask, uniforms) -> None:
    """Apply one concurrent sweep from pre-drawn mask / move uniforms.

    ``old`` is the pre-step batch in the state backend's representation,
    ``mask`` the ``(k, n)`` boolean update mask (``None`` = every player
    updates, the ``p = 1`` case) and ``uniforms`` the ``(k, n)`` move
    uniforms in player order.  Shared by the probabilistic kernels so the
    unseeded and seeded variants advance the chain identically once their
    draws are fixed: every updating player's move distribution is evaluated
    against the *old* profile and all moves land at once.
    """
    state = sim.state
    n = sim.space.num_players
    if mask is None:
        new = old.copy()
        for player in range(n):
            chosen = sim._sample_moves(player, old, uniforms[:, player])
            new = state.set_strategies(new, player, chosen)
        state.put(where, new)
        return
    new = old.copy()
    for player in range(n):
        movers = np.flatnonzero(mask[:, player])
        if movers.size == 0:
            continue
        chosen = sim._sample_moves(player, old[movers], uniforms[movers, player])
        new[movers] = state.set_strategies(new[movers], player, chosen)
    state.put(where, new)


def closed_neighbourhoods(game) -> tuple[np.ndarray, np.ndarray]:
    """Every player's closed neighbourhood, as CSR ``(offsets, players)``.

    Player ``i``'s entries are ``players[offsets[i]:offsets[i + 1]]``:
    ``i`` itself first, then its neighbours in the order of
    ``game.csr_arrays()`` (self-loops dropped, so ``i`` appears once).  On
    a CSR-structured game that is everything a single-site update of ``i``
    reads or writes.
    """
    csr_offsets, neighbours = game.csr_arrays()[:2]
    n = csr_offsets.size - 1
    players = np.arange(n, dtype=np.int64)
    owners = np.repeat(players, np.diff(csr_offsets))
    keep = neighbours != owners
    src = np.concatenate([players, owners[keep]])
    dst = np.concatenate([players, neighbours[keep]])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    # stable: each player's own entry, concatenated first, leads its row
    return offsets, dst[np.argsort(src, kind="stable")]


def _conflict_edges(
    movers: np.ndarray, num_replicas: int, neighbourhoods
) -> tuple[np.ndarray, np.ndarray]:
    """Precedence edges ``(src, dst)`` between conflicting updates of a block.

    ``movers`` is the ``(steps, R)`` block (update ``u = t * R + r``).
    Every update contributes one entry per player of its mover's closed
    neighbourhood, keyed ``replica * n + player``: the mover's own entry
    writes, the others read.  Within one key, in step order, a write must
    come after every earlier entry and before every later read; the edges
    say exactly that, from each entry to the next write of its key and from
    each write to the reads that follow it.

    Each entry is one self-describing int64,
    ``(key << b) | (2 * u + is_read)`` with ``b = (2 * U).bit_length()``
    for the block's ``U`` updates, so one in-place sort puts the entries of
    a key together in update order, hence step order, and the sorted
    values alone give back key, update and write flag.  The entries are
    built slot-major: the first ``c`` slots of every update, ``c`` the
    smallest closed neighbourhood among the block's movers, come from one
    2-D gather (slot 0 is the mover, the write); only the slots past ``c``
    (a star's hub, irregular degrees) go through a CSR repeat.  Raises
    ``ValueError`` when ``R * n`` leaves the keys no room for ``b`` bits,
    before anything is built; a levelled block has at most
    ``LEVEL_BLOCK_SLOTS`` entries, so that takes ``R * n`` above ``2**44``.
    """
    offsets, members = neighbourhoods
    n = offsets.size - 1
    size = movers.size
    bits = (2 * size).bit_length()
    if int(num_replicas) * n > 1 << (63 - bits):
        raise ValueError(
            f"R = {num_replicas} replicas of n = {n} players overflow the "
            f"int64 conflict keys of a {size}-update block: R * n must be at "
            f"most 2**{63 - bits}"
        )
    starts = offsets.take(movers)
    counts = offsets.take(movers + 1) - starts
    slots = int(np.minimum.reduce(counts, axis=None))
    # 2 * u + (r * n << b) for u = t * R + r, straight from the layout
    tags = np.arange(0, 2 * size, 2 * num_replicas)[:, None] + np.arange(
        num_replicas
    ) * (2 + (n << bits))
    packed = members.take(starts + np.arange(slots)[:, None, None])
    packed <<= bits
    packed += tags
    packed[1:] |= 1
    packed = packed.ravel()
    if np.maximum.reduce(counts, axis=None) > slots:
        spill = (counts - slots).ravel()
        rest = np.flatnonzero(spill)
        spill = spill[rest]
        ends = np.cumsum(spill)
        index = np.arange(ends[-1]) + np.repeat(
            starts.ravel()[rest] + slots - ends + spill, spill
        )
        more = members.take(index)
        more <<= bits
        more += np.repeat(tags.ravel()[rest] | 1, spill)
        packed = np.concatenate([packed, more])
    packed.sort()
    keys = packed >> bits
    repeated = keys[1:] == keys[:-1]
    shared = np.zeros(packed.size, dtype=bool)
    shared[1:] = repeated
    shared[:-1] |= repeated
    # an entry alone under its key conflicts with nothing
    packed = packed[shared]
    keys = packed >> bits
    writes = (packed & 1) == 0
    # the low bits 2 * u + is_read become the update u, in place
    packed &= (1 << bits) - 1
    packed >>= 1
    update = packed
    m = keys.size
    position = np.arange(m)
    # latest write at or before each entry, and first write after each
    # entry but the last (m where there is none)
    last = np.where(writes, position, -1)
    np.maximum.accumulate(last, out=last)
    after = np.where(writes, position, m)[::-1]
    np.minimum.accumulate(after, out=after)
    after = after[::-1][1:]
    reads = ~writes & (last >= 0)
    np.maximum(last, 0, out=last)
    reads &= keys[last] == keys
    waits = after < m
    np.minimum(after, m - 1, out=after)
    waits &= keys[after] == keys[:-1]
    src = np.concatenate([update[last[reads]], update[:-1][waits]])
    dst = np.concatenate([update[reads], update[after[waits]]])
    return src, dst


def dependency_levels(movers: np.ndarray, num_replicas: int, neighbourhoods):
    """Yield the updates of a pre-drawn sequential block, level by level.

    ``movers`` is the ``(steps, R)`` block of moving players a
    :class:`SequentialKernel` run drew; update ``u = t * R + r`` is
    replica ``r``'s move at step ``t``.  On a CSR-structured game an update
    of player ``i`` reads and writes only ``i``'s closed neighbourhood
    (``neighbourhoods``, from :func:`closed_neighbourhoods`), so two
    updates of one replica *conflict* when one mover lies in the other's
    closed neighbourhood, while updates whose movers are at graph distance
    2 or more commute — the independent-moves argument of the
    concurrent-update analysis (arXiv 1207.2908).  An update's *level* is
    one above the highest level of any earlier conflicting update of its
    replica, 0 if there is none.  No two updates of a level conflict and
    every update sits above all earlier updates it conflicts with, so
    applying the levels in order, each as one batch, reproduces the
    step-by-step trajectory exactly.

    Yields one ``(k,)`` array of update ids per level, in level order; a
    block without updates (no steps or no replicas) yields none.  One
    in-place sort of the block's self-describing closed-neighbourhood keys
    finds the conflicts (:func:`_conflict_edges`, which raises
    ``ValueError`` when ``R * n`` is too large to pack); the levels are
    then peeled off the conflict graph one layer at a time (Kahn's
    algorithm), so a block with hundreds of levels — a star's hub, a small
    ring — costs one small step per level, not a pass over the whole block
    per level.
    """
    size = movers.size
    if size == 0:
        return
    if movers.shape[0] == 1:
        # one step's updates belong to different replicas: no conflicts
        yield np.arange(size)
        return
    src, dst = _conflict_edges(movers, num_replicas, neighbourhoods)
    pending = np.bincount(dst, minlength=size)
    out_degree = np.bincount(src, minlength=size)
    stops = np.cumsum(out_degree)
    successors = dst[np.argsort(src, kind="stable")]
    level = np.flatnonzero(pending == 0)
    while level.size:
        yield level
        counts = out_degree[level]
        total = int(counts.sum())
        if total == 0:
            return
        nxt = successors[
            np.arange(total) + np.repeat(stops[level] - np.cumsum(counts), counts)
        ]
        np.subtract.at(pending, nxt, 1)
        level = np.unique(nxt[pending[nxt] == 0])


class SequentialKernel(UpdateKernel):
    """One uniformly random player revises per step (the paper's dynamics).

    With a :class:`~repro.core.logit.LogitDynamics` rule this is the
    standard logit chain (Equation 3); with a
    :class:`~repro.core.variants.BestResponseDynamics` rule it is the
    sequential best-response chain.  Bulk runs pre-draw all player
    selections and then all uniforms, which keeps single-replica engine
    trajectories bit-for-bit identical to the scalar reference loops.
    """

    def begin_run(self, sim, num_steps: int):
        n = sim.space.num_players
        players = sim.rng.integers(0, n, size=(num_steps, sim.num_replicas))
        uniforms = sim.rng.random((num_steps, sim.num_replicas))
        return players, uniforms

    def run_step(self, sim, t: int, draws) -> None:
        players, uniforms = draws
        sim._advance_batch(players[t], uniforms[t])

    def run_block(self, sim, draws, start: int, stop: int) -> None:
        """Advance all replicas through run steps ``start .. stop - 1``.

        On the simulator's levelled path (numpy row-wise stepping of a
        CSR-structured game) the block runs level by level
        (:func:`dependency_levels`), one row-wise call per level over the
        live strategy matrix, which reproduces the step-by-step trajectory
        bit for bit; elsewhere it runs one step at a time.
        """
        if not sim._levelled:
            super().run_block(sim, draws, start, stop)
            return
        if sim._neighbourhoods is None:
            sim._neighbourhoods = closed_neighbourhoods(sim.game)
        players, uniforms = draws
        movers = players[start:stop]
        flat = movers.ravel()
        chances = uniforms[start:stop].ravel()
        R = sim.num_replicas
        for level in dependency_levels(movers, R, sim._neighbourhoods):
            sim._advance_rows(level % R, flat[level], chances[level])

    def step(self, sim, where: np.ndarray | None = None) -> None:
        k = sim.num_replicas if where is None else where.size
        players = sim.rng.integers(0, sim.space.num_players, size=k)
        uniforms = sim.rng.random(k)
        sim._advance_batch(players, uniforms, where=where)

    def seeded(self, seeds, block_size: int = 256) -> "SeededSequentialKernel":
        return SeededSequentialKernel(self.rule, seeds, block_size=block_size)


class SeededSequentialKernel(UpdateKernel):
    """Sequential kernel with one independent random stream *per replica*.

    The standard :class:`SequentialKernel` draws its randomness from the
    simulator's single generator in ``(steps, R)`` blocks, so the stream a
    replica sees depends on how many replicas share the ensemble.  That is
    the right (and fastest) contract for a fixed-size ensemble, but it
    makes chunked adaptive estimation non-reproducible: pooling 64+64
    replicas and pooling 128 give different samples.  This kernel instead
    gives replica ``r`` its own PCG64 stream seeded from its own
    :class:`numpy.random.SeedSequence` child, so a replica's trajectory is
    a pure function of its seed — pooled first-passage samples are
    bit-for-bit identical no matter how the replica budget is chunked,
    which is the contract :func:`repro.stats.adaptive.run_until_width`
    builds on.

    Per replica, randomness is consumed in blocks of ``block_size`` steps
    (a players block, then a uniforms block: ``integers(0, n, block_size)``
    then ``random(block_size)``, which one
    :meth:`~repro.engine.streams.StreamBank.refill` draws for every replica
    due a block); ``block_size`` is part of the stream definition, like
    the seed.  A short :meth:`~repro.engine.ensemble.EnsembleSimulator.run`
    need not draw the whole block: where numpy's bounded draw cannot
    reject (``n`` divides ``2**32``) the bank opens the block unread and
    computes only the columns the run reads
    (:meth:`~repro.engine.streams.StreamBank.open` /
    :meth:`~repro.engine.streams.StreamBank.read`), with the same values
    and stream words as a refill.  A lone :meth:`step` and first-passage
    windows read whole blocks.  Every replica carries its own consumption
    cursor: blocks are refilled lazily, per replica, exactly when that
    replica has used its current block up, so a replica that hits its
    target early simply stops consuming its stream — first-passage
    retirement can neither perturb the other replicas nor desync the
    retired one.  First passage on the index state to an index target
    advances the active replicas through the rest of their blocks in one
    window (:meth:`advance_window`); draws past
    a replica's hit are evaluated but not consumed, so cursors, refills and
    streams stay those of one step at a time.  Consecutive
    :meth:`~repro.engine.ensemble.EnsembleSimulator.run` / first-passage
    calls therefore continue every stream exactly where that replica
    stopped, even when the calls advanced different subsets of replicas,
    which is what makes seeded ensembles resumable.

    ``seeds`` is one ``SeedSequence`` (or raw int) per replica, or an
    ``(R, 6)`` uint64 stream-word array (:mod:`repro.engine.streams`).  The
    kernel keeps the streams as words and every reset replays them from
    those words; the advanced words of a run are
    ``sim.kernel_state["streams"].words``, which is how a caller continues
    the streams in a new simulator (the sharded TV driver ships them
    between rounds) or draws per-replica start states from the same
    streams first.  Pre-built ``Generator`` objects raise ``TypeError``:
    the kernel would copy their state and they would stop advancing.
    """

    def __init__(self, rule, seeds, block_size: int = 256):
        super().__init__(rule)
        self.block_size = check_count(block_size, "block_size")
        self.words = _seed_words(seeds)

    @staticmethod
    def spawn_block(
        root: np.random.SeedSequence, start: int, count: int
    ) -> list[np.random.SeedSequence]:
        """Children ``start .. start + count - 1`` of ``root``, shard-aware.

        Parameters
        ----------
        root:
            The master :class:`numpy.random.SeedSequence`.  Not mutated —
            in particular its ``n_children_spawned`` counter is left alone.
        start:
            Absolute index of the first child to construct, counted from a
            *fresh* root (``root.spawn`` called on a root that has never
            spawned produces child ``i`` at position ``i``).
        count:
            Number of consecutive children to construct.

        Returns
        -------
        list[numpy.random.SeedSequence]
            Bit-for-bit the children a fresh ``root.spawn(start + count)``
            would have produced at positions ``start .. start + count - 1``:
            ``numpy`` derives child ``i`` purely from ``(entropy,
            spawn_key + (i,))``, so a shard can construct its own block of
            per-replica seeds from ``(root, offset, count)`` alone — no
            shared mutable spawn cursor, no communication between shards.
            This is the seeding contract the sharded executors
            (:mod:`repro.parallel`) build on: per-sample streams are
            identical no matter how many shards the ensemble is split into.

        Example
        -------
        >>> import numpy as np
        >>> root = np.random.SeedSequence(7)
        >>> serial = np.random.SeedSequence(7).spawn(6)[2:5]
        >>> block = SeededSequentialKernel.spawn_block(root, 2, 3)
        >>> [c.spawn_key for c in block] == [c.spawn_key for c in serial]
        True
        >>> all(
        ...     np.random.default_rng(a).random() == np.random.default_rng(b).random()
        ...     for a, b in zip(block, serial)
        ... )
        True
        """
        if start < 0 or count < 0:
            raise ValueError("start and count must be non-negative")
        return _children(root, start, count)

    def init_state(self, sim) -> dict:
        R = sim.num_replicas
        return {
            "streams": _stream_bank(self.words, sim),
            # per-replica draws consumed / first draw of the current block;
            # -block_size forces a refill on each replica's first step
            "consumed": np.zeros(R, dtype=np.int64),
            "block_start": np.full(R, -self.block_size, dtype=np.int64),
            "players": np.empty((R, self.block_size), dtype=np.int64),
            "uniforms": np.empty((R, self.block_size), dtype=float),
        }

    def begin_run(self, sim, num_steps: int):
        """The run's length: a run reads each block only as far as it goes."""
        return num_steps

    def run_step(self, sim, t: int, draws) -> None:
        """Step every replica at run step ``t``; ``draws`` is the run's length."""
        self._advance(sim, None, draws - t)

    def step(self, sim, where: np.ndarray | None = None) -> None:
        self._advance(sim, where, self.block_size)

    def _advance(self, sim, where: np.ndarray | None, ahead: int) -> None:
        """One step of the replicas in ``where``, which read ``ahead`` more steps.

        ``ahead`` is how far the caller reads on: the rest of a run, or a
        whole block for a lone :meth:`step`.  Blocks open unread where that
        is cheaper (:meth:`~repro.engine.streams.StreamBank.open`) and a
        step reads the columns it and the next ``ahead - 1`` steps need.
        """
        state = sim.kernel_state
        B = self.block_size
        n = sim.space.num_players
        bank = state["streams"]
        sel = np.arange(sim.num_replicas) if where is None else where
        exhausted = sel[state["consumed"][sel] - state["block_start"][sel] >= B]
        if exhausted.size:
            rest = bank.open(exhausted, n, B, min(ahead, B))
            if rest.size:
                bank.refill(rest, n, state["players"], state["uniforms"])
            state["block_start"][exhausted] = state["consumed"][exhausted]
        off = state["consumed"][sel] - state["block_start"][sel]
        bank.read(sel, off, ahead, n, state["players"], state["uniforms"])
        players = state["players"][sel, off]
        uniforms = state["uniforms"][sel, off]
        sim._advance_batch(players, uniforms, where=where)
        state["consumed"][sel] += 1

    def block_room(self, sim, where: np.ndarray) -> int:
        """Steps every replica in ``where`` can take before any needs a refill."""
        state = sim.kernel_state
        used = state["consumed"][where] - state["block_start"][where]
        return self.block_size - int(used.max())

    def advance_window(
        self, sim, where: np.ndarray, steps: int, stop: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the replicas in ``where`` up to ``steps`` gather-table steps.

        Each replica stops at its first profile index inside the boolean
        ``(|S|,)`` mask ``stop``.  The window must fit in every selected
        replica's current block (``steps <= block_room(sim, where)``), so
        each step reads its mover and uniform from the pre-drawn block;
        a lone :meth:`step` of the replicas first draws their blocks whole.

        Binary tables (last axis 2, single-strategy players included) step
        by flat subscripts: column 1 is ``+inf``, so the mover's one finite
        threshold sits at flat position ``2 * (mover * |S| + x)`` of
        ``cum``, and the same position plus the chosen strategy indexes the
        doubled next-profile table
        (:meth:`~repro.core.logit.UtilityRule.binary_next`).  A binary
        window of at most ``REPLICA_MAJOR_WINDOW`` replicas runs replica by
        replica: a Python loop over each replica's movers and uniforms that
        carries its doubled index as an int, reads the flat thresholds, the
        doubled table and ``stop`` through ``memoryview``s, and stops at the
        replica's hit.  Wider binary windows run time-major, one numpy row
        of the ``(steps, k)`` path per step, since a numpy step costs the
        same at any width; other tables take the same time-major loop with
        one table lookup, one count of the cumulative entries below the
        uniform and one next-profile lookup per step.  The time-major loops
        run every replica to the end of the window and find the first hit
        per replica in the path afterwards: a replica's draws past its hit
        are evaluated but not consumed.  Either way its cursor, index and
        stream advance exactly as :meth:`step` would have advanced them,
        one step at a time, up to the hit.

        Returns ``(hit, taken)``: whether each replica reached ``stop``,
        and how many steps it took (its hit step, else ``steps``).
        """
        state = sim.kernel_state
        cum, nxt = sim._gather_tables()
        k = where.size
        offsets = state["consumed"][where] - state["block_start"][where]
        current = sim.state.take(where)
        if cum.shape[2] == 2 and k <= REPLICA_MAJOR_WINDOW:
            cols = offsets[:, None] + np.arange(steps)
            rows = where[:, None]
            bases = (state["players"][rows, cols] * (2 * sim.space.size)).tolist()
            chances = state["uniforms"][rows, cols].tolist()
            thresholds = memoryview(cum.reshape(-1))
            doubled = memoryview(self.rule.binary_next())
            inside = memoryview(stop)
            final = [0] * k
            taken = [0] * k
            for r, (x, movers, uniforms) in enumerate(
                zip(current.tolist(), bases, chances)
            ):
                x *= 2
                t = 0
                for base, u in zip(movers, uniforms):
                    j = base + x
                    x = doubled[j + (thresholds[j] <= u)]
                    t += 1
                    if inside[x >> 1]:
                        break
                final[r] = x >> 1
                taken[r] = t
            # a replica's last state is in stop exactly when it stopped there
            hit = stop[final]
            taken = np.array(taken)
            sim.state.put(where, final)
            state["consumed"][where] += taken
            return hit, taken
        cols = offsets + np.arange(steps)[:, None]
        movers = state["players"][where, cols]
        uniforms = state["uniforms"][where, cols]
        path = np.empty((steps, k), dtype=np.int64)
        if cum.shape[2] == 2:
            thresholds = cum.reshape(-1)
            doubled = self.rule.binary_next()
            base = movers * (2 * sim.space.size)
            current = 2 * current
            for t in range(steps):
                j = base[t] + current
                current = path[t] = doubled[j + (thresholds[j] <= uniforms[t])]
            path >>= 1
        else:
            uniforms = uniforms[:, :, None]
            for t in range(steps):
                mover = movers[t]
                # the +inf padding of cum keeps the count below each player's
                # strategy count, so no clamp is needed (sample_from_cumulative)
                chosen = np.add.reduce(cum[mover, current] <= uniforms[t], axis=1)
                current = path[t] = nxt[mover, current, chosen]
        reached = stop[path]
        hit = reached.any(axis=0)
        taken = np.where(hit, reached.argmax(axis=0) + 1, steps)
        sim.state.put(where, path[taken - 1, np.arange(k)])
        state["consumed"][where] += taken
        return hit, taken


class ProbabilisticKernel(UpdateKernel):
    """Each player independently revises with probability ``p`` per step.

    The probabilistic ("all-logit") schedule of the concurrent-update
    follow-up work (arXiv 1207.2908): one step flips an independent
    ``p``-coin per player, and every selected player resamples from her
    move distribution *against the pre-step profile* — all moves land at
    once.  ``p = 1`` is :class:`ParallelKernel` (the mask draw is skipped
    entirely, so the random stream is the parallel one);
    ``p -> 0`` approaches the sequential dynamics' one-expected-update-per-
    ``1/p``-steps intensity while keeping the concurrent (non-reversible)
    update semantics.

    Per step each replica consumes ``n`` mask uniforms (player order; a
    player updates iff her uniform is below ``p``) followed by ``n`` move
    uniforms — uniforms of unselected players are drawn and discarded, so
    the stream is independent of the realised mask.
    """

    def __init__(self, rule, p: float = 1.0):
        super().__init__(rule)
        self.p = check_update_probability(p)

    def step(self, sim, where: np.ndarray | None = None) -> None:
        n = sim.space.num_players
        old = sim.state.take(where)
        k = old.shape[0]
        if self.p >= 1.0:
            mask = None
        else:
            mask = sim.rng.random((k, n)) < self.p
        uniforms = sim.rng.random((k, n))
        _concurrent_sweep(sim, where, old, mask, uniforms)

    def seeded(self, seeds, block_size: int = 256) -> "SeededProbabilisticKernel":
        """The seeded form at this ``p`` (``block_size`` does not apply: a
        step draws whole rows)."""
        return SeededProbabilisticKernel(self.rule, seeds, p=self.p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rule={self.rule!r}, p={self.p})"


class ParallelKernel(ProbabilisticKernel):
    """Every player revises simultaneously from the pre-step profile.

    The ``p = 1`` schedule of :class:`ProbabilisticKernel`: one step
    consumes ``n`` uniforms per replica (player order); every player's move
    distribution is evaluated against the *old* profile and all moves land
    at once, which is what makes the chain non-reversible and produces the
    coordination-game "parallel trap".
    """

    def __init__(self, rule):
        super().__init__(rule, p=1.0)


class SeededProbabilisticKernel(UpdateKernel):
    """Probabilistic-schedule kernel with one random stream *per replica*.

    The concurrent counterpart of :class:`SeededSequentialKernel`: replica
    ``r`` draws, per step and from its own stream, one ``(n,)`` row of
    mask uniforms (skipped entirely at ``p = 1``) followed by one ``(n,)``
    row of move uniforms.  Each replica's trajectory is therefore a pure
    function of its own seed — pooled concurrent first-passage and TV
    samples are bit-for-bit invariant to chunk size and shard count, which
    is what lets ``run_until_width``, ``empirical_hitting_times``
    and ``estimate_tv_convergence(executor=)`` run concurrent dynamics.
    Unlike the sequential seeded kernel no block buffering is part of the
    stream: a replica consumes exactly its steps' rows.  :meth:`run_block`
    draws a whole block of steps' rows per replica with one generator call
    — the same doubles in the same order, since ``random()`` spends exactly
    one 64-bit output per double.

    ``seeds`` follows the :class:`SeededSequentialKernel` contract:
    ``SeedSequence`` children, raw ints or an ``(R, 6)`` stream-word array,
    replayed from scratch on reset; ``Generator`` objects raise.
    """

    def __init__(self, rule, seeds, p: float = 1.0):
        super().__init__(rule)
        self.p = check_update_probability(p)
        self.words = _seed_words(seeds)

    @property
    def _rows_per_step(self) -> int:
        """Uniform rows one step draws per replica: move, plus mask at p < 1."""
        return 1 if self.p >= 1.0 else 2

    def init_state(self, sim) -> dict:
        return {"streams": _stream_bank(self.words, sim)}

    def block_slots(self, sim) -> int:
        """One step's share of a run block: the doubles it draws."""
        return sim.num_replicas * sim.space.num_players * self._rows_per_step

    def _draw(self, sim, rows, steps: int) -> np.ndarray:
        """``(len(rows), steps, rows_per_step, n)`` uniforms, one draw per replica.

        Replica ``r`` consumes its stream in step order, mask row then move
        row per step, exactly as ``steps`` single-step draws would
        (:meth:`~repro.engine.streams.StreamBank.random`).
        """
        n = sim.space.num_players
        out = sim.kernel_state["streams"].random(rows, steps * self._rows_per_step * n)
        return out.reshape(len(rows), steps, self._rows_per_step, n)

    def _sweep(self, sim, where, draws: np.ndarray) -> None:
        """One step from ``(k, rows_per_step, n)`` draws: mask row (p < 1), move row."""
        mask = None if self.p >= 1.0 else draws[:, 0] < self.p
        _concurrent_sweep(sim, where, sim.state.take(where), mask, draws[:, -1])

    def run_block(self, sim, draws, start: int, stop: int) -> None:
        """Advance every replica through run steps ``start .. stop - 1``,
        drawing each replica's rows for the whole block at once."""
        block = self._draw(sim, range(sim.num_replicas), stop - start)
        for t in range(stop - start):
            self._sweep(sim, None, block[:, t])

    def step(self, sim, where: np.ndarray | None = None) -> None:
        rows = range(sim.num_replicas) if where is None else where
        self._sweep(sim, where, self._draw(sim, rows, 1)[:, 0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(rule={self.rule!r}, p={self.p}, "
            f"replicas={self.words.shape[0]})"
        )


class RoundRobinKernel(UpdateKernel):
    """Players revise in the fixed cyclic order 0, 1, ..., n-1, 0, ...

    The cursor lives in the simulator's kernel state and advances exactly
    once per step — it is *never* touched by snapshot recording or by
    splitting a run into several :meth:`EnsembleSimulator.run` calls, so
    recording mid-round cannot desync the player order (the round-
    bookkeeping regression in ``tests/test_variant_kernels.py`` pins this).
    """

    def init_state(self, sim) -> dict:
        return {"cursor": 0}

    def step(self, sim, where: np.ndarray | None = None) -> None:
        state = sim.kernel_state
        player = state["cursor"]
        k = sim.num_replicas if where is None else where.size
        uniforms = sim.rng.random(k)
        sim._advance_batch(np.full(k, player, dtype=np.int64), uniforms, where=where)
        state["cursor"] = (player + 1) % sim.space.num_players


class AnnealedKernel(UpdateKernel):
    """Sequential revision under a time-varying ``beta_t`` schedule.

    ``rule`` must be an :class:`~repro.core.variants.AnnealedLogitDynamics`
    (exposing ``rule_at(t)``, the fixed-``beta_t`` logit rule each step
    hands to the simulator).  The global step counter is shared by all
    replicas — every replica sees the same ``beta_t`` — and lives in the
    simulator's kernel state, so consecutive :meth:`run` calls continue the
    schedule where the previous one stopped.  Finite schedules shorter than
    a requested run raise up front rather than mid-flight; first-passage
    runs instead clamp to the remaining schedule (via
    :meth:`remaining_steps`) and report the ``-1`` not-reached sentinel at
    exhaustion.
    """

    supports_gather = False

    def init_state(self, sim) -> dict:
        return {"step": 0}

    def remaining_steps(self, sim) -> int | None:
        horizon = self.rule.horizon
        if horizon is None:
            return None
        return max(0, int(horizon) - sim.kernel_state["step"])

    def begin_run(self, sim, num_steps: int):
        start = sim.kernel_state["step"]
        if num_steps > 0:
            # fail before any replica moves, not at the step that exhausts a
            # finite schedule
            self.rule.validate_horizon(start, start + num_steps)
        n = sim.space.num_players
        players = sim.rng.integers(0, n, size=(num_steps, sim.num_replicas))
        uniforms = sim.rng.random((num_steps, sim.num_replicas))
        return players, uniforms

    def run_step(self, sim, t: int, draws) -> None:
        players, uniforms = draws
        state = sim.kernel_state
        sim._advance_batch(players[t], uniforms[t], rule=self.rule.rule_at(state["step"]))
        state["step"] += 1

    def step(self, sim, where: np.ndarray | None = None) -> None:
        state = sim.kernel_state
        rule = self.rule.rule_at(state["step"])
        k = sim.num_replicas if where is None else where.size
        players = sim.rng.integers(0, sim.space.num_players, size=k)
        uniforms = sim.rng.random(k)
        sim._advance_batch(players, uniforms, where=where, rule=rule)
        state["step"] += 1
