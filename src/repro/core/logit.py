"""The logit dynamics Markov chain (Section 2 of the paper).

At every step a player ``i`` is selected uniformly at random and updates
her strategy to ``y`` with probability (Equation 2)::

    sigma_i(y | x) = exp(beta * u_i(y, x_-i)) / T_i(x),
    T_i(x) = sum_{z in S_i} exp(beta * u_i(z, x_-i)).

The induced Markov chain (Equation 3) moves along Hamming edges (or stays
put) with

* ``P(x, y) = sigma_i(y_i | x) / n`` when ``x`` and ``y`` differ only in
  player ``i``'s strategy,
* ``P(x, x) = (1/n) * sum_i sigma_i(x_i | x)``.

:class:`LogitDynamics` builds this chain for any :class:`~repro.games.Game`.
The transition matrix is assembled fully vectorised — one softmax per
player over the whole profile space — and the stationary distribution is
supplied in closed form (the Gibbs measure) whenever the game is a
potential game, so that downstream mixing-time computations never depend on
an eigen-solve for ``pi``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..engine.coupled import simulate_grand_coupling_ensemble
from ..engine.ensemble import EnsembleSimulator
from ..engine.kernels import SequentialKernel, UpdateKernel
from ..engine.sampling import columns_pay, sample_inverse_cdf
from ..games.base import Game
from ..games.potential import PotentialGame
from ..games.space import ProfileSpace
from ..markov.chain import MarkovChain, check_count
from ..markov.coupling import CouplingResult
from .stationary import check_beta, gibbs_measure

__all__ = [
    "EngineBackedDynamics",
    "LogitDynamics",
    "LogitRule",
    "UtilityRule",
    "logit_update_distribution",
]


def logit_update_distribution(utilities: np.ndarray, beta: float) -> np.ndarray:
    """Softmax ``exp(beta u) / sum exp(beta u)`` computed in log space.

    ``utilities`` may be 1-D (one profile) or 2-D with one row per profile;
    the softmax is taken along the last axis.  Rows stay finite when
    ``beta * u`` overflows: they tend to the uniform law over the argmax.
    Neither the product nor the max shift warns when it overflows.

    Tall batches (:func:`~repro.engine.sampling.columns_pay`) with ``m <
    8`` reduce along the strategy axis as passes over the ``m`` columns,
    other rows as numpy row reductions (numpy reduces a short row per
    call, which costs ~50x more than a column pass on ``(k, 2)`` rows).
    Both give the same floats: the running column sum is numpy's own row
    sum for ``m < 8``, so a 1-D row and a row of any batch agree at every
    ``m``.

    >>> logit_update_distribution(np.array([[0.0, 2.0, 2.0], [1.0, 1.0, 0.0]]), 1e308)
    array([[0. , 0.5, 0.5],
           [0.5, 0.5, 0. ]])
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    u = np.asarray(utilities, dtype=float)
    m = u.shape[-1]
    # max-shifted softmax: overflow-safe and much cheaper than scipy's
    # logsumexp on the hot simulation path.  A large beta can overflow the
    # product, and logits wider than the largest float overflow the shift
    # to -inf, whose weight 0 is right.  The context makes 6 Python and C
    # calls; on the 10^5-node ring (R = 64) the level schedule calls this
    # about once per 32 steps, so it adds 0.19 calls per step.
    with np.errstate(over="ignore"):
        logits = beta * u
        rows = logits.reshape(-1, m)
        # numpy sums a row of 8 or more pairwise, a column pass in sequence
        columns = m < 8 and columns_pay(*rows.shape)
        peak = _row_max(rows, columns)
        finite = np.isfinite(peak).all()
        if finite:
            _per_row(np.subtract, rows, peak, columns)
    if not finite:
        # beta * u reached +-inf, and inf - inf is NaN: scale the shifted
        # utilities instead, which keeps every argmax entry at exactly 0
        with np.errstate(over="ignore", invalid="ignore"):
            u_rows = u.reshape(-1, m)
            shifted = beta * (u_rows - np.max(u_rows, axis=1, keepdims=True))
            rows = np.where(np.isfinite(peak)[:, None], rows - peak[:, None], shifted)
    # in place: a fresh (k, m) array costs more in page faults than exp
    weights = np.exp(rows, out=rows)
    # the shift is done; the peak's buffer takes the row totals
    _per_row(np.divide, weights, _row_sum(weights, columns, out=peak), columns)
    return weights.reshape(u.shape)


def _row_max(rows: np.ndarray, columns: bool) -> np.ndarray:
    """Maxima of ``(k, m)`` rows: a running maximum over the columns, or per row."""
    if not columns:
        return np.maximum.reduce(rows, axis=1)
    peak = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        np.maximum(peak, rows[:, j], out=peak)
    return peak


def _row_sum(rows: np.ndarray, columns: bool, out: np.ndarray) -> np.ndarray:
    """Sums of ``(k, m)`` rows into ``out``: a running column sum, or per row."""
    if not columns:
        return np.add.reduce(rows, axis=1, out=out)
    out[:] = rows[:, 0]
    for j in range(1, rows.shape[1]):
        out += rows[:, j]
    return out


def _per_row(ufunc: np.ufunc, rows: np.ndarray, values: np.ndarray, columns: bool) -> None:
    """``rows[j] = ufunc(rows[j], values[j])`` in place, column by column or at once."""
    if not columns:
        ufunc(rows, values[:, None], out=rows)
        return
    for j in range(rows.shape[1]):
        ufunc(rows[:, j], values, out=rows[:, j])


def sequential_loop(
    space: ProfileSpace,
    rule_at: Callable[[int], "UtilityRule"],
    start: Sequence[int] | np.ndarray,
    num_steps: int,
    rng: np.random.Generator | None,
    record_every: int,
) -> np.ndarray:
    """Scalar reference loop of the one-uniformly-random-mover chains.

    The mover of step ``t`` draws from ``rule_at(t)``.  Draw order (all
    players for the run, then all uniforms) mirrors the sequential kernels'
    bulk pre-draw, so engine trajectories match this loop bit-for-bit.
    """
    rng = np.random.default_rng() if rng is None else rng
    num_steps = check_count(num_steps, "num_steps", minimum=0)
    record_every = check_count(record_every, "record_every")
    profile = np.asarray(start, dtype=np.int64).copy()
    if profile.shape != (space.num_players,):
        raise ValueError("start profile has wrong length")
    snapshots = [profile.copy()]
    players = rng.integers(0, space.num_players, size=num_steps)
    uniforms = rng.random(num_steps)
    for t in range(num_steps):
        i = int(players[t])
        probs = rule_at(t).update_distribution_by_index(space.encode(profile), i)
        profile[i] = sample_inverse_cdf(probs, uniforms[t])
        if (t + 1) % record_every == 0:
            snapshots.append(profile.copy())
    return np.asarray(snapshots, dtype=np.int64)


class UtilityRule:
    """The engine's rule contract: utilities in, move distribution out.

    Subclasses provide ``game`` and one hook, :meth:`move_probabilities`
    (row-wise along the last axis): :class:`LogitRule` the softmax of
    Equation (2), :class:`~repro.core.variants.BestResponseDynamics`
    uniform-over-argmax.  The batched entry points the engine drives differ
    only in how they gather utilities, so they live here once and a change
    to a hook reaches every kernel and state backend at once.
    """

    game: Game

    def __getstate__(self) -> dict:
        """The rule's parameters, without its derived caches.

        Gather tables, transition matrices and chains are rebuilt on first
        use, so pickling a rule — a process-backend payload — never ships
        them.
        """
        state = self.__dict__.copy()
        state.pop("_cache", None)
        return state

    def _cached(self, key: str, build: Callable[[], object]):
        """``build()``, built on the first call and kept for the rule's life.

        Safe because a rule's parameters are read-only after ``__init__``.
        """
        cache = self.__dict__.setdefault("_cache", {})
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def move_probabilities(self, utilities: np.ndarray) -> np.ndarray:
        """Move-distribution rows for ``(..., m)`` utilities (last axis)."""
        raise NotImplementedError

    def update_distribution_by_index(self, profile_index: int, player: int) -> np.ndarray:
        """``sigma_player(. | x)`` for a profile given by index."""
        return self.move_probabilities(self.game.utility_deviations(player, profile_index))

    def _sequential_matrix(self) -> np.ndarray:
        """Dense transition matrix of one uniformly random mover under this rule."""
        space = self.game.space
        n = space.num_players
        size = space.size
        P = np.zeros((size, size), dtype=float)
        rows = np.arange(size, dtype=np.int64)
        for player in range(n):
            devs = space.deviation_matrix(player)  # (|S|, m_i)
            probs = self.player_update_matrix(player) / n
            # scatter-add: P[x, devs[x, s]] += probs[x, s]; when the
            # deviation equals x itself the mass lands on the diagonal,
            # which is exactly the "player re-picks her own strategy"
            # term of Equation (3).
            np.add.at(P, (rows[:, None], devs), probs)
        return P

    def update_distribution_many(
        self, player: int, profile_indices: np.ndarray
    ) -> np.ndarray:
        """Batched update rule: row ``j`` is ``sigma_player(. | x_j)``.

        One utility gather and one row-wise rule evaluation for the whole
        batch — the building block of the grand-coupling ensemble
        (:mod:`repro.engine.coupled`).
        """
        return self.move_probabilities(
            self.game.utility_deviations_many(player, profile_indices)
        )

    def update_distribution_profiles(
        self, player: int, profiles: np.ndarray
    ) -> np.ndarray:
        """Batched update rule from ``(k, n)`` strategy-profile rows.

        The index-free counterpart of :meth:`update_distribution_many`,
        driven by the engine's matrix state: utilities come from
        :meth:`~repro.games.Game.utility_deviations_profiles`, so games
        that override it (local-interaction games) never touch a profile
        index and work at any number of players.
        """
        return self.move_probabilities(
            self.game.utility_deviations_profiles(player, profiles)
        )

    def update_distribution_rowwise(
        self,
        players: np.ndarray,
        profiles: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched rule with a *different mover per row*.

        Row ``j`` is ``sigma_{players[j]}(. | x_j)`` with ``x_j =
        profiles[j]``, or ``profiles[rows[j]]`` when ``rows`` is given —
        how the engine's level schedule reads the live ``(R, n)`` strategy
        matrix without copying rows.  Requires the game to expose
        ``utility_deviations_rowwise`` (uniform strategy counts); the
        engine's matrix state backend uses this to advance replicas with
        distinct movers in one vectorised call instead of one group per
        player — the fast path that makes ``R ~ n`` sequential steps cheap
        on local-interaction games.
        """
        return self.move_probabilities(
            self.game.utility_deviations_rowwise(players, profiles, rows)
        )

    def player_update_matrix(self, player: int) -> np.ndarray:
        """``(|S|, m_player)`` matrix of update probabilities for every profile.

        Row ``x`` is ``sigma_player(. | x)``; this is both the gather-table
        precompute of the engine and the vectorised building block of the
        full transition matrix.
        """
        devs = self.game.space.deviation_matrix(player)  # (|S|, m)
        return self.move_probabilities(self.game.utility_matrix(player)[devs])

    def gather_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The engine's gather-mode ``(cum, next)`` tables, built once per rule.

        Both are ``(n, |S|, m_max)``: ``cum[i, x]`` holds the cumulative
        sums of ``sigma_i(. | x)`` with player ``i``'s own last column and
        every padding column set to ``+inf``, so the inverse-CDF count can
        never pass ``i``'s last strategy (the round-off clamp, per player);
        ``next[i, x, s]`` is the profile index with ``i`` switched to
        ``s`` (``-1`` in the unreachable padding).  Every index-state
        simulator of this rule reads the same tables, so an adaptive
        estimator builds them once, not once per chunk.
        """

        def build():
            space = self.game.space
            counts = space.num_strategies
            shape = (len(counts), space.size, max(counts))
            cum = np.full(shape, np.inf)
            nxt = np.full(shape, -1, dtype=np.int64)
            for player, m in enumerate(counts):
                probs = self.player_update_matrix(player)
                cum[player, :, : m - 1] = np.cumsum(probs, axis=1)[:, :-1]
                nxt[player, :, :m] = space.deviation_matrix(player)
            return cum, nxt

        return self._cached("gather", build)

    def binary_next(self) -> np.ndarray:
        """Twice the flattened gather next-profile table, built once per rule.

        Serves binary gather tables (last axis 2): the window loop of
        :meth:`~repro.engine.kernels.SeededSequentialKernel.advance_window`
        carries doubled profile indices, so one flat position
        ``2 * (mover * |S| + x) + s`` addresses both a threshold of ``cum``
        and the doubled index of the profile with the mover on ``s``.
        """
        return self._cached(
            "binary_next", lambda: 2 * self.gather_tables()[1].reshape(-1)
        )


class LogitRule(UtilityRule):
    """The softmax of Equation (2) at a fixed, read-only ``beta``.

    Shared by the standard chain and the parallel / concurrent /
    round-robin variants, which differ only in who moves.
    """

    def __init__(self, game: Game, beta: float):
        self.game = game
        self._beta = check_beta(beta)

    @property
    def beta(self) -> float:
        """The inverse noise; read-only, as the rule's cached tables derive from it."""
        return self._beta

    def move_probabilities(self, utilities: np.ndarray) -> np.ndarray:
        """Softmax rows ``exp(beta u) / sum exp(beta u)``."""
        # the field, not the property: this runs on every engine step
        return logit_update_distribution(utilities, self._beta)


class EngineBackedDynamics:
    """Shared engine wiring for the logit dynamics and its variants.

    Subclasses provide :meth:`kernel` (their update-rule kernel) and the
    rule it drives (a :class:`UtilityRule`; the annealed schedule hands it
    one fixed-``beta`` rule per step); this mixin supplies the batched
    Monte-Carlo entry points on top — one implementation shared by
    :class:`LogitDynamics` and every :mod:`~repro.core.variants` class.
    """

    game: Game

    def kernel(self) -> UpdateKernel:
        """The update-rule kernel advancing this dynamics on the engine."""
        raise NotImplementedError

    def ensemble(
        self,
        num_replicas: int,
        start: Sequence[int] | np.ndarray | int | None = None,
        rng: np.random.Generator | None = None,
        start_indices: np.ndarray | None = None,
        state: str = "auto",
        tracer=None,
    ) -> EnsembleSimulator:
        """A batched :class:`~repro.engine.EnsembleSimulator` of this dynamics.

        ``num_replicas`` independent copies advanced in bulk under this
        dynamics' kernel — the scaling entry point for mixing, hitting-time
        and metastability experiments.  ``state`` picks the route:
        ``"index"`` (precomputed gather tables over profile indices),
        ``"matrix"`` (``(R, n)`` strategy rows, rule rows on demand, any
        number of players) or ``"auto"`` (index for time-invariant kernels
        on at most ``GATHER_CAP`` profiles, matrix otherwise; see
        :class:`~repro.engine.ensemble.EnsembleSimulator`).
        """
        return EnsembleSimulator(
            self,
            num_replicas,
            start=start,
            rng=rng,
            start_indices=start_indices,
            kernel=self.kernel(),
            state=state,
            tracer=tracer,
        )

    def simulate(
        self,
        start: Sequence[int] | np.ndarray,
        num_steps: int,
        rng: np.random.Generator | None = None,
        record_every: int = 1,
    ) -> np.ndarray:
        """Simulate one trajectory on the batched engine.

        Returns the recorded profiles as a ``(k, n)`` int array whose first
        row is the start profile and subsequent rows are snapshots every
        ``record_every`` steps.  Given the same generator state it
        reproduces this dynamics' scalar ``simulate_loop`` exactly.
        """
        start = np.asarray(start)
        if start.shape != (self.game.space.num_players,):
            raise ValueError("start profile has wrong length")
        # matrix state: gather tables never pay for one lone trajectory
        sim = self.ensemble(1, start=start, rng=rng, state="matrix")
        snapshots = sim.run(num_steps, record_every=record_every)
        return snapshots[:, 0, :]

    def simulate_hitting_time(
        self,
        start: Sequence[int] | np.ndarray,
        targets,
        rng: np.random.Generator | None = None,
        max_steps: int = 10**6,
    ) -> int:
        """Steps until one trajectory first hits the target set (or -1).

        ``targets`` is a profile index, an array of them, or a profile
        predicate (a callable mapping ``(k, n)`` profile rows to a boolean
        mask) — the only target form available past the int64
        profile-index ceiling.  Runs a single replica on the matrix state:
        the gather route's per-player precompute is never worth it for one
        lone trajectory.
        """
        sim = self.ensemble(1, start=np.asarray(start), rng=rng, state="matrix")
        return int(sim.hitting_times(targets, max_steps=max_steps)[0])


class LogitDynamics(LogitRule, EngineBackedDynamics):
    """Logit dynamics with inverse noise ``beta`` for a finite game.

    Parameters
    ----------
    game:
        Any :class:`~repro.games.Game`.  If it is a
        :class:`~repro.games.PotentialGame` the Gibbs measure is used as the
        (exact) stationary distribution of the chain.
    beta:
        Inverse noise / rationality parameter, a finite ``beta >= 0``
        (``beta -> inf`` is :class:`~repro.core.variants.BestResponseDynamics`).
    """

    # -- update rule -------------------------------------------------------

    def update_distribution(self, profile: Sequence[int] | np.ndarray, player: int) -> np.ndarray:
        """``sigma_player(. | profile)`` for a profile given as a tuple/array."""
        profile_index = self.game.space.encode(np.asarray(profile, dtype=np.int64))
        return self.update_distribution_by_index(profile_index, player)

    # (update_distribution_by_index and the batched rule entry points come
    # from UtilityRule)

    # -- transition matrix --------------------------------------------------

    def transition_matrix(self) -> np.ndarray:
        """Dense ``(|S|, |S|)`` transition matrix of Equation (3)."""
        return self._cached("matrix", self._sequential_matrix)

    def sparse_transition_matrix(self):
        """CSR sparse transition matrix of Equation (3).

        The logit chain has at most ``sum_i m_i`` non-zeros per row, so the
        sparse representation scales to profile spaces far beyond the dense
        cap; see :mod:`repro.markov.sparse` for the matching measurement
        tools.  Cached on first build, like the dense matrix and the
        :class:`~repro.markov.MarkovChain` wrapper.
        """
        return self._cached("sparse", self._sparse_matrix)

    def _sparse_matrix(self):
        import scipy.sparse as sp

        space = self.game.space
        n = space.num_players
        size = space.size
        rows_idx = np.arange(size, dtype=np.int64)
        data_parts = []
        row_parts = []
        col_parts = []
        for player in range(n):
            devs = space.deviation_matrix(player)  # (|S|, m_i)
            probs = self.player_update_matrix(player) / n
            m_i = devs.shape[1]
            row_parts.append(np.repeat(rows_idx, m_i))
            col_parts.append(devs.ravel())
            data_parts.append(probs.ravel())
        matrix = sp.coo_matrix(
            (
                np.concatenate(data_parts),
                (np.concatenate(row_parts), np.concatenate(col_parts)),
            ),
            shape=(size, size),
        )
        return matrix.tocsr()

    def sparse_markov_chain(self):
        """The chain wrapped as a :class:`repro.markov.sparse.SparseMarkovChain`."""
        from ..markov.sparse import SparseMarkovChain

        stationary = None
        if isinstance(self.game, PotentialGame):
            stationary = gibbs_measure(self.game.potential_vector(), self.beta)
        return SparseMarkovChain(self.sparse_transition_matrix(), stationary=stationary)

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution: Gibbs measure for potential games."""
        if isinstance(self.game, PotentialGame):
            return gibbs_measure(self.game.potential_vector(), self.beta)
        return self.markov_chain().stationary.copy()

    def markov_chain(self) -> MarkovChain:
        """The chain wrapped as a :class:`~repro.markov.MarkovChain`."""

        def build() -> MarkovChain:
            stationary = None
            if isinstance(self.game, PotentialGame):
                stationary = gibbs_measure(self.game.potential_vector(), self.beta)
            return MarkovChain(self.transition_matrix(), stationary=stationary)

        return self._cached("chain", build)

    # -- simulation (matrix-free) -------------------------------------------

    def kernel(self) -> SequentialKernel:
        """The paper's update-rule kernel: one uniformly random mover per step.

        This is what :meth:`ensemble` uses implicitly; it is exposed so the
        standard dynamics plugs into kernel-generic engine tooling the same
        way the Section 6 variants do.
        """
        return SequentialKernel(self)

    # (ensemble / simulate / simulate_hitting_time come from
    # EngineBackedDynamics — the same wiring every variant uses)

    def simulate_loop(
        self,
        start: Sequence[int] | np.ndarray,
        num_steps: int,
        rng: np.random.Generator | None = None,
        record_every: int = 1,
    ) -> np.ndarray:
        """Single-replica pure-Python reference implementation of :meth:`simulate`.

        Kept as the ground truth the batched engine is tested and benchmarked
        against; simulation workloads should call :meth:`simulate` or
        :meth:`ensemble` instead.
        """
        return sequential_loop(
            self.game.space, lambda t: self, start, num_steps, rng, record_every
        )

    def grand_coupling(
        self,
        start_x: Sequence[int] | np.ndarray,
        start_y: Sequence[int] | np.ndarray,
        horizon: int,
        num_runs: int = 32,
        rng: np.random.Generator | None = None,
    ) -> CouplingResult:
        """Simulate the paper's grand coupling between two starting profiles.

        This is the coupling used in the proofs of Theorems 3.6 and 4.2:
        both copies pick the same player and the same uniform variable, and
        map it through their own logit update distribution via the maximal
        overlap construction.  All ``num_runs`` coupled pairs are advanced
        simultaneously by the batched engine
        (:func:`repro.engine.simulate_grand_coupling_ensemble`).
        """
        return simulate_grand_coupling_ensemble(
            self,
            start_x=np.asarray(start_x, dtype=np.int64),
            start_y=np.asarray(start_y, dtype=np.int64),
            horizon=horizon,
            num_runs=num_runs,
            rng=rng,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LogitDynamics(game={self.game!r}, beta={self.beta})"
