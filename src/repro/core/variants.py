"""Variants of the logit dynamics discussed in the paper's conclusions.

Section 6 of the paper points at several natural variations of the one-
player-at-a-time logit dynamics; this module makes them executable so that
the package can be used to explore them empirically:

* :class:`ParallelLogitDynamics` — *all* players update simultaneously, each
  through her own logit rule.  The resulting chain is still ergodic but in
  general it is **not** reversible and its stationary distribution is not
  the Gibbs measure; for coordination games it can even concentrate on
  miscoordinated profiles (the well-known "parallel trap").  The special
  case ``beta = infinity`` is the parallel best-response dynamics of Nisan,
  Schapira and Zohar cited in the paper.
* :class:`BestResponseDynamics` — the ``beta -> infinity`` limit of the
  (sequential) logit dynamics: the selected player moves to a uniformly
  random best response.  The chain is absorbing at strict pure Nash
  equilibria and is the classical comparison point for the logit dynamics.
* :class:`AnnealedLogitDynamics` — a time-varying ``beta_t`` schedule
  (players "learn" the game as time progresses, as the conclusions suggest).
  This is a time-inhomogeneous chain, so it exposes step-by-step simulation
  and distribution evolution rather than a single transition matrix.
* :class:`RoundRobinLogitDynamics` — players update in a fixed cyclic order
  instead of being selected uniformly at random; one "round" of n updates is
  a single transition matrix, which makes the variant easy to compare
  against n steps of the standard dynamics.

Every variant runs its Monte-Carlo paths on the batched engine
(:mod:`repro.engine`) through its own update-rule kernel — ``simulate`` /
``ensemble`` / ``simulate_hitting_time`` advance replicas as flat numpy
index arrays, while the scalar ``simulate_loop`` methods remain as the
pure-Python references the engine is cross-validated against
(``tests/test_variant_kernels.py``).  The dense ``transition_matrix`` /
``markov_chain`` machinery stays available for small games.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..engine.kernels import (
    AnnealedKernel,
    ParallelKernel,
    ProbabilisticKernel,
    RoundRobinKernel,
    SequentialKernel,
)
from ..engine.sampling import sample_inverse_cdf
from ..games.base import Game
from ..markov.chain import MarkovChain
from .logit import (
    EngineBackedDynamics,
    LogitDynamics,
    LogitRule,
    check_beta,
    logit_update_distribution,
)

__all__ = [
    "EngineBackedDynamics",
    "ParallelLogitDynamics",
    "ConcurrentLogitDynamics",
    "BestResponseDynamics",
    "AnnealedLogitDynamics",
    "RoundRobinLogitDynamics",
]


class ParallelLogitDynamics(LogitRule, EngineBackedDynamics):
    """All players revise simultaneously, each with the logit rule.

    One step from profile ``x`` draws, independently for every player ``i``,
    a new strategy from ``sigma_i(. | x)``; the next profile is the vector
    of draws.  Transition probabilities therefore factorise as
    ``P(x, y) = prod_i sigma_i(y_i | x)`` and the transition matrix is dense
    (every profile can reach every other in one step), so the exact machinery
    is limited to small games; the engine-backed simulator has no such limit.
    """

    def __init__(self, game: Game, beta: float):
        self.game = game
        self.beta = check_beta(beta)
        self._matrix: np.ndarray | None = None

    # -- update rule (the engine's rule contract) --------------------------

    def update_distribution(self, profile_index: int, player: int) -> np.ndarray:
        """Per-player logit update distribution (same rule as the sequential chain)."""
        utilities = self.game.utility_deviations(player, profile_index)
        return logit_update_distribution(utilities, self.beta)

    # (batched update_distribution_many / player_update_matrix: LogitRule)

    def kernel(self) -> ParallelKernel:
        """Simultaneous-update kernel over this logit rule."""
        return ParallelKernel(self)

    # -- exact machinery (small games) -------------------------------------

    def transition_matrix(self) -> np.ndarray:
        """Dense ``(|S|, |S|)`` transition matrix ``P(x, y) = prod_i sigma_i(y_i | x)``."""
        if self._matrix is None:
            space = self.game.space
            size = space.size
            # P starts as all-ones and is multiplied by one factor per player.
            P = np.ones((size, size), dtype=float)
            target = space.all_profiles()  # (|S|, n): strategy of each player in y
            for player in range(space.num_players):
                probs = self.player_update_matrix(player)  # (|S|, m_i)
                # factor[x, y] = sigma_player(y_player | x)
                P *= probs[:, target[:, player]]
            self._matrix = P
        return self._matrix

    def markov_chain(self) -> MarkovChain:
        """The parallel chain (stationary distribution computed numerically)."""
        return MarkovChain(self.transition_matrix())

    def stationary_distribution(self) -> np.ndarray:
        """Numerical stationary distribution (generally *not* the Gibbs measure)."""
        return self.markov_chain().stationary.copy()

    # -- simulation ---------------------------------------------------------

    def simulate_loop(
        self,
        start: Sequence[int] | np.ndarray,
        num_steps: int,
        rng: np.random.Generator | None = None,
        record_every: int = 1,
    ) -> np.ndarray:
        """Scalar pure-Python reference implementation of :meth:`simulate`.

        Per step it consumes ``n`` uniforms, one per player in player order
        — the same random-stream contract as the batched
        :class:`~repro.engine.kernels.ParallelKernel` with one replica, so
        the two match bit-for-bit under a fixed seed.
        """
        rng = np.random.default_rng() if rng is None else rng
        record_every = max(int(record_every), 1)
        space = self.game.space
        profile = np.asarray(start, dtype=np.int64).copy()
        if profile.shape != (space.num_players,):
            raise ValueError("start profile has wrong length")
        snapshots = [profile.copy()]
        for t in range(num_steps):
            idx = space.encode(profile)
            uniforms = rng.random(space.num_players)
            new = np.empty_like(profile)
            for player in range(space.num_players):
                probs = self.update_distribution(idx, player)
                new[player] = sample_inverse_cdf(probs, float(uniforms[player]))
            profile = new
            if (t + 1) % record_every == 0:
                snapshots.append(profile.copy())
        return np.asarray(snapshots, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelLogitDynamics(game={self.game!r}, beta={self.beta})"


class ConcurrentLogitDynamics(LogitRule, EngineBackedDynamics):
    """Each player independently revises with probability ``p`` per step.

    The probabilistic-schedule ("all-logit") dynamics of the concurrent-
    update follow-up work (arXiv 1207.2908): one step from profile ``x``
    flips an independent ``p``-coin per player, and every selected player
    draws a new strategy from her logit rule ``sigma_i(. | x)`` *against
    the common pre-step profile* — all moves land at once, so transition
    probabilities factorise as
    ``P(x, y) = prod_i [p sigma_i(y_i | x) + (1 - p) 1{y_i = x_i}]``.

    ``p = 1`` is exactly :class:`ParallelLogitDynamics` — including the
    random stream, so trajectories match bit-for-bit — and as ``p -> 0``
    the chain approaches the sequential dynamics' one-expected-update-per-
    ``1/p``-steps intensity while keeping the concurrent (in general
    non-reversible) semantics.  At ``p = 1`` on a local-interaction game
    with symmetric per-edge payoffs the stationary distribution has the
    closed product form on the doubled potential
    (:func:`repro.core.bounds.theorem1207_stationary_product`); for
    ``p < 1`` not even that holds and the stationary distribution is
    numerical only.  Coordination games exhibit the "parallel trap": the
    concurrent chain's stationary distribution puts mass on miscoordinated
    profiles the Gibbs measure exponentially suppresses.
    """

    def __init__(self, game: Game, beta: float, p: float = 1.0):
        p = float(p)
        if not 0.0 < p <= 1.0:
            raise ValueError("the update probability p must lie in (0, 1]")
        self.game = game
        self.beta = check_beta(beta)
        self.p = p
        self._matrix: np.ndarray | None = None

    # -- update rule (the engine's rule contract) --------------------------

    def update_distribution(self, profile_index: int, player: int) -> np.ndarray:
        """Per-player logit update distribution (conditional on updating)."""
        utilities = self.game.utility_deviations(player, profile_index)
        return logit_update_distribution(utilities, self.beta)

    # (batched update_distribution_many / player_update_matrix: LogitRule)

    def kernel(self) -> ProbabilisticKernel:
        """Probabilistic-schedule kernel over this logit rule."""
        return ProbabilisticKernel(self, p=self.p)

    # -- exact machinery (small games) -------------------------------------

    def transition_matrix(self) -> np.ndarray:
        """Dense ``P(x, y) = prod_i [p sigma_i(y_i | x) + (1-p) 1{y_i = x_i}]``."""
        if self._matrix is None:
            space = self.game.space
            size = space.size
            P = np.ones((size, size), dtype=float)
            target = space.all_profiles()  # (|S|, n): strategy of each player
            for player in range(space.num_players):
                probs = self.player_update_matrix(player)  # (|S|, m_i)
                # factor[x, y] = p sigma_player(y_player | x) + (1-p) 1{stay}
                factor = self.p * probs[:, target[:, player]]
                if self.p < 1.0:
                    stay = np.equal.outer(target[:, player], target[:, player])
                    factor[stay] += 1.0 - self.p
                P *= factor
            self._matrix = P
        return self._matrix

    def markov_chain(self) -> MarkovChain:
        """The concurrent chain (stationary distribution computed numerically)."""
        return MarkovChain(self.transition_matrix())

    def stationary_distribution(self) -> np.ndarray:
        """Numerical stationary distribution (generally *not* the Gibbs measure)."""
        return self.markov_chain().stationary.copy()

    # -- simulation ---------------------------------------------------------

    def simulate_loop(
        self,
        start: Sequence[int] | np.ndarray,
        num_steps: int,
        rng: np.random.Generator | None = None,
        record_every: int = 1,
    ) -> np.ndarray:
        """Scalar pure-Python reference implementation of :meth:`simulate`.

        Per step it consumes ``n`` mask uniforms then ``n`` move uniforms,
        in player order — with the mask row skipped entirely at ``p = 1``
        — the same random-stream contract as the batched
        :class:`~repro.engine.kernels.ProbabilisticKernel` with one
        replica, so the two match bit-for-bit under a fixed seed (and at
        ``p = 1`` both match :class:`ParallelLogitDynamics`).
        """
        rng = np.random.default_rng() if rng is None else rng
        record_every = max(int(record_every), 1)
        space = self.game.space
        profile = np.asarray(start, dtype=np.int64).copy()
        if profile.shape != (space.num_players,):
            raise ValueError("start profile has wrong length")
        snapshots = [profile.copy()]
        for t in range(num_steps):
            idx = space.encode(profile)
            if self.p >= 1.0:
                update = np.ones(space.num_players, dtype=bool)
            else:
                update = rng.random(space.num_players) < self.p
            uniforms = rng.random(space.num_players)
            new = profile.copy()
            for player in range(space.num_players):
                if not update[player]:
                    continue
                probs = self.update_distribution(idx, player)
                new[player] = sample_inverse_cdf(probs, float(uniforms[player]))
            profile = new
            if (t + 1) % record_every == 0:
                snapshots.append(profile.copy())
        return np.asarray(snapshots, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConcurrentLogitDynamics(game={self.game!r}, beta={self.beta}, "
            f"p={self.p})"
        )


class BestResponseDynamics(EngineBackedDynamics):
    """The ``beta -> infinity`` limit: the selected player best-responds.

    The selected player moves to a strategy drawn uniformly from her set of
    best responses to the current opponents' strategies (ties are kept, so
    the chain is well-defined even with indifferences).  Strict pure Nash
    equilibria are absorbing states; the chain is generally *not* ergodic,
    which is exactly the contrast with the logit dynamics the paper draws in
    the introduction.

    On the engine this is simply the sequential kernel under the uniform-
    over-argmax rule instead of the softmax — who moves is unchanged, only
    the move distribution differs.
    """

    def __init__(self, game: Game, tie_tolerance: float = 1e-12):
        self.game = game
        self.tie_tolerance = float(tie_tolerance)

    # -- update rule (the engine's rule contract) --------------------------

    def _best_response_probs(self, utilities: np.ndarray) -> np.ndarray:
        """Uniform-over-argmax rows for utilities of any (row-major) shape."""
        utilities = np.asarray(utilities, dtype=float)
        best = utilities >= np.max(utilities, axis=-1, keepdims=True) - self.tie_tolerance
        probs = best.astype(float)
        return probs / probs.sum(axis=-1, keepdims=True)

    def update_distribution(self, profile_index: int, player: int) -> np.ndarray:
        """Uniform distribution over the player's best responses."""
        return self._best_response_probs(
            self.game.utility_deviations(player, profile_index)
        )

    def update_distribution_many(
        self, player: int, profile_indices: np.ndarray
    ) -> np.ndarray:
        """Batched rule: row ``j`` is uniform over argmax utilities at ``x_j``."""
        return self._best_response_probs(
            self.game.utility_deviations_many(player, profile_indices)
        )

    def update_distribution_profiles(
        self, player: int, profiles: np.ndarray
    ) -> np.ndarray:
        """Batched rule from ``(k, n)`` profile rows (matrix state backend)."""
        return self._best_response_probs(
            self.game.utility_deviations_profiles(player, profiles)
        )

    def update_distribution_rowwise(
        self,
        players: np.ndarray,
        profiles: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched rule with a different mover per row (matrix state fast path).

        ``rows`` as in :meth:`repro.core.logit.LogitRule.update_distribution_rowwise`.
        """
        return self._best_response_probs(
            self.game.utility_deviations_rowwise(players, profiles, rows)
        )

    def player_update_matrix(self, player: int) -> np.ndarray:
        """``(|S|, m_player)`` best-response probabilities (gather precompute)."""
        space = self.game.space
        devs = space.deviation_matrix(player)
        return self._best_response_probs(self.game.utility_matrix(player)[devs])

    def kernel(self) -> SequentialKernel:
        """Sequential kernel over the best-response rule."""
        return SequentialKernel(self)

    # -- exact machinery (small games) -------------------------------------

    def transition_matrix(self) -> np.ndarray:
        """Dense transition matrix of the (sequential) best-response chain."""
        space = self.game.space
        n = space.num_players
        size = space.size
        P = np.zeros((size, size), dtype=float)
        rows = np.arange(size, dtype=np.int64)
        for player in range(n):
            devs = space.deviation_matrix(player)
            probs = self.player_update_matrix(player)
            np.add.at(P, (rows[:, None], devs), probs / n)
        return P

    def markov_chain(self) -> MarkovChain:
        """The best-response chain (may be non-ergodic; absorbing at strict PNE)."""
        return MarkovChain(self.transition_matrix())

    def absorbing_profiles(self) -> np.ndarray:
        """Profile indices that are fixed points of the best-response chain."""
        P = self.transition_matrix()
        return np.flatnonzero(np.isclose(np.diag(P), 1.0))

    def is_limit_of_logit(self, beta: float = 200.0, atol: float = 1e-6) -> bool:
        """Numerically check that a very high-beta logit chain matches this chain.

        Only meaningful for games without payoff ties (where the limit is
        unambiguous); used by the tests as a consistency check.
        """
        logit = LogitDynamics(self.game, beta)
        return bool(np.allclose(logit.transition_matrix(), self.transition_matrix(), atol=atol))

    # -- simulation ---------------------------------------------------------

    def simulate_loop(
        self,
        start: Sequence[int] | np.ndarray,
        num_steps: int,
        rng: np.random.Generator | None = None,
        record_every: int = 1,
    ) -> np.ndarray:
        """Scalar pure-Python reference implementation of :meth:`simulate`.

        Draw order (all players for the run, then all uniforms) mirrors the
        sequential kernel's bulk pre-draw, so engine trajectories match this
        loop bit-for-bit under a fixed seed.
        """
        rng = np.random.default_rng() if rng is None else rng
        record_every = max(int(record_every), 1)
        space = self.game.space
        profile = np.asarray(start, dtype=np.int64).copy()
        if profile.shape != (space.num_players,):
            raise ValueError("start profile has wrong length")
        snapshots = [profile.copy()]
        players = rng.integers(0, space.num_players, size=num_steps)
        uniforms = rng.random(num_steps)
        for t in range(num_steps):
            i = int(players[t])
            probs = self.update_distribution(space.encode(profile), i)
            profile[i] = sample_inverse_cdf(probs, float(uniforms[t]))
            if (t + 1) % record_every == 0:
                snapshots.append(profile.copy())
        return np.asarray(snapshots, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BestResponseDynamics(game={self.game!r})"


class AnnealedLogitDynamics(EngineBackedDynamics):
    """Logit dynamics with a time-varying inverse noise ``beta_t``.

    ``schedule`` is either a callable ``schedule(t) -> beta_t`` or a finite
    sequence of betas (``schedule[t]`` is the beta used for the update at
    step ``t``).  The chain is time-inhomogeneous, so there is no single
    transition matrix; instead we expose per-step matrices, exact
    distribution evolution, and engine-backed trajectory simulation (the
    step counter is global: all replicas of an ensemble share the same
    ``beta_t``).  A logarithmic schedule ``beta_t = log(1 + t) / c`` is the
    classical simulated-annealing choice that concentrates the dynamics on
    potential minimisers.  ``beta_t = 0`` steps are legal (pure noise);
    finite schedules shorter than a requested run raise a clear error
    before any step is taken.
    """

    def __init__(
        self, game: Game, schedule: Callable[[int], float] | Sequence[float]
    ):
        self.game = game
        if callable(schedule):
            self.schedule: Callable[[int], float] | None = schedule
            self._betas: np.ndarray | None = None
        else:
            betas = np.asarray(schedule, dtype=float)
            if betas.ndim != 1 or betas.size == 0:
                raise ValueError("a schedule sequence must be a non-empty 1-D array")
            if np.any(betas < 0) or not np.all(np.isfinite(betas)):
                raise ValueError("every beta in the schedule must be finite and >= 0")
            self.schedule = None
            self._betas = betas

    @property
    def horizon(self) -> int | None:
        """Number of steps a finite schedule covers (``None`` if unbounded)."""
        return None if self._betas is None else int(self._betas.size)

    def beta_at(self, step: int) -> float:
        """The inverse noise used for the update at the given step."""
        step = int(step)
        if self._betas is not None:
            if not 0 <= step < self._betas.size:
                raise ValueError(
                    f"annealing schedule covers steps 0..{self._betas.size - 1} "
                    f"but beta was requested for step {step}; provide a longer "
                    f"schedule or shorten the run"
                )
            return float(self._betas[step])
        beta = float(self.schedule(step))
        if beta < 0 or not np.isfinite(beta):
            raise ValueError(f"schedule produced an invalid beta {beta} at step {step}")
        return beta

    def validate_horizon(self, start_step: int, end_step: int) -> None:
        """Fail fast if a finite schedule cannot cover steps ``start..end-1``."""
        if self._betas is not None and end_step > self._betas.size:
            raise ValueError(
                f"annealing schedule provides {self._betas.size} betas but the "
                f"run needs steps {start_step}..{end_step - 1}; provide a longer "
                f"schedule or shorten the run"
            )

    # -- update rule (the engine's rule contract) --------------------------

    def update_distribution_many_at(
        self, beta: float, player: int, profile_indices: np.ndarray
    ) -> np.ndarray:
        """Batched logit rule at a given ``beta`` (the annealed kernel's inner call)."""
        utilities = self.game.utility_deviations_many(player, profile_indices)
        return logit_update_distribution(utilities, beta)

    def update_distribution_profiles_at(
        self, beta: float, player: int, profiles: np.ndarray
    ) -> np.ndarray:
        """Batched logit rule at ``beta`` from ``(k, n)`` profile rows.

        The annealed kernel's inner call on the engine's matrix state
        backend — index-free, so annealing runs on local-interaction games
        of any size.
        """
        utilities = self.game.utility_deviations_profiles(player, profiles)
        return logit_update_distribution(utilities, beta)

    def update_distribution_rowwise_at(
        self,
        beta: float,
        players: np.ndarray,
        profiles: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched logit rule at ``beta`` with a different mover per row.

        ``rows`` as in :meth:`repro.core.logit.LogitRule.update_distribution_rowwise`.
        """
        utilities = self.game.utility_deviations_rowwise(players, profiles, rows)
        return logit_update_distribution(utilities, beta)

    def kernel(self) -> AnnealedKernel:
        """Time-inhomogeneous sequential kernel following this schedule."""
        return AnnealedKernel(self)

    # -- exact machinery (small games) -------------------------------------

    def transition_matrix_at(self, step: int) -> np.ndarray:
        """The one-step transition matrix in force at the given step."""
        return LogitDynamics(self.game, self.beta_at(step)).transition_matrix()

    def evolve_distribution(self, distribution: np.ndarray, num_steps: int) -> np.ndarray:
        """Exact distribution after ``num_steps`` annealed updates."""
        mu = np.asarray(distribution, dtype=float)
        if mu.shape != (self.game.space.size,):
            raise ValueError("distribution has wrong length")
        self.validate_horizon(0, int(num_steps))
        for t in range(int(num_steps)):
            mu = mu @ self.transition_matrix_at(t)
        return mu

    # -- simulation ---------------------------------------------------------

    def simulate_loop(
        self,
        start: Sequence[int] | np.ndarray,
        num_steps: int,
        rng: np.random.Generator | None = None,
        record_every: int = 1,
    ) -> np.ndarray:
        """Scalar pure-Python reference implementation of :meth:`simulate`.

        Draw order (all players for the run, then all uniforms) mirrors the
        annealed kernel's bulk pre-draw, so engine trajectories match this
        loop bit-for-bit under a fixed seed.
        """
        rng = np.random.default_rng() if rng is None else rng
        record_every = max(int(record_every), 1)
        space = self.game.space
        profile = np.asarray(start, dtype=np.int64).copy()
        if profile.shape != (space.num_players,):
            raise ValueError("start profile has wrong length")
        self.validate_horizon(0, int(num_steps))
        snapshots = [profile.copy()]
        players = rng.integers(0, space.num_players, size=num_steps)
        uniforms = rng.random(num_steps)
        for t in range(num_steps):
            beta = self.beta_at(t)
            i = int(players[t])
            utilities = self.game.utility_deviations(i, space.encode(profile))
            probs = logit_update_distribution(utilities, beta)
            profile[i] = sample_inverse_cdf(probs, float(uniforms[t]))
            if (t + 1) % record_every == 0:
                snapshots.append(profile.copy())
        return np.asarray(snapshots, dtype=np.int64)

    @staticmethod
    def logarithmic_schedule(scale: float = 1.0, offset: float = 1.0) -> Callable[[int], float]:
        """``beta_t = log(offset + t) / scale`` — the classical annealing schedule."""
        if scale <= 0 or offset <= 0:
            raise ValueError("scale and offset must be positive")
        return lambda t: float(np.log(offset + t) / scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f"horizon={self.horizon}" if self._betas is not None else "callable"
        return f"AnnealedLogitDynamics(game={self.game!r}, schedule={tag})"


class RoundRobinLogitDynamics(LogitRule, EngineBackedDynamics):
    """Players update in a fixed cyclic order 0, 1, ..., n-1, 0, ...

    One *round* applies each player's logit update once, in order; the
    corresponding transition matrix is the product of the n single-player
    update matrices.  Comparing one round against n steps of the standard
    (uniform-selection) dynamics isolates the effect of the player-selection
    rule, one of the variations the paper's conclusions raise.

    On the engine the cyclic cursor lives in the simulator's kernel state:
    it advances exactly once per step and is untouched by snapshot
    recording or by splitting a run into several ``run`` calls, so
    recording mid-round never desyncs the player order.
    """

    def __init__(self, game: Game, beta: float):
        self.game = game
        self.beta = check_beta(beta)

    # -- update rule (the engine's rule contract) --------------------------

    # (batched update_distribution_many / player_update_matrix: LogitRule)

    def kernel(self) -> RoundRobinKernel:
        """Cyclic-order kernel over this logit rule."""
        return RoundRobinKernel(self)

    # -- exact machinery (small games) -------------------------------------

    def player_step_matrix(self, player: int) -> np.ndarray:
        """Transition matrix of a single forced update of ``player``."""
        space = self.game.space
        size = space.size
        devs = space.deviation_matrix(player)
        probs = self.player_update_matrix(player)
        P = np.zeros((size, size), dtype=float)
        rows = np.arange(size, dtype=np.int64)
        np.add.at(P, (rows[:, None], devs), probs)
        return P

    def round_transition_matrix(self) -> np.ndarray:
        """Transition matrix of one full round (all players once, in order)."""
        P = np.eye(self.game.space.size)
        for player in range(self.game.num_players):
            P = P @ self.player_step_matrix(player)
        return P

    def markov_chain(self) -> MarkovChain:
        """The round-level chain (one step = one full round of updates)."""
        return MarkovChain(self.round_transition_matrix())

    def stationary_distribution(self) -> np.ndarray:
        """Numerical stationary distribution of the round-level chain."""
        return self.markov_chain().stationary.copy()

    # -- simulation ---------------------------------------------------------

    def simulate_loop(
        self,
        start: Sequence[int] | np.ndarray,
        num_steps: int,
        rng: np.random.Generator | None = None,
        record_every: int = 1,
    ) -> np.ndarray:
        """Scalar pure-Python reference implementation of :meth:`simulate`.

        One *step* is one single-player update (the mover at step ``t`` is
        player ``t mod n``); per step one uniform is consumed — the same
        random-stream contract as the batched
        :class:`~repro.engine.kernels.RoundRobinKernel` with one replica.
        """
        rng = np.random.default_rng() if rng is None else rng
        record_every = max(int(record_every), 1)
        space = self.game.space
        profile = np.asarray(start, dtype=np.int64).copy()
        if profile.shape != (space.num_players,):
            raise ValueError("start profile has wrong length")
        snapshots = [profile.copy()]
        for t in range(num_steps):
            player = t % space.num_players
            utilities = self.game.utility_deviations(player, space.encode(profile))
            probs = logit_update_distribution(utilities, self.beta)
            profile[player] = sample_inverse_cdf(probs, float(rng.random()))
            if (t + 1) % record_every == 0:
                snapshots.append(profile.copy())
        return np.asarray(snapshots, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoundRobinLogitDynamics(game={self.game!r}, beta={self.beta})"
