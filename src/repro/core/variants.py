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
* :class:`ConcurrentLogitDynamics` — each player updates independently with
  probability ``p`` per step (arXiv 1207.2908); the parallel dynamics is
  its ``p = 1`` case, and is implemented as exactly that subclass.
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

Every variant is a kernel (who moves) over one rule contract (how a mover
picks): :class:`~repro.core.logit.UtilityRule` turns the mover's utilities
into her move distribution through one hook, ``move_probabilities``.  The
logit families share the softmax of :class:`~repro.core.logit.LogitRule`,
best response supplies uniform-over-argmax through the same hook, and the
annealed schedule hands its kernel the fixed-``beta`` rule of each step
(:meth:`AnnealedLogitDynamics.rule_at`).  Monte-Carlo paths run on the
batched engine (:mod:`repro.engine`) — ``simulate`` / ``ensemble`` /
``simulate_hitting_time`` — while the scalar ``simulate_loop`` methods
remain as the pure-Python references the engine is cross-validated against
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
    check_update_probability,
)
from ..engine.sampling import sample_inverse_cdf
from ..games.base import Game
from ..markov.chain import MarkovChain, check_count
from .logit import (
    EngineBackedDynamics,
    LogitDynamics,
    LogitRule,
    UtilityRule,
    sequential_loop,
)

__all__ = [
    "EngineBackedDynamics",
    "ParallelLogitDynamics",
    "ConcurrentLogitDynamics",
    "BestResponseDynamics",
    "AnnealedLogitDynamics",
    "RoundRobinLogitDynamics",
]


class ConcurrentLogitDynamics(LogitRule, EngineBackedDynamics):
    """Each player independently revises with probability ``p`` per step.

    The probabilistic-schedule ("all-logit") dynamics of the concurrent-
    update follow-up work (arXiv 1207.2908): one step from profile ``x``
    flips an independent ``p``-coin per player, and every selected player
    draws a new strategy from her logit rule ``sigma_i(. | x)`` *against
    the common pre-step profile* — all moves land at once, so transition
    probabilities factorise as
    ``P(x, y) = prod_i [p sigma_i(y_i | x) + (1 - p) 1{y_i = x_i}]``, a
    dense matrix: the exact machinery is for small games only.

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
        self._p = check_update_probability(p)
        super().__init__(game, beta)

    @property
    def p(self) -> float:
        """The update probability; read-only, as the cached matrix derives from it."""
        return self._p

    # -- update rule (the engine's rule contract) --------------------------

    def update_distribution(self, profile_index: int, player: int) -> np.ndarray:
        """Per-player logit update distribution (conditional on updating)."""
        return self.update_distribution_by_index(profile_index, player)

    # (batched update_distribution_many / player_update_matrix: LogitRule)

    def kernel(self) -> ProbabilisticKernel:
        """Probabilistic-schedule kernel over this logit rule."""
        return ProbabilisticKernel(self, p=self.p)

    # -- exact machinery (small games) -------------------------------------

    def transition_matrix(self) -> np.ndarray:
        """Dense ``P(x, y) = prod_i [p sigma_i(y_i | x) + (1-p) 1{y_i = x_i}]``."""

        def build() -> np.ndarray:
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
            return P

        return self._cached("matrix", build)

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
        num_steps = check_count(num_steps, "num_steps", minimum=0)
        record_every = check_count(record_every, "record_every")
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


class ParallelLogitDynamics(ConcurrentLogitDynamics):
    """All players revise simultaneously, each with the logit rule.

    One step from profile ``x`` draws, independently for every player ``i``,
    a new strategy from ``sigma_i(. | x)``; the next profile is the vector
    of draws, so ``P(x, y) = prod_i sigma_i(y_i | x)``.  This is the
    ``p = 1`` case of :class:`ConcurrentLogitDynamics`, which supplies the
    exact machinery and the scalar reference loop; only the kernel's name
    differs (:class:`~repro.engine.kernels.ParallelKernel`, whose seeded
    counterpart is :class:`~repro.engine.kernels.SeededParallelKernel`).

    >>> import networkx as nx
    >>> import numpy as np
    >>> from repro.games import IsingGame
    >>> game = IsingGame(nx.cycle_graph(3), coupling=1.0, field=0.2)
    >>> parallel = ParallelLogitDynamics(game, 0.7)
    >>> isinstance(parallel, ConcurrentLogitDynamics)
    True
    >>> concurrent = ConcurrentLogitDynamics(game, 0.7, p=1.0)
    >>> np.array_equal(parallel.transition_matrix(), concurrent.transition_matrix())
    True
    """

    def __init__(self, game: Game, beta: float):
        super().__init__(game, beta, p=1.0)

    def kernel(self) -> ParallelKernel:
        """Simultaneous-update kernel over this logit rule."""
        return ParallelKernel(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelLogitDynamics(game={self.game!r}, beta={self.beta})"


class BestResponseDynamics(UtilityRule, EngineBackedDynamics):
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
        tie_tolerance = float(tie_tolerance)
        # a negative or NaN tolerance marks no strategy as a best response,
        # so every row would be 0/0 = NaN and the engine would silently
        # move every mover to strategy 0; an infinite one marks them all
        if not (np.isfinite(tie_tolerance) and tie_tolerance >= 0):
            raise ValueError(
                f"tie_tolerance must be finite and >= 0, got {tie_tolerance}"
            )
        self.game = game
        self._tie_tolerance = tie_tolerance

    @property
    def tie_tolerance(self) -> float:
        """The best-response tie tolerance; read-only, as cached tables derive from it."""
        return self._tie_tolerance

    # -- update rule (the engine's rule contract) --------------------------

    def move_probabilities(self, utilities: np.ndarray) -> np.ndarray:
        """Uniform-over-argmax rows for utilities of any (row-major) shape."""
        utilities = np.asarray(utilities, dtype=float)
        best = utilities >= np.max(utilities, axis=-1, keepdims=True) - self._tie_tolerance
        probs = best.astype(float)
        return probs / probs.sum(axis=-1, keepdims=True)

    def update_distribution(self, profile_index: int, player: int) -> np.ndarray:
        """Uniform distribution over the player's best responses."""
        return self.update_distribution_by_index(profile_index, player)

    # (batched update_distribution_many / player_update_matrix: UtilityRule)

    def kernel(self) -> SequentialKernel:
        """Sequential kernel over the best-response rule."""
        return SequentialKernel(self)

    # -- exact machinery (small games) -------------------------------------

    def transition_matrix(self) -> np.ndarray:
        """Dense transition matrix of the (sequential) best-response chain."""
        return self._sequential_matrix()

    def markov_chain(self) -> MarkovChain:
        """The best-response chain (may be non-ergodic; absorbing at strict PNE)."""
        return MarkovChain(self.transition_matrix())

    # -- simulation ---------------------------------------------------------

    def simulate_loop(
        self,
        start: Sequence[int] | np.ndarray,
        num_steps: int,
        rng: np.random.Generator | None = None,
        record_every: int = 1,
    ) -> np.ndarray:
        """Scalar pure-Python reference implementation of :meth:`simulate`.

        The shared sequential reference loop
        (:func:`repro.core.logit.sequential_loop`) under this rule.
        """
        return sequential_loop(
            self.game.space, lambda t: self, start, num_steps, rng, record_every
        )

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

    def rule_at(self, step: int) -> LogitDynamics:
        """The fixed-``beta`` logit rule in force at the given step."""
        return LogitDynamics(self.game, self.beta_at(step))

    def kernel(self) -> AnnealedKernel:
        """Time-inhomogeneous sequential kernel following this schedule."""
        return AnnealedKernel(self)

    # -- exact machinery (small games) -------------------------------------

    def transition_matrix_at(self, step: int) -> np.ndarray:
        """The one-step transition matrix in force at the given step."""
        return self.rule_at(step).transition_matrix()

    def evolve_distribution(self, distribution: np.ndarray, num_steps: int) -> np.ndarray:
        """Exact distribution after ``num_steps`` annealed updates."""
        mu = np.asarray(distribution, dtype=float)
        if mu.shape != (self.game.space.size,):
            raise ValueError("distribution has wrong length")
        num_steps = check_count(num_steps, "num_steps", minimum=0)
        self.validate_horizon(0, num_steps)
        for t in range(num_steps):
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

        The shared sequential reference loop
        (:func:`repro.core.logit.sequential_loop`) under the rule of each
        step; a finite schedule shorter than the run raises first.
        """
        num_steps = check_count(num_steps, "num_steps", minimum=0)
        self.validate_horizon(0, num_steps)
        return sequential_loop(
            self.game.space, self.rule_at, start, num_steps, rng, record_every
        )

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
        num_steps = check_count(num_steps, "num_steps", minimum=0)
        record_every = check_count(record_every, "record_every")
        space = self.game.space
        profile = np.asarray(start, dtype=np.int64).copy()
        if profile.shape != (space.num_players,):
            raise ValueError("start profile has wrong length")
        snapshots = [profile.copy()]
        for t in range(num_steps):
            player = t % space.num_players
            utilities = self.game.utility_deviations(player, space.encode(profile))
            probs = self.move_probabilities(utilities)
            profile[player] = sample_inverse_cdf(probs, float(rng.random()))
            if (t + 1) % record_every == 0:
                snapshots.append(profile.copy())
        return np.asarray(snapshots, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoundRobinLogitDynamics(game={self.game!r}, beta={self.beta})"
