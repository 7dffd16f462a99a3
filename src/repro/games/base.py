"""Strategic-game base classes.

The paper works with finite strategic games ``G = (N, (S_i), (u_i))``: a
finite set of players, a finite strategy set per player, and a utility
function per player mapping profiles to reals.  The classes here give the
package a uniform, array-oriented representation:

* :class:`Game` — the abstract interface every game implements.  The key
  method is :meth:`Game.utility_deviations`, which returns, for a profile
  ``x`` and a player ``i``, the vector ``(u_i(s, x_-i))_{s in S_i}``; this
  is exactly what the logit update rule (Equation 2 of the paper) needs.
* :class:`TableGame` — a dense normal-form game backed by per-player
  utility tensors, convenient for small examples and for random games.
* :class:`NormalFormGame` — alias of :class:`TableGame` with a
  two-player-friendly constructor.

All games expose a :class:`~repro.games.space.ProfileSpace` so downstream
code (transition matrices, stationary distributions, mixing measurement)
can operate on flat profile indices with vectorised numpy.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from .space import ProfileSpace

__all__ = [
    "Game",
    "TableGame",
    "NormalFormGame",
    "random_game",
]


class Game(abc.ABC):
    """Abstract finite strategic game.

    Subclasses must provide :attr:`space` and :meth:`utility`.  The default
    implementations of the bulk methods (:meth:`utility_deviations`,
    :meth:`utility_matrix`) fall back to per-profile calls; performance
    sensitive subclasses override them with vectorised versions.
    """

    #: Profile space of the game (set by subclasses).
    space: ProfileSpace

    @property
    def num_players(self) -> int:
        """Number of players."""
        return self.space.num_players

    @property
    def num_strategies(self) -> tuple[int, ...]:
        """Tuple ``(m_1, ..., m_n)`` of per-player strategy counts."""
        return self.space.num_strategies

    @property
    def max_strategies(self) -> int:
        """``m`` — maximum number of strategies of any player."""
        return self.space.max_strategies

    # -- core interface ---------------------------------------------------

    @abc.abstractmethod
    def utility(self, player: int, profile_index: int) -> float:
        """Utility ``u_player(x)`` of the profile with the given index."""

    def utility_deviations(self, player: int, profile_index: int) -> np.ndarray:
        """Vector ``(u_player(s, x_-i))_s`` over the player's strategies."""
        devs = self.space.deviations(profile_index, player)
        return np.array([self.utility(player, int(d)) for d in devs], dtype=float)

    def utility_deviations_many(
        self, player: int, profile_indices: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`utility_deviations`: ``(k, m_player)`` utilities.

        Row ``j`` is ``(u_player(s, x_-i))_s`` for the profile
        ``profile_indices[j]``.  This is the hot call of the batched
        simulation engine (:mod:`repro.engine`): the generic fallback loops
        over the batch, performance-sensitive subclasses override it with a
        single vectorised gather.
        """
        idx = np.asarray(profile_indices, dtype=np.int64)
        m = self.space.num_strategies[player]
        if idx.size == 0:
            return np.empty((0, m), dtype=float)
        return np.stack(
            [self.utility_deviations(player, int(x)) for x in idx], axis=0
        )

    def utility_deviations_profiles(
        self, player: int, profiles: np.ndarray
    ) -> np.ndarray:
        """Deviation utilities from ``(k, n)`` strategy-profile rows.

        Row ``j`` is ``(u_player(s, x_-i))_s`` for the profile given by the
        strategy row ``profiles[j]`` — the index-free counterpart of
        :meth:`utility_deviations_many` and the hot call of the engine's
        matrix state backend.  The generic fallback encodes the rows to
        profile indices, which requires the space to fit in int64; games
        meant to run past that ceiling override this with a direct
        computation (:class:`repro.games.local.LocalInteractionGame`
        computes it from neighbor strategies only, in ``O(deg)`` per row).
        """
        arr = np.asarray(profiles)
        if arr.ndim != 2 or arr.shape[1] != self.space.num_players:
            raise ValueError(
                f"profiles must have shape (k, {self.space.num_players}), "
                f"got {arr.shape}"
            )
        if not self.space.fits_int64:
            raise ValueError(
                f"the generic utility_deviations_profiles fallback encodes "
                f"profile rows to indices, but the profile space has "
                f"more than 2**63 profiles (beyond int64); "
                f"{type(self).__name__} must override "
                f"utility_deviations_profiles with an index-free computation "
                f"to simulate at this size (see "
                f"repro.games.local.LocalInteractionGame)"
            )
        idx = self.space.encode_many(arr.astype(np.int64, copy=False))
        return self.utility_deviations_many(player, idx)

    def utility_matrix(self, player: int) -> np.ndarray:
        """Full utility vector of ``player`` indexed by profile index."""
        return np.array(
            [self.utility(player, x) for x in range(self.space.size)], dtype=float
        )

    def utility_profile_many(self, profile_indices: np.ndarray) -> np.ndarray:
        """Batched all-player utilities: ``(k, n)`` for ``k`` profile indices.

        Row ``j`` is ``(u_1(x_j), ..., u_n(x_j))`` — what ensemble-level
        welfare measurements need for the current state of every replica.
        The generic fallback loops over the batch; :class:`TableGame` does
        it with one fancy-indexed gather.
        """
        idx = np.asarray(profile_indices, dtype=np.int64)
        n = self.num_players
        if idx.size == 0:
            return np.empty((0, n), dtype=float)
        return np.array(
            [[self.utility(i, int(x)) for i in range(n)] for x in idx], dtype=float
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(players={self.num_players}, strategies={self.num_strategies})"


class TableGame(Game):
    """Normal-form game stored as dense per-player utility arrays.

    Parameters
    ----------
    num_strategies:
        Per-player strategy counts, or an existing :class:`ProfileSpace`
        (reused as-is, so subclasses that already built one for tabulation
        don't construct a second identical space).
    utilities:
        Array of shape ``(n, |S|)``; ``utilities[i, x]`` is ``u_i`` at the
        profile with index ``x`` (see :class:`~repro.games.space.ProfileSpace`
        for the indexing convention).
    """

    def __init__(self, num_strategies: Sequence[int] | ProfileSpace, utilities: np.ndarray):
        if isinstance(num_strategies, ProfileSpace):
            self.space = num_strategies
        else:
            self.space = ProfileSpace(num_strategies)
        utilities = np.asarray(utilities, dtype=float)
        expected = (self.space.num_players, self.space.size)
        if utilities.shape != expected:
            raise ValueError(
                f"utilities must have shape {expected}, got {utilities.shape}"
            )
        if not np.all(np.isfinite(utilities)):
            raise ValueError("utilities must be finite")
        self._utilities = utilities

    def utility(self, player: int, profile_index: int) -> float:
        return float(self._utilities[player, profile_index])

    def utility_matrix(self, player: int) -> np.ndarray:
        return self._utilities[player].copy()

    def utility_deviations(self, player: int, profile_index: int) -> np.ndarray:
        devs = self.space.deviations(profile_index, player)
        return self._utilities[player, devs]

    def utility_deviations_many(
        self, player: int, profile_indices: np.ndarray
    ) -> np.ndarray:
        # One fancy-indexed gather for the whole batch: (k, m_player).
        devs = self.space.deviations_many(profile_indices, player)
        return self._utilities[player, devs]

    def utility_profile_many(self, profile_indices: np.ndarray) -> np.ndarray:
        # One transposed gather for the whole batch: (k, n).
        idx = np.asarray(profile_indices, dtype=np.int64)
        return self._utilities[:, idx].T.copy()

    @property
    def utilities(self) -> np.ndarray:
        """The full ``(n, |S|)`` utility array (read-only view)."""
        view = self._utilities.view()
        view.flags.writeable = False
        return view

    def store_spec(self) -> dict:
        """Content identity for :func:`repro.parallel.describe`.

        The class, the strategy counts and the *full utility content*
        (digested when large) — two tabulated games hash identically iff
        they are the same game, which is what the experiment store keys
        on.  ``__repr__`` is cosmetic and deliberately not used.
        """
        return {
            "class": type(self).__qualname__,
            "num_strategies": list(self.space.num_strategies),
            "utilities": self._utilities,
        }


class NormalFormGame(TableGame):
    """Two-player normal-form game built from a pair of payoff matrices.

    ``payoff_row[a, b]`` is the row player's utility when the row player
    plays ``a`` and the column player plays ``b``; ``payoff_col[a, b]`` is
    the column player's.  Player 0 is the row player.
    """

    def __init__(self, payoff_row: np.ndarray, payoff_col: np.ndarray):
        payoff_row = np.asarray(payoff_row, dtype=float)
        payoff_col = np.asarray(payoff_col, dtype=float)
        if payoff_row.shape != payoff_col.shape or payoff_row.ndim != 2:
            raise ValueError("payoff matrices must be 2-D and of identical shape")
        m_row, m_col = payoff_row.shape
        space = ProfileSpace((m_row, m_col))
        utilities = np.empty((2, space.size), dtype=float)
        for x in range(space.size):
            a, b = space.decode(x)
            utilities[0, x] = payoff_row[a, b]
            utilities[1, x] = payoff_col[a, b]
        super().__init__((m_row, m_col), utilities)
        self.payoff_row = payoff_row.copy()
        self.payoff_col = payoff_col.copy()


def random_game(
    num_strategies: Sequence[int],
    rng: np.random.Generator | None = None,
    low: float = -1.0,
    high: float = 1.0,
) -> TableGame:
    """A game with i.i.d. uniform utilities — useful for fuzzing the toolkit."""
    rng = np.random.default_rng() if rng is None else rng
    space = ProfileSpace(num_strategies)
    utilities = rng.uniform(low, high, size=(space.num_players, space.size))
    return TableGame(num_strategies, utilities)
