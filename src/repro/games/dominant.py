"""Games with dominant strategies (Section 4 of the paper).

A strategy ``s`` of player ``i`` is *dominant* if it maximises her utility
against every strategy sub-profile of the opponents.  A *dominant profile*
is a profile in which every player plays a dominant strategy.  Theorem 4.2
shows that for such games the mixing time of the logit dynamics is
``O(m^n n log n)`` — crucially *independent of beta* — and Theorem 4.3
exhibits a matching family whose mixing time is ``Omega(m^{n-1})``.

This module provides:

* :func:`dominant_profile` / :func:`dominant_strategies` — detection on
  arbitrary games;
* :class:`AnonymousDominantGame` — the Theorem 4.3 construction
  (``u_i(x) = 0`` if ``x = 0`` and ``-1`` otherwise), which is
  simultaneously a potential game and a dominant-strategy game;
* :func:`random_dominant_game` — a generator of random games that are
  guaranteed to have a dominant profile, used to fuzz Theorem 4.2.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import Game, TableGame
from .potential import PotentialGame
from .space import ProfileSpace

__all__ = [
    "dominant_strategies",
    "dominant_profile",
    "AnonymousDominantGame",
    "random_dominant_game",
]


def dominant_strategies(game: Game, player: int, tol: float = 1e-12) -> list[int]:
    """Strategies of ``player`` that are (weakly) dominant.

    A strategy ``s`` is weakly dominant if ``u_i(s, x_-i) >= u_i(s', x_-i)``
    for every alternative ``s'`` and every opponent sub-profile ``x_-i``.
    The check enumerates the opponents' sub-profiles through the full
    profile space, so it is exhaustive but only suitable for tabulated games.
    """
    space = game.space
    m = space.num_strategies[player]
    utils = game.utility_matrix(player)
    devs = space.deviation_matrix(player)  # (|S|, m)
    # Row x of `by_strategy` holds u_i over player i's strategies with the
    # opponents fixed as in x; rows with the same opponents repeat m times,
    # which does not affect the domination check.
    by_strategy = utils[devs]
    best = np.max(by_strategy, axis=1)
    dominant = []
    for s in range(m):
        if np.all(by_strategy[:, s] >= best - tol):
            dominant.append(s)
    return dominant


def dominant_profile(game: Game, tol: float = 1e-12) -> tuple[int, ...] | None:
    """A dominant profile of the game, or ``None`` if some player lacks one."""
    choice = []
    for player in range(game.num_players):
        doms = dominant_strategies(game, player, tol=tol)
        if not doms:
            return None
        choice.append(doms[0])
    return tuple(choice)


class AnonymousDominantGame(TableGame, PotentialGame):
    """The Theorem 4.3 lower-bound game.

    ``n`` players, strategies ``{0, ..., m-1}``, and every player has
    utility ``0`` at the all-zero profile and ``-1`` everywhere else.
    Strategy 0 is dominant for everyone, the game is a potential game with
    ``Phi(x) = -u_i(x)`` (i.e. ``Phi(0) = 0`` and ``Phi(x) = 1`` otherwise),
    and the bottleneck argument of Theorem 4.3 gives
    ``t_mix = Omega((m^n - 1)/(m - 1))`` for ``beta > log(m^n - 1)``.
    """

    def __init__(self, num_players: int, num_strategies_per_player: int = 2):
        if num_players < 1:
            raise ValueError("need at least one player")
        if num_strategies_per_player < 2:
            raise ValueError("need at least two strategies per player")
        shape = (num_strategies_per_player,) * num_players
        space = ProfileSpace(shape)
        phi = np.ones(space.size, dtype=float)
        phi[space.encode((0,) * num_players)] = 0.0
        utilities = np.tile(-phi, (num_players, 1))
        TableGame.__init__(self, shape, utilities)
        self._phi = phi

    def potential_vector(self) -> np.ndarray:
        return self._phi.copy()

    def mixing_time_lower_bound(self) -> float:
        """The ``(m^n - 1)/(4(m - 1))`` lower bound from Theorem 4.3."""
        m = self.max_strategies
        n = self.num_players
        return (m**n - 1) / (4.0 * (m - 1))


def random_dominant_game(
    num_strategies: Sequence[int],
    rng: np.random.Generator | None = None,
    advantage: float = 1.0,
) -> TableGame:
    """A random game in which strategy 0 is strictly dominant for everyone.

    Utilities are i.i.d. uniform on ``[0, 1)``; then for every player the
    utility of playing strategy 0 is lifted by ``advantage`` above the
    maximum utility of her alternatives against the same opponents, which
    makes 0 strictly dominant while keeping the rest of the game arbitrary.
    """
    rng = np.random.default_rng() if rng is None else rng
    space = ProfileSpace(num_strategies)
    utilities = rng.uniform(0.0, 1.0, size=(space.num_players, space.size))
    for player in range(space.num_players):
        devs = space.deviation_matrix(player)
        others = utilities[player][devs[:, 1:]]
        best_other = np.max(others, axis=1)
        zero_profiles = devs[:, 0]
        # lift u_i(0, x_-i) above every alternative for the same opponents
        utilities[player, zero_profiles] = np.maximum(
            utilities[player, zero_profiles], best_other + advantage
        )
    return TableGame(num_strategies, utilities)
