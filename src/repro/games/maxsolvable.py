"""Max-solvable games (Nisan, Schapira, Zohar — cited at the end of Section 4).

A game is *max-solvable* if iteratively deleting, for some player, every
strategy that is never a strict-best response to any remaining opponents'
sub-profile eventually leaves a single profile.  Games with dominant
strategies are the special case in which every player can be reduced in one
round.  The paper remarks (without proof) that the Theorem 4.2 technique
extends to max-solvable games with a mixing-time bound independent of beta.

This module provides

* :func:`never_best_response_strategies` — the per-player deletion step;
* :func:`max_solve` — the full iterated elimination procedure, returning the
  elimination order and the surviving strategy sets;
* :class:`MaxSolvableResult` — a record of the elimination run; its
  ``solvable`` flag says whether a single profile survives.

The elimination procedure used here deletes strategies that are never a
*weak* best response (never attain the maximum utility against any
surviving opponents' sub-profile), which keeps the procedure well-defined on
games with ties; on generic games the two notions coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .base import Game

__all__ = [
    "never_best_response_strategies",
    "max_solve",
    "MaxSolvableResult",
]


def _opponent_subprofiles(surviving: list[list[int]], player: int):
    """Iterate over all opponents' sub-profiles drawn from the surviving sets."""
    others = [surviving[j] for j in range(len(surviving)) if j != player]
    for combo in product(*others):
        full = list(combo)
        full.insert(player, 0)  # placeholder for the player's own entry
        yield full


def never_best_response_strategies(
    game: Game, surviving: list[list[int]], player: int, tol: float = 1e-12
) -> list[int]:
    """Strategies of ``player`` (among her surviving ones) that are never a best response.

    A strategy survives this check if there exists at least one surviving
    opponents' sub-profile against which it attains the maximum utility
    among the player's surviving strategies.
    """
    mine = surviving[player]
    if len(mine) <= 1:
        return []
    ever_best = {s: False for s in mine}
    space = game.space
    for template in _opponent_subprofiles(surviving, player):
        utilities = []
        for s in mine:
            template[player] = s
            utilities.append(game.utility(player, space.encode(template)))
        best = max(utilities)
        for s, u in zip(mine, utilities):
            if u >= best - tol:
                ever_best[s] = True
    return [s for s in mine if not ever_best[s]]


@dataclass(frozen=True)
class MaxSolvableResult:
    """Outcome of the iterated elimination of never-best-response strategies."""

    solvable: bool
    surviving: tuple[tuple[int, ...], ...]
    elimination_order: tuple[tuple[int, int], ...]  # (player, strategy) pairs


def max_solve(game: Game, tol: float = 1e-12, max_rounds: int | None = None) -> MaxSolvableResult:
    """Run iterated elimination of never-best-response strategies to a fixed point."""
    surviving: list[list[int]] = [list(range(m)) for m in game.num_strategies]
    eliminated: list[tuple[int, int]] = []
    rounds = 0
    limit = max_rounds if max_rounds is not None else sum(game.num_strategies) + 1
    while rounds < limit:
        rounds += 1
        progress = False
        for player in range(game.num_players):
            removable = never_best_response_strategies(game, surviving, player, tol=tol)
            if removable:
                progress = True
                for s in removable:
                    surviving[player].remove(s)
                    eliminated.append((player, s))
        if not progress:
            break
    solvable = all(len(s) == 1 for s in surviving)
    return MaxSolvableResult(
        solvable=solvable,
        surviving=tuple(tuple(s) for s in surviving),
        elimination_order=tuple(eliminated),
    )
