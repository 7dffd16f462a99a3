"""Potential-game constructions used in the paper's lower bounds.

Three families are implemented:

* :func:`theorem35_potential` / :class:`Theorem35Game` — the family of
  Theorem 3.5: on ``{0, 1}^n``, ``Phi_n(x) = -l * min(c, |c - w(x)|)`` with
  ``c = g / l`` (``g`` = desired maximum global variation, ``l`` = desired
  maximum local variation, ``w(x)`` = number of ones).  The chain must cross
  the high-potential ridge ``w(x) = c`` to move between the two wells, which
  yields the ``e^{beta * DeltaPhi (1 - o(1))}`` lower bound.
* :class:`TwoWellGame` — the warm-up example preceding Theorem 3.5:
  ``Phi(0) = Phi(1) = 0`` and ``Phi(x) = L`` elsewhere, whose mixing time is
  ``Omega(e^{beta L})`` by a bottleneck argument.
* :class:`BirthDeathPotentialGame` — a single-player (or "anonymous spin")
  potential game whose potential depends only on the Hamming weight, handy
  for controlled experiments on the barrier quantity ``zeta`` (Theorems 3.8
  and 3.9).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .potential import ExplicitPotentialGame
from .space import ProfileSpace

__all__ = [
    "theorem35_potential",
    "Theorem35Game",
    "TwoWellGame",
    "BirthDeathPotentialGame",
]


def theorem35_potential(
    num_players: int, global_variation: float, local_variation: float
) -> np.ndarray:
    """The potential vector of Theorem 3.5 on ``{0, 1}^num_players``.

    Parameters
    ----------
    num_players:
        ``n`` — the number of players (binary strategies).
    global_variation:
        ``g_n`` — the desired ``DeltaPhi``.
    local_variation:
        ``l_n`` — the desired ``deltaPhi``; the paper requires
        ``2 g_n / n <= l_n <= g_n`` so that ``c = g_n / l_n <= n / 2``.

    Returns
    -------
    numpy.ndarray
        The ``(2^n,)`` potential ``Phi(x) = -l * min(c, |c - w(x)|)``.
    """
    if num_players < 2:
        raise ValueError("Theorem 3.5 construction needs at least 2 players")
    g = float(global_variation)
    l = float(local_variation)
    if g <= 0 or l <= 0:
        raise ValueError("variations must be positive")
    if not (2.0 * g / num_players - 1e-12 <= l <= g + 1e-12):
        raise ValueError(
            "Theorem 3.5 requires 2*g/n <= l <= g; "
            f"got g={g}, l={l}, n={num_players}"
        )
    c = g / l
    space = ProfileSpace((2,) * num_players)
    w = space.weight(np.arange(space.size))
    return -l * np.minimum(c, np.abs(c - w))


class Theorem35Game(ExplicitPotentialGame):
    """Potential game realising the Theorem 3.5 lower-bound potential."""

    def __init__(self, num_players: int, global_variation: float, local_variation: float):
        phi = theorem35_potential(num_players, global_variation, local_variation)
        space_shape = (2,) * num_players
        utilities = np.tile(-phi, (num_players, 1))
        super().__init__(space_shape, utilities, phi)
        self.global_variation = float(global_variation)
        self.local_variation = float(local_variation)
        self.ridge_weight = global_variation / local_variation

    def bottleneck_set(self) -> np.ndarray:
        """The set ``R = { x : w(x) < c }`` used in the proof of Theorem 3.5."""
        w = self.space.weight(np.arange(self.space.size))
        return np.flatnonzero(w < self.ridge_weight)


class TwoWellGame(ExplicitPotentialGame):
    """Two potential wells at ``0`` and ``1`` separated by a flat ridge.

    ``Phi(0) = Phi(1) = 0`` and ``Phi(x) = barrier`` for every other
    profile.  Here ``DeltaPhi = deltaPhi = zeta = barrier`` and the mixing
    time grows as ``e^{beta * barrier}`` — the motivating example before
    Theorem 3.5 in the paper.
    """

    def __init__(self, num_players: int, barrier: float = 1.0, depth_ratio: float = 1.0):
        if num_players < 2:
            raise ValueError("need at least two players for two distinct wells")
        if barrier <= 0:
            raise ValueError("barrier must be positive")
        if not 0 < depth_ratio <= 1:
            raise ValueError("depth_ratio must lie in (0, 1]")
        space_shape = (2,) * num_players
        space = ProfileSpace(space_shape)
        phi = np.full(space.size, float(barrier))
        all0 = space.encode((0,) * num_players)
        all1 = space.encode((1,) * num_players)
        phi[all0] = 0.0
        # depth_ratio < 1 makes the second well shallower, which breaks the
        # symmetry between the two wells and lets experiments separate
        # DeltaPhi from zeta (zeta = barrier - (1 - depth_ratio) * barrier).
        phi[all1] = (1.0 - depth_ratio) * barrier
        utilities = np.tile(-phi, (num_players, 1))
        super().__init__(space_shape, utilities, phi)
        self.barrier = float(barrier)
        self.depth_ratio = float(depth_ratio)
        self.well_indices = (all0, all1)


class BirthDeathPotentialGame(ExplicitPotentialGame):
    """Binary-strategy potential game with ``Phi(x) = f(w(x))``.

    ``weight_potential`` is either a sequence of length ``n + 1`` or a
    callable on ``{0, ..., n}``.  All the "anonymous" constructions of the
    paper (Theorem 3.5, the clique coordination game of Section 5.2, the
    Curie–Weiss / mean-field Ising model) are of this form.  The levels
    ``f(0), ..., f(n)`` are kept as ``weight_levels``, which several
    benchmarks report.
    """

    def __init__(self, num_players: int, weight_potential: Sequence[float] | Callable[[int], float]):
        if callable(weight_potential):
            levels = np.array([weight_potential(k) for k in range(num_players + 1)], dtype=float)
        else:
            levels = np.array(weight_potential, dtype=float)
            if levels.shape != (num_players + 1,):
                raise ValueError(
                    f"weight_potential must have length {num_players + 1}, got {levels.shape}"
                )
        space = ProfileSpace((2,) * num_players)
        phi = levels[space.weight(np.arange(space.size))]
        super().__init__(space.num_strategies, np.tile(-phi, (num_players, 1)), phi)
        self.weight_levels = levels
