"""Coordination games and graphical coordination games (Section 5).

The basic 2x2 coordination game of Equation (10) of the paper::

            0         1
      0   a, a      c, d
      1   d, c      b, b

with ``delta0 = a - d > 0`` and ``delta1 = b - c > 0`` so that both
``(0, 0)`` and ``(1, 1)`` are pure Nash equilibria.  If ``delta0 > delta1``
then ``(0, 0)`` is the *risk dominant* equilibrium, if ``delta0 < delta1``
then ``(1, 1)`` is, and if ``delta0 == delta1`` the game has no risk
dominant equilibrium (this last case is the Ising model).  The basic game
is a potential game with edge potential::

    phi(0, 0) = -delta0,  phi(1, 1) = -delta1,  phi(0, 1) = phi(1, 0) = 0.

A *graphical* coordination game puts ``n`` players on a social graph
``G = (V, E)``; every player picks one strategy which she plays against all
her neighbors, her utility is the sum over incident edges, and the game is
a potential game whose potential is the sum of edge potentials.  The
mixing-time of the logit dynamics for these games is the subject of
Section 5 of the paper (arbitrary graphs via the cutwidth, the clique, and
the ring).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from .potential import ExplicitPotentialGame
from .space import ProfileSpace

__all__ = [
    "CoordinationParams",
    "basic_coordination_payoffs",
    "TwoPlayerCoordinationGame",
    "GraphicalCoordinationGame",
]


@dataclass(frozen=True)
class CoordinationParams:
    """Payoff parameters ``(a, b, c, d)`` of the basic coordination game.

    The derived quantities ``delta0 = a - d`` and ``delta1 = b - c`` are the
    only ones the paper's bounds depend on.
    """

    a: float
    b: float
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self) -> None:
        if self.delta0 <= 0 or self.delta1 <= 0:
            raise ValueError(
                "coordination game requires delta0 = a - d > 0 and delta1 = b - c > 0; "
                f"got delta0={self.delta0}, delta1={self.delta1}"
            )

    @property
    def delta0(self) -> float:
        """Advantage of coordinating on strategy 0: ``a - d``."""
        return self.a - self.d

    @property
    def delta1(self) -> float:
        """Advantage of coordinating on strategy 1: ``b - c``."""
        return self.b - self.c

    @classmethod
    def from_deltas(cls, delta0: float, delta1: float) -> "CoordinationParams":
        """Convenience constructor fixing ``c = d = 0``."""
        return cls(a=delta0, b=delta1, c=0.0, d=0.0)

    @classmethod
    def ising(cls, delta: float = 1.0) -> "CoordinationParams":
        """The symmetric (no risk dominant equilibrium) case ``delta0 = delta1``."""
        return cls.from_deltas(delta, delta)

    def edge_potential(self, s_u: int, s_v: int) -> float:
        """Edge potential ``phi`` of the basic game (paper, Section 5)."""
        if s_u == s_v == 0:
            return -self.delta0
        if s_u == s_v == 1:
            return -self.delta1
        return 0.0


def basic_coordination_payoffs(params: CoordinationParams) -> tuple[np.ndarray, np.ndarray]:
    """Row/column payoff matrices of the basic 2x2 coordination game."""
    row = np.array([[params.a, params.c], [params.d, params.b]], dtype=float)
    col = np.array([[params.a, params.d], [params.c, params.b]], dtype=float)
    return row, col


class TwoPlayerCoordinationGame(ExplicitPotentialGame):
    """The basic two-player coordination game of Equation (10).

    Backed by :class:`~repro.games.potential.ExplicitPotentialGame`, so the
    dense utility storage, the potential accessors and the batched
    ``utility_deviations_many`` fast path are all inherited.
    """

    def __init__(self, params: CoordinationParams):
        self.params = params
        space = ProfileSpace((2, 2))
        row, col = basic_coordination_payoffs(params)
        utilities = np.empty((2, 4), dtype=float)
        phi = np.empty(4, dtype=float)
        for x in range(4):
            s0, s1 = space.decode(x)
            utilities[0, x] = row[s0, s1]
            utilities[1, x] = col[s0, s1]
            phi[x] = params.edge_potential(s0, s1)
        super().__init__(space, utilities, phi)


class GraphicalCoordinationGame(ExplicitPotentialGame):
    """Graphical coordination game on an arbitrary social graph.

    Parameters
    ----------
    graph:
        The social graph; nodes are relabelled to ``0..n-1`` in sorted order
        and become the players.
    params:
        Payoffs of the basic coordination game played on every edge.

    Notes
    -----
    Utilities and the potential are computed *vectorised over the whole
    profile space*: for each edge ``(u, v)`` we extract the two strategy
    columns from the decoded profile array and accumulate the edge payoff /
    edge potential, so building a game on ``2^n`` profiles costs
    ``O(|E| * 2^n)`` numpy work with no per-profile Python loop.
    """

    def __init__(self, graph: nx.Graph, params: CoordinationParams):
        if graph.number_of_nodes() == 0:
            raise ValueError("the social graph must have at least one node")
        self.params = params
        nodes = sorted(graph.nodes())
        self._node_index = {node: i for i, node in enumerate(nodes)}
        self.graph = nx.relabel_nodes(graph, self._node_index, copy=True)
        n = self.graph.number_of_nodes()
        space = ProfileSpace((2,) * n)

        profiles = space.all_profiles()  # (|S|, n) of 0/1
        utilities = np.zeros((n, space.size), dtype=float)
        phi = np.zeros(space.size, dtype=float)
        row, _ = basic_coordination_payoffs(params)
        for u, v in self.graph.edges():
            su = profiles[:, u]
            sv = profiles[:, v]
            # payoff of the basic game for each endpoint, for every profile
            utilities[u] += row[su, sv]
            utilities[v] += row[sv, su]
            both0 = (su == 0) & (sv == 0)
            both1 = (su == 1) & (sv == 1)
            phi -= params.delta0 * both0 + params.delta1 * both1
        super().__init__(space, utilities, phi)

    # -- paper-specific structure -----------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of edges of the social graph."""
        return self.graph.number_of_edges()

    def consensus_profiles(self) -> tuple[int, int]:
        """Indices of the all-0 and all-1 profiles (the two consensus PNE)."""
        n = self.num_players
        return self.space.encode((0,) * n), self.space.encode((1,) * n)

    def potential_by_ones_count(self) -> np.ndarray | None:
        """Potential as a function of ``k`` = number of players on strategy 1.

        Only meaningful when the social graph is a clique, where the
        potential depends on the profile only through ``k`` (Section 5.2):
        ``Phi = -[ C(n-k, 2) * delta0 + C(k, 2) * delta1 ]``.  Returns
        ``None`` for non-complete graphs.
        """
        n = self.num_players
        if self.graph.number_of_edges() != n * (n - 1) // 2:
            return None
        k = np.arange(n + 1, dtype=float)
        return -(
            (n - k) * (n - k - 1) / 2.0 * self.params.delta0
            + k * (k - 1) / 2.0 * self.params.delta1
        )
