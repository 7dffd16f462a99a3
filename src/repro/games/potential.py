"""Potential games and the structural quantities used by the paper's bounds.

A game ``G`` is an (exact) potential game if there is a potential function
``Phi: S -> R`` such that, for every player ``i``, every pair of strategies
``a, b`` and every profile ``x`` (Equation 1 of the paper)::

    u_i(a, x_-i) - u_i(b, x_-i) = Phi(b, x_-i) - Phi(a, x_-i)

i.e. a unilateral deviation that *increases* utility *decreases* the
potential by the same amount.  With this sign convention the stationary
distribution of the logit dynamics is the Gibbs measure
``pi(x) = exp(-beta * Phi(x)) / Z`` (Equation 4 of the paper, written there
with the opposite sign of Phi; we follow the convention the paper uses in
all proofs from Lemma 3.3 onwards).

The bounds of Section 3 are stated in terms of three structural quantities
of the potential, all implemented here:

* ``DeltaPhi`` — maximum *global* variation, ``Phi_max - Phi_min``
  (Theorem 3.4 / 3.5);
* ``deltaPhi`` — maximum *local* variation over Hamming-adjacent profiles
  (Theorem 3.6);
* ``zeta`` — the maximum over profile pairs of the minimum "potential
  barrier" that any Hamming path between them must climb (Theorem 3.8 /
  3.9).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .base import Game, TableGame
from .space import ProfileSpace

__all__ = [
    "PotentialGame",
    "ExplicitPotentialGame",
    "max_global_variation",
    "max_local_variation",
    "local_variations",
    "zeta_barrier",
]


class PotentialGame(Game):
    """Abstract potential game: a :class:`Game` plus a potential vector.

    Subclasses must implement :meth:`potential_vector` returning the
    ``(|S|,)`` array of potential values indexed by profile index, in the
    Equation-(1) sign convention described in the module docstring.
    """

    def potential(self, profile_index: int) -> float:
        """Potential ``Phi(x)`` of a single profile."""
        return float(self.potential_vector()[profile_index])

    def potential_vector(self) -> np.ndarray:
        """Potential values for every profile (shape ``(|S|,)``)."""
        raise NotImplementedError

    # -- structural quantities -------------------------------------------

    def max_global_variation(self) -> float:
        """``DeltaPhi = Phi_max - Phi_min``."""
        return max_global_variation(self.potential_vector())

    def max_local_variation(self) -> float:
        """``deltaPhi`` — max potential difference across a Hamming edge."""
        return max_local_variation(self.potential_vector(), self.space)

    def zeta(self) -> float:
        """The barrier quantity ``zeta`` of Section 3.4 of the paper."""
        return zeta_barrier(self.potential_vector(), self.space)

    def verify_potential(self, tol: float = 1e-9) -> bool:
        """Check Equation (1) exhaustively; ``True`` iff consistent."""
        phi = self.potential_vector()
        for player in range(self.num_players):
            devs = self.space.deviation_matrix(player)
            # Utility and potential restricted to the deviation sets of this
            # player; Equation (1) says u_i(col a) - u_i(col b) must equal
            # phi(col b) - phi(col a), i.e. u + phi is constant along rows.
            util = np.stack(
                [self.utility_matrix(player)[devs[:, s]] for s in range(devs.shape[1])],
                axis=1,
            )
            pot = phi[devs]
            total = util + pot
            if np.max(np.abs(total - total[:, :1])) > tol:
                return False
        return True


class ExplicitPotentialGame(TableGame, PotentialGame):
    """Potential game given by explicit utility tensors and a potential vector."""

    def __init__(
        self,
        num_strategies: Sequence[int],
        utilities: np.ndarray,
        potential: np.ndarray,
    ):
        TableGame.__init__(self, num_strategies, utilities)
        potential = np.asarray(potential, dtype=float)
        if potential.shape != (self.space.size,):
            raise ValueError(
                f"potential must have shape ({self.space.size},), got {potential.shape}"
            )
        if not np.all(np.isfinite(potential)):
            raise ValueError("potential values must be finite")
        self._potential = potential

    @classmethod
    def from_potential(
        cls,
        num_strategies: Sequence[int],
        potential: np.ndarray | Callable[[tuple[int, ...]], float],
    ) -> "ExplicitPotentialGame":
        """Build the *identical-interest-style* game with ``u_i = -Phi``.

        Every potential function induces at least one potential game: give
        every player utility ``-Phi(x)``.  Equation (1) then holds with the
        given ``Phi``.  This is how the paper's lower-bound constructions
        (Theorem 3.5, Theorem 4.3) are specified — directly by a potential.
        """
        space = ProfileSpace(num_strategies)
        if callable(potential):
            phi = np.array(
                [potential(space.decode(x)) for x in range(space.size)], dtype=float
            )
        else:
            phi = np.asarray(potential, dtype=float)
        utilities = np.tile(-phi, (space.num_players, 1))
        return cls(num_strategies, utilities, phi)

    def potential_vector(self) -> np.ndarray:
        return self._potential.copy()

    def potential(self, profile_index: int) -> float:
        return float(self._potential[profile_index])

    def store_spec(self) -> dict:
        """Content identity (see :meth:`repro.games.base.TableGame.store_spec`):
        the tabulated utilities plus the explicit potential vector."""
        spec = super().store_spec()
        spec["potential"] = self._potential
        return spec


# ---------------------------------------------------------------------------
# Structural quantities of a potential
# ---------------------------------------------------------------------------


def max_global_variation(potential: np.ndarray) -> float:
    """``DeltaPhi = max Phi - min Phi``."""
    phi = np.asarray(potential, dtype=float)
    return float(np.max(phi) - np.min(phi))


def local_variations(potential: np.ndarray, space: ProfileSpace) -> np.ndarray:
    """Absolute potential differences over every Hamming edge."""
    phi = np.asarray(potential, dtype=float)
    edges = space.hamming_edges()
    if edges.shape[0] == 0:
        return np.zeros(0, dtype=float)
    return np.abs(phi[edges[:, 0]] - phi[edges[:, 1]])


def max_local_variation(potential: np.ndarray, space: ProfileSpace) -> float:
    """``deltaPhi`` — maximum potential change over a single deviation."""
    diffs = local_variations(potential, space)
    return float(np.max(diffs)) if diffs.size else 0.0


def _union_find_parent(parent: np.ndarray, x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    # path compression
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def zeta_barrier(potential: np.ndarray, space: ProfileSpace) -> float:
    """The quantity ``zeta`` of Section 3.4, via a union-find sweep.

    ``zeta(x, y)`` is the minimum over Hamming paths from ``x`` to ``y`` of
    the maximum potential *increase* above ``Phi(x)`` along the path (for
    ``Phi(x) >= Phi(y)``), and ``zeta = max_{x,y} zeta(x, y)``.

    Equivalently, if ``M(x, y)`` is the minimax potential level any path
    must reach, then ``zeta = max_{x,y} [ M(x, y) - max(Phi(x), Phi(y)) ]``.
    Adding profiles in increasing potential order and tracking, for each
    connected component, its minimum potential, the maximum is attained at a
    merge event: when a profile at level ``L`` merges components ``A`` and
    ``B``, the best candidate is ``L - max(min_A Phi, min_B Phi)``.  This is
    the classic energy-landscape "barrier" computation and runs in
    ``O(|S| log |S| + E alpha(E))``.
    """
    phi = np.asarray(potential, dtype=float)
    n = space.size
    if phi.shape != (n,):
        raise ValueError(f"potential must have shape ({n},), got {phi.shape}")
    order = np.argsort(phi, kind="stable")
    parent = np.arange(n, dtype=np.int64)
    comp_min = phi.copy()  # minimum potential of the component rooted here
    added = np.zeros(n, dtype=bool)
    zeta = 0.0
    for v in order:
        v = int(v)
        added[v] = True
        level = phi[v]
        for u in space.neighbors(v):
            u = int(u)
            if not added[u]:
                continue
            ru = _union_find_parent(parent, u)
            rv = _union_find_parent(parent, v)
            if ru == rv:
                continue
            # merging two distinct components at level `level`
            candidate = level - max(comp_min[ru], comp_min[rv])
            if candidate > zeta:
                zeta = candidate
            # union by attaching ru under rv (arbitrary), keep min potential
            parent[ru] = rv
            comp_min[rv] = min(comp_min[rv], comp_min[ru])
    return float(zeta)
