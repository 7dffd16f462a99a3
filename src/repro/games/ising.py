"""The Ising model as a graphical coordination game (Glauber dynamics).

Section 5 of the paper notes that the Ising model is the special graphical
coordination game *without* risk-dominant equilibria (``delta0 = delta1``),
and that the Glauber dynamics on the Ising model coincides with the logit
dynamics of that game.  This module makes the correspondence executable:

* :class:`IsingGame` — the local-interaction game with per-edge payoff
  ``J * sigma_u * sigma_v`` on an arbitrary interaction graph, plus an
  optional external field ``h`` (a per-player bonus for playing spin ``+1``)
  that maps to an extra linear term in the potential.  Built on
  :class:`~repro.games.local.LocalInteractionGame`, so utilities and the
  potential are computed from neighbor strategies only — the game (and the
  engine's matrix state backend with it) scales to thousands of spins,
  while the dense accessors (``potential_vector``, ``utility_matrix``)
  stay available below the dense cap;
* :func:`spins_from_profile` — the 0/1 -> ±1 mapping.

The game potential *is* the physics Hamiltonian
``H(sigma) = -J sum_{(u,v)} sigma_u sigma_v - h sum_u sigma_u`` over spins
``sigma in {-1, +1}^n`` (the per-edge potentials are passed explicitly
rather than derived, pinning the physics normalisation), so
``pi(x) ∝ exp(-beta H(sigma(x)))`` is the textbook Gibbs distribution
and the logit dynamics is single-site heat-bath (Glauber) dynamics:
flipping a spin changes ``H`` by ``2 J (#disagreeing - #agreeing
neighbors)`` and changes the game potential by exactly the same amount.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from .coordination import CoordinationParams, GraphicalCoordinationGame
from .local import LocalInteractionGame

__all__ = [
    "IsingGame",
    "spins_from_profile",
]


def spins_from_profile(profile: np.ndarray) -> np.ndarray:
    """Map strategies in ``{0, 1}`` to spins in ``{-1, +1}`` (1 -> +1)."""
    arr = np.asarray(profile)
    return 2 * arr - 1


class IsingGame(LocalInteractionGame):
    """Local-interaction game equivalent to the Ising model.

    Parameters
    ----------
    graph:
        Interaction graph (players = nodes).
    coupling:
        Ferromagnetic coupling ``J > 0``; the equivalent coordination game
        has ``delta0 = delta1 = 2 J``.
    field:
        External field ``h``; ``h > 0`` favours strategy 1 (spin ``+1``),
        breaking the symmetry between the two consensus profiles the way a
        risk-dominant equilibrium would.

    Notes
    -----
    Player ``u``'s utility is ``J * sum_{v~u} sigma_u sigma_v + h *
    sigma_u`` and the potential is exactly the Hamiltonian evaluated on the
    ±1 spins, so a unilateral flip changes utility by minus the potential
    change (Equation 1).  Everything is computed from neighbor spins only,
    so the game works far past the int64 profile-index ceiling.
    """

    def __init__(self, graph: nx.Graph, coupling: float = 1.0, field: float = 0.0):
        if coupling <= 0:
            raise ValueError("coupling J must be positive (ferromagnetic)")
        spins = np.array([-1.0, 1.0])
        edge_payoff = coupling * np.outer(spins, spins)  # u earns J*s_u*s_v
        # explicit edge potential -J*s_u*s_v: pins the Hamiltonian
        # normalisation (auto-derivation would shift each edge by -J)
        super().__init__(
            graph,
            edge_payoff,
            edge_potentials=-edge_payoff,
            external_field=field * spins,
        )
        self.coupling = float(coupling)
        self.field = float(field)

    @classmethod
    def as_coordination_game(
        cls, graph: nx.Graph, coupling: float = 1.0
    ) -> GraphicalCoordinationGame:
        """The same model expressed as a :class:`GraphicalCoordinationGame`.

        The potential differs from the Ising Hamiltonian by an additive
        constant per edge (the coordination-game potential is 0 on
        disagreeing edges and ``-2J`` on agreeing ones, the Hamiltonian is
        ``+J`` / ``-J``), so both define the same Gibbs measure and the same
        logit dynamics.
        """
        params = CoordinationParams.ising(2.0 * coupling)
        return GraphicalCoordinationGame(graph, params)

    def magnetization_of_profiles(self, profiles: np.ndarray) -> np.ndarray:
        """``(k,)`` average spins of ``(k, n)`` profile rows.

        The index-free observable for large-``n`` runs — e.g. as a
        hitting-time *profile predicate*::

            sim.hitting_times(lambda prof: game.magnetization_of_profiles(prof) >= 0.9)
        """
        prof = np.asarray(profiles)
        return spins_from_profile(prof).mean(axis=-1)

