"""Finite opinion games on social graphs (arXiv 1311.1610).

"Decentralized Dynamics for Finite Opinion Games" (Ferraioli, Goldberg,
Ventre) studies the discretised variant of the DeGroot/Friedkin–Johnsen
opinion-formation model of Bindel–Kleinberg–Oren: every player ``i`` of a
social graph holds an *internal belief* ``b_i in [0, 1]`` but must declare
one of finitely many public opinions.  Declaring opinion ``o`` costs the
quadratic disagreement with every neighbor's declared opinion plus the
quadratic distance from the own belief::

    c_i(x) = sum_{j ~ i} (o(x_i) - o(x_j))^2  +  (o(x_i) - b_i)^2

This is an exact potential game with potential (the paper's Eq. for ``Phi``)

    Phi(x) = sum_{(u,v) in E} (o(x_u) - o(x_v))^2 + sum_i (o(x_i) - b_i)^2,

which drops directly onto :class:`~repro.games.local.LocalInteractionGame`:
the disagreement term is a shared per-edge payoff matrix
``M[s, t] = -(o_s - o_t)^2`` (utilities are negated costs), the belief term
is a per-player external field ``field[i, s] = -(o_s - b_i)^2``, and the
per-edge potential ``P[s, t] = (o_s - o_t)^2`` is exactly what
:func:`~repro.games.local.derive_edge_potential` recovers from the payoffs
(Monderer–Shapley path integration normalises ``P[0, 0] = 0``, which the
opinion potential already satisfies).  The game therefore inherits every
scaling path of the local-interaction machinery — index-free deviation
utilities, matrix state rows, the level schedule — while the dense accessors
stay available below the dense cap for exact cross-validation.

The paper's theory targets live in :mod:`repro.core.bounds` as the
``theorem1311_*`` / ``lemma1311_*`` callables: the cutwidth-driven mixing
upper bound for the opinion chain and the social-cost claims (the
potential/cost sandwich, the price-of-stability factor 2, and the
stationary expected social-cost bound for the logit dynamics).
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from .local import LocalInteractionGame

__all__ = ["FiniteOpinionGame", "opinion_edge_payoffs", "opinion_edge_potential"]


def _opinion_values(num_opinions: int) -> np.ndarray:
    """The ``num_opinions`` admissible opinions, equally spaced in [0, 1]."""
    if num_opinions < 2:
        raise ValueError("finite opinion games need at least two opinions")
    return np.linspace(0.0, 1.0, int(num_opinions))


def opinion_edge_payoffs(num_opinions: int = 2) -> np.ndarray:
    """The shared ``(m, m)`` per-edge payoff matrix ``M[s, t] = -(o_s - o_t)^2``.

    Utilities are negated costs, so each endpoint of an edge *pays* the
    squared disagreement with the neighbor's declared opinion.  The matrix
    is symmetric (both endpoints read it with their own strategy as the
    row, the symmetric-role convention of
    :class:`~repro.games.local.LocalInteractionGame`).
    """
    o = _opinion_values(num_opinions)
    return -((o[:, None] - o[None, :]) ** 2)


def opinion_edge_potential(num_opinions: int = 2) -> np.ndarray:
    """The exact per-edge potential ``P[s, t] = (o_s - o_t)^2`` of the game.

    This is the matrix :func:`~repro.games.local.derive_edge_potential`
    recovers from :func:`opinion_edge_payoffs` — already normalised to
    ``P[0, 0] = 0`` — and the per-edge summand of the arXiv 1311.1610
    potential ``Phi``.
    """
    return -opinion_edge_payoffs(num_opinions)


class FiniteOpinionGame(LocalInteractionGame):
    """Discretised opinion formation on a social graph (arXiv 1311.1610).

    Parameters
    ----------
    graph:
        The social graph; nodes are relabelled to ``0..n-1`` in sorted
        order and become the players (the
        :class:`~repro.games.local.LocalInteractionGame` convention).
    beliefs:
        ``(n,)`` internal beliefs in ``[0, 1]``, indexed by the sorted node
        order.
    num_opinions:
        Number of admissible public opinions ``m >= 2``; the opinion
        values are equally spaced, ``o_s = s / (m - 1)``.  The paper's
        binary case is ``m = 2`` (opinions exactly 0 and 1).

    Player ``i``'s utility is the negated cost ``-c_i`` and the game is an
    exact potential game with ``Phi(x) = sum_e (o_u - o_v)^2 + sum_i
    (o_i - b_i)^2`` — the per-edge potentials are passed explicitly to pin
    the paper's normalisation (which coincides with the auto-derived one),
    so ``pi ∝ exp(-beta Phi)`` is the opinion chain's Gibbs measure and
    low-cost opinion profiles are the likely ones.
    """

    def __init__(
        self,
        graph: nx.Graph,
        beliefs: Sequence[float] | np.ndarray,
        num_opinions: int = 2,
    ):
        opinions = _opinion_values(num_opinions)
        b = np.asarray(beliefs, dtype=float)
        n = graph.number_of_nodes()
        if b.shape != (n,):
            raise ValueError(
                f"beliefs must have shape ({n},) — one belief per node of "
                f"the social graph — got {b.shape}"
            )
        if not np.all(np.isfinite(b)) or np.any(b < 0.0) or np.any(b > 1.0):
            raise ValueError("beliefs must be finite values in [0, 1]")
        # field[i, s] = -(o_s - b_i)^2: the belief term enters the utility
        # negatively and the potential positively
        field = -((opinions[None, :] - b[:, None]) ** 2)
        super().__init__(
            graph,
            opinion_edge_payoffs(num_opinions),
            edge_potentials=opinion_edge_potential(num_opinions),
            external_field=field,
            num_strategies=int(num_opinions),
        )
        self._opinions = opinions
        self._beliefs = b

    @classmethod
    def random(
        cls,
        graph: nx.Graph,
        num_opinions: int = 2,
        rng: np.random.Generator | None = None,
    ) -> "FiniteOpinionGame":
        """Opinion game with i.i.d. uniform beliefs drawn from ``rng``."""
        rng = np.random.default_rng() if rng is None else rng
        beliefs = rng.uniform(0.0, 1.0, size=graph.number_of_nodes())
        return cls(graph, beliefs, num_opinions=num_opinions)

    # -- model accessors ---------------------------------------------------

    @property
    def num_opinions(self) -> int:
        """Number of admissible public opinions ``m``."""
        return int(self._opinions.size)

    @property
    def opinion_values(self) -> np.ndarray:
        """The opinion values ``o_s = s / (m - 1)`` (copy)."""
        return self._opinions.copy()

    @property
    def beliefs(self) -> np.ndarray:
        """Per-player internal beliefs (copy, sorted node order)."""
        return self._beliefs.copy()

    def opinions_of_profiles(self, profiles: np.ndarray) -> np.ndarray:
        """``(k, n)`` declared opinion *values* of ``(k, n)`` strategy rows."""
        prof = np.asarray(profiles)
        return self._opinions[prof.astype(np.int64, copy=False)]

    # -- cost observables (index-free) -------------------------------------

    def disagreement_of_profiles(self, profiles: np.ndarray) -> np.ndarray:
        """``(k,)`` total edge disagreement ``sum_e (o_u - o_v)^2``.

        Counted once per edge — the social cost counts it twice (both
        endpoints pay it), which is exactly the gap in the arXiv 1311.1610
        sandwich ``Phi <= SC <= 2 Phi``.
        """
        op = self.opinions_of_profiles(profiles)
        if op.ndim != 2 or op.shape[1] != self.num_players:
            raise ValueError(
                f"profiles must have shape (k, {self.num_players}), got "
                f"{np.asarray(profiles).shape}"
            )
        if self.num_edges == 0:
            return np.zeros(op.shape[0], dtype=float)
        return ((op[:, self._edge_u] - op[:, self._edge_v]) ** 2).sum(axis=1)

    def belief_cost_of_profiles(self, profiles: np.ndarray) -> np.ndarray:
        """``(k,)`` total belief distance ``sum_i (o(x_i) - b_i)^2``."""
        op = self.opinions_of_profiles(profiles)
        return ((op - self._beliefs[None, :]) ** 2).sum(axis=1)

    def social_cost_of_profiles(self, profiles: np.ndarray) -> np.ndarray:
        """``(k,)`` social cost ``SC(x) = sum_i c_i(x)`` of profile rows.

        ``SC = 2 * disagreement + belief cost = Phi + disagreement`` —
        every edge is paid by both endpoints, every belief term once.
        Equal to minus the utilitarian welfare the sweeps report.
        """
        prof = np.asarray(profiles)
        return self.potential_of_profiles(prof) + self.disagreement_of_profiles(prof)

    def social_cost(self, profile_index: int) -> float:
        """Social cost of one profile index (small spaces)."""
        profile = np.asarray(self.space.decode(profile_index), dtype=np.int64)
        return float(self.social_cost_of_profiles(profile[None, :])[0])

    def social_cost_vector(self) -> np.ndarray:
        """Dense social-cost vector over the whole profile space (dense cap)."""
        return self.social_cost_of_profiles(self.space.all_profiles())

    def optimal_social_cost(self) -> float:
        """``min_x SC(x)`` by exhaustive evaluation (dense cap)."""
        return float(self.social_cost_vector().min())

    def consensus_index(self, opinion: int) -> int:
        """Profile index of the consensus profile (every player at ``opinion``)."""
        m = self.num_opinions
        if not 0 <= int(opinion) < m:
            raise ValueError(f"opinion must lie in 0..{m - 1}, got {opinion}")
        return int(self.space.encode((int(opinion),) * self.num_players))

    # -- store identity ----------------------------------------------------

    def store_spec(self) -> dict:
        """Content identity: the local-game spec plus beliefs and opinion count.

        The base spec (edges, payoff/potential stacks, field) already
        pins the game content; beliefs and the opinion count are added
        explicitly so the stored spec is self-describing and two opinion
        games hash identically iff graph, beliefs and discretisation all
        agree.
        """
        spec = super().store_spec()
        spec["beliefs"] = self._beliefs
        spec["num_opinions"] = self.num_opinions
        return spec
