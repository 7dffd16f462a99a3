"""Local-interaction games: graph-structured games that scale past |S|.

The follow-up work the reproduction cites — "Logit Dynamics with Concurrent
Updates for Local-Interaction Games" (Auletta et al.) and "Metastability of
Asymptotically Well-Behaved Potential Games" (Ferraioli–Ventre) — studies
logit dynamics on games whose players sit on a graph and interact only with
their neighbors.  Those are exactly the games whose profile spaces explode
(``m**n`` profiles for ``n`` players) while their *utilities* stay cheap:
a player's payoff is a sum of ``deg(i)`` per-edge terms, so a single-site
update touches ``O(deg)`` numbers no matter how large ``|S|`` is.

:class:`LocalInteractionGame` makes that structure first-class:

* every player has the same ``m`` strategies; every edge ``(u, v)`` of the
  social graph carries an ``(m, m)`` *payoff matrix* ``M_e``, read by both
  endpoints with their **own** strategy as the row index — endpoint ``u``
  earns ``M_e[s_u, s_v]`` and endpoint ``v`` earns ``M_e[s_v, s_u]`` (the
  symmetric-role convention of
  :class:`~repro.games.coordination.GraphicalCoordinationGame`);
* an optional per-player *external field* adds ``field[i, s_i]`` to player
  ``i``'s utility (the Ising magnetic field, a strategy bias, ...);
* the hot engine call :meth:`utility_deviations_profiles` computes
  deviation payoffs **from neighbor strategy columns only** — no profile
  index is encoded or decoded anywhere, so the game composes with the
  engine's matrix state backend at ``n`` in the thousands;
* when the per-edge games admit exact potentials the whole game is an
  exact potential game with ``Phi(x) = sum_e P_e[s_u, s_v] - sum_i
  field[i, s_i]`` — the potential is *derived automatically* whenever it
  exists (and can be supplied explicitly to pin a particular additive
  normalisation, e.g. the Ising Hamiltonian); dense accessors
  (:meth:`potential_vector`, :meth:`utility_matrix`) stay available below
  the dense cap so every small-space tool keeps working.

The paper's :class:`~repro.games.coordination.GraphicalCoordinationGame`
and :class:`~repro.games.ising.IsingGame` are subclasses.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import networkx as nx
import numpy as np

from .potential import PotentialGame
from .space import ProfileSpace

__all__ = ["LocalInteractionGame", "derive_edge_potential"]


def derive_edge_potential(payoff: np.ndarray, tol: float = 1e-9) -> np.ndarray | None:
    """Exact potential of the symmetric-role two-player game, or ``None``.

    ``payoff`` is the ``(m, m)`` matrix both endpoints read with their own
    strategy as the row.  The candidate is integrated along deviation paths
    from ``(0, 0)`` (the Monderer–Shapley construction specialised to two
    players)::

        P[s, t] = M[0, 0] - M[t, 0] + M[0, t] - M[s, t]

    then verified against Equation (1) of the paper for *both* endpoints —
    which forces ``P`` to be symmetric.  Returns the normalised potential
    (``P[0, 0] = 0``) or ``None`` when the edge game has no exact
    potential.
    """
    M = np.asarray(payoff, dtype=float)[np.newaxis]
    P = _derive_edge_potential_stack(M)
    if _edge_potential_consistent_stack(M, P, tol=tol)[0]:
        return P[0]
    return None


#: rtol of np.isclose — the stack helpers below replicate np.allclose
#: elementwise, so each edge's verdict is np.allclose's
_ISCLOSE_RTOL = 1e-5


def _derive_edge_potential_stack(payoffs: np.ndarray) -> np.ndarray:
    """:func:`derive_edge_potential`'s candidate for a whole ``(E, m, m)`` stack.

    The path integration of :func:`derive_edge_potential`, for every edge
    in one vectorised pass instead of an ``O(E)`` Python loop, which is
    what keeps construction of million-edge games in milliseconds.
    Candidates are *not* verified here; pair with
    :func:`_edge_potential_consistent_stack`.
    """
    M = payoffs
    return M[:, 0, 0][:, None, None] - M[:, :, 0][:, None, :] + M[:, 0, :][:, None, :] - M


def _edge_potential_consistent_stack(
    payoffs: np.ndarray, potentials: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """Per-edge Equation (1) verdicts for whole stacks: an ``(E,)`` bool array.

    Edge ``e`` passes when ``M[a,t] - M[b,t] = P[b,t] - P[a,t]`` for all
    ``a, b, t`` (both endpoints read the edge with their own strategy as
    the row) and ``P`` is symmetric, each within ``np.allclose``'s
    tolerances with ``atol=tol``.
    """
    M = np.asarray(payoffs, dtype=float)
    P = np.asarray(potentials, dtype=float)

    def close(a, b):
        return np.abs(a - b) <= tol + _ISCLOSE_RTOL * np.abs(b)

    Pt = P.transpose(0, 2, 1)
    sym = np.all(close(P, Pt), axis=(1, 2))
    du = M[:, :, None, :] - M[:, None, :, :]  # (e, a, b, t) -> M[a,t] - M[b,t]
    dp = P[:, None, :, :] - P[:, :, None, :]  # (e, a, b, t) -> P[b,t] - P[a,t]
    return sym & np.all(close(du, dp), axis=(1, 2, 3))


class _RowwiseScratch:
    """Grow-only buffers for row-wise deviation batches of ``k`` movers.

    :meth:`LocalInteractionGame.utility_deviations_rowwise` runs once per
    engine step with a fixed batch size, or once per level of the engine's
    level schedule with a size that changes from level to level.  Every
    intermediate of the padded gather therefore lives in flat buffers that
    only ever grow, and a call of size ``k`` works on contiguous views of
    their leading entries: any ``k`` up to the capacity reuses the same
    memory.  Views are laid out slot-major (``(D, k)``: padding slot
    first) so that the per-slot gathers are contiguous writes.
    """

    def __init__(self, D: int, n: int, m: int):
        self.D, self.n, self.m = D, n, m
        self.capacity = -1
        self.k = -1

    def fit(self, k: int) -> None:
        """Point the views at the leading entries for a batch of ``k`` movers."""
        if k == self.k:
            return
        D, m = self.D, self.m
        if k > self.capacity:
            self._ints = np.empty((4, D * k), dtype=np.int64)
            self._floats = np.empty((2, D * k), dtype=float)
            self._rows = np.empty((2, k * m), dtype=float)
            #: row start of each profile row in a flattened (k, n) matrix
            self._identity = np.arange(k, dtype=np.int64) * self.n
            self._offsets = np.empty(k, dtype=np.int64)
            self._gathered: dict[np.dtype, np.ndarray] = {}
            self.capacity = k
        self.nbr, self.eid, self.base, self.flat = (
            buf[: D * k].reshape(D, k) for buf in self._ints
        )
        self.mask, self.pick = (
            buf[: D * k].reshape(D, k) for buf in self._floats
        )
        self.util, self.field = (buf[: k * m].reshape(k, m) for buf in self._rows)
        self.identity = self._identity[:k]
        self.offsets = self._offsets[:k]
        self.k = k

    def gathered(self, dtype: np.dtype) -> np.ndarray:
        """``(D, k)`` neighbour-strategy buffer in the profile matrix dtype."""
        buf = self._gathered.get(dtype)
        if buf is None:
            buf = self._gathered[dtype] = np.empty(self.D * self.capacity, dtype)
        return buf[: self.D * self.k].reshape(self.D, self.k)


class LocalInteractionGame(PotentialGame):
    """Game on a social graph with per-edge payoff matrices.

    Parameters
    ----------
    graph:
        The social graph; nodes are relabelled to ``0..n-1`` in sorted
        order and become the players.  Self-loops are refused.
    edge_payoffs:
        Either one ``(m, m)`` payoff matrix shared by every edge, or a
        mapping from edges (either orientation) to per-edge ``(m, m)``
        matrices.  Endpoint ``u`` of edge ``(u, v)`` earns
        ``M_e[s_u, s_v]``; endpoint ``v`` earns ``M_e[s_v, s_u]``.
    edge_potentials:
        Optional explicit per-edge potential matrices in the same
        one-or-mapping format (useful to pin an additive normalisation,
        e.g. the Ising Hamiltonian).  Validated against Equation (1); when
        omitted, exact potentials are derived automatically whenever they
        exist (normalised to ``P_e[0, 0] = 0``), and the game simply has no
        potential otherwise (the potential accessors then raise).
    external_field:
        Optional per-strategy utility bonus: an ``(m,)`` vector applied to
        every player or an ``(n, m)`` per-player array.  Contributes
        ``field[i, s_i]`` to player ``i``'s utility and ``-field[i, s_i]``
        to the potential.
    num_strategies:
        Number of strategies per player (shared), default 2; must match
        the payoff-matrix shapes.
    """

    def __init__(
        self,
        graph: nx.Graph,
        edge_payoffs: np.ndarray | Mapping[tuple[int, int], np.ndarray],
        edge_potentials: np.ndarray | Mapping[tuple[int, int], np.ndarray] | None = None,
        external_field: np.ndarray | Sequence[float] | None = None,
        num_strategies: int = 2,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("the social graph must have at least one node")
        loop = next(nx.nodes_with_selfloops(graph), None)
        if loop is not None:
            raise ValueError(
                f"node {loop!r} has a self-loop; local-interaction games "
                "assume simple graphs"
            )
        m = int(num_strategies)
        if m < 2:
            raise ValueError("local-interaction games need at least two strategies")
        nodes = sorted(graph.nodes())
        self._node_index = {node: i for i, node in enumerate(nodes)}
        self.graph = nx.relabel_nodes(graph, self._node_index, copy=True)
        n = self.graph.number_of_nodes()
        self.space = ProfileSpace((m,) * n)

        if self.graph.number_of_edges():
            edges = np.asarray(self.graph.edges(), dtype=np.int64)
        else:
            edges = np.zeros((0, 2), dtype=np.int64)
        self._edge_u = np.ascontiguousarray(edges[:, 0])
        self._edge_v = np.ascontiguousarray(edges[:, 1])
        self._edge_payoffs = self._edge_matrix_array(edge_payoffs, edges, m, "edge_payoffs")

        if edge_potentials is not None:
            pots = self._edge_matrix_array(edge_potentials, edges, m, "edge_potentials")
            ok = _edge_potential_consistent_stack(self._edge_payoffs, pots)
            if not ok.all():
                bad = int(np.flatnonzero(~ok)[0])
                raise ValueError(
                    f"edge_potentials for edge "
                    f"{(int(edges[bad, 0]), int(edges[bad, 1]))} do not satisfy "
                    f"Equation (1) against the edge payoffs (or are not "
                    f"symmetric)"
                )
            self._edge_potentials: np.ndarray | None = pots
        else:
            derived = _derive_edge_potential_stack(self._edge_payoffs)
            ok = _edge_potential_consistent_stack(self._edge_payoffs, derived)
            self._edge_potentials = derived if bool(ok.all()) else None

        field = np.zeros((n, m), dtype=float) if external_field is None else (
            np.asarray(external_field, dtype=float)
        )
        if field.ndim == 1:
            if field.shape != (m,):
                raise ValueError(f"external_field must have shape ({m},) or ({n}, {m})")
            field = np.tile(field, (n, 1))
        elif field.shape != (n, m):
            raise ValueError(f"external_field must have shape ({m},) or ({n}, {m})")
        self._field = field

        # CSR adjacency: per player, the neighbor ids and the row of the
        # edge-matrix stack to read (the symmetric-role convention means
        # both endpoints read the same matrix, own strategy as the row).
        # Built fully vectorised — graphs with 10^6 nodes construct in
        # milliseconds, not in a per-edge Python loop.  The stable lexsort
        # (endpoint first, edge id second) reproduces the cursor-fill order
        # exactly: within a player, CSR entries are ordered by edge id.
        E = len(edges)
        eids = np.concatenate([np.arange(E, dtype=np.int64)] * 2)
        endpoints = np.concatenate([self._edge_u, self._edge_v])
        partners = np.concatenate([self._edge_v, self._edge_u])
        degrees = np.bincount(endpoints, minlength=n)
        self._nbr_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(degrees)]
        )
        total = int(self._nbr_offsets[-1])
        order = np.lexsort((eids, endpoints))
        self._nbr = partners[order]
        self._nbr_edge = eids[order]
        # Padded (dense) adjacency for the row-wise engine fast path: row i
        # lists player i's neighbors / edge rows padded to the max degree,
        # with a 0/1 mask.  Padding entries point at node 0 / edge 0 and are
        # masked out after the gather.
        max_deg = int(degrees.max()) if n else 0
        D = max(max_deg, 1)
        self._pad_nbr = np.zeros((n, D), dtype=np.int64)
        self._pad_edge = np.zeros((n, D), dtype=np.int64)
        self._pad_mask = np.zeros((n, D), dtype=float)
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        pos = np.arange(total, dtype=np.int64) - np.repeat(
            self._nbr_offsets[:-1], degrees
        )
        self._pad_nbr[rows, pos] = self._nbr
        self._pad_edge[rows, pos] = self._nbr_edge
        self._pad_mask[rows, pos] = 1.0
        # Transposed (D, n) copies: the row-wise scratch path gathers per
        # padding slot, so slot-major layout keeps every np.take contiguous.
        self._pad_nbr_t = np.ascontiguousarray(self._pad_nbr.T)
        self._pad_edge_t = np.ascontiguousarray(self._pad_edge.T)
        self._pad_mask_t = np.ascontiguousarray(self._pad_mask.T)
        self._edge_payoffs_flat = self._edge_payoffs.reshape(-1)
        self._rowwise_scratch: _RowwiseScratch | None = None
        self._potential_cache: np.ndarray | None = None

    @staticmethod
    def _edge_matrix_array(
        spec, edges: np.ndarray, m: int, what: str
    ) -> np.ndarray:
        """Materialise the ``(E, m, m)`` per-edge matrix stack from a spec."""
        out = np.empty((len(edges), m, m), dtype=float)
        if isinstance(spec, Mapping):
            for e, (u, v) in enumerate(edges):
                u, v = int(u), int(v)
                if (u, v) in spec:
                    mat = spec[(u, v)]
                elif (v, u) in spec:
                    mat = spec[(v, u)]
                else:
                    raise ValueError(f"{what} mapping is missing edge {(u, v)}")
                mat = np.asarray(mat, dtype=float)
                if mat.shape != (m, m):
                    raise ValueError(
                        f"{what} for edge {(u, v)} must have shape ({m}, {m}), "
                        f"got {mat.shape}"
                    )
                out[e] = mat
        else:
            mat = np.asarray(spec, dtype=float)
            if mat.shape != (m, m):
                raise ValueError(f"{what} must have shape ({m}, {m}), got {mat.shape}")
            out[:] = mat
        if not np.all(np.isfinite(out)):
            raise ValueError(f"{what} must be finite")
        return out

    # -- graph structure ---------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of edges of the social graph."""
        return int(self._edge_u.size)

    def csr_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The game's CSR local structure.

        Returns ``(offsets, neighbors, neighbor_edge, edge_payoffs, field)``:
        player ``i``'s neighbors are ``neighbors[offsets[i]:offsets[i+1]]``,
        each contributing ``edge_payoffs[neighbor_edge[d], s, t]`` to the
        deviation utility of strategy ``s`` when the neighbor plays ``t``,
        plus the per-player external field ``field[i, s]``.  The engine's
        level schedule (:func:`repro.engine.kernels.closed_neighbourhoods`)
        and the doubled-potential bound
        (:func:`repro.core.bounds.lemma1207_doubled_potential`) read it;
        the arrays are the live internals, not copies — callers must treat
        them as read-only.
        """
        return (
            self._nbr_offsets,
            self._nbr,
            self._nbr_edge,
            self._edge_payoffs,
            self._field,
        )

    def _require_potential(self) -> np.ndarray:
        if self._edge_potentials is None:
            raise ValueError(
                "the edge payoff matrices do not admit an exact potential "
                "(Equation 1 has no solution on at least one edge); this "
                "local-interaction game is not a potential game"
            )
        return self._edge_potentials

    # -- utilities (index-free hot path) -----------------------------------

    def utility_deviations_profiles(
        self, player: int, profiles: np.ndarray
    ) -> np.ndarray:
        """``(k, m)`` deviation utilities from ``(k, n)`` profile rows.

        Reads only the neighbor columns of ``profiles`` — ``O(deg(player))``
        work per row, no profile index anywhere — which is what lets the
        engine's matrix state backend run this game at ``n`` in the
        thousands.
        """
        self.space._check_player(player)
        prof = np.asarray(profiles)
        if prof.ndim != 2 or prof.shape[1] != self.space.num_players:
            raise ValueError(
                f"profiles must have shape (k, {self.space.num_players}), "
                f"got {prof.shape}"
            )
        k = prof.shape[0]
        m = self.space.num_strategies[player]
        lo, hi = self._nbr_offsets[player], self._nbr_offsets[player + 1]
        utilities = np.tile(self._field[player], (k, 1))
        if hi > lo:
            nbrs = self._nbr[lo:hi]
            mats = self._edge_payoffs[self._nbr_edge[lo:hi]]  # (deg, m, m)
            nb_strats = prof[:, nbrs].astype(np.int64, copy=False)  # (k, deg)
            # picked[j, d, s] = mats[d, s, nb_strats[j, d]]
            picked = mats[np.arange(hi - lo), :, nb_strats]  # (k, deg, m)
            utilities += picked.sum(axis=1)
        return utilities

    def utility_deviations_rowwise(
        self,
        players: np.ndarray,
        profiles: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(k, m)`` deviation utilities, a *different mover per row*.

        Row ``j`` is ``(u_{players[j]}(s, x_-i))_s`` at the profile
        ``profiles[j]`` — the fully vectorised form of
        :meth:`utility_deviations_profiles` for the sequential kernels,
        where every replica revises its own uniformly drawn player.  One
        padded gather over ``(k, max_deg)`` neighbor slots replaces ``k``
        per-player groups, which is what keeps the engine fast when the
        number of replicas is comparable to ``n`` (distinct movers almost
        everywhere).  Summation order per row matches the CSR order of
        :meth:`utility_deviations_profiles` (padding contributes exact
        zeros at the tail), so both paths produce identical floats: the sum
        over the slots is sequential in slot order for every ``k``.  For
        ``k >= 2`` it is one reduction over the slot axis of the slot-major
        ``(D, k)`` block, which numpy adds a whole slot row at a time, in
        order; a single mover's block is one contiguous row, which numpy
        would sum pairwise once ``D >= 8``, so ``k = 1`` takes the running
        sum instead.

        ``rows`` (``(k,)`` row indices) lets each mover read another row:
        row ``j`` is then evaluated at ``profiles[rows[j]]``, and
        ``profiles`` may have any number of rows.  The engine's level
        schedule passes the live ``(R, n)`` strategy matrix this way, so a
        level of ``k`` updates copies no ``(k, n)`` rows.

        Only games with a uniform strategy count per player can offer this
        (all rows share the ``m`` axis) — which local-interaction games do
        by construction.

        The returned ``(k, m)`` array is a view of a grow-only per-game
        scratch buffer (:class:`_RowwiseScratch`) — steady-state stepping
        reuses it, and the values are only valid until the next call; copy
        them to keep them across steps.
        """
        p = np.asarray(players, dtype=np.int64)
        prof = np.asarray(profiles)
        k = p.shape[0]
        n = self.space.num_players
        if rows is None:
            if prof.shape != (k, n):
                raise ValueError(
                    f"profiles must have shape ({k}, {n}), got {prof.shape}"
                )
        elif prof.ndim != 2 or prof.shape[1] != n or np.shape(rows) != (k,):
            raise ValueError(
                f"with rows, profiles must have shape (R, {n}) and rows shape "
                f"({k},); got {prof.shape} and {np.shape(rows)}"
            )
        # one range check, so the per-player takes below can clip: a negative
        # player wraps to a huge unsigned value, so one max covers both bounds
        if k and int(p.view(np.uint64).max()) >= n:
            raise IndexError(f"players must lie in [0, {n})")
        # the same check for rows, which the flat profile take would wrap
        if k and rows is not None:
            wrapped = np.asarray(rows, dtype=np.int64).view(np.uint64)
            if int(wrapped.max()) >= prof.shape[0]:
                raise IndexError(f"rows must lie in [0, {prof.shape[0]})")
        if self.num_edges == 0:
            # nothing to gather (padding would index an empty edge stack)
            return self._field[p]
        m = int(self.space.num_strategies[0])
        s = self._rowwise_scratch
        if s is None:
            s = self._rowwise_scratch = _RowwiseScratch(self._pad_nbr.shape[1], n, m)
        s.fit(k)
        # slot-major gathers of the movers' padded adjacency rows; the players
        # are checked above, and numpy's default mode="raise" buffers out=
        np.take(self._pad_nbr_t, p, axis=1, out=s.nbr, mode="clip")
        np.take(self._pad_edge_t, p, axis=1, out=s.eid, mode="clip")
        np.take(self._pad_mask_t, p, axis=1, out=s.mask, mode="clip")
        # neighbor strategies: gathered[d, j] = prof[rows[j], nbr[d, j]]
        # (rows[j] = j without rows), through the flattened profile matrix
        offsets = s.identity if rows is None else np.multiply(rows, n, out=s.offsets)
        np.add(s.nbr, offsets, out=s.flat)
        gathered = s.gathered(prof.dtype)
        np.take(prof.ravel(), s.flat, out=gathered)
        # flat payoff index of (edge, s, neighbor strategy) is
        # e*m*m + s*m + t; base holds the s = 0 plane
        np.multiply(s.eid, m * m, out=s.base)
        np.add(s.base, gathered, out=s.base)
        for strategy in range(m):
            # pick[d, j] = edge_payoffs[eid[d, j], strategy, gathered[d, j]]
            np.add(s.base, strategy * m, out=s.flat)
            np.take(self._edge_payoffs_flat, s.flat, out=s.pick)
            np.multiply(s.pick, s.mask, out=s.pick)
            if k > 1:
                np.add.reduce(s.pick, axis=0, out=s.util[:, strategy])
            else:
                # one mover's slots are one contiguous row: numpy would
                # reduce it pairwise, so take the running sum (in place)
                np.add.accumulate(s.pick, axis=0, out=s.pick)
                s.util[:, strategy] = s.pick[-1]
        np.take(self._field, p, axis=0, out=s.field, mode="clip")
        np.add(s.util, s.field, out=s.util)
        # the returned buffer is reused by the next call — callers that keep
        # utilities across steps must copy (the engine consumes them
        # immediately into softmax rows, so the hot path never does)
        return s.util

    def utilities_of_profiles(self, player: int, profiles: np.ndarray) -> np.ndarray:
        """``(k,)`` realised utilities of ``player`` at ``(k, n)`` profile rows."""
        prof = np.asarray(profiles)
        devs = self.utility_deviations_profiles(player, prof)
        own = prof[:, player].astype(np.int64, copy=False)
        return devs[np.arange(prof.shape[0]), own]

    # -- Game interface ----------------------------------------------------

    def utility(self, player: int, profile_index: int) -> float:
        # scalar decode is pure-Python arithmetic: works past int64
        profile = np.asarray(self.space.decode(profile_index), dtype=np.int64)
        return float(self.utilities_of_profiles(player, profile[None, :])[0])

    def utility_deviations(self, player: int, profile_index: int) -> np.ndarray:
        profile = np.asarray(self.space.decode(profile_index), dtype=np.int64)
        return self.utility_deviations_profiles(player, profile[None, :])[0]

    def utility_deviations_many(
        self, player: int, profile_indices: np.ndarray
    ) -> np.ndarray:
        profiles = self.space.decode_many(np.asarray(profile_indices, dtype=np.int64))
        return self.utility_deviations_profiles(player, profiles)

    def utility_profile_many(self, profile_indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(profile_indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty((0, self.num_players), dtype=float)
        profiles = self.space.decode_many(idx)
        return np.stack(
            [
                self.utilities_of_profiles(player, profiles)
                for player in range(self.num_players)
            ],
            axis=1,
        )

    def utility_matrix(self, player: int) -> np.ndarray:
        # dense accessor for the small-space exact machinery; all_profiles
        # enforces the dense cap with a clear error
        return self.utilities_of_profiles(player, self.space.all_profiles())

    # -- potential ---------------------------------------------------------

    def potential_of_profiles(self, profiles: np.ndarray) -> np.ndarray:
        """``(k,)`` potential values at ``(k, n)`` profile rows, index-free.

        ``Phi(x) = sum_e P_e[s_u, s_v] - sum_i field[i, s_i]`` — the
        matrix-free counterpart of :meth:`potential_vector`, usable at any
        ``n`` (and the building block for Gibbs-weight ratios on large
        spaces).
        """
        pots = self._require_potential()
        prof = np.asarray(profiles)
        if prof.ndim != 2 or prof.shape[1] != self.space.num_players:
            raise ValueError(
                f"profiles must have shape (k, {self.space.num_players}), "
                f"got {prof.shape}"
            )
        prof64 = prof.astype(np.int64, copy=False)
        phi = np.zeros(prof.shape[0], dtype=float)
        if self.num_edges:
            su = prof64[:, self._edge_u]  # (k, E)
            sv = prof64[:, self._edge_v]  # (k, E)
            phi += pots[np.arange(self.num_edges), su, sv].sum(axis=1)
        phi -= self._field[np.arange(self.num_players)[None, :], prof64].sum(axis=1)
        return phi

    def potential(self, profile_index: int) -> float:
        profile = np.asarray(self.space.decode(profile_index), dtype=np.int64)
        return float(self.potential_of_profiles(profile[None, :])[0])

    def potential_vector(self) -> np.ndarray:
        if self._potential_cache is None:
            self._require_potential()
            self._potential_cache = self.potential_of_profiles(
                self.space.all_profiles()
            )
        return self._potential_cache.copy()

    def store_spec(self) -> dict:
        """Content identity for :func:`repro.parallel.describe`.

        Class, strategy count, the full edge list and the per-edge payoff
        / potential / field content (digested when large) — so two
        local-interaction games hash identically iff they play the same
        game on the same graph.  In particular an
        :class:`~repro.games.ising.IsingGame`'s coupling, field and
        topology are all captured through the payoff matrices and edge
        arrays; the cosmetic ``__repr__`` (which only shows sizes) is
        deliberately not used.
        """
        return {
            "class": type(self).__qualname__,
            "num_players": self.num_players,
            "num_strategies": int(self.space.num_strategies[0]),
            "edges": np.stack([self._edge_u, self._edge_v], axis=1),
            "edge_payoffs": self._edge_payoffs,
            "edge_potentials": self._edge_potentials,
            "external_field": self._field,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(players={self.num_players}, "
            f"strategies={self.space.num_strategies[0]}, edges={self.num_edges})"
        )
