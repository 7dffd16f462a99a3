"""Cutwidth of a graph — the structural quantity of Theorem 5.1.

For an ordering ``l`` of the vertices, the width of the cut after vertex
``i`` is the number of edges with one endpoint at position ``<= i`` and the
other at position ``> i``; the cutwidth of the ordering is the maximum such
width, and the cutwidth ``chi(G)`` of the graph is the minimum over all
orderings (Equations 12–13 of the paper).  Theorem 5.1 bounds the mixing
time of the logit dynamics for a graphical coordination game by
``2 n^3 exp(chi(G) (delta0 + delta1) beta) (n delta0 beta + 1)``.

Computing the cutwidth is NP-hard in general; we provide

* :func:`cutwidth_exact` — exact value via a Held–Karp-style dynamic program
  over vertex subsets, ``O(2^n * n)`` time / ``O(2^n)`` memory, practical up
  to ~20 vertices (more than enough for the game sizes whose chains we can
  analyse exactly);
* :func:`cutwidth_of_ordering` — evaluate a specific ordering.  Any
  ordering's width is at least ``chi(G)``, and the Theorem 5.1 bound grows
  with ``chi``, so past the exact DP's size cap the width of any ordering
  still gives a valid upper bound.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

__all__ = ["cutwidth_of_ordering", "cutwidth_exact"]


def cutwidth_of_ordering(graph: nx.Graph, ordering: Sequence) -> int:
    """Cutwidth ``chi(l)`` of a specific vertex ordering ``l``."""
    nodes = list(ordering)
    if set(nodes) != set(graph.nodes()) or len(nodes) != graph.number_of_nodes():
        raise ValueError("ordering must be a permutation of the graph's nodes")
    position = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    # crossing[i] = number of edges (u, v) with pos(u) <= i < pos(v)
    crossing = np.zeros(n, dtype=np.int64)
    for u, v in graph.edges():
        lo, hi = sorted((position[u], position[v]))
        if lo < hi:
            crossing[lo:hi] += 1
    return int(crossing.max()) if n > 0 else 0


def cutwidth_exact(graph: nx.Graph) -> int:
    """Exact cutwidth via dynamic programming over vertex subsets.

    Recurrence: for a non-empty subset ``S`` of vertices placed as a prefix,
    ``cw(S) = max( cut(S), min_{v in S} cw(S \\ {v}) )`` where ``cut(S)`` is
    the number of edges between ``S`` and its complement.  ``cut`` is
    maintained incrementally: ``cut(S) = cut(S \\ {v}) + deg_out(v, S)``
    where ``deg_out(v, S)`` counts v's neighbors outside S minus those
    inside ``S \\ {v}``.
    """
    nodes = sorted(graph.nodes())
    n = len(nodes)
    if n == 0:
        return 0
    if n > 24:
        raise ValueError(
            f"exact cutwidth DP is exponential in the node count (got {n} > 24); "
            "use cutwidth_of_ordering on any ordering for an upper bound"
        )
    index = {node: i for i, node in enumerate(nodes)}
    neighbor_masks = np.zeros(n, dtype=np.int64)
    for u, v in graph.edges():
        iu, iv = index[u], index[v]
        if iu == iv:
            continue
        neighbor_masks[iu] |= 1 << iv
        neighbor_masks[iv] |= 1 << iu
    degrees = np.array([bin(int(m)).count("1") for m in neighbor_masks], dtype=np.int64)

    size = 1 << n
    INF = np.iinfo(np.int64).max // 4
    # cut[S] and cw[S] arrays; build cut incrementally by lowest set bit.
    cut = np.zeros(size, dtype=np.int64)
    cw = np.full(size, INF, dtype=np.int64)
    cw[0] = 0
    for S in range(1, size):
        lsb = S & (-S)
        v = lsb.bit_length() - 1
        prev = S & ~lsb
        inside_prev = bin(int(neighbor_masks[v]) & prev).count("1")
        # adding v: its edges to outside become crossing, its edges to prev stop crossing
        cut[S] = cut[prev] + degrees[v] - 2 * inside_prev
    for S in range(1, size):
        best = INF
        T = S
        while T:
            lsb = T & (-T)
            v = lsb.bit_length() - 1
            T &= ~lsb
            prev = S & ~(1 << v)
            if cw[prev] < best:
                best = cw[prev]
        cw[S] = max(best, cut[S])
    return int(cw[size - 1])


