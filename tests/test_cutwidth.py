"""Tests for cutwidth computation (repro.graphs.cutwidth) and topologies."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graphs.cutwidth import cutwidth_exact, cutwidth_of_ordering
from repro.graphs.topologies import (
    binary_tree_graph,
    clique_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    ring_graph,
    star_graph,
    torus_graph,
)


class TestCutwidthOfOrdering:
    def test_path_natural_ordering(self):
        g = nx.path_graph(5)
        assert cutwidth_of_ordering(g, [0, 1, 2, 3, 4]) == 1

    def test_path_bad_ordering(self):
        g = nx.path_graph(5)
        # interleaving the endpoints inflates the cut
        assert cutwidth_of_ordering(g, [0, 4, 1, 3, 2]) > 1

    def test_any_ordering_upper_bounds_exact(self):
        # the documented fallback past the exact DP's cap: any ordering's
        # width is a valid upper bound on chi(G)
        rng = np.random.default_rng(1)
        for _ in range(3):
            g = erdos_renyi_graph(7, 0.4, rng=rng)
            exact = cutwidth_exact(g)
            for _ in range(5):
                ordering = rng.permutation(list(g.nodes())).tolist()
                assert cutwidth_of_ordering(g, ordering) >= exact

    def test_natural_ordering_is_tight_on_path_and_ring(self):
        for n in (4, 7, 10):
            assert cutwidth_of_ordering(nx.path_graph(n), range(n)) == 1
            ring = nx.cycle_graph(n)
            assert cutwidth_of_ordering(ring, range(n)) == cutwidth_exact(ring) == 2

    def test_rejects_non_permutation(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError):
            cutwidth_of_ordering(g, [0, 1])
        with pytest.raises(ValueError):
            cutwidth_of_ordering(g, [0, 1, 1])


class TestExactCutwidth:
    def test_path(self):
        assert cutwidth_exact(nx.path_graph(6)) == 1

    def test_ring(self):
        assert cutwidth_exact(nx.cycle_graph(6)) == 2

    def test_star(self):
        # star K_{1,4}: cutwidth = ceil(4/2) = 2
        assert cutwidth_exact(nx.star_graph(4)) == 2

    def test_clique(self):
        # closed form floor(n/2) * ceil(n/2)
        for n in (3, 4, 5, 6):
            assert cutwidth_exact(nx.complete_graph(n)) == (n // 2) * ((n + 1) // 2)

    def test_star_closed_form(self):
        # K_{1,k}: the centre sits in the middle of the leaves, ceil(k/2)
        for k in range(1, 8):
            assert cutwidth_exact(nx.star_graph(k)) == (k + 1) // 2

    def test_path_and_ring_closed_forms(self):
        for n in range(3, 10):
            assert cutwidth_exact(nx.path_graph(n)) == 1
            assert cutwidth_exact(nx.cycle_graph(n)) == 2

    def test_invariant_under_relabelling(self):
        rng = np.random.default_rng(4)
        g = erdos_renyi_graph(7, 0.5, rng=rng)
        labels = rng.permutation(100)[:7]
        relabelled = nx.relabel_nodes(g, dict(zip(g.nodes(), labels.tolist())))
        assert cutwidth_exact(relabelled) == cutwidth_exact(g)

    def test_disjoint_union_takes_the_larger_component(self):
        union = nx.disjoint_union(nx.complete_graph(5), nx.cycle_graph(6))
        assert cutwidth_exact(union) == max(
            cutwidth_exact(nx.complete_graph(5)), cutwidth_exact(nx.cycle_graph(6))
        ) == 6

    def test_monotone_under_edge_addition(self):
        rng = np.random.default_rng(6)
        g = erdos_renyi_graph(6, 0.3, rng=rng)
        width = cutwidth_exact(g)
        for u, v in list(nx.non_edges(g))[:6]:
            bigger = g.copy()
            bigger.add_edge(u, v)
            assert cutwidth_exact(bigger) >= width

    def test_edgeless(self):
        g = nx.empty_graph(4)
        assert cutwidth_exact(g) == 0

    def test_grid_2x3(self):
        # known small value; verify against brute force over all orderings
        from itertools import permutations

        g = grid_graph(2, 3)
        brute = min(cutwidth_of_ordering(g, p) for p in permutations(g.nodes()))
        assert cutwidth_exact(g) == brute

    def test_matches_bruteforce_random_graphs(self):
        from itertools import permutations

        rng = np.random.default_rng(5)
        for _ in range(3):
            g = erdos_renyi_graph(5, 0.5, rng=rng)
            brute = min(cutwidth_of_ordering(g, p) for p in permutations(g.nodes()))
            assert cutwidth_exact(g) == brute

    def test_size_guard(self):
        with pytest.raises(ValueError, match="use cutwidth_of_ordering on any ordering"):
            cutwidth_exact(nx.path_graph(30))


class TestTopologies:
    def test_ring(self):
        g = ring_graph(6)
        assert g.number_of_nodes() == 6 and g.number_of_edges() == 6
        assert all(d == 2 for _, d in g.degree())

    def test_clique(self):
        g = clique_graph(5)
        assert g.number_of_edges() == 10

    def test_path_and_star(self):
        assert path_graph(5).number_of_edges() == 4
        g = star_graph(5)
        assert g.number_of_edges() == 4
        assert max(d for _, d in g.degree()) == 4

    def test_grid_and_torus(self):
        g = grid_graph(3, 4)
        assert g.number_of_nodes() == 12
        assert sorted(g.nodes()) == list(range(12))
        t = torus_graph(3, 3)
        assert all(d == 4 for _, d in t.degree())

    def test_binary_tree(self):
        g = binary_tree_graph(3)
        assert g.number_of_nodes() == 2**4 - 1

    def test_erdos_renyi_connected(self):
        g = erdos_renyi_graph(10, 0.4, rng=np.random.default_rng(2))
        assert nx.is_connected(g)

    def test_random_regular(self):
        g = random_regular_graph(8, 3, rng=np.random.default_rng(3))
        assert all(d == 3 for _, d in g.degree())

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ring_graph(2)
        with pytest.raises(ValueError):
            clique_graph(1)
        with pytest.raises(ValueError):
            torus_graph(2, 3)
        with pytest.raises(ValueError):
            random_regular_graph(5, 5)
        with pytest.raises(ValueError):
            erdos_renyi_graph(5, 1.5)
