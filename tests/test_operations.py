"""Tests for graph operations: connectivity, subgraphs, permutations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graphs import (
    Graph,
    connected_components,
    cycle_graph,
    difference_edges,
    erdos_renyi_graph,
    induced_subgraph,
    is_connected,
    largest_connected_component,
    number_of_components,
    path_graph,
    permute_graph,
)
from repro.graphs.operations import add_edges, bfs_distances, remove_edges


def dfs_components(graph):
    """Component labels by one Python DFS per component, numbered in
    the order the scan over nodes 0..n-1 first meets them."""
    n = graph.num_nodes
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            node = stack.pop()
            for nb in graph.neighbors(node):
                if labels[nb] == -1:
                    labels[nb] = current
                    stack.append(int(nb))
        current += 1
    return labels


@st.composite
def sparse_graphs(draw):
    """Graphs of 0-40 nodes with few edges: empty graphs, isolated nodes
    and many components."""
    n = draw(st.integers(0, 40))
    ends = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=50))
    return Graph(n, [(u, v) for u, v in pairs if u != v])


class TestConnectivity:
    @given(sparse_graphs())
    @settings(max_examples=300, deadline=None)
    def test_labels_match_dfs_reference(self, graph):
        labels = connected_components(graph)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, dfs_components(graph))

    def test_single_component(self):
        assert is_connected(cycle_graph(5))
        assert number_of_components(cycle_graph(5)) == 1

    def test_two_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        labels = connected_components(g)
        assert number_of_components(g) == 3  # {0,1}, {2,3}, {4}
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[4] not in (labels[0], labels[2])

    def test_empty_graph(self):
        assert number_of_components(Graph(0)) == 0
        assert is_connected(Graph(0))

    def test_isolated_nodes(self):
        g = Graph(3)
        assert number_of_components(g) == 3

    def test_labels_contiguous(self):
        g = Graph(6, [(0, 1), (4, 5)])
        labels = connected_components(g)
        assert set(labels) == set(range(number_of_components(g)))


class TestLargestComponent:
    def test_extraction(self):
        g = Graph(7, [(0, 1), (1, 2), (2, 0), (4, 5)])
        sub, nodes = largest_connected_component(g)
        assert sub.num_nodes == 3
        assert sub.num_edges == 3
        assert sorted(nodes.tolist()) == [0, 1, 2]

    def test_connected_graph_unchanged(self):
        g = cycle_graph(6)
        sub, nodes = largest_connected_component(g)
        assert sub == g
        assert nodes.tolist() == list(range(6))

    def test_empty(self):
        sub, nodes = largest_connected_component(Graph(0))
        assert sub.num_nodes == 0
        assert nodes.size == 0


class TestInducedSubgraph:
    def test_relabeling(self):
        g = Graph(5, [(1, 3), (3, 4), (0, 1)])
        sub = induced_subgraph(g, [3, 1, 4])
        # New labels: 3->0, 1->1, 4->2.
        assert sub.num_nodes == 3
        assert sub.edge_set() == {(0, 1), (0, 2)}

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(GraphError):
            induced_subgraph(cycle_graph(4), [0, 0, 1])

    def test_empty_selection(self):
        sub = induced_subgraph(cycle_graph(4), [])
        assert sub.num_nodes == 0


class TestPermutation:
    def test_isomorphism_preserved(self):
        g = erdos_renyi_graph(40, 0.2, seed=0)
        perm = np.random.default_rng(1).permutation(40)
        h = permute_graph(g, perm)
        assert h.num_edges == g.num_edges
        assert np.array_equal(np.sort(h.degrees), np.sort(g.degrees))
        # Edge (u, v) in g iff (perm[u], perm[v]) in h.
        for u, v in g.edges()[:10]:
            assert h.has_edge(int(perm[u]), int(perm[v]))

    def test_identity_permutation(self):
        g = cycle_graph(5)
        assert permute_graph(g, np.arange(5)) == g

    def test_inverse_roundtrip(self):
        g = erdos_renyi_graph(30, 0.2, seed=0)
        perm = np.random.default_rng(2).permutation(30)
        inv = np.argsort(perm)
        assert permute_graph(permute_graph(g, perm), inv) == g

    def test_invalid_permutation_rejected(self):
        with pytest.raises(GraphError):
            permute_graph(cycle_graph(4), [0, 0, 1, 2])
        with pytest.raises(GraphError):
            permute_graph(cycle_graph(4), [0, 1, 2])


class TestEdgeEdits:
    def test_remove(self):
        g = cycle_graph(5)
        h = remove_edges(g, [(0, 1)])
        assert h.num_edges == 4
        assert not h.has_edge(0, 1)

    def test_remove_missing_rejected(self):
        with pytest.raises(GraphError):
            remove_edges(path_graph(4), [(0, 3)])

    def test_add(self):
        g = path_graph(4)
        h = add_edges(g, [(0, 3)])
        assert h.has_edge(0, 3)
        assert h.num_edges == 4

    def test_add_existing_rejected(self):
        with pytest.raises(GraphError):
            add_edges(path_graph(4), [(0, 1)])

    def test_difference(self):
        a = Graph(4, [(0, 1), (1, 2)])
        b = Graph(4, [(1, 2), (2, 3)])
        only_a, only_b = difference_edges(a, b)
        assert only_a == {(0, 1)}
        assert only_b == {(2, 3)}


class TestBfsDistances:
    def test_path_distances(self):
        dist = bfs_distances(path_graph(5), 0)
        assert dist.tolist() == [0, 1, 2, 3, 4]

    def test_unreachable(self):
        g = Graph(4, [(0, 1)])
        dist = bfs_distances(g, 0)
        assert dist[2] == -1 and dist[3] == -1

    def test_max_depth(self):
        dist = bfs_distances(path_graph(6), 0, max_depth=2)
        assert dist.tolist() == [0, 1, 2, -1, -1, -1]
