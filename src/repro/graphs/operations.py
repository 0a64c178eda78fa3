"""Structural graph operations: connectivity, subgraphs, permutations.

The noise models and several algorithms (notably GRASP, which is sensitive
to disconnected inputs) need fast connectivity queries; alignment
experiments need node permutations with tracked ground truth.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy.sparse import csgraph

from repro.exceptions import GraphError
from repro.graphs.graph import Graph

__all__ = [
    "connected_components",
    "number_of_components",
    "is_connected",
    "largest_connected_component",
    "induced_subgraph",
    "permute_graph",
    "difference_edges",
    "add_edges",
    "remove_edges",
    "bfs_distances",
]


def connected_components(graph: Graph) -> np.ndarray:
    """Component label per node, labels contiguous from 0 in the order of
    each component's smallest node (so node 0's component is 0)."""
    if graph.num_nodes == 0:
        return np.empty(0, dtype=np.int64)
    _count, labels = csgraph.connected_components(graph.adjacency(),
                                                  directed=False)
    return labels.astype(np.int64)


def number_of_components(graph: Graph) -> int:
    """Number of connected components (0 for the empty graph)."""
    if graph.num_nodes == 0:
        return 0
    return int(connected_components(graph).max()) + 1


def is_connected(graph: Graph) -> bool:
    """Whether the graph has exactly one connected component."""
    return number_of_components(graph) <= 1


def largest_connected_component(graph: Graph) -> Tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest component.

    Returns ``(subgraph, nodes)`` where ``nodes[i]`` is the original id of
    the subgraph's node ``i``.
    """
    if graph.num_nodes == 0:
        return graph, np.empty(0, dtype=np.int64)
    labels = connected_components(graph)
    sizes = np.bincount(labels)
    keep = np.flatnonzero(labels == int(np.argmax(sizes)))
    return induced_subgraph(graph, keep), keep


def induced_subgraph(graph: Graph, nodes: Sequence[int]) -> Graph:
    """Subgraph induced by ``nodes``, relabeled to ``0..len(nodes)-1``.

    The order of ``nodes`` defines the new labels.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size != np.unique(nodes).size:
        raise GraphError("induced_subgraph nodes must be distinct")
    remap = np.full(graph.num_nodes, -1, dtype=np.int64)
    remap[nodes] = np.arange(nodes.size)
    edges = graph.edges()
    if edges.size == 0:
        return Graph(nodes.size, ())
    mapped = remap[edges]
    keep = (mapped[:, 0] >= 0) & (mapped[:, 1] >= 0)
    return Graph(nodes.size, mapped[keep])


def permute_graph(graph: Graph, permutation: Sequence[int]) -> Graph:
    """Relabel nodes: node ``i`` of the input becomes ``permutation[i]``.

    The returned graph is isomorphic to the input with the isomorphism given
    by ``permutation`` (so the ground-truth alignment from the permuted graph
    back to the original is the inverse permutation).
    """
    perm = np.asarray(permutation, dtype=np.int64)
    if perm.size != graph.num_nodes or not np.array_equal(np.sort(perm),
                                                          np.arange(graph.num_nodes)):
        raise GraphError("permutation must be a bijection on 0..n-1")
    edges = graph.edges()
    return Graph(graph.num_nodes, perm[edges] if edges.size else ())


def remove_edges(graph: Graph, edges: Sequence[Tuple[int, int]]) -> Graph:
    """New graph with the listed edges removed (missing edges are an error)."""
    to_remove = {(min(u, v), max(u, v)) for u, v in edges}
    existing = graph.edge_set()
    missing = to_remove - existing
    if missing:
        raise GraphError(f"cannot remove non-existent edges: {sorted(missing)[:5]}")
    kept = [e for e in existing if e not in to_remove]
    return Graph(graph.num_nodes, np.asarray(kept, dtype=np.int64).reshape(-1, 2))


def add_edges(graph: Graph, edges: Sequence[Tuple[int, int]]) -> Graph:
    """New graph with the listed edges added (existing edges are an error)."""
    to_add = {(min(u, v), max(u, v)) for u, v in edges}
    existing = graph.edge_set()
    clashes = to_add & existing
    if clashes:
        raise GraphError(f"cannot add already-present edges: {sorted(clashes)[:5]}")
    merged = list(existing | to_add)
    return Graph(graph.num_nodes, np.asarray(merged, dtype=np.int64).reshape(-1, 2))


def difference_edges(a: Graph, b: Graph) -> Tuple[set, set]:
    """Edges only in ``a`` and edges only in ``b`` (as sets of pairs)."""
    ea, eb = a.edge_set(), b.edge_set()
    return ea - eb, eb - ea


def bfs_distances(graph: Graph, source: int, max_depth: int | None = None) -> np.ndarray:
    """Hop distance from ``source`` to all nodes (-1 for unreachable).

    ``max_depth`` truncates the search; nodes beyond it stay at -1.
    """
    n = graph.num_nodes
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        nxt: List[int] = []
        for node in frontier:
            for nb in graph.neighbors(node):
                if dist[nb] == -1:
                    dist[nb] = depth
                    nxt.append(int(nb))
        frontier = nxt
    return dist
