"""Graph substrate: the :class:`Graph` type, generators, operations, I/O.

Everything in the benchmark operates on simple undirected graphs with
contiguous integer node ids ``0..n-1``.  The :class:`Graph` class is a thin
immutable wrapper over a CSR adjacency structure; generators build the
random-graph families used throughout the paper; operations provide
connectivity, permutation, and subgraph utilities; matrices exposes the
linear-algebra views (adjacency, Laplacian, normalizations) that the
alignment algorithms consume.
"""

from repro.graphs.graph import Graph
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_graph,
    configuration_model_graph,
    cycle_graph,
    erdos_renyi_graph,
    newman_watts_graph,
    path_graph,
    powerlaw_cluster_graph,
    random_regular_graph,
    star_graph,
    watts_strogatz_graph,
)
from repro.graphs.operations import (
    connected_components,
    difference_edges,
    induced_subgraph,
    is_connected,
    largest_connected_component,
    number_of_components,
    permute_graph,
)
from repro.graphs.matrices import (
    adjacency_matrix,
    degree_matrix,
    heat_kernel,
    normalized_adjacency,
    normalized_laplacian,
    row_stochastic,
)
from repro.graphs.io import read_edgelist, write_edgelist
from repro.graphs.properties import (
    average_clustering,
    clustering_coefficient,
    degree_assortativity,
    degree_gini,
    effective_diameter,
    graph_summary,
    transitivity,
    triangle_count,
)

__all__ = [
    "Graph",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "newman_watts_graph",
    "powerlaw_cluster_graph",
    "configuration_model_graph",
    "random_regular_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "connected_components",
    "is_connected",
    "largest_connected_component",
    "number_of_components",
    "induced_subgraph",
    "permute_graph",
    "difference_edges",
    "adjacency_matrix",
    "degree_matrix",
    "normalized_laplacian",
    "normalized_adjacency",
    "row_stochastic",
    "heat_kernel",
    "read_edgelist",
    "write_edgelist",
    "average_clustering",
    "clustering_coefficient",
    "transitivity",
    "triangle_count",
    "degree_assortativity",
    "degree_gini",
    "effective_diameter",
    "graph_summary",
]
