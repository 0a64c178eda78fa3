"""S-GWL — Scalable Gromov-Wasserstein Learning (Xu et al. 2019), §3.6.

S-GWL keeps GWL's objective but applies recursive divide and conquer: both
graphs are coupled to a common K-node *barycenter* graph; the couplings
partition each graph into K matched clusters; the recursion continues
inside matched cluster pairs until they are small enough for a direct GW
solve.  This gives the logarithmic speedup over GWL that the paper
describes, at the cost of hyperparameter (``beta``) sensitivity, which the
paper also observes.

Every GW solve here runs on the graphs' sparse (CSR) adjacency, so a
proximal step costs two sparse products instead of two dense n^3 ones.
The partition's clusters do not yet correspond between the two graphs
(each graph is labeled by its own plan to the barycenter), which loses
nodes at every level; the default ``leaf_size`` of 1200 therefore solves
every pair up to the paper's synthetic size (n=1133) directly, and such a
pair's similarity is the solver's dense plan.  Larger pairs still
partition.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy import sparse

from repro.algorithms.base import AlgorithmInfo, AlignmentAlgorithm, register_algorithm
from repro.algorithms.gwl import degree_distribution
from repro.exceptions import AlgorithmError
from repro.graphs.graph import Graph
from repro.graphs.operations import induced_subgraph
from repro.observability import add_counter
from repro.ot.gromov import gromov_wasserstein, gw_barycenter_costs

__all__ = ["SGWL"]


@register_algorithm
class SGWL(AlignmentAlgorithm):
    """Scalable GWL via recursive barycenter partitioning.

    Parameters
    ----------
    beta:
        Proximal weight; the paper tunes 0.025 (sparse) / 0.1 (dense).
    partitions:
        Barycenter size K (clusters per recursion level).
    leaf_size:
        Pairs of at most this many nodes are solved directly, by one GW
        solve; larger ones are partitioned first.
    theta:
        Degree exponent of the node mass distribution.
    """

    info = AlgorithmInfo(
        name="s-gwl",
        year=2019,
        preprocessing="no",
        biological=False,
        default_assignment="nn",
        optimizes="any",
        time_complexity="O(n^2 log n)",
        parameters={"beta": (0.025, 0.1)},
    )

    def __init__(self, beta: float = 0.1, partitions: int = 2,
                 leaf_size: int = 1200, outer_iter: int = 30, theta: float = 0.5):
        if partitions < 2:
            raise AlgorithmError(f"partitions must be >= 2, got {partitions}")
        if leaf_size < 2:
            raise AlgorithmError(f"leaf_size must be >= 2, got {leaf_size}")
        self.beta = float(beta)
        self.partitions = int(partitions)
        self.leaf_size = int(leaf_size)
        self.outer_iter = int(outer_iter)
        self.theta = float(theta)

    # ------------------------------------------------------------------

    def _solve_leaf(self, sub_a: Graph, sub_b: Graph) -> np.ndarray:
        add_counter("gw_leaf_solves")
        mu = degree_distribution(sub_a, self.theta)
        nu = degree_distribution(sub_b, self.theta)
        return gromov_wasserstein(
            sub_a.adjacency(), sub_b.adjacency(),
            mu, nu, beta=self.beta, outer_iter=self.outer_iter,
        )

    def _partition(self, sub_a: Graph, sub_b: Graph,
                   rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Cluster labels for both subgraphs via a common GW barycenter."""
        add_counter("gw_partitions")
        _bary, plans = gw_barycenter_costs(
            [sub_a.adjacency(), sub_b.adjacency()],
            size=self.partitions, beta=self.beta, outer_iter=5, seed=rng,
        )
        labels_a = np.argmax(plans[0], axis=1)
        labels_b = np.argmax(plans[1], axis=1)
        return labels_a, labels_b

    def _recurse(self, source: Graph, target: Graph,
                 nodes_a: np.ndarray, nodes_b: np.ndarray,
                 out: sparse.lil_matrix, rng: np.random.Generator,
                 depth: int) -> None:
        sub_a = induced_subgraph(source, nodes_a)
        sub_b = induced_subgraph(target, nodes_b)
        small = max(nodes_a.size, nodes_b.size) <= self.leaf_size
        if small or depth > 30:
            plan = self._solve_leaf(sub_a, sub_b)
            out[np.ix_(nodes_a, nodes_b)] = plan
            return
        labels_a, labels_b = self._partition(sub_a, sub_b, rng)
        recursed = False
        for k in range(self.partitions):
            part_a = nodes_a[labels_a == k]
            part_b = nodes_b[labels_b == k]
            if part_a.size == 0 or part_b.size == 0:
                continue
            if part_a.size == nodes_a.size and part_b.size == nodes_b.size:
                continue  # degenerate split; fall through to leaf solve
            recursed = True
            self._recurse(source, target, part_a, part_b, out, rng, depth + 1)
        # Nodes falling into a cluster that is empty on the other side get no
        # similarity mass and end up unmatched or resolved by the LAP solver.
        if not recursed:
            plan = self._solve_leaf(sub_a, sub_b)
            out[np.ix_(nodes_a, nodes_b)] = plan

    def _similarity(self, source: Graph, target: Graph,
                    rng: np.random.Generator):
        if max(source.num_nodes, target.num_nodes) <= self.leaf_size:
            # One leaf: the solver's dense plan is the similarity.
            return self._solve_leaf(source, target)
        out = sparse.lil_matrix((source.num_nodes, target.num_nodes))
        self._recurse(
            source, target,
            np.arange(source.num_nodes), np.arange(target.num_nodes),
            out, rng, depth=0,
        )
        return out.tocsr()
