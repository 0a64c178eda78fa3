"""GWL — Gromov-Wasserstein Learning (Xu et al., ICML 2019), paper §3.6.

GWL jointly learns node embeddings and an optimal transport between the two
node sets (Eq. 11): the GW discrepancy term matches relational structure,
the Wasserstein term matches node embeddings, and the embeddings are in
turn regularized by the learned transport.  The non-convex problem is
solved by alternating

1. a proximal-point GW solve (``repro.ot.gromov``) with the embedding
   distance as a fused cost, and
2. gradient updates pulling matched embeddings together.

Node mass is distributed by degree (``mu ∝ deg^theta``), which is what ties
GWL's discriminative power to the degree distribution — the behaviour the
paper highlights (excellent on power-law graphs, near zero on
uniform-degree models).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import AlgorithmInfo, AlignmentAlgorithm, register_algorithm
from repro.exceptions import AlgorithmError
from repro.graphs.graph import Graph
from repro.observability import span
from repro.ot.gromov import gromov_wasserstein
from repro.util import pairwise_sq_dists

__all__ = ["GWL", "degree_distribution"]


def degree_distribution(graph: Graph, theta: float = 0.5) -> np.ndarray:
    """Node mass ``mu_i ∝ (deg_i + 1)^theta``, normalized."""
    weights = (graph.degrees.astype(np.float64) + 1.0) ** theta
    return weights / weights.sum()


@register_algorithm
class GWL(AlignmentAlgorithm):
    """Gromov–Wasserstein Learning.

    Parameters
    ----------
    epochs:
        Outer embedding/transport alternations (paper Table 1: 1).
    dim:
        Embedding dimension.
    beta:
        Proximal-point weight of the inner GW solver.
    theta:
        Degree exponent of the node mass distribution.
    alpha_max:
        Final weight of the embedding (Wasserstein) term; ramped linearly
        over epochs as in the original implementation.
    learning_rate:
        Step size of the embedding updates.
    """

    info = AlgorithmInfo(
        name="gwl",
        year=2019,
        preprocessing="no",
        biological=False,
        default_assignment="nn",
        optimizes="any",
        time_complexity="O(n^3)",
        parameters={"epoch": 1},
    )

    def __init__(self, epochs: int = 2, dim: int = 16, beta: float = 0.05,
                 outer_iter: int = 30, theta: float = 0.5,
                 alpha_max: float = 0.5, learning_rate: float = 0.5):
        if epochs < 1:
            raise AlgorithmError(f"epochs must be >= 1, got {epochs}")
        self.epochs = int(epochs)
        self.dim = int(dim)
        self.beta = float(beta)
        self.outer_iter = int(outer_iter)
        self.theta = float(theta)
        self.alpha_max = float(alpha_max)
        self.learning_rate = float(learning_rate)

    def _similarity(self, source: Graph, target: Graph,
                    rng: np.random.Generator) -> np.ndarray:
        c_a = source.adjacency()
        c_b = target.adjacency()
        mu = degree_distribution(source, self.theta)
        nu = degree_distribution(target, self.theta)

        x_a = 0.1 * rng.standard_normal((source.num_nodes, self.dim))
        x_b = 0.1 * rng.standard_normal((target.num_nodes, self.dim))

        plan = None
        for epoch in range(self.epochs):
            alpha = self.alpha_max * epoch / max(self.epochs - 1, 1)
            emb_cost = pairwise_sq_dists(x_a, x_b) if alpha > 0 else None
            with span("gw_solve"):
                plan = gromov_wasserstein(
                    c_a, c_b, mu, nu,
                    beta=self.beta,
                    outer_iter=self.outer_iter,
                    extra_cost=emb_cost,
                    alpha=alpha,
                    init_plan=plan,
                )
            if epoch < self.epochs - 1:
                x_a, x_b = self._update_embeddings(x_a, x_b, plan)
        return plan

    def _update_embeddings(self, x_a: np.ndarray, x_b: np.ndarray,
                           plan: np.ndarray):
        """One gradient step on the Wasserstein term <K(X_A, X_B), T>.

        The gradient of ``sum_ij T_ij ||x_i - y_j||^2`` pulls each node
        toward the barycenter of its transport targets.
        """
        row_mass = plan.sum(axis=1, keepdims=True)
        col_mass = plan.sum(axis=0, keepdims=True)
        grad_a = 2.0 * (row_mass * x_a - plan @ x_b)
        grad_b = 2.0 * (col_mass.T * x_b - plan.T @ x_a)
        return (x_a - self.learning_rate * grad_a,
                x_b - self.learning_rate * grad_b)
