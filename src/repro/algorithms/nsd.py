"""NSD — Network Similarity Decomposition (Kollias et al. 2011), paper §3.3.

NSD unrolls IsoRank's damped power iteration (Eq. 3) and exploits the
Kronecker structure: with a rank-one prior ``h = w z^T`` the iterate

    X^(n) = (1-alpha) sum_{k<n} alpha^k Ct^k h + alpha^n Ct^n h

decomposes into outer products of the per-graph sequences
``w^(k) = (D_B^{-1} B)^k w`` and ``z^(k) = (D_A^{-1} A)^k z`` (Eq. 4), so no
``n^2 x n^2`` matrix is ever formed.  A rank-``s`` prior (from the SVD of
the degree-prior matrix, standing in for Blast scores) sums ``s``
independent decompositions (Eq. 5).  All ``(n+1)·s`` outer products are
summed by one matrix product of the stacked, coefficient-weighted
``w^(k)`` columns with the stacked ``z^(k)`` columns.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import AlgorithmInfo, AlignmentAlgorithm, register_algorithm
from repro.exceptions import AlgorithmError
from repro.graphs.graph import Graph
from repro.graphs.matrices import column_stochastic
from repro.observability import add_counter
from repro.util import degree_prior_pair

__all__ = ["NSD"]


@register_algorithm
class NSD(AlignmentAlgorithm):
    """Network Similarity Decomposition.

    Parameters
    ----------
    alpha:
        Damping factor (paper default 0.8).
    iterations:
        Depth ``n`` of the unrolled power iteration.
    prior:
        ``"uniform"`` — the preprocessing-free mode (rank-1 uniform prior);
        ``"degree"`` — incorporate the degree prior via its top-``components``
        singular triplets (the paper's "with preprocessing" variant).
    components:
        Rank of the prior decomposition when ``prior="degree"``.
    """

    info = AlgorithmInfo(
        name="nsd",
        year=2011,
        preprocessing="both",
        biological=False,
        default_assignment="sg",
        optimizes="any",
        time_complexity="O(n^2)",
        parameters={"alpha": 0.8},
    )

    def __init__(self, alpha: float = 0.8, iterations: int = 20,
                 prior: str = "uniform", components: int = 5):
        if not 0.0 <= alpha <= 1.0:
            raise AlgorithmError(f"alpha must be in [0, 1], got {alpha}")
        if prior not in ("uniform", "degree"):
            raise AlgorithmError(f"prior must be 'uniform' or 'degree', got {prior!r}")
        if iterations < 1:
            raise AlgorithmError(f"iterations must be >= 1, got {iterations}")
        self.alpha = float(alpha)
        self.iterations = int(iterations)
        self.prior = prior
        self.components = int(components)

    def _prior_factors(self, source: Graph, target: Graph):
        """Rank-s factors: the columns w_i (source side, n_a x s) and z_i
        (target side, n_b x s)."""
        n_a, n_b = source.num_nodes, target.num_nodes
        if self.prior == "uniform":
            return np.full((n_a, 1), 1.0 / n_a), np.full((n_b, 1), 1.0 / n_b)
        prior = degree_prior_pair(source, target)
        # Out-of-place: the prior may be a cache-shared read-only array.
        prior = prior / prior.sum()
        u, s, vt = np.linalg.svd(prior, full_matrices=False)
        rank = int(min(self.components, s.size))
        root = np.sqrt(s[:rank])
        return u[:, :rank] * root, vt[:rank].T * root

    def _similarity(self, source: Graph, target: Graph,
                    rng: np.random.Generator) -> np.ndarray:
        # The same column-stochastic operators as IsoRank (A D^{-1}), so the
        # unrolled iteration matches the recursion it approximates.
        op_a = column_stochastic(source)
        op_b = column_stochastic(target)
        w, z = self._prior_factors(source, target)
        rank = w.shape[1]

        # X = sum_k c_k W_k Z_k^T with c_k = (1-alpha) alpha^k for k < n
        # and c_n = alpha^n: one GEMM over the weighted, stacked columns.
        steps = self.iterations + 1
        left = np.empty((source.num_nodes, steps * rank))
        right = np.empty((target.num_nodes, steps * rank))
        for k in range(steps):
            if k:
                w = op_a @ w
                z = op_b @ z
            coeff = (self.alpha ** k if k == self.iterations
                     else (1.0 - self.alpha) * (self.alpha ** k))
            np.multiply(w, coeff, out=left[:, k * rank:(k + 1) * rank])
            right[:, k * rank:(k + 1) * rank] = z
        add_counter("power_iterations", self.iterations * rank)
        return left @ right.T
