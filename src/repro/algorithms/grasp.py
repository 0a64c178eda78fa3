"""GRASP (Hermanns et al. 2021) — spectral alignment, paper §3.8.

GRASP compares graphs through functional maps built on the eigenvectors of
their normalized Laplacians:

1. compute the top-``k`` eigenpairs of each graph;
2. evaluate ``q`` *corresponding functions* — heat-kernel diagonals at
   ``q`` diffusion times (Eq. 13) — and project them onto the eigenbases,
   giving coefficient matrices ``F`` (source) and ``G`` (target);
3. resolve the eigenvector basis ambiguity with a base-alignment matrix
   ``M`` (Eq. 14): block-structured along spectral-gap clusters, with a
   Procrustes rotation inside well-conditioned clusters and per-column
   sign matching elsewhere;
4. fit a diagonal mapping ``C`` that carries target eigenvector coordinates
   onto source ones (least squares per eigenvector);
5. match nodes by comparing rows of the aligned spectral embeddings with a
   linear assignment (the authors use JV).

Because everything rests on the Laplacian eigenbasis, GRASP inherits the
spectrum's failure mode on disconnected graphs (degenerate eigenvalue 0),
exactly as the paper reports.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import AlgorithmInfo, AlignmentAlgorithm, register_algorithm
from repro.embedding.topk import topk_similarity
from repro.exceptions import AlgorithmError
from repro.graphs.graph import Graph
from repro.observability import span
from repro.sketch import SIMILARITY_TOPK, sketch_policy_for
from repro.spectral import heat_kernel_diagonals, laplacian_eigenpairs
from repro.util import pairwise_sq_dists

__all__ = ["Grasp"]


@register_algorithm
class Grasp(AlignmentAlgorithm):
    """GRASP spectral alignment.

    Parameters
    ----------
    k:
        Number of Laplacian eigenvectors (paper Table 1: 20).
    q:
        Number of heat-diffusion time steps (paper Table 1: 100).
    t_min, t_max:
        Diffusion time range, log-sampled.
    cluster_gap:
        Minimum eigenvalue gap separating base-alignment blocks; mixing is
        only allowed inside clusters tighter than this.
    condition_threshold:
        Minimum relative smallest singular value for a block's Procrustes
        rotation to be trusted over per-column sign matching.
    """

    info = AlgorithmInfo(
        name="grasp",
        year=2021,
        preprocessing="no",
        biological=False,
        default_assignment="jv",
        optimizes="any",
        time_complexity="O(n^3)",
        parameters={"q": 100, "k": 20},
        # The spectrum degenerates on disconnected graphs (repeated zero
        # eigenvalue) — the failure mode the paper reports in §6.4.2.
        requires_connected=True,
        min_nodes=2,
    )

    def __init__(self, k: int = 20, q: int = 100,
                 t_min: float = 0.1, t_max: float = 50.0,
                 cluster_gap: float = 0.02, condition_threshold: float = 0.3):
        if k < 1 or q < 1:
            raise AlgorithmError(f"k and q must be >= 1, got k={k}, q={q}")
        self.k = int(k)
        self.q = int(q)
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.cluster_gap = float(cluster_gap)
        self.condition_threshold = float(condition_threshold)

    def _spectral_data(self, graph: Graph):
        k = min(self.k, graph.num_nodes)
        vals, vecs = laplacian_eigenpairs(graph, k=k)
        times = np.logspace(np.log10(self.t_min), np.log10(self.t_max), self.q)
        diags = heat_kernel_diagonals(vals, vecs, times, graph=graph)  # (q, n)
        coeffs = diags @ vecs                             # (q, k)
        return vals, vecs, coeffs

    def _base_alignment(self, vals_a: np.ndarray, vals_b: np.ndarray,
                        f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The base-alignment matrix M of Eq. 14, block-structured.

        Eigenvalues are grouped into clusters separated by spectral gaps of
        at least ``cluster_gap`` (mixing across such gaps is penalized by
        Eq. 14's diagonalization term).  Within a cluster, the rotation that
        best maps G's coefficients onto F's is the Procrustes solution of
        the cluster's cross-covariance — used only when well conditioned
        (``condition_threshold``); otherwise per-eigenvector sign matching
        is the safe fallback.
        """
        k = f.shape[1]
        average = (vals_a + vals_b) / 2.0
        splits = [0]
        for j in range(1, k):
            if average[j] - average[j - 1] > self.cluster_gap:
                splits.append(j)
        splits.append(k)

        base = np.zeros((k, k))
        for lo, hi in zip(splits[:-1], splits[1:]):
            block_f, block_g = f[:, lo:hi], g[:, lo:hi]
            if hi - lo > 1:
                u, s, vt = np.linalg.svd(block_g.T @ block_f)
                if s[-1] > self.condition_threshold * s[0]:
                    base[lo:hi, lo:hi] = u @ vt
                    continue
            for j in range(lo, hi):
                sign = np.sign(f[:, j] @ g[:, j])
                base[j, j] = sign if sign != 0 else 1.0
        return base

    def _similarity(self, source: Graph, target: Graph,
                    rng: np.random.Generator) -> np.ndarray:
        with span("spectral"):
            vals_a, phi, f = self._spectral_data(source)
            vals_b, psi, g = self._spectral_data(target)
        k = min(phi.shape[1], psi.shape[1])
        vals_a, phi, f = vals_a[:k], phi[:, :k], f[:, :k]
        vals_b, psi, g = vals_b[:k], psi[:, :k], g[:, :k]

        with span("base_alignment"):
            base = self._base_alignment(vals_a, vals_b, f, g)
        psi_aligned = psi @ base
        g_aligned = g @ base

        # Diagonal mapping C: per-eigenvector least squares G c ≈ F.
        denom = np.einsum("qk,qk->k", g_aligned, g_aligned)
        denom[denom == 0] = 1.0
        c = np.einsum("qk,qk->k", f, g_aligned) / denom

        emb_a = phi                                  # (n_a, k)
        emb_b = psi_aligned * c[np.newaxis, :]       # (n_b, k)
        if sketch_policy_for(emb_a.shape[0], emb_b.shape[0]) is not None:
            # Sparse-first: top-k candidates with the "neg" kernel, which
            # stores -||.||^2 itself — same objective as the dense path
            # restricted to the candidate set, and no exp underflow.
            return topk_similarity(emb_a, emb_b, k=SIMILARITY_TOPK,
                                   kernel="neg")
        return -pairwise_sq_dists(emb_a, emb_b)
