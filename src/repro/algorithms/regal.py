"""REGAL (Heimann et al. 2018) — representation-learning alignment, §3.5.

Three steps: (1) xNetMF structural features — discounted k-hop degree
histograms (Eq. 8); (2) joint cross-network embeddings via landmark
similarities and a Nyström factorization (Eq. 9); (3) alignment by
embedding similarity ``exp(-||y_u - y_v||^2)`` (Eq. 10), natively via a
k-d tree nearest-neighbor query.

The embedding substrate lives in :mod:`repro.embedding.xnetmf`; this class
wires it into the common algorithm interface and follows the paper's
configuration (K=2 hops, ``p = 10 log2 n`` landmarks, structure-only).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import AlgorithmInfo, AlignmentAlgorithm, register_algorithm
from repro.embedding.topk import topk_similarity
from repro.embedding.xnetmf import xnetmf_embeddings
from repro.exceptions import AlgorithmError
from repro.graphs.graph import Graph
from repro.observability import span
from repro.sketch import SIMILARITY_TOPK, sketch_policy_for
from repro.util import pairwise_sq_dists

__all__ = ["Regal"]


@register_algorithm
class Regal(AlignmentAlgorithm):
    """REGAL with xNetMF embeddings.

    Parameters
    ----------
    max_hops:
        Neighborhood depth K (paper: 2).
    delta:
        Hop discount factor (Eq. 8).
    gamma:
        Structural kernel width (Eq. 9); the attribute weight is 0 in the
        unrestricted setting.
    num_landmarks:
        Landmark count ``p``; ``None`` = the paper's ``10 log2 n``.
    """

    info = AlgorithmInfo(
        name="regal",
        year=2018,
        preprocessing="no",
        biological=False,
        default_assignment="nn",
        optimizes="any",
        time_complexity="O(n log n)",
        parameters={"k": 2, "p": "10 log n"},
    )

    def __init__(self, max_hops: int = 2, delta: float = 0.1,
                 gamma: float = 1.0, num_landmarks: int | None = None):
        if max_hops < 1:
            raise AlgorithmError(f"max_hops must be >= 1, got {max_hops}")
        self.max_hops = int(max_hops)
        self.delta = float(delta)
        self.gamma = float(gamma)
        self.num_landmarks = num_landmarks

    def embeddings(self, source: Graph, target: Graph, seed=None):
        """The joint (source, target) xNetMF embedding matrices."""
        return xnetmf_embeddings(
            [source, target],
            max_hops=self.max_hops,
            delta=self.delta,
            gamma=self.gamma,
            num_landmarks=self.num_landmarks,
            seed=seed,
        )

    def _similarity(self, source: Graph, target: Graph,
                    rng: np.random.Generator) -> np.ndarray:
        with span("embedding"):
            emb_a, emb_b = self.embeddings(source, target, seed=rng)
        if sketch_policy_for(emb_a.shape[0], emb_b.shape[0]) is not None:
            # Sparse-first: REGAL's own k-d-tree extraction (Eq. 10
            # kernel over the top-k candidates) instead of the dense
            # n x n evaluation.
            return topk_similarity(emb_a, emb_b, k=SIMILARITY_TOPK)
        return np.exp(-pairwise_sq_dists(emb_a, emb_b))

    def topk_similarity(self, source: Graph, target: Graph, k: int = 10,
                        seed=None):
        """REGAL's native sparse output: each node's top-``k`` matches.

        This is the k-d-tree extraction of the original implementation
        (paper §3.5); the sparse matrix feeds the NN/SG back-ends with
        linear memory, which is what lets REGAL reach the largest
        scalability sizes in §6.6.
        """
        from repro.embedding.topk import topk_similarity
        emb_a, emb_b = self.embeddings(source, target, seed=seed)
        return topk_similarity(emb_a, emb_b, k=k)
