"""xNetMF: REGAL's cross-network structural embedding (paper §3.5).

Pipeline, following Heimann et al. (2018):

1. **Structural features** — for every node, a histogram of the degrees in
   its k-hop neighborhoods, with degrees binned into logarithmic buckets and
   hop ``k`` discounted by ``delta**(k-1)`` (paper Eq. 8).  The k-hop
   rings of all nodes come from sparse frontier products, streamed in row
   blocks under a fixed element budget.
2. **Landmark similarities** — ``p`` random landmark nodes are drawn from
   the union of both graphs; every node's similarity to each landmark is
   ``exp(-gamma * ||d_u - d_l||^2)`` (paper Eq. 9, structure-only).
3. **Nyström factorization** — the implicit full similarity matrix
   ``S ≈ C W^+ C^T`` is never formed; embeddings ``Y = C U sqrt(S)`` come
   from the SVD of the pseudo-inverse of the landmark block ``W``.

The embeddings of both graphs live in the same space, so alignment reduces
to nearest-neighbor queries between the two embedding sets.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.cache import cached_artifact
from repro.exceptions import AlgorithmError
from repro.graphs.generators import SeedLike, as_rng
from repro.graphs.graph import Graph

__all__ = ["structural_features", "xnetmf_embeddings"]

# Budget (in elements) for one streamed row block of the frontier
# products: a block of b rows spans b * n <= 1M entries, so its frontiers
# and seen set stay bounded however far a hub fans out (a star graph's
# hop-2 frontier is n^2); the traced peak is ~18 bytes per element.
_BLOCK_ELEMENTS = 1_000_000


def _hop_rings(pattern: sparse.csr_matrix, lo: int, hi: int,
               max_hops: int) -> Iterator[sparse.csr_matrix]:
    """Yield the hop-1 .. ``max_hops`` frontiers of source nodes ``lo:hi``.

    ``pattern`` is the boolean adjacency.  Row ``u`` of the hop-``k``
    frontier holds the nodes at hop distance exactly ``k`` from
    ``lo + u``: the hop-1 frontier is ``A``'s row, and the hop-``k`` one is
    the hop-``(k-1)`` frontier times ``A`` minus every node seen so far,
    self included.  Stops once every row's frontier is empty.
    """
    rows, n = hi - lo, pattern.shape[0]
    frontier = pattern[lo:hi]
    seen = frontier + sparse.csr_matrix(
        (np.ones(rows, dtype=bool), np.arange(lo, hi), np.arange(rows + 1)),
        shape=(rows, n))
    for hop in range(1, max_hops + 1):
        if frontier.nnz == 0:
            return
        yield frontier
        if hop == max_hops:
            return
        frontier = (frontier @ pattern) > seen  # reached and not yet seen
        seen = seen + frontier


def structural_features(
    graph: Graph,
    max_hops: int = 2,
    delta: float = 0.1,
    num_buckets: int | None = None,
) -> np.ndarray:
    """Discounted k-hop degree histograms (REGAL's node identity).

    Degrees ``d`` land in bucket ``floor(log2(d))``; hop-``k`` neighborhoods
    are weighted ``delta**(k-1)``.  ``num_buckets`` fixes the feature width
    so features from two graphs are comparable (defaults to the width needed
    for this graph).
    """
    degrees = graph.degrees.astype(np.int64)
    max_deg = int(degrees.max()) if degrees.size else 0
    needed = int(np.floor(np.log2(max(max_deg, 1)))) + 1
    width = needed if num_buckets is None else int(num_buckets)
    if width < needed:
        raise AlgorithmError(
            f"num_buckets={width} too small for max degree {max_deg}"
        )

    def produce() -> np.ndarray:
        n = graph.num_nodes
        features = np.zeros((n, width))
        bucket = np.floor(np.log2(np.maximum(degrees, 1))).astype(np.int64)
        pattern = graph.adjacency().astype(bool)
        one_hot = sparse.csr_matrix(
            (np.ones(n, dtype=np.int64), bucket, np.arange(n + 1)),
            shape=(n, width))
        block = max(1, _BLOCK_ELEMENTS // max(n, 1))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            rows = features[lo:hi]
            for k, ring in enumerate(_hop_rings(pattern, lo, hi, max_hops),
                                     start=1):
                hist = (ring @ one_hot).toarray()
                # A node whose ring is empty stops there, as a BFS would.
                np.add(rows, (delta ** (k - 1)) * hist, out=rows,
                       where=(np.diff(ring.indptr) > 0)[:, np.newaxis])
        return features

    # Keyed on the *resolved* width, so "default width for this graph"
    # and an explicit num_buckets of the same value share one entry.
    # The downstream landmark/Nyström stages are seeded and stay uncached.
    return cached_artifact(
        graph, "structural_features", produce,
        params={"max_hops": int(max_hops), "delta": float(delta),
                "width": width},
    )


def _landmark_similarities(features: np.ndarray, landmarks: np.ndarray,
                           gamma: float) -> np.ndarray:
    """``exp(-gamma * ||d_u - d_l||^2)`` for every node/landmark pair."""
    diff = features[:, np.newaxis, :] - landmarks[np.newaxis, :, :]
    return np.exp(-gamma * (diff ** 2).sum(axis=2))


def xnetmf_embeddings(
    graphs: Sequence[Graph],
    max_hops: int = 2,
    delta: float = 0.1,
    gamma: float = 1.0,
    num_landmarks: int | None = None,
    seed: SeedLike = None,
) -> List[np.ndarray]:
    """Joint structural embeddings for a collection of graphs.

    ``num_landmarks`` defaults to the paper's ``10 * log2(n)`` (clipped to
    the total node count).  Returns one ``(n_i, p)`` embedding matrix per
    graph, rows L2-normalized, all living in the same landmark space.
    """
    if not graphs:
        raise AlgorithmError("xnetmf_embeddings requires at least one graph")
    rng = as_rng(seed)
    total = sum(g.num_nodes for g in graphs)
    max_deg = max((int(g.degrees.max()) if g.num_nodes else 0) for g in graphs)
    width = int(np.floor(np.log2(max(max_deg, 1)))) + 1

    feats = [structural_features(g, max_hops, delta, num_buckets=width)
             for g in graphs]
    stacked = np.vstack(feats)

    if num_landmarks is None:
        num_landmarks = int(10 * np.log2(max(total, 2)))
    p = int(min(max(num_landmarks, 1), total))
    landmark_idx = rng.choice(total, size=p, replace=False)
    landmarks = stacked[landmark_idx]

    c_full = _landmark_similarities(stacked, landmarks, gamma)  # (total, p)
    w = c_full[landmark_idx]  # (p, p) landmark block
    w_pinv = np.linalg.pinv(w)
    u, s, _vt = np.linalg.svd(w_pinv)
    factor = u * np.sqrt(s)[np.newaxis, :]
    emb = c_full @ factor

    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    emb = emb / norms

    out, offset = [], 0
    for g in graphs:
        out.append(emb[offset:offset + g.num_nodes])
        offset += g.num_nodes
    return out
