"""NetMF proximity embeddings (Qiu et al., WSDM 2018) — CONE's substrate.

CONE-Align embeds each graph independently with a proximity-preserving
method and then aligns the embedding spaces.  NetMF factorizes the
(log-transformed, shifted-PMI) random-walk matrix

    M = (vol(G) / (b * T)) * (sum_{r=1..T} P^r) D^{-1},    P = D^{-1} A,

truncated at window ``T``, via an SVD:  ``Y = U_d sqrt(S_d)``.

This is the exact dense small-window variant, suitable for the benchmark's
graph sizes.  Above an active sketch policy's threshold
(:mod:`repro.sketch`) the same matrix is factorized *blockwise*: row
blocks of the log-PMI matrix are streamed into a randomized SVD
(:mod:`repro.spectral.sketch`) of rank ``d`` with the fixed
:data:`~repro.sketch.OVERSAMPLING` and :data:`~repro.sketch.POWER_ITERS`,
so peak memory stays ``O(block * n)`` instead of the dense ``O(n^2)`` —
the entries of ``M`` are computed exactly either way; only the SVD is
randomized.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.cache import cached_artifact
from repro.exceptions import AlgorithmError
from repro.graphs.graph import Graph
from repro.observability import add_counter
from repro.sketch import OVERSAMPLING, POWER_ITERS, sketch_policy_for
from repro.spectral.sketch import randomized_svd, sketch_seed

__all__ = ["netmf_embeddings"]

# Budget (in float64 elements) for one streamed row block of the log-PMI
# matrix: 8M elements = 64 MB per block regardless of n.
_BLOCK_ELEMENTS = 8_000_000


def _sketched_netmf(graph: Graph, n: int, d: int, window: int,
                    negative: float) -> np.ndarray:
    """Blockwise-streamed randomized factorization of the NetMF matrix.

    ``M`` is symmetric (``A`` is), so the randomized SVD's adjoint pass
    reuses the same block product.  Every pass recomputes the blocks —
    memory is the scaling wall here, not FLOPs — so a factorization
    costs ``2 + 2 * POWER_ITERS`` passes.
    """
    adj = sparse.csr_matrix(graph.adjacency())
    deg = np.asarray(adj.sum(axis=1)).ravel()
    vol = float(deg.sum())
    if vol == 0:
        return np.zeros((n, d))
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    walk = sparse.csr_matrix(adj.multiply(inv_deg[:, np.newaxis]))  # P
    walk_t = walk.T.tocsr()
    scale = vol / (negative * window)

    def m_log_rows(lo: int, hi: int) -> np.ndarray:
        current = walk[lo:hi].toarray()
        acc = current.copy()
        for _ in range(window - 1):
            current = (walk_t @ current.T).T
            acc += current
        rows = scale * acc * inv_deg[np.newaxis, :]
        np.maximum(rows, 1.0, out=rows)
        np.log(rows, out=rows)
        return rows

    block = max(1, _BLOCK_ELEMENTS // max(n, 1))

    def matmat(x: np.ndarray) -> np.ndarray:
        out = np.empty((n, x.shape[1]))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            out[lo:hi] = m_log_rows(lo, hi) @ x
        return out

    rng = np.random.default_rng(sketch_seed(
        graph.content_digest(), artifact="netmf_embeddings",
        dim=d, window=int(window), negative=float(negative),
        rank=d, oversampling=OVERSAMPLING, power_iters=POWER_ITERS,
    ))
    add_counter("sketched_kernels")
    add_counter("sketch_rank", d)
    u, s, _vt = randomized_svd(
        matmat, (n, n), d,
        oversampling=OVERSAMPLING,
        power_iters=POWER_ITERS,
        rng=rng, rmatmat=matmat,  # M is symmetric
    )
    return u[:, :d] * np.sqrt(s[:d])[np.newaxis, :]


def netmf_embeddings(
    graph: Graph,
    dim: int = 128,
    window: int = 10,
    negative: float = 1.0,
) -> np.ndarray:
    """NetMF embedding matrix of shape ``(n, d)``.

    ``dim`` is clipped to ``n - 1``; isolated nodes receive zero rows.
    """
    n = graph.num_nodes
    if n == 0:
        raise AlgorithmError("cannot embed an empty graph")
    if window < 1:
        raise AlgorithmError(f"window must be >= 1, got {window}")
    d = int(min(dim, max(n - 1, 1)))

    # Above the sketch threshold the randomized blockwise factorization
    # takes over; its parameters join the cache key so exact and sketched
    # embeddings never collide (the exact key is unchanged).  "method"
    # stays in the key so sketched entries keep their earlier keys.
    params = {"dim": d, "window": int(window), "negative": float(negative)}
    if sketch_policy_for(n) is not None:
        params["sketch"] = {
            "method": "rsvd",
            "rank": d,
            "oversampling": OVERSAMPLING,
            "power_iters": POWER_ITERS,
        }
        return cached_artifact(
            graph, "netmf_embeddings",
            lambda: _sketched_netmf(graph, n, d, int(window),
                                    float(negative)),
            params=params,
        )

    def produce() -> np.ndarray:
        adj = graph.adjacency(dense=True)
        deg = adj.sum(axis=1)
        vol = deg.sum()
        if vol == 0:
            return np.zeros((n, d))
        inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)

        walk = inv_deg[:, np.newaxis] * adj  # P = D^{-1} A
        power = np.eye(n)
        acc = np.zeros_like(adj)
        for _ in range(window):
            power = power @ walk
            acc += power

        m = (vol / (negative * window)) * acc * inv_deg[np.newaxis, :]
        m = np.log(np.maximum(m, 1.0))  # shifted-PMI with log-clipping at 0

        u, s, _vt = np.linalg.svd(m, full_matrices=False)
        return u[:, :d] * np.sqrt(s[:d])[np.newaxis, :]

    # The embedding is a pure function of (graph, d, window, negative):
    # the SVD has no random initialization, so it is safe to share.
    return cached_artifact(graph, "netmf_embeddings", produce, params=params)
