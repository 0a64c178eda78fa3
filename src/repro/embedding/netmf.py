"""NetMF proximity embeddings (Qiu et al., WSDM 2018) — CONE's substrate.

CONE-Align embeds each graph independently with a proximity-preserving
method and then aligns the embedding spaces.  NetMF factorizes the
(log-transformed, shifted-PMI) random-walk matrix

    M = log max(1, (vol(G) / (b * T)) * (sum_{r=1..T} P^r) D^{-1}),
    P = D^{-1} A,

truncated at window ``T``, and embeds with ``Y = U_d sqrt(S_d)``.

One exact path serves every graph size, with or without a sketch policy
(which only sparsifies similarity stages, see :mod:`repro.sketch`):

* ``M`` is built row block by row block into one preallocated ``n x n``
  array.  Each block's walk rows are propagated by ``T - 1`` sparse
  products with ``P``, so no dense power of ``P`` ever exists, and the
  block's transient buffers stay within a fixed element budget.
* ``M`` is symmetric (``P^r D^{-1} = D^{-1} A ... D^{-1}``), so its SVD
  is its eigendecomposition up to sign: ``s_i = |λ_i|`` and
  ``u_i = ±v_i``.  One LAPACK symmetric eigensolve factors it in place;
  the ``d`` eigenpairs of largest ``|λ|`` give ``Y = V_d sqrt(|Λ_d|)``,
  with the eigenvector signs fixed by :func:`repro.spectral.fix_signs`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.linalg import eigh

from repro.cache import cached_artifact
from repro.exceptions import AlgorithmError
from repro.graphs.graph import Graph
from repro.spectral import fix_signs

__all__ = ["netmf_embeddings"]

# Budget (in float64 elements) for one row block's walk buffers: 1M
# elements = 8 MB each, whatever n is.
_BLOCK_ELEMENTS = 1_000_000


def _log_pmi_matrix(adj: sparse.csr_matrix, deg: np.ndarray, window: int,
                    negative: float) -> np.ndarray:
    """The NetMF matrix ``M``, in Fortran order so LAPACK can overwrite
    it in place."""
    n = adj.shape[0]
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    walk = sparse.csr_matrix(adj.multiply(inv_deg[:, np.newaxis]))  # P
    walk_t = walk.T.tocsr()
    col_scale = (deg.sum() / (negative * window)) * inv_deg
    m = np.empty((n, n), order="F")
    block = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        # Rows lo:hi of M, transposed: a view with contiguous rows, which
        # the (n, block) products below fill row for row.
        rows = m[lo:hi].T
        current = walk[lo:hi].T.toarray()  # (P[lo:hi])^T
        rows[...] = current
        for _ in range(window - 1):
            current = walk_t @ current  # (P^r[lo:hi])^T
            rows += current
        np.multiply(rows, col_scale[:, np.newaxis], out=rows)
        np.maximum(rows, 1.0, out=rows)  # shifted PMI, log-clipped at 0
        np.log(rows, out=rows)
    return m


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
    if not (math.isfinite(negative) and negative > 0):
        raise AlgorithmError(
            f"negative must be finite and > 0, got {negative}")
    d = int(min(dim, max(n - 1, 1)))

    def produce() -> np.ndarray:
        adj = sparse.csr_matrix(graph.adjacency())
        deg = np.asarray(adj.sum(axis=1), dtype=np.float64).ravel()
        if deg.sum() == 0:
            return np.zeros((n, d))
        m = _log_pmi_matrix(adj, deg, int(window), float(negative))
        # "evr" needs O(n) workspace; "evd" is faster but needs another
        # n x n array.
        vals, vecs = eigh(m, overwrite_a=True, check_finite=False,
                          driver="evr")
        # The d largest singular values are the d largest |λ|; a stable
        # sort keeps eigh's ascending order among equal magnitudes.
        top = np.argsort(-np.abs(vals), kind="stable")[:d]
        emb = fix_signs(vecs[:, top]) * np.sqrt(np.abs(vals[top]))
        # An isolated node's row and column of M are zero, but the
        # eigensolver's round-off is not.
        emb[deg == 0] = 0.0
        return emb

    # The embedding is a pure function of (graph, d, window, negative):
    # the eigensolve has no random start, so it is safe to share.
    # Entries written by the earlier SVD and randomized-SVD paths lack
    # "solver", so a warm disk cache recomputes them instead.
    return cached_artifact(
        graph, "netmf_embeddings", produce,
        params={"dim": d, "window": int(window),
                "negative": float(negative), "solver": "eigh"},
    )
