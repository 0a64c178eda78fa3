"""Exact k-nearest-neighbor queries on embeddings.

REGAL, CONE and sketched GRASP extract alignments by querying each source
embedding against the target embeddings.  :class:`KDTree` keeps the
interface of a k-d tree, but every query is a blocked, memory-bounded
BLAS scan: at the widths these aligners produce (GRASP 20, REGAL
≈10·log₂ n, CONE 128) a tree visits nearly every leaf, and its
pure-Python descent cost seconds where the scan costs milliseconds.
The test suite validates it against SciPy's cKDTree.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import AssignmentError

__all__ = ["KDTree"]


class KDTree:
    """Exact k-NN index over the rows of ``points``.

    Parameters
    ----------
    points:
        ``(n, d)`` float array of database points.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise AssignmentError(f"points must be (n, d), got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise AssignmentError("points contain non-finite values")
        self._points = pts

    def query(self, queries, k: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        """k nearest database rows for each query row.

        Returns ``(distances, indices)``, both of shape ``(q, k)``, sorted by
        increasing distance.  ``k`` is clipped to the database size.
        """
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if q.shape[1] != self._points.shape[1]:
            raise AssignmentError(
                f"query dimension {q.shape[1]} != database dimension "
                f"{self._points.shape[1]}"
            )
        n = self._points.shape[0]
        if n == 0:
            raise AssignmentError("cannot query an empty KDTree")
        return self._brute_force(q, min(int(k), n))

    def _brute_force(self, queries: np.ndarray, k: int):
        """Vectorized exact k-NN, blocked to bound memory."""
        # ||q - p||^2 = ||q||^2 - 2 q.p + ||p||^2, computed blockwise.
        p_sq = (self._points ** 2).sum(axis=1)
        dists_out = np.empty((queries.shape[0], k))
        idxs_out = np.empty((queries.shape[0], k), dtype=np.int64)
        block = max(1, 2_000_000 // max(self._points.shape[0], 1))
        for start in range(0, queries.shape[0], block):
            q = queries[start:start + block]
            d2 = (q ** 2).sum(axis=1)[:, None] - 2 * q @ self._points.T + p_sq[None, :]
            np.maximum(d2, 0.0, out=d2)
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
            rows = np.arange(q.shape[0])[:, None]
            order = np.argsort(d2[rows, part], axis=1)
            best = part[rows, order]
            idxs_out[start:start + block] = best
            dists_out[start:start + block] = np.sqrt(d2[rows, best])
        return dists_out, idxs_out

    def __len__(self) -> int:
        return self._points.shape[0]
