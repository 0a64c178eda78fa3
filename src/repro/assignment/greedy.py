"""Heuristic assignment: nearest neighbor and SortGreedy.

These are the cheap alternatives to an exact LAP solve.  Nearest neighbor
picks each source node's best target independently (so several source nodes
may share a target); SortGreedy walks all candidate pairs in decreasing
similarity and keeps a pair whenever both endpoints are still free, which
yields a maximal one-to-one matching at O(n² log n) cost.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AssignmentError

__all__ = ["nearest_neighbor", "nearest_neighbor_one_to_one", "sort_greedy"]


def _check_similarity(similarity) -> np.ndarray:
    sim = np.asarray(similarity, dtype=np.float64)
    if sim.ndim != 2:
        raise AssignmentError(f"similarity must be a 2-D matrix, got ndim={sim.ndim}")
    if not np.all(np.isfinite(sim)):
        raise AssignmentError("similarity matrix contains non-finite entries")
    return sim


def nearest_neighbor(similarity) -> np.ndarray:
    """Best target per source row; many-to-one matches are allowed.

    This is the raw NN extraction of REGAL/CONE/GWL/S-GWL before the paper's
    one-to-one restriction is applied.
    """
    sim = _check_similarity(similarity)
    if sim.shape[1] == 0:
        return np.full(sim.shape[0], -1, dtype=np.int64)
    return np.argmax(sim, axis=1).astype(np.int64)


def nearest_neighbor_one_to_one(similarity) -> np.ndarray:
    """NN with conflicts resolved greedily in favor of the higher score.

    Source rows are processed in decreasing order of their best score; a row
    whose best remaining target is taken falls back to its next-best free
    target.  Rows left with no free target are unmatched (-1).
    """
    sim = _check_similarity(similarity)
    n_a, n_b = sim.shape
    mapping = np.full(n_a, -1, dtype=np.int64)
    taken = np.zeros(n_b, dtype=bool)
    best = sim.max(axis=1) if n_b else np.zeros(n_a)
    order = np.argsort(-best)
    for i in order:
        prefs = np.argsort(-sim[i])
        for j in prefs:
            if not taken[j]:
                mapping[i] = j
                taken[j] = True
                break
    return mapping


def sort_greedy(similarity) -> np.ndarray:
    """SortGreedy (SG): match globally-sorted pairs while both ends are free.

    The heuristic used by IsoRank, GRAAL and NSD in their proposed form.
    Returns -1 for source nodes left unmatched (only when ``n_a > n_b``).
    """
    sim = _check_similarity(similarity)
    n_a, n_b = sim.shape
    mapping = np.full(n_a, -1, dtype=np.int64)
    if n_a == 0 or n_b == 0:
        return mapping
    order = np.argsort(-sim, axis=None)
    rows, cols = np.unravel_index(order, sim.shape)
    row_free = np.ones(n_a, dtype=bool)
    col_free = np.ones(n_b, dtype=bool)
    matched = 0
    limit = min(n_a, n_b)
    for i, j in zip(rows, cols):
        if row_free[i] and col_free[j]:
            mapping[i] = j
            row_free[i] = False
            col_free[j] = False
            matched += 1
            if matched == limit:
                break
    return mapping
