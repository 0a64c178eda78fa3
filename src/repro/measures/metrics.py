"""Implementations of Accuracy/NC, MNC, EC, ICS and S³.

Conventions
-----------
* ``mapping[i]`` is the target node assigned to source node ``i``; ``-1``
  marks an unmatched node, which never counts as correct and contributes no
  aligned edges.
* Edge-based measures follow the paper's definitions:
  ``EC = |f(E_A)| / |E_A|`` (paper §5.2.3),
  ``ICS = |f(E_A)| / |E(G_B[f(V_A)])|``,
  ``S³ = |f(E_A)| / (|E_A| + |E(G_B[f(V_A)])| - |f(E_A)|)`` (Eq. 16).
* MNC is the average Jaccard similarity between the *mapped* neighborhood of
  each source node and the actual neighborhood of its image (Eq. 15).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.exceptions import ReproError
from repro.graphs.graph import Graph

__all__ = [
    "accuracy",
    "matched_neighborhood_consistency",
    "edge_correctness",
    "induced_conserved_structure",
    "symmetric_substructure_score",
    "evaluate_all",
    "ALL_MEASURES",
]

ALL_MEASURES = ("accuracy", "mnc", "ec", "ics", "s3")


def _as_mapping(mapping: Sequence[int], n_source: int, n_target: int) -> np.ndarray:
    arr = np.asarray(mapping, dtype=np.int64)
    if arr.shape != (n_source,):
        raise ReproError(
            f"mapping must have one entry per source node, got shape {arr.shape}"
        )
    if arr.size and (arr.max() >= n_target or arr.min() < -1):
        raise ReproError("mapping entries must be -1 or valid target node ids")
    return arr


def accuracy(mapping: Sequence[int], ground_truth: Sequence[int]) -> float:
    """Node correctness: fraction of source nodes mapped to their true image.

    Also called NC in the paper (§5.2.2) — "the count of corrected
    alignments normalized by the total number of such alignments".
    Unmatched predictions (-1) count as wrong; source nodes with *no true
    counterpart* (ground truth -1, as under node-removal noise) are
    excluded from the denominator.
    """
    pred = np.asarray(mapping, dtype=np.int64)
    truth = np.asarray(ground_truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ReproError(
            f"mapping and ground truth differ in length: {pred.shape} vs {truth.shape}"
        )
    matchable = truth >= 0
    if not matchable.any():
        return 0.0
    correct = (pred == truth) & matchable & (pred >= 0)
    return float(correct.sum() / matchable.sum())


def _is_target_edge(target: Graph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each ``{a[k], b[k]}`` is an edge of ``target`` (``a`` and
    ``b`` hold valid target ids; ``a == b`` is never an edge).

    Target edges are encoded once as sorted ``u * n + v`` codes and every
    query is membership-tested with one ``searchsorted``.
    """
    if a.size == 0 or target.num_edges == 0:
        return np.zeros(a.size, dtype=bool)
    n = np.int64(target.num_nodes)
    # target.edges() has u < v and is lexsorted, so its codes are sorted.
    target_edges = target.edges()
    codes = target_edges[:, 0] * n + target_edges[:, 1]
    queries = np.minimum(a, b) * n + np.maximum(a, b)
    pos = np.minimum(np.searchsorted(codes, queries), codes.size - 1)
    return codes[pos] == queries


def _aligned_edge_count(source: Graph, target: Graph, mapping: np.ndarray) -> int:
    """``|f(E_A)|``: source edges whose images are target edges."""
    edges = source.edges()
    fu = mapping[edges[:, 0]]
    fv = mapping[edges[:, 1]]
    valid = (fu >= 0) & (fv >= 0)
    return int(np.count_nonzero(_is_target_edge(target, fu[valid], fv[valid])))


def _induced_target_edges(target: Graph, mapping: np.ndarray) -> int:
    """``|E(G_B[f(V_A)])|``: target edges inside the image of the mapping."""
    member = np.zeros(target.num_nodes, dtype=bool)
    member[mapping[mapping >= 0]] = True
    edges = target.edges()
    if edges.size == 0:
        return 0
    return int(np.sum(member[edges[:, 0]] & member[edges[:, 1]]))


def _edge_correctness(source: Graph, aligned: int) -> float:
    if source.num_edges == 0:
        return 0.0
    return aligned / source.num_edges


def _ics(aligned: int, induced: int) -> float:
    if induced == 0:
        return 0.0
    return aligned / induced


def _s3(source: Graph, aligned: int, induced: int) -> float:
    denom = source.num_edges + induced - aligned
    if denom == 0:
        return 0.0
    return aligned / denom


def edge_correctness(source: Graph, target: Graph, mapping: Sequence[int]) -> float:
    """EC: fraction of source edges preserved by the alignment."""
    arr = _as_mapping(mapping, source.num_nodes, target.num_nodes)
    return _edge_correctness(source, _aligned_edge_count(source, target, arr))


def induced_conserved_structure(source: Graph, target: Graph,
                                mapping: Sequence[int]) -> float:
    """ICS: aligned edges over edges of the target subgraph induced by the image."""
    arr = _as_mapping(mapping, source.num_nodes, target.num_nodes)
    return _ics(_aligned_edge_count(source, target, arr),
                _induced_target_edges(target, arr))


def symmetric_substructure_score(source: Graph, target: Graph,
                                 mapping: Sequence[int]) -> float:
    """S³ (Eq. 16): aligned edges over the union of source and induced edges."""
    arr = _as_mapping(mapping, source.num_nodes, target.num_nodes)
    return _s3(source, _aligned_edge_count(source, target, arr),
               _induced_target_edges(target, arr))


def _mnc(source: Graph, target: Graph, mapping: np.ndarray) -> float:
    """MNC of a validated mapping, from edge arrays.

    Each directed source edge ``(i, v)`` with both ends matched puts
    ``f(v)`` in ``i``'s mapped neighborhood; the deduplicated ``(i, f(v))``
    pairs give each neighborhood's size (``bincount``), and those whose
    ``{f(i), f(v)}`` is a target edge give its intersection with
    ``N_B(f(i))``, whose size is ``f(i)``'s degree.
    """
    n = source.num_nodes
    if n == 0:
        return 0.0
    matched = mapping >= 0
    edges = source.edges()
    tails = np.concatenate([edges[:, 0], edges[:, 1]])
    heads = np.concatenate([edges[:, 1], edges[:, 0]])
    both = matched[tails] & matched[heads]
    width = np.int64(max(target.num_nodes, 1))
    pairs = np.sort(tails[both] * width + mapping[heads[both]])
    first = np.ones(pairs.size, dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    owner, image = np.divmod(pairs[first], width)
    mapped = np.bincount(owner, minlength=n)
    shared = np.bincount(
        owner[_is_target_edge(target, mapping[owner], image)], minlength=n)
    union = mapped - shared
    union[matched] += target.degrees[mapping[matched]]
    scores = np.zeros(n)
    # An empty union scores 1 (a trivially consistent isolate); an
    # unmatched node scores 0.
    scores[matched] = 1.0
    hit = matched & (union > 0)
    scores[hit] = shared[hit] / union[hit]
    return float(scores.mean())


def matched_neighborhood_consistency(source: Graph, target: Graph,
                                     mapping: Sequence[int]) -> float:
    """MNC (Eq. 15): mean Jaccard of mapped vs. actual neighborhoods.

    For each matched source node ``i`` with image ``j = f(i)``, compares the
    image of ``N_A(i)`` under ``f`` against ``N_B(j)``.  Nodes where both
    sets are empty score 1 (a trivially consistent isolate); unmatched nodes
    score 0.
    """
    arr = _as_mapping(mapping, source.num_nodes, target.num_nodes)
    return _mnc(source, target, arr)


def evaluate_all(source: Graph, target: Graph, mapping: Sequence[int],
                 ground_truth: Sequence[int] | None = None) -> Dict[str, float]:
    """All five measures as a dict; accuracy requires ``ground_truth``.

    The aligned and induced edge counts are computed once and shared by
    EC, ICS and S³.
    """
    arr = _as_mapping(mapping, source.num_nodes, target.num_nodes)
    aligned = _aligned_edge_count(source, target, arr)
    induced = _induced_target_edges(target, arr)
    results = {
        "mnc": _mnc(source, target, arr),
        "ec": _edge_correctness(source, aligned),
        "ics": _ics(aligned, induced),
        "s3": _s3(source, aligned, induced),
    }
    if ground_truth is not None:
        results["accuracy"] = accuracy(mapping, ground_truth)
    return results
