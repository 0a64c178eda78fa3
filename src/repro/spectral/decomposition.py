"""Eigendecomposition helpers for the normalized Laplacian.

Eigenvectors of a graph Laplacian are only defined up to sign (and up to
rotation inside eigenspaces of repeated eigenvalues); spectral alignment
methods must pin these gauges down.  :func:`fix_signs` applies the standard
deterministic convention — make the entry of largest magnitude positive —
which is enough for the benchmark graphs, whose spectra are simple almost
surely.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackError, eigsh

from repro.cache import cached_artifact
from repro.diagnostics import record_diagnostic
from repro.exceptions import AlgorithmError
from repro.observability import add_counter
from repro.graphs.graph import Graph
from repro.graphs.matrices import normalized_laplacian
from repro.sketch import sketch_policy_for
from repro.spectral.sketch import randomized_eigh, sketch_seed

__all__ = ["laplacian_eigenpairs", "fix_signs", "heat_kernel_diagonals"]

# Below this size a dense solve is faster and more robust than Lanczos.
_DENSE_CUTOFF = 600

# Entries within this relative distance of a column's peak magnitude are
# treated as tied when fixing signs (see fix_signs).
_TIE_RTOL = 1e-12

# Sketch parameters of the *spectral* consumer, raised above the general
# defaults (repro.sketch.OVERSAMPLING, POWER_ITERS).  The companion kernel
# 2I - L has a nearly flat top spectrum (its dominant eigenvalues sit
# just under 2 while the bulk sits near 1), so the range finder needs
# more subspace iterations to separate them — and unlike the NetMF
# passes, a Laplacian matvec is a cheap sparse product, so the extra
# passes are nearly free.
_SPECTRAL_POWER_ITERS = 8
_SPECTRAL_OVERSAMPLING = 16

# Floor on the Ritz-space width.  Benchmark-graph spectra cluster near
# the bottom (ring and powerlaw families have no gap at small k), so a
# Rayleigh-Ritz projection only k wide cannot separate the k-th vector
# from its near-degenerate neighbours — a 128-wide space recovers
# alignment-accuracy parity with the exact solver at per-column cost of
# one sparse matvec.  Clamped for graphs barely above the dense cutoff.
_SPECTRAL_MIN_RANK = 128


def fix_signs(eigenvectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-magnitude entry is positive.

    Operates column-wise and returns a new array.  When several entries
    tie for the largest magnitude (exactly, or within a relative
    ``1e-12`` — the jitter different BLAS builds introduce), the tie is
    broken deterministically: the *lowest-index* near-peak entry decides
    the sign, and a zero there counts as positive.  Without the
    tolerance, two builds producing ``|v_i|`` and ``|v_j|`` swapped by
    one ulp would gauge the same eigenvector oppositely.
    """
    vecs = eigenvectors.copy()
    if vecs.size == 0:
        return vecs
    mags = np.abs(vecs)
    peak = mags.max(axis=0)
    # First index whose magnitude reaches the near-peak band: boolean
    # argmax returns the lowest True, i.e. the lowest tied index.
    idx = np.argmax(mags >= peak[np.newaxis, :] * (1.0 - _TIE_RTOL), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs[np.newaxis, :]


def laplacian_eigenpairs(graph: Graph, k: int | None = None) -> Tuple[np.ndarray, np.ndarray]:
    """Smallest ``k`` eigenpairs of the normalized Laplacian.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvector signs fixed.  ``k=None`` (or ``k >= n``) computes the full
    spectrum with a dense solver; otherwise a sparse Lanczos solve is used
    for large graphs.
    """
    n = graph.num_nodes
    if n == 0:
        raise AlgorithmError("cannot eigendecompose an empty graph")
    # k=None and k>=n both mean "the full spectrum": normalize so they
    # address the same cache entry.
    effective_k = None if (k is None or k >= n) else int(k)

    # Sketching applies only to truncated spectra above both the policy
    # threshold and the dense cutoff; the sketch parameters enter the
    # cache key so exact and sketched entries can never collide (the
    # exact key stays exactly as before, preserving old entries).
    sketched = (effective_k is not None and n > _DENSE_CUTOFF
                and sketch_policy_for(n) is not None)
    params: dict = {"k": effective_k}
    if sketched:
        # The key records the parameters the producer computes with.
        # "method" is kept (randomized SVD is the only one) so sketched
        # keys and seeds stay those of earlier releases.
        params["sketch"] = {
            "method": "rsvd",
            "rank": max(effective_k, min(_SPECTRAL_MIN_RANK, n // 4)),
            "oversampling": _SPECTRAL_OVERSAMPLING,
            "power_iters": _SPECTRAL_POWER_ITERS,
        }

    def produce_sketched() -> Tuple[np.ndarray, np.ndarray]:
        add_counter("eigensolver_calls")
        add_counter("sketched_kernels")
        add_counter("sketch_rank", params["sketch"]["rank"])
        lap = normalized_laplacian(graph).tocsr()
        rng = np.random.default_rng(sketch_seed(
            graph.content_digest(), artifact="laplacian_eigenpairs",
            **params["sketch"], k=effective_k,
        ))
        # Sketch the PSD companion K = 2I - L: its *largest* eigenpairs
        # are L's smallest, with eigenvalue map λ_L = 2 - λ_K.
        k_vals, k_vecs = randomized_eigh(
            lambda block: 2.0 * block - lap @ block, n,
            params["sketch"]["rank"], oversampling=_SPECTRAL_OVERSAMPLING,
            power_iters=_SPECTRAL_POWER_ITERS, rng=rng)
        vals = 2.0 - k_vals  # descending λ_K -> ascending λ_L
        order = np.argsort(vals)[:effective_k]
        return vals[order], fix_signs(k_vecs[:, order])

    def produce() -> Tuple[np.ndarray, np.ndarray]:
        # Counted inside the producer: a cache hit is *not* an
        # eigendecomposition, and the counter is the proof of that.
        add_counter("eigensolver_calls")
        if effective_k is None or n <= _DENSE_CUTOFF:
            lap = normalized_laplacian(graph, dense=True)
            vals, vecs = eigh(lap)
            if effective_k is not None:
                vals, vecs = vals[:effective_k], vecs[:, :effective_k]
        else:
            lap = normalized_laplacian(graph).tocsc()
            # ARPACK's default start vector comes from per-process random
            # state; one seeded by the graph keeps the solve a pure
            # function of (graph, k), as a cached producer must be.
            v0 = np.random.default_rng(sketch_seed(
                graph.content_digest(), artifact="laplacian_eigenpairs",
                k=effective_k,
            )).uniform(-1.0, 1.0, n)
            # sigma=0 shift-invert targets the smallest eigenvalues reliably.
            try:
                vals, vecs = eigsh(lap, k=effective_k, sigma=-1e-6,
                                   which="LM", v0=v0)
            except (ArpackError, RuntimeError, np.linalg.LinAlgError) as exc:
                # Lanczos breakdown / no convergence, or a singular
                # shift-invert factorization (splu raises RuntimeError or
                # LinAlgError on e.g. isolated-node graphs): fall back to
                # dense.  A plain ValueError — a shape error or any other
                # caller bug — still propagates instead of being masked
                # (LinAlgError subclasses ValueError, so it must be named
                # explicitly here without catching its parent).
                record_diagnostic(
                    "spectral", "eigsh_failure",
                    f"sparse eigsh failed on n={n}, k={effective_k} "
                    f"({type(exc).__name__}: {exc}); dense eigh fallback",
                    fallback_used="dense_eigh",
                )
                dense = lap.toarray()
                vals, vecs = eigh(dense)
                vals, vecs = vals[:effective_k], vecs[:, :effective_k]
            order = np.argsort(vals)
            vals, vecs = vals[order], vecs[:, order]
        return vals, fix_signs(vecs)

    return cached_artifact(
        graph, "laplacian_eigenpairs",
        produce_sketched if sketched else produce,
        params=params)


def heat_kernel_diagonals(
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    times: Sequence[float],
    graph: Graph | None = None,
) -> np.ndarray:
    """Diagonals of ``H_t = Phi exp(-t Lambda) Phi^T`` for each ``t``.

    Returns a ``(len(times), n)`` array; these are GRASP's corresponding
    functions (paper Eq. 13 restricted to the diagonal).

    When ``graph`` is given the result is routed through the artifact
    cache, keyed on the basis width ``k`` and the time grid (the
    eigenpairs themselves are a deterministic function of the graph, so
    they need not enter the key).
    """
    times_arr = np.asarray(list(times), dtype=np.float64)

    def produce() -> np.ndarray:
        sq = eigenvectors ** 2  # (n, k)
        decay = np.exp(-np.outer(times_arr, eigenvalues))  # (T, k)
        return decay @ sq.T

    if graph is None:
        return produce()
    return cached_artifact(
        graph, "heat_kernel_diagonals", produce,
        params={"k": int(eigenvalues.shape[0]), "times": times_arr.tolist()},
    )
