"""Eigendecomposition helpers for the normalized Laplacian.

Eigenvectors of a graph Laplacian are only defined up to sign (and up to
rotation inside eigenspaces of repeated eigenvalues); spectral alignment
methods must pin these gauges down.  :func:`fix_signs` applies the standard
deterministic convention — make the entry of largest magnitude positive —
which is enough for the benchmark graphs, whose non-zero spectra are simple
almost surely.  The zero eigenvalue repeats once per connected component;
above the dense cutoff its eigenspace gets the closed-form basis
``D^½·1_C`` (one column per component, in component order), so the gauge
there is fixed too.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Tuple

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from repro.cache import cached_artifact
from repro.diagnostics import record_diagnostic
from repro.exceptions import AlgorithmError
from repro.observability import add_counter
from repro.graphs.graph import Graph
from repro.graphs.matrices import normalized_laplacian

__all__ = ["laplacian_eigenpairs", "fix_signs", "heat_kernel_diagonals",
           "sketch_seed"]

# Below this size a dense solve is faster and more robust than Lanczos.
_DENSE_CUTOFF = 600

# Entries within this relative distance of a column's peak magnitude are
# treated as tied when fixing signs (see fix_signs).
_TIE_RTOL = 1e-12


def sketch_seed(digest: bytes, **params) -> int:
    """Deterministic 32-bit seed from a graph digest and solver params.

    Producers behind :func:`repro.cache.cached_artifact` must be pure, so
    a solver's random start cannot come from ambient state: two processes
    solving the same graph with the same parameters must draw identical
    start vectors.
    """
    payload = bytes(digest) + b"|" + "|".join(
        f"{key}={params[key]!r}" for key in sorted(params)
    ).encode("utf-8")
    raw = hashlib.blake2b(payload, digest_size=4).digest()
    return int.from_bytes(raw, "big")


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


def _null_space_basis(graph: Graph) -> np.ndarray:
    """Orthonormal ``(n, c)`` basis of the normalized Laplacian's null space.

    One column per connected component ``C``, in the order
    ``scipy.sparse.csgraph.connected_components`` labels them (by lowest
    node index): the unit vector ``D^½·1_C``, or ``e_i`` for an isolated
    node ``i`` (whose Laplacian row is all zero).
    """
    count, labels = connected_components(graph.adjacency(), directed=False)
    deg = graph.degrees.astype(np.float64)
    basis = np.zeros((graph.num_nodes, count))
    basis[np.arange(graph.num_nodes), labels] = np.where(
        deg > 0, np.sqrt(deg), 1.0)
    return basis / np.linalg.norm(basis, axis=0)


def _lanczos_eigenpairs(graph: Graph, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest eigenpairs by Lanczos on the deflated companion.

    The normalized Laplacian's spectrum lies in ``[0, 2]``, so L's
    smallest eigenpairs are the *largest* of ``2I - L`` (``λ = 2 - θ``),
    which plain Lanczos finds without a shift-invert factorization.  The
    null space is known in closed form (:func:`_null_space_basis`), and a
    single Krylov vector cannot resolve its multiplicity, so it is
    deflated: ``2I - L - 2ZZᵀ`` moves those eigenvalues from 2 to 0.
    """
    n = graph.num_nodes
    null = _null_space_basis(graph)
    c = null.shape[1]
    if c >= k:
        return np.zeros(k), null[:, :k]
    lap = normalized_laplacian(graph)
    companion = LinearOperator(
        (n, n), dtype=np.float64,
        matvec=lambda x: 2.0 * x - lap @ x - 2.0 * (null @ (null.T @ x)))
    # ARPACK's default start vector comes from per-process random state;
    # one seeded by the graph keeps the solve a pure function of
    # (graph, k), as a cached producer must be.
    v0 = np.random.default_rng(sketch_seed(
        graph.content_digest(), artifact="laplacian_eigenpairs", k=k,
    )).uniform(-1.0, 1.0, n)
    v0 -= null @ (null.T @ v0)
    try:
        thetas, vecs = eigsh(companion, k=k - c, which="LA", v0=v0,
                             ncv=max(60, 2 * (k - c) + 1), tol=1e-10)
    except ArpackError as exc:
        # Lanczos breakdown or no convergence: fall back to dense.  Any
        # other error — a shape error or a caller bug — propagates.
        record_diagnostic(
            "spectral", "eigsh_failure",
            f"sparse eigsh failed on n={n}, k={k} "
            f"({type(exc).__name__}: {exc}); dense eigh fallback",
            fallback_used="dense_eigh",
        )
        vals, vecs = eigh(lap.toarray())
        return vals[:k], vecs[:, :k]
    order = np.argsort(-thetas)  # descending θ = ascending λ
    return (np.concatenate([np.zeros(c), 2.0 - thetas[order]]),
            np.hstack([null, vecs[:, order]]))


def laplacian_eigenpairs(graph: Graph, k: int | None = None) -> Tuple[np.ndarray, np.ndarray]:
    """Smallest ``k`` eigenpairs of the normalized Laplacian.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvector signs fixed.  ``k=None`` (or ``k >= n``) computes the full
    spectrum with a dense solver, as does any graph of at most 600 nodes;
    a truncated spectrum of a larger graph comes from a deflated Lanczos
    solve (:func:`_lanczos_eigenpairs`), with or without a sketch policy.
    """
    n = graph.num_nodes
    if n == 0:
        raise AlgorithmError("cannot eigendecompose an empty graph")
    # k=None and k>=n both mean "the full spectrum": normalize so they
    # address the same cache entry.
    effective_k = None if (k is None or k >= n) else int(k)
    dense = effective_k is None or n <= _DENSE_CUTOFF
    params: dict = {"k": effective_k}
    if not dense:
        # Entries written by earlier solvers (shift-invert, or the
        # randomized sketch) lack this field, so a warm disk cache
        # recomputes them instead of serving them.
        params["solver"] = "lanczos"

    def produce() -> Tuple[np.ndarray, np.ndarray]:
        # Counted inside the producer: a cache hit is *not* an
        # eigendecomposition, and the counter is the proof of that.
        add_counter("eigensolver_calls")
        if dense:
            vals, vecs = eigh(normalized_laplacian(graph, dense=True))
            if effective_k is not None:
                vals, vecs = vals[:effective_k], vecs[:, :effective_k]
        else:
            vals, vecs = _lanczos_eigenpairs(graph, effective_k)
        return vals, fix_signs(vecs)

    return cached_artifact(graph, "laplacian_eigenpairs", produce,
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
