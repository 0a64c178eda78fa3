"""Randomized low-rank decompositions (Halko, Martinsson & Tropp 2011).

:func:`randomized_svd` backs the sketched NetMF embedding: a Gaussian
range finder with power iterations.  The operator is consumed only
through block products (``matmat``), so callers can stream
implicitly-defined matrices (the blockwise NetMF log-PMI matrix) without
materializing them.

Every sketch draws its Gaussian probes from a generator seeded by
:func:`sketch_seed` — a digest of the graph content plus the sketch
parameters — so sketched artifacts are pure functions of their cache
key, exactly like the exact ones.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.exceptions import AlgorithmError
from repro.sketch import OVERSAMPLING, POWER_ITERS

__all__ = [
    "sketch_seed",
    "randomized_range_finder",
    "randomized_svd",
]

MatMat = Callable[[np.ndarray], np.ndarray]


def sketch_seed(digest: bytes, **params) -> int:
    """Deterministic 32-bit seed from a graph digest and sketch params.

    Producers behind :func:`repro.cache.cached_artifact` must be pure, so
    the probe RNG cannot come from ambient state: two processes sketching
    the same graph with the same parameters must draw identical probes.
    """
    payload = bytes(digest) + b"|" + "|".join(
        f"{key}={params[key]!r}" for key in sorted(params)
    ).encode("utf-8")
    raw = hashlib.blake2b(payload, digest_size=4).digest()
    return int.from_bytes(raw, "big")


def _as_matmat(operator: Union[np.ndarray, sparse.spmatrix, MatMat]) -> MatMat:
    if callable(operator) and not sparse.issparse(operator):
        return operator
    return lambda block: operator @ block


def randomized_range_finder(
    matmat: MatMat,
    n: int,
    size: int,
    power_iters: int,
    rng: np.random.Generator,
    rmatmat: Optional[MatMat] = None,
) -> np.ndarray:
    """Orthonormal ``(m, size)`` basis approximating the operator's range.

    ``matmat`` maps ``(n, q)`` blocks to ``(m, q)``; ``rmatmat`` is the
    adjoint (defaults to ``matmat``, correct for symmetric operators).
    Each power iteration re-orthonormalizes with a QR factorization to
    stop the probe block collapsing onto the dominant singular vector.
    """
    rmatmat = rmatmat if rmatmat is not None else matmat
    probes = rng.standard_normal((n, size))
    basis, _ = np.linalg.qr(matmat(probes))
    for _ in range(power_iters):
        basis, _ = np.linalg.qr(rmatmat(basis))
        basis, _ = np.linalg.qr(matmat(basis))
    return basis


def randomized_svd(
    operator: Union[np.ndarray, sparse.spmatrix, MatMat],
    shape: Tuple[int, int],
    rank: int,
    oversampling: int = OVERSAMPLING,
    power_iters: int = POWER_ITERS,
    rng: Optional[np.random.Generator] = None,
    rmatmat: Optional[MatMat] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD ``(U, s, Vt)`` of an ``(m, n)`` operator via sketching.

    ``operator`` may be an array, a sparse matrix, or a ``matmat``
    callable (then ``rmatmat`` must be its adjoint unless symmetric).
    The sketch width is ``rank + oversampling`` clipped to ``min(m, n)``;
    exactly ``rank`` components are returned.
    """
    m, n = int(shape[0]), int(shape[1])
    if rank < 1:
        raise AlgorithmError(f"sketch rank must be >= 1, got {rank}")
    rank = min(rank, m, n)
    rng = rng if rng is not None else np.random.default_rng(0)
    matmat = _as_matmat(operator)
    if rmatmat is None:
        if callable(operator) and not sparse.issparse(operator):
            raise AlgorithmError(
                "randomized_svd over a matmat callable needs an explicit "
                "rmatmat (pass matmat itself for symmetric operators)")
        rmatmat = _as_matmat(operator.T)
    size = min(rank + int(oversampling), m, n)
    basis = randomized_range_finder(matmat, n, size, power_iters, rng,
                                    rmatmat=rmatmat)
    # B = Qᵀ M, computed through the adjoint: B = (Mᵀ Q)ᵀ, shape (size, n).
    small = rmatmat(basis).T
    u_small, svals, vt = np.linalg.svd(small, full_matrices=False)
    u = basis @ u_small
    return u[:, :rank], svals[:rank], vt[:rank]
