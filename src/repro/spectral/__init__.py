"""Spectral substrate: Laplacian eigendecompositions and heat kernels.

GRASP is built on the eigenpairs of the normalized Laplacian.  This
package wraps a dense solver and a deflated Lanczos solver behind one
call, applies deterministic sign fixing, and evaluates heat-kernel
diagonals from a truncated eigenbasis.  :func:`sketch_seed` derives the
Lanczos start vector's seed from the graph, so every solve is a pure
function of its cache key.
"""

from repro.spectral.decomposition import (
    fix_signs,
    heat_kernel_diagonals,
    laplacian_eigenpairs,
    sketch_seed,
)

__all__ = [
    "laplacian_eigenpairs",
    "fix_signs",
    "heat_kernel_diagonals",
    "sketch_seed",
]
