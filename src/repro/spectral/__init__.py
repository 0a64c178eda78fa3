"""Spectral substrate: Laplacian eigendecompositions and heat kernels.

GRASP is built on the eigenpairs of the normalized Laplacian.  This
package wraps a dense solver and a deflated Lanczos solver behind one
call, applies deterministic sign fixing, and evaluates heat-kernel
diagonals from a truncated eigenbasis.  It also holds the randomized
SVD behind the sketched NetMF embedding.
"""

from repro.spectral.decomposition import (
    fix_signs,
    heat_kernel_diagonals,
    laplacian_eigenpairs,
)
from repro.spectral.sketch import randomized_svd, sketch_seed

__all__ = [
    "laplacian_eigenpairs",
    "fix_signs",
    "heat_kernel_diagonals",
    "randomized_svd",
    "sketch_seed",
]
