"""Spectral substrate: Laplacian eigendecompositions and heat kernels.

GRASP (and the analysis tooling) are built on the eigenpairs of the
normalized Laplacian.  This package wraps dense and sparse eigensolvers
behind one call, applies deterministic sign fixing, and evaluates
heat-kernel diagonals from a truncated eigenbasis.
"""

from repro.spectral.decomposition import (
    fix_signs,
    heat_kernel_diagonals,
    laplacian_eigenpairs,
)
from repro.spectral.netlsd import (
    default_timescales,
    netlsd_distance,
    netlsd_signature,
)
from repro.spectral.sketch import (
    randomized_eigh,
    randomized_svd,
    sketch_seed,
)

__all__ = [
    "laplacian_eigenpairs",
    "fix_signs",
    "heat_kernel_diagonals",
    "netlsd_signature",
    "netlsd_distance",
    "default_timescales",
    "randomized_svd",
    "randomized_eigh",
    "sketch_seed",
]
