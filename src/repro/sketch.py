"""Sketching policy: when to trade exact kernels for randomized ones.

The dense ``n x n`` similarity matrix is the scaling wall the paper's §7
time/memory sweeps expose.  Above a size threshold this module's policy
switches the embedding substrate to *sketched* kernels (the randomized
SVD behind NetMF, :mod:`repro.spectral.sketch`) and the similarity stage
to a *sparse* top-k representation (:mod:`repro.embedding.topk`), which
together keep peak memory linear in the graph size.  The Laplacian
eigenpairs stay exact under a policy: a deflated Lanczos solve is both
exact and cheaper than any sketch of them.

The policy is one number, its threshold.  Everything else a sketch needs
is fixed: NetMF sketches at its natural rank (its ``dim`` embedding
columns) with :data:`OVERSAMPLING` extra probe columns and
:data:`POWER_ITERS` subspace iterations, and the sparse similarity stage
keeps :data:`SIMILARITY_TOPK` candidates per source row.

The policy is the ``sketch`` field of the current
:class:`~repro.context.RunContext`: the harness runs each cell under the
config's context (``ExperimentConfig.run_context()``), :func:`sketching`
scopes a policy around any other code, library code asks
:func:`sketch_policy_for` whether sketching applies at its input size,
and direct API users who never opt in get the exact path with zero
overhead.

Below the threshold a sketch-enabled run is **bit-identical** to an
exact one — the policy simply never applies — which is what keeps small
sweeps reproducible with ``--sketch`` on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ContextManager, Optional

from repro.context import RunContext, current_context
from repro.exceptions import ExperimentError

__all__ = [
    "SketchPolicy",
    "sketching",
    "sketch_policy_for",
    "OVERSAMPLING",
    "POWER_ITERS",
    "SIMILARITY_TOPK",
]

# Default size threshold: below this the exact dense/Lanczos path is both
# fast and memory-safe, so sketching would only add approximation error.
DEFAULT_THRESHOLD = 4096

# Extra random probe columns beyond the rank (Halko et al. recommend
# 5-10; they cost almost nothing and buy accuracy).
OVERSAMPLING = 8

# Subspace/power iterations sharpening the range estimate; each costs
# two extra operator passes.
POWER_ITERS = 2

# Candidates kept per source row by the sparse similarity stage.
SIMILARITY_TOPK = 10


@dataclass(frozen=True)
class SketchPolicy:
    """Above what size to sketch.

    Attributes
    ----------
    threshold:
        Sketching applies only when an input dimension *exceeds* this.
    """

    threshold: int = DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.threshold < 1:
            raise ExperimentError(
                f"sketch threshold must be >= 1, got {self.threshold}")

    def applies_to(self, *sizes: int) -> bool:
        """Whether any of the given input sizes crosses the threshold."""
        return bool(sizes) and max(sizes) > self.threshold


def sketching(policy: Optional[SketchPolicy]) -> ContextManager[RunContext]:
    """Scope under which sketched kernels are active.

    ``None`` is accepted and means "explicitly exact" — it shadows any
    outer scope, which is how a sub-computation can opt back out.
    """
    return replace(current_context(), sketch=policy).enter()


def sketch_policy_for(*sizes: int) -> Optional[SketchPolicy]:
    """The active policy when it applies at these input sizes, else None.

    This is the single question library code asks: ``policy =
    sketch_policy_for(n)`` (or ``(n_a, n_b)`` for a similarity stage)
    returns the policy only when a scope is open *and* the size crosses
    its threshold — callers need no separate enabled/threshold checks.
    """
    policy = current_context().sketch
    if policy is not None and policy.applies_to(*sizes):
        return policy
    return None
