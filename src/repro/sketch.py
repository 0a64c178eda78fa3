"""Sketching policy: when to trade dense similarities for sparse ones.

The dense ``n x n`` similarity matrix is the scaling wall the paper's §7
time/memory sweeps expose.  Above a size threshold this module's policy
switches the similarity stage of GRASP, REGAL and CONE's final
extraction to a *sparse* top-k representation
(:mod:`repro.embedding.topk`), which keeps their similarity memory
linear in the graph size.  A policy changes nothing else that is
computed: the Laplacian eigenpairs (a deflated Lanczos solve) and the
NetMF embeddings (one exact symmetric eigensolve) are the same arrays
with or without one.

The policy is one number, its threshold.  The sparse similarity stage
keeps the fixed :data:`SIMILARITY_TOPK` candidates per source row.

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
    "SIMILARITY_TOPK",
]

# Default size threshold: below this a dense similarity is memory-safe,
# so sparsifying it would only drop candidates.
DEFAULT_THRESHOLD = 4096

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
    """Scope under which sparse similarity is active.

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
