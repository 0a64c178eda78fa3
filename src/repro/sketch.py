"""Sketching policy: when to trade exact kernels for randomized ones.

The eigendecomposition and the dense ``n x n`` similarity matrix are the
two scaling walls the paper's §7 time/memory sweeps expose.  Above a size
threshold this module's policy switches the spectral/embedding substrate
to *sketched* kernels (randomized SVD / Nyström,
:mod:`repro.spectral.sketch`) and the similarity stage to a *sparse*
top-k representation (:mod:`repro.embedding.topk`), which together keep
peak memory linear in the graph size.

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
    "active_sketch_policy",
    "sketch_policy_for",
    "SKETCH_METHODS",
]

SKETCH_METHODS = ("rsvd", "nystrom")

# Default size threshold: below this the exact dense/Lanczos path is both
# fast and memory-safe, so sketching would only add approximation error.
DEFAULT_THRESHOLD = 4096


@dataclass(frozen=True)
class SketchPolicy:
    """How (and above what size) to sketch.

    Attributes
    ----------
    threshold:
        Sketching applies only when an input dimension *exceeds* this.
    rank:
        Sketch rank; 0 means "the consumer's natural rank" (its ``k``
        eigenpairs or ``dim`` embedding columns).
    oversampling:
        Extra random probe columns beyond the rank (Halko et al.
        recommend 5-10; they cost almost nothing and buy accuracy).
    power_iters:
        Subspace/power iterations sharpening the range estimate; each
        costs two extra operator passes.
    topk:
        Candidates kept per source row by the sparse similarity stage.
    method:
        ``"rsvd"`` (randomized SVD, the default) or ``"nystrom"``
        (landmark approximation; eigenpair consumers only — implicit
        operators such as the streamed NetMF matrix always use rsvd).
    """

    threshold: int = DEFAULT_THRESHOLD
    rank: int = 0
    oversampling: int = 8
    power_iters: int = 2
    topk: int = 10
    method: str = "rsvd"

    def __post_init__(self):
        if self.threshold < 1:
            raise ExperimentError(
                f"sketch threshold must be >= 1, got {self.threshold}")
        if self.rank < 0:
            raise ExperimentError(
                f"sketch rank must be >= 0 (0 = consumer default), "
                f"got {self.rank}")
        if self.oversampling < 1:
            raise ExperimentError(
                f"sketch oversampling must be >= 1, got {self.oversampling}")
        if self.power_iters < 0:
            raise ExperimentError(
                f"sketch power_iters must be >= 0, got {self.power_iters}")
        if self.topk < 1:
            raise ExperimentError(
                f"similarity topk must be >= 1, got {self.topk}")
        if self.method not in SKETCH_METHODS:
            raise ExperimentError(
                f"unknown sketch method {self.method!r}; "
                f"choose from {SKETCH_METHODS}")

    def applies_to(self, *sizes: int) -> bool:
        """Whether any of the given input sizes crosses the threshold."""
        return bool(sizes) and max(sizes) > self.threshold

    def effective_rank(self, default: int) -> int:
        """The sketch rank to use for a consumer whose natural rank is
        ``default`` — never below it, so consumers always get the
        columns they asked for."""
        rank = self.rank if self.rank > 0 else int(default)
        return max(rank, int(default))


def active_sketch_policy() -> Optional[SketchPolicy]:
    """The policy of the innermost open :func:`sketching` scope."""
    return current_context().sketch


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
