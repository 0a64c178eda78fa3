"""Structured diagnostics for graceful solver degradation.

The paper reports *failure modes* as first-class results — GRASP
degenerating on disconnected inputs (§6.4.2), solvers that crash or stall
on real graphs — yet a solver that silently switches to a fallback (dense
eigendecomposition after a Lanczos breakdown, the current Sinkhorn plan
after non-convergence, a greedy matching after an infeasible LAP) leaves
no trace in the results.  This module gives every such event a uniform,
serializable record:

* :class:`Diagnostic` — one degradation event: which pipeline ``stage``
  emitted it, a machine-matchable ``kind``, a human-readable ``message``,
  and the ``fallback_used`` (empty when the event is a warning with no
  fallback, e.g. an all-zero similarity matrix).
* :func:`record_diagnostic` — called at the site of the degradation, deep
  inside the spectral/OT/assignment layers.  It is a no-op unless someone
  upstream is collecting, so library code can report unconditionally.
* :func:`capture_diagnostics` — the collection scope.
  :meth:`~repro.algorithms.base.AlignmentAlgorithm.align` opens one around
  the whole pipeline so every event lands in
  :attr:`AlignmentResult.diagnostics`; the harness opens another around
  each cell so events survive into the :class:`RunRecord` even when the
  cell ultimately fails.

Collectors nest: an event is appended to *every* active scope, so an
outer harness capture sees everything an inner algorithm capture sees.
Scopes are per-thread (and therefore per-process: sweep workers and
budget children each collect their own), which keeps serial and parallel
sweeps byte-identical in what they record.

Well-known kinds (see ``docs/api.md`` for the full vocabulary):

=====================  ==========  ==============================================
kind                   stage       emitted when
=====================  ==========  ==============================================
``disconnected_input`` preflight   input restricted to its largest component
``contract_violation`` preflight   an input fails a declared requirement
``nonfinite_similarity`` watchdog  NaN/Inf sanitized out of a similarity matrix
``zero_similarity``    watchdog    similarity matrix carries no signal at all
``eigsh_failure``      spectral    sparse Lanczos failed; dense solve used
``nonconvergence``     sinkhorn    iteration budget hit; current plan returned
``lap_infeasible``     assignment  exact LAP infeasible; greedy matching used
``dense_bypass``       similarity  dense n x n matrix above the sketch threshold
=====================  ==========  ==============================================
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["Diagnostic", "record_diagnostic", "capture_diagnostics"]


@dataclass(frozen=True)
class Diagnostic:
    """One graceful-degradation event.

    Attributes
    ----------
    stage:
        Pipeline stage that emitted the event (``"preflight"``,
        ``"watchdog"``, ``"spectral"``, ``"sinkhorn"``, ``"assignment"``).
    kind:
        Machine-matchable event class (see the module table).
    message:
        Human-readable detail — enough to understand the event in a report
        without rerunning the cell.
    fallback_used:
        Name of the substitute taken (``"dense_eigh"``,
        ``"largest_connected_component"``, ...); empty for pure warnings.
    """

    stage: str
    kind: str
    message: str
    fallback_used: str = ""

    def to_dict(self) -> Dict[str, str]:
        """JSON-serializable form (the journal's on-disk representation)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Diagnostic":
        """Rebuild from :meth:`to_dict` output; unknown keys are ignored."""
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: str(v) for k, v in data.items() if k in names})

    def __str__(self) -> str:
        arrow = f" -> {self.fallback_used}" if self.fallback_used else ""
        return f"[{self.stage}] {self.kind}{arrow}: {self.message}"


class _CollectorStack(threading.local):
    """Per-thread stack of active diagnostic sinks."""

    def __init__(self):
        self.scopes: List[List[Diagnostic]] = []
        self.observers: List[Callable[[Diagnostic], None]] = []


_ACTIVE = _CollectorStack()


def record_diagnostic(stage: str, kind: str, message: str,
                      fallback_used: str = "") -> Diagnostic:
    """Report one degradation event to every active collection scope.

    Safe to call unconditionally from library code: with no active scope
    the event is simply dropped (direct API users who did not opt in see
    no overhead and no global state growth).  Returns the event so call
    sites can also raise or log it.  Events whose ``fallback_used`` is
    non-empty additionally bump the ``fallback_activations`` perf counter
    when stage tracing is on (see :mod:`repro.observability`).
    """
    diagnostic = Diagnostic(stage=stage, kind=kind, message=message,
                            fallback_used=fallback_used)
    for scope in _ACTIVE.scopes:
        scope.append(diagnostic)
    if _ACTIVE.scopes:
        for observer in _ACTIVE.observers:
            observer(diagnostic)
        if fallback_used:
            from repro.observability import add_counter
            add_counter("fallback_activations")
    return diagnostic


@contextmanager
def capture_diagnostics(
    observer: Optional[Callable[[Diagnostic], None]] = None,
) -> Iterator[List[Diagnostic]]:
    """Collect every :func:`record_diagnostic` event raised in the body.

    Yields the (live) list the events are appended to; it remains valid
    after the scope closes.  Scopes nest — inner scopes do not steal
    events from outer ones — and are thread-local.  ``observer`` fires
    once per event as it is recorded; the budget runner uses it to
    stream events out of a child process before a kill (see
    :mod:`repro.harness.budget`).
    """
    scope: List[Diagnostic] = []
    _ACTIVE.scopes.append(scope)
    if observer is not None:
        _ACTIVE.observers.append(observer)
    try:
        yield scope
    finally:
        _ACTIVE.scopes.remove(scope)
        if observer is not None:
            _ACTIVE.observers.remove(observer)
