"""Stage-level tracing and performance counters for the harness.

See :mod:`repro.observability.trace` for the span API and
:mod:`repro.observability.counters` for the counter registry.  The
layer is inert (near-zero cost) unless enabled via :func:`tracing` (the
``trace`` field of :class:`repro.context.RunContext`) *and* collected
via :func:`capture_trace` — the harness does both when a run asks for
``trace=True`` (CLI: ``--trace``).
"""

from repro.observability.counters import KNOWN_COUNTERS, add_counter
from repro.observability.trace import (
    Span,
    Trace,
    capture_trace,
    counter_totals,
    reset_traced_peak,
    span,
    stage_rollup,
    trace_clock,
    trace_structure,
    traced_peak,
    tracing,
    tracing_enabled,
)

__all__ = [
    "KNOWN_COUNTERS",
    "Span",
    "Trace",
    "add_counter",
    "capture_trace",
    "counter_totals",
    "reset_traced_peak",
    "span",
    "stage_rollup",
    "trace_clock",
    "trace_structure",
    "traced_peak",
    "tracing",
    "tracing_enabled",
]
