"""Span-based stage tracing for alignment pipelines.

The paper's scalability analysis (Figs. 11–16) attributes time and memory
to pipeline stages; this module gives the harness the machinery to do the
same on every run.  A *span* covers one stage of work — similarity
construction, an embedding solve, the assignment step — and records wall
time, CPU time, peak allocation, a status, and any nested child spans.
Named performance counters (:mod:`repro.observability.counters`) attach to
the innermost open span.

The design mirrors :mod:`repro.diagnostics`:

* :func:`span` is called at the site of the work, deep inside algorithm
  and solver code.  It is a no-op unless the current
  :class:`~repro.context.RunContext` traces *and* someone upstream
  opened a collection scope, so library code can instrument
  unconditionally with no measurable cost in normal runs.
* :func:`capture_trace` is the collection scope.
  :meth:`~repro.algorithms.base.AlignmentAlgorithm.align` opens one
  around the pipeline so every span lands in
  :attr:`AlignmentResult.trace`; the harness opens another around each
  cell so spans survive into the :class:`RunRecord` even when the cell
  fails mid-stage.
* The tracing switch and the collection scopes are per-thread (and
  therefore per-process), which keeps serial and parallel sweeps
  structurally identical in what they record.

A closed span attaches to its parent span when one is open, otherwise it
is appended as a *root* span to every active scope (an outer harness
scope sees everything an inner algorithm scope sees).  Scopes accept an
``observer`` callback fired per completed root span — the budget runner
uses it to stream partial traces out of a child process before a kill.

Memory attribution uses :mod:`tracemalloc` windows when tracing is on
(``tracemalloc.reset_peak`` per span, with child peaks folded into their
ancestors so a parent's peak is never below a child's) and falls back to
RSS high-water sampling otherwise.  Every reset first folds the closing
window's peak into a process-wide high-water mark, so the owner of the
tracemalloc session still reads its true peak through
:func:`traced_peak` (the runner's whole-cell peak).

Enable with the :func:`tracing` scope (the ``trace`` field of the
current run context); the harness runs each cell under a context that
traces when asked to.  The clocks are injectable (:func:`trace_clock`)
so the golden-trace test suite can assert on deterministic values
instead of wall time.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (Callable, ContextManager, Dict, Iterator, List, Optional,
                    Tuple)

from repro.context import RunContext, current_context

__all__ = [
    "Span",
    "Trace",
    "span",
    "capture_trace",
    "tracing",
    "tracing_enabled",
    "trace_clock",
    "stage_rollup",
    "counter_totals",
    "trace_structure",
    "reset_traced_peak",
    "traced_peak",
]

# Injectable clocks (the golden-trace tests swap in a fake monotonic
# clock so no assertion ever depends on real time).
_WALL_CLOCK = time.perf_counter
_CPU_CLOCK = time.process_time


def tracing_enabled() -> bool:
    """Whether the current run context traces."""
    return current_context().trace


def tracing(flag: bool = True) -> ContextManager[RunContext]:
    """Scope: the current run context with ``trace`` set to ``flag``."""
    return replace(current_context(), trace=bool(flag)).enter()


@contextmanager
def trace_clock(wall: Callable[[], float],
                cpu: Optional[Callable[[], float]] = None) -> Iterator[None]:
    """Swap the tracer's wall/CPU clocks (tests inject a fake clock)."""
    global _WALL_CLOCK, _CPU_CLOCK
    previous = (_WALL_CLOCK, _CPU_CLOCK)
    _WALL_CLOCK = wall
    _CPU_CLOCK = cpu if cpu is not None else wall
    try:
        yield
    finally:
        _WALL_CLOCK, _CPU_CLOCK = previous


@dataclass
class Span:
    """One completed pipeline stage.

    Attributes
    ----------
    stage:
        Stage name (``"similarity"``, ``"assignment"``, ``"embedding"``...).
    status:
        ``"ok"``, or ``"error"`` when an exception escaped the span (the
        span still closes and records what it saw — see ``error``).
    wall_time, cpu_time:
        Seconds by the (injectable) wall and CPU clocks.
    peak_memory_bytes:
        Peak allocation observed during the span — a tracemalloc window
        peak when tracing, RSS high water otherwise.  Never below any
        child's peak.
    error:
        ``"ClassName: message"`` of the escaping exception, empty for ok.
    counters:
        Performance counters incremented while this span was innermost.
    children:
        Nested spans, in completion order.
    """

    stage: str
    status: str = "ok"
    wall_time: float = 0.0
    cpu_time: float = 0.0
    peak_memory_bytes: int = 0
    error: str = ""
    counters: Dict[str, int] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable nested form (the journal's on-disk shape)."""
        return {
            "stage": self.stage,
            "status": self.status,
            "wall_time": self.wall_time,
            "cpu_time": self.cpu_time,
            "peak_memory_bytes": self.peak_memory_bytes,
            "error": self.error,
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        """Rebuild from :meth:`to_dict` output; unknown keys are ignored."""
        return cls(
            stage=str(data.get("stage", "?")),
            status=str(data.get("status", "ok")),
            wall_time=float(data.get("wall_time", 0.0)),
            cpu_time=float(data.get("cpu_time", 0.0)),
            peak_memory_bytes=int(data.get("peak_memory_bytes", 0)),
            error=str(data.get("error", "")),
            counters={str(k): int(v)
                      for k, v in dict(data.get("counters", {})).items()},
            children=[cls.from_dict(child)
                      for child in data.get("children", [])],
        )

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class _Frame:
    """Bookkeeping for one *open* span."""

    __slots__ = ("span", "wall_start", "cpu_start", "child_peak")

    def __init__(self, span_record: Span, wall_start: float,
                 cpu_start: float):
        self.span = span_record
        self.wall_start = wall_start
        self.cpu_start = cpu_start
        # Running max of peaks folded in from closed children (and, under
        # tracemalloc, window peaks observed before a child reset them).
        self.child_peak = 0


class Trace:
    """Root spans and scope-level counters collected by one capture scope."""

    def __init__(self, observer: Optional[Callable[[Span], None]] = None):
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self._observer = observer

    def _add_root(self, span_record: Span) -> None:
        self.spans.append(span_record)
        if self._observer is not None:
            self._observer(span_record)

    def to_payload(self) -> Dict[str, object]:
        """The serialized trace: root span dicts plus orphan counters."""
        return {
            "spans": [s.to_dict() for s in self.spans],
            "counters": dict(self.counters),
        }


class _TraceState(threading.local):
    """Per-thread collector scopes and the open-span stack."""

    def __init__(self):
        self.scopes: List[Trace] = []
        self.stack: List[_Frame] = []


_STATE = _TraceState()


def _rss_bytes() -> int:
    """Process RSS high water mark; best-effort (0 on exotic platforms)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    # ru_maxrss is KiB on Linux (bytes on macOS; close enough for a
    # best-effort fallback that only feeds relative comparisons).
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


# tracemalloc keeps one peak per process, and every span resets it to
# open its own window; the peak of each window a span closes lands here,
# process-wide like the peak it extends.
_HIGH_WATER = 0
_HIGH_WATER_LOCK = threading.Lock()


def _close_window() -> int:
    """The current tracemalloc window's peak; then start a fresh window."""
    global _HIGH_WATER
    with _HIGH_WATER_LOCK:
        peak = tracemalloc.get_traced_memory()[1]
        _HIGH_WATER = max(_HIGH_WATER, peak)
        tracemalloc.reset_peak()
    return peak


def reset_traced_peak() -> None:
    """Start the window that :func:`traced_peak` measures."""
    global _HIGH_WATER
    with _HIGH_WATER_LOCK:
        _HIGH_WATER = 0
        tracemalloc.reset_peak()


def traced_peak() -> int:
    """Peak traced bytes since :func:`reset_traced_peak`.

    Spans reset tracemalloc's peak to measure their own windows; this
    still covers every one of those windows.  0 unless tracemalloc runs.
    """
    if not tracemalloc.is_tracing():
        return 0
    return max(_HIGH_WATER, tracemalloc.get_traced_memory()[1])


def _enter_memory(state: _TraceState) -> None:
    if tracemalloc.is_tracing():
        # The window peak accumulated so far belongs to the parent; fold
        # it in before starting a fresh window for this span.
        peak = _close_window()
        if state.stack:
            parent = state.stack[-1]
            parent.child_peak = max(parent.child_peak, peak)


def _exit_memory(state: _TraceState, frame: _Frame) -> int:
    if tracemalloc.is_tracing():
        measured = max(_close_window(), frame.child_peak)
    else:
        measured = max(_rss_bytes(), frame.child_peak)
    # Fold into the parent so peak memory is monotone along the tree.
    if state.stack:
        parent = state.stack[-1]
        parent.child_peak = max(parent.child_peak, measured)
    return measured


@contextmanager
def span(stage: str) -> Iterator[Optional[Span]]:
    """Trace one stage of work; yields the live :class:`Span` (or None).

    No-op (yields ``None``) unless tracing is enabled and a scope is
    collecting.  An exception inside the body still closes the span —
    recorded with ``status="error"`` and the exception repr — and then
    propagates.
    """
    state = _STATE
    if not (current_context().trace and state.scopes):
        yield None
        return
    record = Span(stage=str(stage))
    frame = _Frame(record, _WALL_CLOCK(), _CPU_CLOCK())
    _enter_memory(state)
    state.stack.append(frame)
    try:
        yield record
    except BaseException as exc:
        record.status = "error"
        record.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        state.stack.pop()
        record.wall_time = max(_WALL_CLOCK() - frame.wall_start, 0.0)
        record.cpu_time = max(_CPU_CLOCK() - frame.cpu_start, 0.0)
        record.peak_memory_bytes = _exit_memory(state, frame)
        if state.stack:
            state.stack[-1].span.children.append(record)
        else:
            for scope in state.scopes:
                scope._add_root(record)


@contextmanager
def capture_trace(
    observer: Optional[Callable[[Span], None]] = None,
) -> Iterator[Trace]:
    """Collect every root span closed in the body into a :class:`Trace`.

    Scopes nest like diagnostic scopes: a root span is appended to
    *every* active scope, so an outer harness capture sees everything an
    inner algorithm capture sees.  ``observer`` fires once per completed
    root span (used to stream partial traces across a process boundary).
    The yielded trace remains valid after the scope closes.
    """
    trace = Trace(observer=observer)
    _STATE.scopes.append(trace)
    try:
        yield trace
    finally:
        _STATE.scopes.remove(trace)


# ----------------------------------------------------------------------
# Payload helpers: everything downstream of the collector (CSV columns,
# report tables, bench grids) works on the serialized payload so it can
# aggregate journaled and fresh records alike.


def _span_dicts(payload: Optional[Dict[str, object]]) -> List[Dict]:
    if not payload:
        return []
    return list(payload.get("spans", []))


def stage_rollup(
    payload: Optional[Dict[str, object]],
) -> Dict[str, Dict[str, float]]:
    """Per top-level-stage totals of one serialized trace payload.

    Returns ``{stage: {"wall_time", "cpu_time", "peak_memory_bytes",
    "calls"}}`` where times sum over repeated stages and the peak is the
    max.  Only root spans count — nested child stages are attribution
    detail *within* their parent, not separate columns.
    """
    stages: Dict[str, Dict[str, float]] = {}
    for entry in _span_dicts(payload):
        agg = stages.setdefault(str(entry.get("stage", "?")), {
            "wall_time": 0.0, "cpu_time": 0.0,
            "peak_memory_bytes": 0.0, "calls": 0.0,
        })
        agg["wall_time"] += float(entry.get("wall_time", 0.0))
        agg["cpu_time"] += float(entry.get("cpu_time", 0.0))
        agg["peak_memory_bytes"] = max(
            agg["peak_memory_bytes"],
            float(entry.get("peak_memory_bytes", 0)),
        )
        agg["calls"] += 1.0
    return stages


def _walk_dicts(entries: List[Dict]) -> Iterator[Dict]:
    for entry in entries:
        yield entry
        yield from _walk_dicts(list(entry.get("children", [])))


def counter_totals(payload: Optional[Dict[str, object]]) -> Dict[str, int]:
    """Summed counters across the whole span tree plus orphan counters."""
    totals: Dict[str, int] = {}
    if not payload:
        return totals
    for name, value in dict(payload.get("counters", {})).items():
        totals[str(name)] = totals.get(str(name), 0) + int(value)
    for entry in _walk_dicts(_span_dicts(payload)):
        for name, value in dict(entry.get("counters", {})).items():
            totals[str(name)] = totals.get(str(name), 0) + int(value)
    return totals


def trace_structure(payload: Optional[Dict[str, object]]) -> Tuple:
    """Timing-free structural signature of a trace payload.

    ``(stage, status, sorted counter names, children...)`` per span —
    exactly what must be identical between a serial and a parallel run
    of the same cell, and what the golden-trace suite asserts on.
    """

    def signature(entry: Dict) -> Tuple:
        return (
            str(entry.get("stage", "?")),
            str(entry.get("status", "ok")),
            tuple(sorted(dict(entry.get("counters", {})))),
            tuple(signature(child)
                  for child in entry.get("children", [])),
        )

    return tuple(signature(entry) for entry in _span_dicts(payload))
