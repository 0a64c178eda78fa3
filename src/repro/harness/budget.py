"""Per-cell time and memory budgets with a hardened child lifecycle.

The paper gives every run 3 hours and 256 GB and reports nothing for
cells that exceed either (Table 3's ✗ marks).  This module enforces both
for real: a cell runs in a child process that

* has its address space capped with ``resource.setrlimit`` so an
  over-budget allocation surfaces as a ``MemoryError`` → failed record
  rather than taking down the machine,
* is terminated at the wall-clock deadline with a ``SIGTERM`` →
  ``join(grace)`` → ``SIGKILL`` escalation, so even a child wedged in a
  C-level loop (a runaway LAPACK call ignores Python-level signals)
  cannot survive and stall the sweep,
* may die abnormally (OOM-killed, segfault, rlimit SIGKILL) without
  hanging the parent: a closed pipe is detected and reported as a failed
  record carrying the child's exit code.

Every failure mode yields a :class:`RunRecord` with ``failed=True`` —
the sweep always continues, exactly like the paper's missing lines.

The child **streams partial telemetry** while it runs: every
graceful-degradation diagnostic and every completed root span is flushed
over the pipe as it happens, *before* the final record.  A child killed
at the deadline (or dead from an OOM kill) therefore still contributes
whatever it observed up to the kill — the failed record carries the
flushed diagnostics and a partial trace, which is exactly the evidence
one needs to see *where* a 3-hour cell was stuck.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.context import RunContext, current_context
from repro.exceptions import ExperimentError
from repro.harness.results import RunRecord
from repro.noise import GraphPair

__all__ = ["CellBudget", "run_cell_with_budget"]


@dataclass(frozen=True)
class CellBudget:
    """Resource allowance for one experiment cell.

    Attributes
    ----------
    time_seconds:
        Wall-clock deadline (the paper: 3 h); ``None`` leaves time
        unlimited (a memory-only budget).
    memory_bytes:
        Address-space cap applied in the child via ``RLIMIT_AS``
        (the paper: 256 GB); ``None`` leaves memory unlimited.
    grace_seconds:
        How long a terminated child gets to exit before ``SIGKILL``.

    At least one of ``time_seconds`` / ``memory_bytes`` must be set — a
    budget that limits nothing is a configuration error, not a no-op.
    """

    time_seconds: Optional[float] = None
    memory_bytes: Optional[int] = None
    grace_seconds: float = 2.0

    def __post_init__(self):
        if self.time_seconds is None and self.memory_bytes is None:
            raise ExperimentError(
                "a CellBudget needs a time limit, a memory limit, or both"
            )
        if self.time_seconds is not None and self.time_seconds <= 0:
            raise ExperimentError(
                f"timeout must be positive, got {self.time_seconds}"
            )
        if self.memory_bytes is not None and self.memory_bytes <= 0:
            raise ExperimentError(
                f"memory budget must be positive, got {self.memory_bytes}"
            )
        if self.grace_seconds < 0:
            raise ExperimentError(
                f"grace must be >= 0, got {self.grace_seconds}"
            )


def _apply_memory_limit(memory_bytes: int) -> None:
    """Cap the child's address space; best-effort on exotic platforms."""
    try:
        import resource
    except ImportError:  # non-POSIX; budget degrades to time-only
        return
    try:
        resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))
    except (ValueError, OSError):
        # Lowering below current usage or a platform refusing RLIMIT_AS;
        # time enforcement still applies.
        pass


def _child(connection, algorithm_name, pair, assignment, measures, seed,
           algorithm_params, track_memory, memory_bytes, context):
    """Child-process body: apply limits, run the cell, ship the record.

    The pipe carries a tagged stream: ``("diagnostic", dict)`` and
    ``("span", dict)`` messages are flushed live as the cell produces
    them, then exactly one terminal ``("record", RunRecord)`` or
    ``("exception", BaseException)``.  The live messages are what the
    parent falls back on when no terminal message ever arrives — a child
    killed at the deadline or dead from an OOM kill has already shipped
    everything it observed.
    """
    if memory_bytes is not None:
        _apply_memory_limit(memory_bytes)
    from repro.diagnostics import capture_diagnostics
    from repro.harness.runner import run_cell
    from repro.observability import capture_trace

    def _flush(tag, payload):
        try:
            connection.send((tag, payload))
        except Exception:
            # A broken pipe means the parent already gave up on us;
            # keep running so the cell's own outcome path still applies.
            pass

    try:
        # Outer observer scopes: root spans and diagnostics propagate to
        # *every* active scope, so these see everything the cell's own
        # capture scopes (inside run_cell) see, as it happens.  Spans
        # only exist when the context traces.
        with capture_diagnostics(
                observer=lambda d: _flush("diagnostic", d.to_dict())), \
                capture_trace(observer=lambda s: _flush("span", s.to_dict())):
            # A caching context reuses a fork-inherited instance scope
            # when the sweep opened one (warm reads; the child's writes
            # die with it), and opens a cell-local cache otherwise
            # (spawn, or a standalone budgeted call).
            record = run_cell(
                algorithm_name, pair, dataset="", repetition=0,
                assignment=assignment, measures=measures, seed=seed,
                track_memory=track_memory, algorithm_params=algorithm_params,
                context=context,
            )
        connection.send(("record", record))
    except BaseException as exc:  # never let the child die silently
        try:
            connection.send(("exception", exc))
        except Exception:
            # Even the exception may be unpicklable or too large to send
            # (e.g. MemoryError under a tight rlimit); the parent's
            # dead-child path reports the exit code instead.
            pass
    finally:
        connection.close()


def _stop_child(process, grace_seconds: float) -> None:
    """terminate → join(grace) → kill escalation; always reaps the child."""
    process.terminate()
    process.join(grace_seconds)
    if process.is_alive():
        process.kill()
        process.join()


def _failed(algorithm_name, pair, dataset, repetition, assignment,
            error, similarity_time=0.0, diagnostics=None,
            trace=None) -> RunRecord:
    return RunRecord(
        algorithm=algorithm_name,
        dataset=dataset,
        noise_type=pair.noise_type,
        noise_level=pair.noise_level,
        repetition=repetition,
        assignment=assignment,
        measures={},
        similarity_time=similarity_time,
        assignment_time=0.0,
        failed=True,
        error=error,
        diagnostics=list(diagnostics or []),
        trace=trace,
    )


class _PartialTelemetry:
    """Diagnostics and spans the child flushed before (possibly) dying."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.diagnostics: List[Dict] = []
        self.spans: List[Dict] = []

    def absorb(self, tag, payload) -> bool:
        """Accumulate a live message; True iff it *was* live (non-terminal)."""
        if tag == "diagnostic":
            self.diagnostics.append(payload)
            return True
        if tag == "span":
            self.spans.append(payload)
            return True
        return False

    def trace_payload(self) -> Optional[Dict[str, object]]:
        """A partial-trace payload, or ``None`` when tracing was off."""
        if not self.tracing:
            return None
        return {"spans": list(self.spans), "counters": {}}


def run_cell_with_budget(
    algorithm_name: str,
    pair: GraphPair,
    dataset: str,
    repetition: int,
    budget: CellBudget,
    assignment: str = "jv",
    measures: Sequence[str] = ("accuracy", "s3", "mnc"),
    seed: int = 0,
    track_memory: bool = False,
    algorithm_params: Optional[Dict] = None,
    context: Optional[RunContext] = None,
) -> RunRecord:
    """Run one cell in a child process under a :class:`CellBudget`.

    Returns the child's :class:`RunRecord` on success, or a failed record
    whose ``error`` names the breakdown: ``"timeout after ...s"`` past the
    deadline, the ``MemoryError`` the rlimit provoked, or ``"child process
    died without result (exit code ...)"`` for abnormal deaths.  A
    memory-only budget (``time_seconds=None``) waits for the child
    indefinitely; only the rlimit (and abnormal death) can fail it.
    The child runs under ``context`` (a :class:`~repro.context.RunContext`;
    ``None`` means this thread's current context), handed over as a
    value under fork or spawn.  A tracing context additionally makes the
    failed timeout / dead-child records carry a *partial* trace — the
    root spans the child flushed before it was killed — plus every
    streamed diagnostic.
    """
    if context is None:
        context = current_context()
    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() \
        else mp.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_child,
        args=(child_conn, algorithm_name, pair, assignment, tuple(measures),
              seed, algorithm_params, track_memory, budget.memory_bytes,
              context),
    )
    process.start()
    child_conn.close()
    partial = _PartialTelemetry(tracing=context.trace)
    payload = None
    try:
        deadline = (None if budget.time_seconds is None
                    else time.monotonic() + budget.time_seconds)
        while True:
            if deadline is None:
                timed_out = not parent_conn.poll(None)  # block until a message
            else:
                remaining = deadline - time.monotonic()
                timed_out = (remaining <= 0
                             or not parent_conn.poll(max(remaining, 0)))
            if timed_out:
                _stop_child(process, budget.grace_seconds)
                # Drain messages the child flushed between our last recv
                # and its death — they are sitting in the pipe buffer.
                _drain(parent_conn, partial)
                return _failed(
                    algorithm_name, pair, dataset, repetition, assignment,
                    error=f"timeout after {budget.time_seconds}s",
                    similarity_time=budget.time_seconds,
                    diagnostics=partial.diagnostics,
                    trace=partial.trace_payload(),
                )
            try:
                tag, message = parent_conn.recv()
            except (EOFError, OSError):
                # The child closed the pipe (or died) without a terminal
                # message: an OOM kill, a segfault, or an exit inside
                # native code.  Everything streamed so far still counts.
                process.join()
                code = process.exitcode
                return _failed(
                    algorithm_name, pair, dataset, repetition, assignment,
                    error=("child process died without result "
                           f"(exit code {code})"),
                    diagnostics=partial.diagnostics,
                    trace=partial.trace_payload(),
                )
            if not partial.absorb(tag, message):
                payload = message
                break
    finally:
        parent_conn.close()
        if process.is_alive():
            _stop_child(process, budget.grace_seconds)

    if isinstance(payload, BaseException):
        return _failed(
            algorithm_name, pair, dataset, repetition, assignment,
            error=f"{type(payload).__name__}: {payload}",
            diagnostics=partial.diagnostics,
            trace=partial.trace_payload(),
        )
    # Re-tag the child's record with the caller's dataset/repetition,
    # keeping every other field — notably `attempts`, which a retry
    # policy wrapping this call audits — exactly as the child set it.
    # The record carries the child's own full diagnostics/trace; the
    # streamed partials were only the insurance copy.
    return replace(payload, dataset=dataset, repetition=repetition)


def _drain(connection, partial: "_PartialTelemetry") -> None:
    """Absorb any live messages still buffered in a dead child's pipe."""
    try:
        while connection.poll(0):
            tag, message = connection.recv()
            if not partial.absorb(tag, message):
                break  # a terminal message raced the kill; partials win
    except (EOFError, OSError):
        pass
