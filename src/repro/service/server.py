"""Alignment-as-a-service: the asyncio batch front-end.

:class:`AlignmentService` turns the harness into a request-serving
system: submit a graph pair and get a **ticket** back immediately; poll
its status; fetch the measured :class:`~repro.harness.results.RunRecord`
once it is done.  Under the hood the service composes machinery this
repository has already hardened one PR at a time:

* tickets are content-addressed (:mod:`repro.service.tickets`) —
  duplicate submissions return the existing ticket;
* accepted requests persist in a :class:`~repro.service.queue.DurableRequestQueue`
  and are claimed with its ``O_EXCL`` lease files, heartbeats, and
  stale-lease reclaim — a SIGKILLed worker's request is re-leased,
  never lost;
* a ticket's state is its queue files (request, lease, outcome) and is
  stored nowhere else, so there is no second record to reconcile after
  a crash, and every process reads the same answer;
* per-request deadlines map onto :class:`~repro.harness.budget.CellBudget`
  (the remaining wall time becomes the cell's time budget; a deadline
  that elapses while queued expires the ticket without running it);
* transient failures retry through the existing
  :class:`~repro.harness.retry.RetryPolicy` with decorrelated jitter
  seeded from the ticket key;
* a finished ticket's result is its outcome file: the measured record
  is published with the terminal state in one fsynced file, so a
  re-served request reads that file and runs nothing;
* every recovery action (lease reclaims, expiries, recomputes, drain)
  is logged to a rotated :class:`~repro.harness.scheduler.EventLog`.

**Robustness contract** (what the chaos suite pins):

* *Backpressure*: past ``max_depth`` outstanding requests, new
  submissions are rejected with :class:`ServiceUnavailable` carrying a
  ``retry_after_seconds`` hint — but an already-accepted ticket is
  never bounced and never dropped.
* *Crash-safety*: SIGKILL the server at any instant; a restarted server
  reclaims the dead worker's lease and drives every ticket to a terminal
  state, with results bit-identical to a serial run of the same cell.
* *Graceful drain*: SIGTERM stops admission, lets leased work finish
  (each outcome is fsynced before its lease is released), and exits;
  queued-but-unclaimed tickets survive for the next server.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.cache_disk import atomic_write_bytes
from repro.exceptions import ExperimentError
from repro.harness.budget import CellBudget, run_cell_with_budget
from repro.harness.results import RunRecord
from repro.harness.retry import RetryPolicy, run_with_retry
from repro.harness.runner import run_cell
from repro.harness.scheduler import EventLog, load_event_segments
from repro.noise import GraphPair
from repro.service.queue import (
    AlignmentRequest,
    DurableRequestQueue,
    QueueFull,
    _HeartbeatThread,
    lease_path,
)
from repro.service.tickets import Ticket, TicketError

__all__ = [
    "ServiceUnavailable",
    "AlignmentService",
    "load_service_events",
    "read_health",
]

_HEALTH_FILE = "health.json"


class ServiceUnavailable(ExperimentError):
    """Admission control rejected a submission — retry later.

    ``retry_after_seconds`` is the client's backoff hint; ``reason`` is
    ``"queue_full"`` or ``"draining"``.  Rejection happens *before*
    anything is persisted: a bounced request leaves no ticket and no
    queue entry.
    """

    def __init__(self, reason: str, retry_after_seconds: float,
                 detail: str = ""):
        super().__init__(
            f"service unavailable ({reason}); retry after "
            f"{retry_after_seconds:.1f}s" + (f" — {detail}" if detail else "")
        )
        self.reason = reason
        self.retry_after_seconds = float(retry_after_seconds)


def _default_runner(request: AlignmentRequest,
                    budget: Optional[CellBudget]) -> RunRecord:
    """Run one request exactly the way a sweep cell runs.

    Same :func:`~repro.harness.runner.run_cell` (or its budgeted child
    variant), same numerics policy, same failure capture — which is what
    makes a service result bit-identical to a serial
    ``run_experiment`` of the same cell.
    """
    truth = request.ground_truth
    if truth is None:
        # No ground truth: topology-only measures; an all-unmatched
        # truth vector keeps the GraphPair contract without faking one.
        truth = np.full(request.source.num_nodes, -1, dtype=np.int64)
    pair = GraphPair(request.source, request.target,
                     np.asarray(truth, dtype=np.int64),
                     noise_type="service", noise_level=0.0)
    kwargs = dict(
        assignment=request.assignment,
        measures=tuple(request.measures),
        seed=int(request.seed),
        algorithm_params=dict(request.params) or None,
    )
    if budget is not None:
        return run_cell_with_budget(request.algorithm, pair, "service", 0,
                                    budget, **kwargs)
    return run_cell(request.algorithm, pair, "service", 0, **kwargs)


class AlignmentService:
    """Crash-safe ticketed front-end over one service directory.

    One service directory holds everything — the durable request queue
    (which is also the only record of ticket state and of each finished
    ticket's result), the recovery event log, and the health heartbeat::

        <service_dir>/queue/              requests / leases / outcomes
        <service_dir>/events.jsonl        rotated recovery-event log
        <service_dir>/health.json         heartbeat for external monitors

    Run at most one *server* (executing) instance per directory at a
    time — sequential restarts are the supported topology, exactly like
    the sweep supervisor.  Any number of processes may submit and poll
    concurrently; submission and status are pure filesystem operations.

    The synchronous core (``submit_sync`` / ``status_sync`` /
    ``result_sync`` / ``cancel_sync`` / ``run_until_drained``) carries
    all the semantics; the ``async`` surface wraps it for event-loop
    callers, and :meth:`serve` runs the full asyncio server with signal
    handling.
    """

    def __init__(
        self,
        service_dir: Union[str, Path],
        max_depth: int = 256,
        workers: int = 2,
        lease_timeout_seconds: float = 30.0,
        max_attempts: int = 3,
        retry_policy: Optional[RetryPolicy] = None,
        default_deadline_seconds: Optional[float] = None,
        memory_limit_bytes: Optional[int] = None,
        poll_interval_seconds: float = 0.05,
        retry_after_seconds: float = 2.0,
        runner: Optional[Callable[[AlignmentRequest, Optional[CellBudget]],
                                  RunRecord]] = None,
    ):
        if int(workers) < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        if int(max_attempts) < 1:
            raise ExperimentError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.root = Path(service_dir)
        if (self.root / "tickets").is_dir():
            raise ExperimentError(
                f"{self.root} holds a ticket journal (tickets/) from an "
                "earlier version of repro.service; drain it with that "
                "version, or use a fresh service directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self.workers = int(workers)
        self.max_attempts = int(max_attempts)
        self.retry_policy = retry_policy
        self.default_deadline_seconds = default_deadline_seconds
        self.memory_limit_bytes = memory_limit_bytes
        self.poll_interval_seconds = float(poll_interval_seconds)
        self.retry_after_seconds = float(retry_after_seconds)
        self.lease_timeout_seconds = float(lease_timeout_seconds)
        self.queue = DurableRequestQueue(
            self.root / "queue", max_depth=max_depth,
            lease_timeout_seconds=lease_timeout_seconds)
        self.events = EventLog(self.root / "events.jsonl")
        self._events_lock = threading.Lock()
        self._runner = runner or _default_runner
        self._recomputed: Dict[str, Dict[str, object]] = {}  # see result_sync
        self._draining = False
        self._in_flight: Dict[str, float] = {}
        self._in_flight_lock = threading.Lock()
        self._heartbeat: Optional[_HeartbeatThread] = None
        self._started_at = time.time()
        self._expire_overdue()

    # -- events ------------------------------------------------------------

    def _record_event(self, kind: str, **details) -> None:
        with self._events_lock:
            self.events.record(kind, **details)

    # -- expiry ------------------------------------------------------------

    def _expire_overdue(self) -> List[str]:
        """Expire queued tickets whose deadline passed; returns the keys
        of the other pending tickets, oldest request first."""
        live = []
        now = time.time()
        for ticket in self.queue.tickets("pending"):
            remaining = ticket.remaining_seconds(now)
            if remaining is None or remaining > 0:
                live.append(ticket)
            elif self.queue.mark_done(
                    ticket.key, "expired", attempts=ticket.attempts,
                    error=(f"deadline of {ticket.deadline_seconds}s elapsed "
                           "before the request ran")):
                self._record_event("ticket_expired", key=ticket.key)
        return [t.key for t in sorted(live, key=lambda t: t.submitted_at)]

    # -- admission / submission --------------------------------------------

    def submit_sync(self, request: AlignmentRequest) -> Ticket:
        """Accept one request durably; return its ticket.

        Idempotent: resubmitting the same pair/algorithm/params returns
        the existing ticket in whatever state it has reached, at any
        queue depth, even while draining.  A genuinely new request is
        admission-controlled: :class:`ServiceUnavailable` while draining
        or past ``max_depth`` backlog — rejected before anything is
        persisted.
        """
        if request.deadline_seconds is None and \
                self.default_deadline_seconds is not None:
            request = replace(request,
                              deadline_seconds=self.default_deadline_seconds)
        key = request.key()
        existing = self.queue.ticket(key)
        if existing is not None:
            return existing
        if self._draining:
            raise ServiceUnavailable(
                "draining", self.retry_after_seconds,
                detail="the server is shutting down gracefully")
        try:
            key, _ = self.queue.enqueue(request, key=key)
        except QueueFull as exc:
            self._record_event("submission_rejected", key=key,
                               depth=exc.depth, max_depth=exc.max_depth)
            raise ServiceUnavailable(
                "queue_full",
                self.retry_after_seconds * (1.0 + exc.depth / exc.max_depth),
                detail=str(exc))
        return self.queue.ticket(key)

    def status_sync(self, key: str, refresh: bool = True) -> Ticket:
        """The ticket's current state, read from its queue files.

        Every call reads the files, whichever process changed them, so
        ``refresh`` no longer changes the answer; it is kept for callers
        that pass it.
        """
        ticket = self.queue.ticket(key)
        if ticket is None:
            raise TicketError(f"unknown ticket {key!r}")
        return ticket

    def cancel_sync(self, key: str) -> Ticket:
        """Cancel a queued ticket; best-effort, idempotent.

        Only ``pending`` tickets can be cancelled — leased work runs to
        completion (killing it would waste the computation for every
        future duplicate submit).  Cancelling a terminal or leased
        ticket returns it unchanged.
        """
        ticket = self.status_sync(key)
        if ticket.state != "pending":
            return ticket
        if self.queue.mark_done(key, "cancelled", attempts=ticket.attempts,
                                error="cancelled by client"):
            self._record_event("ticket_cancelled", key=key)
        return self.status_sync(key)

    def result_sync(self, key: str) -> RunRecord:
        """The measured record of a finished ticket.

        Serves ``done`` and ``failed`` tickets (a failed record *is* the
        result — the same contract as a sweep's ✗ cells) from the record
        published with the ticket's outcome.  Raises :class:`TicketError`
        for tickets that are still queued or running, and for
        ``expired``/``cancelled`` ones, which never produced a record.
        An outcome without a record never ran (abandoned or unloadable)
        or was written by an earlier version.  A ``failed`` one gets a
        failed record carrying the ticket's error and attempts, and its
        request never runs here (it may be what killed its workers).  A
        ``done`` one is recomputed once per process — requests are
        deterministic, so the recompute is the result.
        """
        ticket = self.status_sync(key)
        if ticket.state not in ("done", "failed"):
            raise TicketError(
                f"ticket {key} has no result (state={ticket.state!r})"
            )
        record = self._recomputed.get(key) or self.queue.record(key)
        if record is not None:
            return RunRecord.from_dict(record)
        if ticket.state == "failed":
            return RunRecord(
                algorithm=ticket.algorithm, dataset="service",
                noise_type="service", noise_level=0.0, repetition=0,
                assignment=ticket.assignment, measures={},
                similarity_time=0.0, assignment_time=0.0, failed=True,
                error=ticket.error, attempts=ticket.attempts)
        record = self._runner(self.queue.load_request(key),
                              self._budget_for(ticket))
        self._recomputed[key] = record.to_dict()
        self._record_event("result_recomputed", key=key)
        return record

    # -- execution ---------------------------------------------------------

    def _budget_for(self, ticket: Ticket) -> Optional[CellBudget]:
        """Map what remains of the ticket's deadline onto a cell budget."""
        remaining = ticket.remaining_seconds()
        time_limit = None
        if remaining is not None:
            time_limit = max(remaining, 0.001)
        if time_limit is None and self.memory_limit_bytes is None:
            return None
        return CellBudget(time_seconds=time_limit,
                          memory_bytes=self.memory_limit_bytes)

    def _ensure_heartbeat(self) -> _HeartbeatThread:
        if self._heartbeat is None or not self._heartbeat.is_alive():
            self._heartbeat = _HeartbeatThread(
                interval_seconds=self.lease_timeout_seconds / 5.0)
            self._heartbeat.start()
        return self._heartbeat

    def claim_next(self) -> Optional[str]:
        """Lease the oldest pending request; ``None`` when nothing is.

        Expires overdue tickets on the way, from the same listing.  The
        returned key's lease is held by this process; pass it to
        :meth:`execute_claimed`.
        """
        for key in self._expire_overdue():
            claim = self.queue.claim(key)
            if claim is None:
                continue
            if self.queue.outcome(key) is not None:
                # Finished since the listing (a cancel, say).
                self.queue.release(claim)
                continue
            with self._in_flight_lock:
                self._in_flight[key] = time.time()
            heartbeat = self._ensure_heartbeat()
            heartbeat.track(claim, key, self.queue.attempts(key) + 1,
                            time.time())
            return key
        return None

    def execute_claimed(self, key: str) -> Ticket:
        """Run one leased ticket to a terminal state; always releases.

        The outcome is published *before* the lease is released, so no
        observer can see the request as claimable after it ran.  An
        outcome published first (a cancel or an expiry that raced the
        run) stands, and the returned ticket carries it.
        """
        claim = lease_path(self.queue.lease_dir, key)
        try:
            self.queue.mark_done(key, **self._run_claimed(key))
            return self.status_sync(key)
        finally:
            if self._heartbeat is not None:
                self._heartbeat.untrack(claim)
            self.queue.release(claim)
            with self._in_flight_lock:
                self._in_flight.pop(key, None)

    def _run_claimed(self, key: str) -> Dict[str, object]:
        """Execute one leased ticket; returns its terminal outcome."""
        ticket = self.status_sync(key)
        prior = self.queue.attempts(key)
        if prior >= self.max_attempts:
            self._record_event("ticket_abandoned", key=key, attempts=prior)
            return dict(state="failed", attempts=prior,
                        error=(f"ExperimentError: request orphaned {prior} "
                               "times (its worker died or hung on every "
                               "attempt); giving up"))
        try:
            request = self.queue.load_request(key)
        except ExperimentError as exc:
            return dict(state="failed", attempts=ticket.attempts,
                        error=str(exc))
        remaining = ticket.remaining_seconds()
        if remaining is not None and remaining <= 0:
            self._record_event("ticket_expired", key=key)
            return dict(state="expired", attempts=ticket.attempts,
                        error=(f"deadline of {ticket.deadline_seconds}s "
                               "elapsed before the request ran"))
        budget = self._budget_for(ticket)

        def attempt(_n: int) -> RunRecord:
            return self._runner(request, budget)

        if self.retry_policy is not None:
            record = run_with_retry(
                attempt, self.retry_policy,
                jitter_seed=int(key[:16], 16), distributed=True)
        else:
            record = attempt(1)
        if prior:
            record = replace(record, attempts=record.attempts + prior)
        outcome = dict(attempts=record.attempts, record=record.to_dict())
        if not record.failed:
            return dict(outcome, state="done")
        # A deadline becomes the budget's time limit, so its timeout is
        # the deadline elapsing mid-run.
        if remaining is not None and record.error.startswith("timeout"):
            self._record_event("ticket_expired", key=key, mid_run=True)
            return dict(outcome, state="expired",
                        error=(f"deadline of {ticket.deadline_seconds}s "
                               "elapsed while the request ran"))
        return dict(outcome, state="failed",
                    error=(record.error.splitlines() or ["failed"])[0])

    def process_once(self) -> Optional[Ticket]:
        """One synchronous claim+execute step; ``None`` when idle."""
        key = self.claim_next()
        if key is None:
            return None
        return self.execute_claimed(key)

    def run_until_drained(self, max_seconds: Optional[float] = None) -> int:
        """Synchronously serve until the backlog is empty; returns the
        number of tickets driven to a terminal state.

        The batch-mode core (``repro serve --drain-when-idle`` uses the
        asyncio equivalent); also what the property tests drive.
        """
        deadline = None if max_seconds is None \
            else time.monotonic() + max_seconds
        finished = 0
        while True:
            self.janitor_pass()
            ticket = self.process_once()
            if ticket is not None:
                finished += 1
                continue
            if self.queue.depth() == 0:
                return finished
            if deadline is not None and time.monotonic() > deadline:
                raise ExperimentError(
                    f"run_until_drained exceeded {max_seconds}s with "
                    f"{self.queue.depth()} requests outstanding"
                )
            time.sleep(self.poll_interval_seconds)

    # -- maintenance -------------------------------------------------------

    def janitor_pass(self) -> None:
        """Reclaim stale leases, expire overdue tickets, beat the heart."""
        for key, attempts, reason in self.queue.reclaim_stale():
            if key:  # a lease torn mid-write names no key
                self._record_event("lease_reclaimed", key=key,
                                   reason=reason, attempts=attempts)
        self._expire_overdue()
        self.write_heartbeat()

    def write_heartbeat(self) -> None:
        """Publish ``health.json`` atomically for external monitors."""
        try:
            atomic_write_bytes(
                self.root / _HEALTH_FILE,
                json.dumps(self.health(), sort_keys=True).encode("utf-8"),
                fsync=False)
        except OSError:
            pass  # liveness reporting must never take the service down

    def health(self) -> Dict[str, object]:
        """Liveness and load snapshot — the health/heartbeat endpoint."""
        with self._in_flight_lock:
            in_flight = len(self._in_flight)
        return {
            "status": "draining" if self._draining else "ok",
            "pid": os.getpid(),
            "time": time.time(),
            "started_at": self._started_at,
            "uptime_seconds": time.time() - self._started_at,
            "backlog": self.queue.depth(),
            "max_depth": self.queue.max_depth,
            "in_flight": in_flight,
            "workers": self.workers,
            "tickets": self.queue.counts(),
        }

    # -- drain / shutdown --------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def request_drain(self) -> None:
        """Stop admitting; the serve loop finishes leased work and exits."""
        if not self._draining:
            self._draining = True
            self._record_event("drain_requested")

    def close(self) -> None:
        """Release process-local resources (event log handle, threads).

        All durable state is already on disk; ``close`` never discards
        work.
        """
        if self._heartbeat is not None:
            self._heartbeat.stop()
            self._heartbeat = None
        self.write_heartbeat()
        self.events.close()

    def __enter__(self) -> "AlignmentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- asyncio surface ---------------------------------------------------

    async def submit(self, request: AlignmentRequest) -> Ticket:
        return await asyncio.to_thread(self.submit_sync, request)

    async def status(self, key: str) -> Ticket:
        return await asyncio.to_thread(self.status_sync, key)

    async def result(self, key: str) -> RunRecord:
        return await asyncio.to_thread(self.result_sync, key)

    async def cancel(self, key: str) -> Ticket:
        return await asyncio.to_thread(self.cancel_sync, key)

    async def _worker_loop(self) -> None:
        while True:
            if self._draining:
                return
            key = await asyncio.to_thread(self.claim_next)
            if key is None:
                await asyncio.sleep(self.poll_interval_seconds)
                continue
            try:
                await asyncio.to_thread(self.execute_claimed, key)
            except Exception as exc:  # noqa: BLE001 — worker must survive
                # execute_claimed's finally released the lease, so the
                # ticket, which has no outcome, reads as pending again.
                self._record_event(
                    "worker_error", key=key,
                    error=f"{type(exc).__name__}: {exc}")

    async def _janitor_loop(self) -> None:
        interval = min(max(self.lease_timeout_seconds / 5.0, 0.05), 5.0)
        while not self._draining:
            await asyncio.to_thread(self.janitor_pass)
            await asyncio.sleep(interval)

    async def serve(self, stop_when_idle: bool = False,
                    install_signal_handlers: bool = True
                    ) -> Dict[str, object]:
        """Run the full server: workers + janitor + signal handling.

        ``stop_when_idle=True`` drains once the backlog is empty (batch
        mode); otherwise the server runs until :meth:`request_drain` —
        which the installed ``SIGTERM``/``SIGINT`` handlers call.
        Returns the final :meth:`health` snapshot.  Graceful drain:
        admission stops immediately, every in-flight execution finishes
        and publishes its outcome, queued tickets stay durable for the
        next server.
        """
        loop = asyncio.get_running_loop()
        removed_handlers = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_drain)
                    removed_handlers.append(signum)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or unsupported platform
        self._record_event("server_started", pid=os.getpid(),
                           workers=self.workers)
        self.write_heartbeat()
        workers = [asyncio.create_task(self._worker_loop())
                   for _ in range(self.workers)]
        janitor = asyncio.create_task(self._janitor_loop())
        try:
            while not self._draining:
                if stop_when_idle and self.queue.depth() == 0:
                    with self._in_flight_lock:
                        busy = bool(self._in_flight)
                    if not busy:
                        self.request_drain()
                        break
                await asyncio.sleep(self.poll_interval_seconds)
            # Drain: workers exit after their current execution.
            await asyncio.gather(*workers, return_exceptions=True)
        finally:
            self.request_drain()
            janitor.cancel()
            try:
                await janitor
            except asyncio.CancelledError:
                pass
            for signum in removed_handlers:
                loop.remove_signal_handler(signum)
            self._record_event("server_drained", pid=os.getpid())
            self.write_heartbeat()
        return self.health()


def load_service_events(service_dir: Union[str, Path]
                        ) -> List[Dict[str, object]]:
    """The service's recovery events, across every rotated segment."""
    return load_event_segments(Path(service_dir) / "events.jsonl")


def read_health(service_dir: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The last published heartbeat, or ``None`` when none exists.

    External monitors poll this file; a ``time`` older than a few
    heartbeat intervals means the server is gone or wedged.
    """
    try:
        raw = (Path(service_dir) / _HEALTH_FILE).read_bytes()
        return json.loads(raw)
    except (OSError, ValueError):
        return None
