"""Idempotent, journaled tickets for the alignment service.

A **ticket** is the service's unit of promised work: one alignment of
one graph pair by one algorithm under one canonical parameter set.  Its
identity is content-addressed — :func:`ticket_key` digests
``(Graph.content_digest() of both graphs, algorithm, canonicalized
params, assignment, measures, seed, ground truth)`` — so submitting the
same request twice *is* the same ticket: duplicate submissions return
the existing ticket instead of enqueueing a second computation.

Tickets move through a journaled state machine::

    pending ──▶ leased ──▶ done
       │           │  └──▶ failed
       │           └─────▶ pending   (lease reclaimed from a dead worker)
       ├─────────────────▶ cancelled
       └──(either)───────▶ expired   (deadline elapsed)

``done``, ``failed``, ``expired``, and ``cancelled`` are **terminal**:
no journal entry, however late it arrives or replays, moves a ticket out
of them.  Every transition is an fsynced append to a JSONL journal
*before* it is acknowledged, so a SIGKILL at any instant loses at most
the transition in flight — and that one is reconstructed on restart from
the filesystem truth (lease files, done markers, the result cache) by
:meth:`repro.service.server.AlignmentService` recovery.

Durability follows the scheduler's single-writer discipline: each
process appends to its **own** journal segment
(``tickets/<host>-<pid>.jsonl``, like the disk cache's event files), and
the folded state is the merge of every segment ordered by
``(time, host, pid, seq)``.  Two processes racing to create the same
ticket therefore converge — same key, one folded ticket — without any
cross-process locking.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.cache import canonicalize_params
from repro.cache_disk import read_jsonl
from repro.exceptions import ExperimentError

__all__ = [
    "TICKET_STATES",
    "TERMINAL_STATES",
    "ALLOWED_TRANSITIONS",
    "TicketError",
    "Ticket",
    "TicketStore",
    "ticket_key",
]


class TicketError(ExperimentError):
    """An illegal ticket transition or a lookup of an unknown ticket."""


TICKET_STATES: Tuple[str, ...] = (
    "pending", "leased", "done", "failed", "expired", "cancelled",
)

TERMINAL_STATES: Tuple[str, ...] = ("done", "failed", "expired", "cancelled")

# The state machine.  ``leased -> pending`` is the reclaim edge: a
# worker died or hung holding the ticket and the service re-queues it.
ALLOWED_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "pending": ("leased", "cancelled", "expired", "failed"),
    "leased": ("pending", "done", "failed", "expired"),
    "done": (),
    "failed": (),
    "expired": (),
    "cancelled": (),
}


def ticket_key(
    source_digest: bytes,
    target_digest: bytes,
    algorithm: str,
    params: Optional[Dict[str, object]] = None,
    assignment: str = "jv",
    measures: Tuple[str, ...] = (),
    seed: int = 0,
    ground_truth_digest: Optional[bytes] = None,
) -> str:
    """Content-addressed identity of one alignment request.

    Everything that changes what the service would *compute or report*
    is covered — the two graph digests, the algorithm and its
    canonicalized parameters, the assignment back-end, the measure set,
    the seed, and the ground truth (when supplied, since it changes the
    reported accuracy).  Per-submission QoS such as the deadline is
    deliberately excluded: asking for the same work faster is still the
    same work.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(bytes(source_digest))
    hasher.update(bytes(target_digest))
    for part in (
        str(algorithm),
        repr(canonicalize_params(params)),
        str(assignment),
        repr(tuple(str(m) for m in measures)),
        str(int(seed)),
    ):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"|")
    if ground_truth_digest is not None:
        hasher.update(bytes(ground_truth_digest))
    return hasher.hexdigest()


@dataclass(frozen=True)
class Ticket:
    """One folded view of a ticket — the journal's current answer.

    ``submitted_at`` plus ``deadline_seconds`` define the absolute
    deadline (``None`` deadline = no expiry).  ``attempts`` counts
    executions started on the ticket's behalf, including ones whose
    worker died; ``error`` carries the terminal failure or expiry
    reason.
    """

    key: str
    state: str
    algorithm: str
    assignment: str = "jv"
    seed: int = 0
    params: str = "()"
    submitted_at: float = 0.0
    updated_at: float = 0.0
    deadline_seconds: Optional[float] = None
    attempts: int = 0
    error: str = ""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def deadline_at(self) -> Optional[float]:
        """Absolute wall-clock deadline, or ``None`` for no deadline."""
        if self.deadline_seconds is None:
            return None
        return self.submitted_at + float(self.deadline_seconds)

    def remaining_seconds(self, now: Optional[float] = None
                          ) -> Optional[float]:
        """Seconds left before the deadline (may be negative); ``None``
        when the ticket has no deadline."""
        deadline = self.deadline_at()
        if deadline is None:
            return None
        return deadline - (time.time() if now is None else now)

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key, "state": self.state,
            "algorithm": self.algorithm, "assignment": self.assignment,
            "seed": self.seed, "params": self.params,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "deadline_seconds": self.deadline_seconds,
            "attempts": self.attempts, "error": self.error,
        }


def _entry_order(entry: Dict[str, object]) -> Tuple:
    """Deterministic global order of journal entries across segments."""
    return (
        float(entry.get("time", 0.0)),
        str(entry.get("host", "")),
        int(entry.get("pid", 0)),
        int(entry.get("seq", 0)),
    )


class TicketStore:
    """Journaled ticket state, mergeable across processes.

    One instance per process: it owns (single-writer) the segment file
    ``<root>/<host>-<pid>.jsonl`` and is thread-safe within the process.
    Other processes' segments are folded in by :meth:`refresh`, which
    the service calls at every scheduling pass — so a ticket created by
    an external submitter becomes visible to the server within one poll
    interval.

    Crash-safety: every append is flushed and fsynced before the mutated
    ticket is returned, and replay tolerates a torn trailing line per
    segment (complete entries before it are kept).
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._segment = (self.root
                         / f"{socket.gethostname()}-{os.getpid()}.jsonl")
        self._owner_pid = os.getpid()
        self._lock = threading.RLock()
        self._handle = None
        self._seq = 0
        self._tickets: Dict[str, Ticket] = {}
        self.refresh()

    # -- folding -----------------------------------------------------------

    @staticmethod
    def _fold(entries: List[Dict[str, object]]) -> Dict[str, Ticket]:
        """Replay entries into folded tickets.

        The fold is lenient where the live API is strict: replay must
        absorb whatever a crashed process managed to append.  Terminal
        states are sticky; a transition entry for an unknown key (its
        create entry lost to a torn tail) materializes the ticket so no
        acknowledged state is ever dropped.
        """
        tickets: Dict[str, Ticket] = {}
        for entry in sorted(entries, key=_entry_order):
            key = str(entry.get("key", ""))
            if not key:
                continue
            state = str(entry.get("state", "pending"))
            if state not in TICKET_STATES:
                continue
            current = tickets.get(key)
            if current is None:
                tickets[key] = Ticket(
                    key=key, state=state,
                    algorithm=str(entry.get("algorithm", "")),
                    assignment=str(entry.get("assignment", "jv")),
                    seed=int(entry.get("seed", 0)),
                    params=str(entry.get("params", "()")),
                    submitted_at=float(entry.get("submitted_at",
                                                 entry.get("time", 0.0))),
                    updated_at=float(entry.get("time", 0.0)),
                    deadline_seconds=entry.get("deadline_seconds"),
                    attempts=int(entry.get("attempts", 0)),
                    error=str(entry.get("error", "")),
                )
                continue
            if current.terminal:
                continue  # terminal is forever, whatever replays later
            updates = {
                "state": state,
                "updated_at": float(entry.get("time", current.updated_at)),
            }
            if "attempts" in entry:
                updates["attempts"] = int(entry["attempts"])
            if "error" in entry:
                updates["error"] = str(entry["error"])
            tickets[key] = replace(current, **updates)
        return tickets

    def refresh(self) -> None:
        """Re-fold every segment in the store directory.

        Reads happen *under the store lock*: this process's appends are
        flushed and fsynced while holding the same lock, so a refresh
        can never fold a snapshot that misses an acknowledged local
        transition and clobber the in-memory state with it (the
        lost-update race between a worker thread and a concurrent
        refresh).  Other processes' segments are read-only inputs here;
        seeing them a moment late is fine — the fold is monotone.
        """
        with self._lock:
            entries: List[Dict[str, object]] = []
            for path in sorted(self.root.glob("*.jsonl")):
                entries.extend(read_jsonl(path)[0])
            self._tickets = self._fold(entries)

    # -- writing -----------------------------------------------------------

    def _append(self, entry: Dict[str, object]) -> None:
        if os.getpid() != self._owner_pid:
            raise TicketError(
                f"ticket segment {self._segment} is owned by pid "
                f"{self._owner_pid} but append was called from pid "
                f"{os.getpid()} — open a fresh TicketStore per process"
            )
        if self._handle is None:
            self._handle = open(self._segment, "a", encoding="utf-8")
        self._seq += 1
        entry.setdefault("time", time.time())
        entry["seq"] = self._seq
        entry["pid"] = os.getpid()
        entry["host"] = socket.gethostname()
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:
            pass

    def submit(
        self,
        key: str,
        algorithm: str,
        assignment: str = "jv",
        seed: int = 0,
        params: Optional[Dict[str, object]] = None,
        deadline_seconds: Optional[float] = None,
    ) -> Tuple[Ticket, bool]:
        """Create a pending ticket, or return the existing one.

        Returns ``(ticket, created)``: ``created`` is ``False`` for a
        duplicate submission, whose ticket is returned **unchanged** in
        whatever state it has reached — this is the idempotency
        contract, and it holds under concurrent submitters because the
        key is content-addressed and the fold converges.
        """
        with self._lock:
            existing = self._tickets.get(key)
            if existing is not None:
                return existing, False
            now = time.time()
            ticket = Ticket(
                key=key, state="pending", algorithm=str(algorithm),
                assignment=str(assignment), seed=int(seed),
                params=repr(canonicalize_params(params)),
                submitted_at=now, updated_at=now,
                deadline_seconds=(None if deadline_seconds is None
                                  else float(deadline_seconds)),
            )
            self._append({
                "key": key, "state": "pending",
                "algorithm": ticket.algorithm,
                "assignment": ticket.assignment,
                "seed": ticket.seed, "params": ticket.params,
                "submitted_at": ticket.submitted_at,
                "deadline_seconds": ticket.deadline_seconds,
                "time": now,
            })
            self._tickets[key] = ticket
            return ticket, True

    def transition(self, key: str, state: str,
                   attempts: Optional[int] = None,
                   error: Optional[str] = None) -> Ticket:
        """Move a ticket along an allowed edge; journal before returning.

        Raises :class:`TicketError` for unknown tickets and for edges
        the state machine does not allow (``done -> leased`` etc.) —
        the live API is strict so bugs surface; only crash *replay* is
        lenient.
        """
        if state not in TICKET_STATES:
            raise TicketError(f"unknown ticket state {state!r}")
        with self._lock:
            current = self._tickets.get(key)
            if current is None:
                raise TicketError(f"unknown ticket {key!r}")
            if state not in ALLOWED_TRANSITIONS[current.state]:
                raise TicketError(
                    f"illegal ticket transition {current.state!r} -> "
                    f"{state!r} for {key}"
                )
            now = time.time()
            entry: Dict[str, object] = {"key": key, "state": state,
                                        "time": now}
            updates: Dict[str, object] = {"state": state, "updated_at": now}
            if attempts is not None:
                entry["attempts"] = int(attempts)
                updates["attempts"] = int(attempts)
            if error is not None:
                entry["error"] = str(error)
                updates["error"] = str(error)
            self._append(entry)
            ticket = replace(current, **updates)
            self._tickets[key] = ticket
            return ticket

    # -- reading -----------------------------------------------------------

    def get(self, key: str) -> Optional[Ticket]:
        with self._lock:
            return self._tickets.get(key)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._tickets

    def __len__(self) -> int:
        with self._lock:
            return len(self._tickets)

    def tickets(self, state: Optional[str] = None) -> List[Ticket]:
        """Every folded ticket, optionally filtered by state."""
        with self._lock:
            values = list(self._tickets.values())
        if state is None:
            return values
        return [t for t in values if t.state == state]

    def counts(self) -> Dict[str, int]:
        """Ticket count per state (zero-filled for all known states)."""
        totals = {state: 0 for state in TICKET_STATES}
        with self._lock:
            for ticket in self._tickets.values():
                totals[ticket.state] += 1
        return totals

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "TicketStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"TicketStore({str(self.root)!r}, {len(self)} tickets)"
