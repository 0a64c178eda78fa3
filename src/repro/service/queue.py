"""Durable on-disk request queue: the one store of the service's tickets.

The queue persists every accepted request and coordinates its execution
through lease files, whose primitives live here: ``O_CREAT | O_EXCL``
lease files claim a request atomically, a heartbeat thread rewrites them
by temp-file + atomic rename, heartbeat-stale or dead-pid leases are
reclaimed so a SIGKILLed worker's request is **re-leased, not lost**, and
``.attempts`` tombstones preserve how often a request burned an
execution.  Any number of service processes may share one queue
directory, which is why the service coordinates on files while a
``workers`` sweep, whose one supervisor owns its queue, needs none.

Layout under the queue root (lease files are named by :func:`cell_hash`
of the key)::

    requests/<key>.req     pickled request payload, atomically published
    leases/<hash>.lease    lease (pid + host + attempt + heartbeat)
    leases/<hash>.attempts orphan-attempt tombstone
    done/<key>.done        JSON outcome: state, attempts, error, record

**A ticket is its files.**  It is ``pending`` while only its request
exists, ``leased`` while a lease file exists (``attempts`` is the
lease's), and terminal once its outcome exists.  An outcome is fsynced
and linked into place whole, before the lease it ends is released, and
never replaced: the first terminal outcome wins.  Request metadata and
outcome states never change once written, so each process reads them once.

**Admission control** is a hard bound on backlog: :meth:`enqueue`
raises :class:`QueueFull` once ``depth()`` (accepted requests without an
outcome) reaches ``max_depth`` — *except* for keys already enqueued,
because a duplicate of an accepted request is the same request and must
never be bounced.  An accepted request file is never deleted by the
queue, so restarts recover the full backlog from the directory alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.cache import canonicalize_params
from repro.cache_disk import _fsync_dir, atomic_write_bytes
from repro.exceptions import ExperimentError
from repro.harness import scheduler
from repro.service.tickets import (
    TERMINAL_STATES,
    TICKET_STATES,
    Ticket,
    ticket_key,
)

__all__ = [
    "QueueFull",
    "AlignmentRequest",
    "DurableRequestQueue",
    "Lease",
    "cell_hash",
    "try_acquire_lease",
    "read_lease",
    "release_lease",
    "scan_stale_leases",
    "read_attempts",
    "bump_attempts",
]

DEFAULT_MEASURES: Tuple[str, ...] = ("s3", "mnc", "ec", "ics")


def cell_hash(key: str) -> str:
    """Filesystem-safe fixed-length name for one cell key."""
    return hashlib.blake2b(key.encode("utf-8"), digest_size=12).hexdigest()


# ----------------------------------------------------------------------
# Leases


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one cell, as read back from disk.

    ``heartbeat`` is a wall-clock timestamp (cross-process comparable).
    A lease file caught mid-write (claimed but content not yet visible)
    parses into a Lease with unknown pid and the file mtime as its
    heartbeat — present is present; staleness judgments still apply.
    """

    key: str
    pid: int
    host: str
    attempt: int
    acquired_at: float
    heartbeat: float

    def to_json(self) -> str:
        return json.dumps({
            "key": self.key, "pid": self.pid, "host": self.host,
            "attempt": self.attempt, "acquired_at": self.acquired_at,
            "heartbeat": self.heartbeat,
        }, sort_keys=True)


def lease_path(lease_dir: Path, key: str) -> Path:
    return Path(lease_dir) / f"{cell_hash(key)}.lease"


def try_acquire_lease(lease_dir: Path, key: str,
                      attempt: int = 1) -> Optional[Path]:
    """Atomically claim a cell; ``None`` if someone already holds it.

    The claim itself is the ``O_CREAT | O_EXCL`` create — two workers
    racing get exactly one winner from the filesystem, with no lock
    server and no advisory-lock caveats.  The content write that follows
    is not atomic, which is why :func:`read_lease` tolerates a
    mid-write file.
    """
    path = lease_path(lease_dir, key)
    now = time.time()
    lease = Lease(key=key, pid=os.getpid(), host=socket.gethostname(),
                  attempt=int(attempt), acquired_at=now, heartbeat=now)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return None
    try:
        os.write(fd, lease.to_json().encode("utf-8"))
    finally:
        os.close(fd)
    return path


def refresh_lease(path: Path, key: str, attempt: int,
                  acquired_at: float) -> None:
    """Publish a fresh heartbeat via temp-file + atomic rename.

    A reader (a reclaim scan judging staleness) sees either the old
    complete lease or the new complete lease, never a torn one — the
    reason heartbeats rewrite rather than append or touch-in-place.
    """
    lease = Lease(key=key, pid=os.getpid(), host=socket.gethostname(),
                  attempt=int(attempt), acquired_at=acquired_at,
                  heartbeat=time.time())
    try:
        atomic_write_bytes(path, lease.to_json().encode("utf-8"),
                           fsync=False)
    except OSError:
        # Lease may have been reclaimed under us; the first terminal
        # outcome still wins (see DurableRequestQueue.mark_done).
        pass


def read_lease(path: Path) -> Optional[Lease]:
    """Parse a lease file; mid-write or foreign content degrades gracefully."""
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return None  # vanished (released/reclaimed) between list and read
    try:
        data = json.loads(raw)
        return Lease(
            key=str(data["key"]), pid=int(data["pid"]),
            host=str(data["host"]), attempt=int(data.get("attempt", 1)),
            acquired_at=float(data.get("acquired_at", 0.0)),
            heartbeat=float(data.get("heartbeat", 0.0)),
        )
    except (ValueError, KeyError, TypeError):
        # Claimed but content not yet (fully) written: fall back to the
        # file's mtime as the heartbeat so a crash exactly there still
        # goes stale and gets reclaimed.
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return None
        return Lease(key="", pid=-1, host="", attempt=1,
                     acquired_at=mtime, heartbeat=mtime)


def release_lease(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass  # already reclaimed; the first terminal outcome still wins


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # unknowable: do not declare death on a whim
    return True


def scan_stale_leases(lease_dir: Path, timeout_seconds: float
                      ) -> List[Tuple[Path, Lease, str]]:
    """Leases whose owner is provably dead or silent past the timeout.

    A dead pid (same host only — a foreign host's pids mean nothing
    here) is stale immediately; an alive-or-remote owner is stale only
    once its heartbeat is older than ``timeout_seconds``.
    """
    stale = []
    here = socket.gethostname()
    now = time.time()
    for path in sorted(Path(lease_dir).glob("*.lease")):
        lease = read_lease(path)
        if lease is None:
            continue
        if lease.host == here and not _pid_alive(lease.pid):
            stale.append((path, lease, "dead_pid"))
        elif now - lease.heartbeat > timeout_seconds:
            stale.append((path, lease, "expired_heartbeat"))
    return stale


# ----------------------------------------------------------------------
# Orphan-attempt accounting


def attempts_path(lease_dir: Path, key: str) -> Path:
    return Path(lease_dir) / f"{cell_hash(key)}.attempts"


def read_attempts(lease_dir: Path, key: str) -> int:
    """How many attempts this cell has already burned by being orphaned."""
    try:
        return int(attempts_path(lease_dir, key).read_text().strip())
    except (OSError, ValueError):
        return 0


def bump_attempts(lease_dir: Path, key: str) -> int:
    """Record one more orphaned attempt; returns the new total."""
    total = read_attempts(lease_dir, key) + 1
    try:
        atomic_write_bytes(attempts_path(lease_dir, key),
                           f"{total}\n".encode("utf-8"), fsync=False)
    except OSError:
        pass
    return total


# ----------------------------------------------------------------------
# Heartbeats


class _HeartbeatThread(threading.Thread):
    """Background refresher for every lease this process holds.

    Daemonic: if the process dies, the heartbeat dies with it — which
    is precisely the signal a reclaim scan keys staleness off.
    """

    def __init__(self, interval_seconds: float):
        super().__init__(name="lease-heartbeat", daemon=True)
        self.interval = max(float(interval_seconds), 0.05)
        self._lock = threading.Lock()
        self._held: Dict[Path, Tuple[str, int, float]] = {}
        self._stop = threading.Event()

    def track(self, path: Path, key: str, attempt: int,
              acquired_at: float) -> None:
        with self._lock:
            self._held[path] = (key, attempt, acquired_at)

    def untrack(self, path: Path) -> None:
        with self._lock:
            self._held.pop(path, None)

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            if scheduler._HEARTBEATS_SUPPRESSED:
                continue
            with self._lock:
                held = list(self._held.items())
            for path, (key, attempt, acquired_at) in held:
                refresh_lease(path, key, attempt, acquired_at)


class QueueFull(ExperimentError):
    """The queue's backlog bound rejected a new request.

    Carries ``depth``/``max_depth`` so the service front-end can turn it
    into a retry-after answer.
    """

    def __init__(self, depth: int, max_depth: int):
        super().__init__(
            f"request queue is full ({depth}/{max_depth} accepted requests "
            "outstanding); retry after the backlog drains"
        )
        self.depth = int(depth)
        self.max_depth = int(max_depth)


@dataclass(frozen=True)
class AlignmentRequest:
    """One submit-a-pair request, self-contained and picklable.

    ``ground_truth`` is optional: without it the default measure set
    sticks to the topology-only scores (S3, MNC, EC, ICS); with it the
    caller may ask for ``accuracy`` too.  ``deadline_seconds`` is wall
    time from submission; the service maps what remains of it onto a
    :class:`~repro.harness.budget.CellBudget` when the request finally
    runs, and expires tickets whose deadline passed while queued.
    """

    source: object  # repro.graphs.Graph
    target: object
    algorithm: str
    params: Dict[str, object] = field(default_factory=dict)
    assignment: str = "jv"
    measures: Sequence[str] = DEFAULT_MEASURES
    seed: int = 0
    ground_truth: Optional[np.ndarray] = None
    deadline_seconds: Optional[float] = None

    def key(self) -> str:
        """The request's content-addressed ticket key."""
        truth_digest = None
        if self.ground_truth is not None:
            truth = np.asarray(self.ground_truth, dtype=np.int64)
            truth_digest = truth.tobytes()
        return ticket_key(
            self.source.content_digest(),
            self.target.content_digest(),
            self.algorithm,
            params=dict(self.params),
            assignment=self.assignment,
            measures=tuple(str(m) for m in self.measures),
            seed=int(self.seed),
            ground_truth_digest=truth_digest,
        )

    def to_payload(self) -> bytes:
        """Pickled on-disk form (graphs included; requests are the
        durable unit a restarted service re-runs from)."""
        return pickle.dumps({
            "source": self.source,
            "target": self.target,
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "assignment": self.assignment,
            "measures": tuple(self.measures),
            "seed": int(self.seed),
            "ground_truth": self.ground_truth,
            "deadline_seconds": self.deadline_seconds,
        }, protocol=4)

    @classmethod
    def from_payload(cls, blob: bytes) -> "AlignmentRequest":
        data = pickle.loads(blob)
        return cls(**data)


class DurableRequestQueue:
    """Crash-safe queue of accepted alignment requests and their tickets.

    Multi-process safe by construction: payloads publish via temp-file +
    atomic rename, claims are ``O_EXCL`` lease creates, outcomes are
    ``os.link`` publishes that never replace, and every reader tolerates
    files vanishing between list and read.  One queue directory may be
    shared by any number of submitters and servers.
    """

    def __init__(self, root: Union[str, Path], max_depth: int = 256,
                 lease_timeout_seconds: float = 30.0):
        if int(max_depth) < 1:
            raise ExperimentError(
                f"max_depth must be >= 1, got {max_depth}"
            )
        self.root = Path(root)
        self.max_depth = int(max_depth)
        self.lease_timeout_seconds = float(lease_timeout_seconds)
        self.requests_dir = self.root / "requests"
        self.lease_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        for directory in (self.requests_dir, self.lease_dir, self.done_dir):
            directory.mkdir(parents=True, exist_ok=True)
        # Written once and never changed, so read once.  Two threads
        # racing on a miss read the same file and store equal values.
        self._requests: Dict[str, Ticket] = {}
        self._outcomes: Dict[str, Dict[str, object]] = {}

    # -- paths -------------------------------------------------------------

    def request_path(self, key: str) -> Path:
        return self.requests_dir / f"{key}.req"

    def done_path(self, key: str) -> Path:
        return self.done_dir / f"{key}.done"

    # -- admission ---------------------------------------------------------

    def depth(self) -> int:
        """Accepted requests without an outcome (the backlog)."""
        return len(self._names(self.requests_dir, ".req")
                   - self._names(self.done_dir, ".done"))

    def enqueue(self, request: AlignmentRequest,
                key: Optional[str] = None) -> Tuple[str, bool]:
        """Durably accept one request; ``(key, newly_enqueued)``.

        An already-enqueued key is re-accepted for free at any depth
        (idempotent duplicate).  A genuinely new request is bounced with
        :class:`QueueFull` when the backlog is at ``max_depth`` —
        *before* anything is written, so a rejected request leaves no
        trace to clean up.
        """
        key = key or request.key()
        path = self.request_path(key)
        if path.exists():
            return key, False
        backlog = self.depth()
        if backlog >= self.max_depth:
            raise QueueFull(backlog, self.max_depth)
        atomic_write_bytes(path, request.to_payload())
        self._request_ticket(key, request)  # spares re-reading the payload
        return key, True

    def load_request(self, key: str) -> AlignmentRequest:
        """The durable payload for one accepted key.

        Raises :class:`ExperimentError` when the payload is missing or
        unreadable — the caller fails the ticket with that reason rather
        than crashing the service.
        """
        path = self.request_path(key)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise ExperimentError(
                f"request payload for ticket {key} is missing or unreadable "
                f"({type(exc).__name__})"
            )
        try:
            return AlignmentRequest.from_payload(blob)
        except Exception as exc:
            raise ExperimentError(
                f"request payload for ticket {key} failed to deserialize "
                f"({type(exc).__name__}: {exc})"
            )

    # -- tickets -----------------------------------------------------------

    def _request_ticket(self, key: str,
                        request: Optional[AlignmentRequest] = None
                        ) -> Optional[Ticket]:
        """A ``pending`` ticket carrying the request's metadata, accepted
        at the request file's mtime; ``None`` for an unknown key."""
        ticket = self._requests.get(key)
        if ticket is not None:
            return ticket
        try:
            accepted_at = self.request_path(key).stat().st_mtime
        except OSError:
            return None
        try:
            request = request or self.load_request(key)
        except ExperimentError:
            # Still an accepted ticket: running it fails it with the
            # load error.
            ticket = Ticket(key=key, state="pending", algorithm="",
                            submitted_at=accepted_at)
        else:
            deadline = request.deadline_seconds
            ticket = Ticket(
                key=key, state="pending", algorithm=request.algorithm,
                assignment=request.assignment, seed=int(request.seed),
                params=repr(canonicalize_params(dict(request.params))),
                submitted_at=accepted_at,
                deadline_seconds=None if deadline is None else float(deadline),
            )
        self._requests[key] = ticket
        return ticket

    def ticket(self, key: str) -> Optional[Ticket]:
        """One ticket as its files show it now; ``None`` for an unknown key.

        The lease is read before the outcome, which is published before
        its lease is released: a running ticket never reads as pending.
        """
        request = self._request_ticket(key)
        if request is None:
            return None
        lease = self.holder(key)
        outcome = self.outcome(key)
        if outcome is not None:
            return replace(request, **outcome)
        if lease is not None:
            return replace(request, state="leased", attempts=lease.attempt)
        return replace(request, attempts=self.attempts(key))

    @staticmethod
    def _names(directory: Path, suffix: str) -> Set[str]:
        return {name[:-len(suffix)] for name in os.listdir(directory)
                if name.endswith(suffix)}

    def _states(self) -> List[Tuple[str, str]]:
        """``(key, state)`` of every accepted request in key order, from
        one listing of each directory — leases before outcomes, for the
        reason :meth:`ticket` gives."""
        leased = self._names(self.lease_dir, ".lease")
        finished = self._names(self.done_dir, ".done")
        states = []
        for key in sorted(self._names(self.requests_dir, ".req")):
            outcome = self.outcome(key) if key in finished else None
            if outcome is not None:
                states.append((key, outcome["state"]))
            elif cell_hash(key) in leased:
                states.append((key, "leased"))
            else:
                states.append((key, "pending"))
        return states

    def tickets(self, state: Optional[str] = None) -> List[Ticket]:
        """Every accepted request's ticket, or only those in ``state``."""
        found = []
        for key, listed in self._states():
            if state is not None and listed != state:
                continue
            ticket = self.ticket(key)  # re-read: it may have moved on
            if ticket is not None and state in (None, ticket.state):
                found.append(ticket)
        return found

    def counts(self) -> Dict[str, int]:
        """Ticket count per state (zero-filled for all known states)."""
        totals = dict.fromkeys(TICKET_STATES, 0)
        for _, state in self._states():
            totals[state] += 1
        return totals

    def accepted_keys(self) -> List[str]:
        """Every key with a durable request payload, finished or not."""
        return sorted(self._names(self.requests_dir, ".req"))

    # -- claims ------------------------------------------------------------

    def claim(self, key: str) -> Optional[Path]:
        """Atomically lease one request; ``None`` if someone holds it."""
        prior = read_attempts(self.lease_dir, key)
        return try_acquire_lease(self.lease_dir, key, attempt=prior + 1)

    def release(self, claim: Path) -> None:
        release_lease(claim)

    def holder(self, key: str):
        """The current lease on a key, or ``None``."""
        return read_lease(lease_path(self.lease_dir, key))

    def attempts(self, key: str) -> int:
        """Orphaned-execution count accumulated by the key so far."""
        return read_attempts(self.lease_dir, key)

    def record_attempt(self, key: str) -> int:
        """Tombstone one more burned execution; returns the new total."""
        return bump_attempts(self.lease_dir, key)

    def reclaim_stale(self) -> List[Tuple[str, int, str]]:
        """Release leases whose owner is dead or silent past the timeout.

        Returns ``(key, attempts, reason)`` per reclaimed lease, with the
        burned attempt already tombstoned — the ticket reads as pending
        again and, past the service's retry bound, is failed instead of
        crash-looping.  A lease caught mid-write carries no key (the
        file name is a hash); it is still removed, and the key comes
        back empty.
        """
        reclaimed = []
        for path, lease, reason in scan_stale_leases(
                self.lease_dir, self.lease_timeout_seconds):
            attempts = self.record_attempt(lease.key) if lease.key else 0
            release_lease(path)
            reclaimed.append((lease.key, attempts, reason))
        return reclaimed

    # -- outcomes ----------------------------------------------------------

    def mark_done(self, key: str, state: str = "done", attempts: int = 0,
                  error: str = "", record: Optional[Dict] = None) -> bool:
        """Publish the ticket's terminal outcome unless it has one;
        returns whether this call published it.

        ``record`` is the finished run's ``RunRecord.to_dict()``, when the
        request ran.  The outcome is fsynced before it is linked into
        place, so a reader never sees part of one, and the link fails on
        an existing outcome: the first terminal outcome wins.  Callers
        publish it before they release the ticket's lease.
        """
        outcome = {"state": state, "attempts": int(attempts),
                   "error": str(error)}
        path = self.done_path(key)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(dict(outcome, record=record),
                                    sort_keys=True).encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)
        _fsync_dir(self.done_dir)
        self._outcomes[key] = outcome
        return True

    def outcome(self, key: str) -> Optional[Dict[str, object]]:
        """The ticket's terminal ``state``, ``attempts`` and ``error``;
        ``None`` while it has none.  Its record stays on disk."""
        outcome = self._outcomes.get(key)
        if outcome is not None:
            return outcome
        try:
            raw = self.done_path(key).read_bytes()
        except FileNotFoundError:
            return None
        try:
            data = json.loads(raw)
            outcome = {"state": data["state"],
                       "attempts": int(data["attempts"]),
                       "error": str(data["error"])}
        except (ValueError, KeyError, TypeError):
            outcome = {"state": None}
        if outcome["state"] not in TERMINAL_STATES:
            outcome = {"state": "failed", "attempts": 0,
                       "error": f"ExperimentError: the outcome of ticket "
                                f"{key} is unreadable"}
        self._outcomes[key] = outcome
        return outcome

    def record(self, key: str) -> Optional[Dict[str, object]]:
        """The ``RunRecord.to_dict()`` in the ticket's outcome file, if any."""
        try:
            return json.loads(self.done_path(key).read_bytes()).get("record")
        except (OSError, ValueError, AttributeError):
            return None

    def stats(self) -> Dict[str, int]:
        counts = self.counts()
        accepted = sum(counts.values())
        backlog = counts["pending"] + counts["leased"]
        return {
            "accepted": accepted,
            "backlog": backlog,
            "finished": accepted - backlog,
            "max_depth": self.max_depth,
            "leased": counts["leased"],
        }

    def __repr__(self) -> str:
        stats = self.stats()
        return (f"DurableRequestQueue({str(self.root)!r}, "
                f"backlog={stats['backlog']}/{self.max_depth})")
