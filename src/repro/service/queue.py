"""Durable on-disk request queue: the one store of the service's tickets.

The queue persists every accepted request and coordinates its execution
through lease files, whose primitives live here.  A lease is a file its
holder keeps ``flock``ed: written and locked under a temporary name,
then ``os.link``ed into place, so a claim is exclusive and a lease is
never seen torn.  The kernel drops a dead holder's lock — SIGKILL
included — so a lease the reclaim scan can lock was left by a holder
that is gone, and its request is **re-leased, not lost**; ``.attempts``
tombstones preserve how often a request burned an execution.  Any
number of service processes on one host may share one queue directory,
which is why the service coordinates on files while a ``workers``
sweep, whose one supervisor owns its queue, needs none.

Layout under the queue root (lease files are named by :func:`cell_hash`
of the key)::

    requests/<key>.req     pickled request payload, atomically published
    leases/<hash>.lease    lease (key + pid + attempt), flocked by its holder
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

import fcntl
import hashlib
import json
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.cache import canonicalize_params
from repro.cache_disk import _fsync_dir, atomic_write_bytes
from repro.exceptions import ExperimentError
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
    """One holder's claim on one cell, as read back from disk."""

    key: str
    pid: int
    attempt: int


# The descriptors of the leases this process holds, by lease path.  The
# descriptor is the lease: its ``flock`` lives as long as its open file
# description does, which the kernel ends when the holder dies.
_HELD: Dict[Path, int] = {}

# Guards ``_HELD``: taken around each claim and release and across every
# fork, so a fork never copies a lease descriptor missing from ``_HELD``,
# and a release never drops another thread's new claim of its path.
_HELD_LOCK = threading.Lock()


def _close_inherited_leases() -> None:
    """In a forked child, close the lease descriptors it inherited.

    A forked descriptor shares its parent's open file description, and
    with it the ``flock``: a child that outlives its server (a budgeted
    request's cell runs in one) would keep the server's leases locked.
    Closing the child's copies never drops the parent's lock, since the
    parent's descriptor still holds the description open — which is why
    nothing here calls ``LOCK_UN``.
    """
    for fd in _HELD.values():
        os.close(fd)
    _HELD.clear()
    _HELD_LOCK.release()


os.register_at_fork(before=_HELD_LOCK.acquire,
                    after_in_parent=_HELD_LOCK.release,
                    after_in_child=_close_inherited_leases)


def lease_path(lease_dir: Path, key: str) -> Path:
    return Path(lease_dir) / f"{cell_hash(key)}.lease"


def try_acquire_lease(lease_dir: Path, key: str,
                      attempt: int = 1) -> Optional[Path]:
    """Atomically claim a cell; ``None`` if someone already holds it.

    The lease is written and ``flock``ed under a temporary name, then
    ``os.link``ed to its own: the link fails on an existing lease, so
    two claimants racing get exactly one winner, and no reader ever
    sees a lease torn, or unlocked while its holder lives.
    """
    path = lease_path(lease_dir, key)
    body = json.dumps({"key": key, "pid": os.getpid(),
                       "attempt": int(attempt)}, sort_keys=True)
    with _HELD_LOCK:
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                                   dir=lease_dir)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            os.write(fd, body.encode("utf-8"))
            os.link(tmp, path)
        except FileExistsError:
            os.close(fd)
            return None
        except BaseException:
            os.close(fd)
            raise
        finally:
            os.unlink(tmp)
        _HELD[path] = fd
    return path


def read_lease(path: Path) -> Optional[Lease]:
    """Parse a lease file; ``None`` when it is gone or not a lease."""
    try:
        data = json.loads(path.read_bytes())
        return Lease(key=str(data["key"]), pid=int(data["pid"]),
                     attempt=int(data["attempt"]))
    except (OSError, ValueError, KeyError, TypeError):
        return None  # released between list and read, or foreign content


def release_lease(path: Path) -> None:
    """Give up a lease this process holds; a no-op for any other path.

    The file goes before its lock, so a live holder's lease is never on
    disk unlocked.
    """
    with _HELD_LOCK:
        fd = _HELD.pop(path, None)
        if fd is None:
            return
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    os.close(fd)


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
    atomic rename, claims link flocked lease files into place, outcomes
    are ``os.link`` publishes that never replace, and every reader
    tolerates files vanishing between list and read.  One queue directory
    may be shared by any number of submitters and servers on one host.
    """

    def __init__(self, root: Union[str, Path], max_depth: int = 256):
        if int(max_depth) < 1:
            raise ExperimentError(
                f"max_depth must be >= 1, got {max_depth}"
            )
        self.root = Path(root)
        self.max_depth = int(max_depth)
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
        """Remove the leases whose holder exited.

        A holder keeps its lease locked while it lives, so a lease this
        scan can lock was left by one that is gone; the scan locks it
        through a description of its own, which a holder in this same
        process does not share.  Returns ``(key, attempts,
        "holder_exited")`` per reclaimed lease, with the burned attempt
        tombstoned before the lease goes — the ticket reads as pending
        again and, past the service's retry bound, is failed instead of
        crash-looping.
        """
        reclaimed = []
        for path in sorted(self.lease_dir.glob("*.lease")):
            try:
                fd = os.open(path, os.O_RDONLY)
            except FileNotFoundError:
                continue  # released since the listing
            try:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    continue  # its holder lives
                try:
                    same = os.stat(path).st_ino == os.fstat(fd).st_ino
                except FileNotFoundError:
                    same = False
                if not same:
                    continue  # released, maybe claimed again, since the open
                lease = read_lease(path)
                if lease is not None:  # else not a lease: nothing to charge
                    reclaimed.append((lease.key,
                                      self.record_attempt(lease.key),
                                      "holder_exited"))
                os.unlink(path)
            finally:
                os.close(fd)
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
