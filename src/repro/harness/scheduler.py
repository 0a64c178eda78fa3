"""Lease-coordinated multi-process sweep executor with orphan recovery.

The one multi-process sweep executor: ``ExperimentConfig(workers=N)``
runs it in a private scratch directory, with the caller's journal as a
mirror that only the supervisor writes.  Workers can be SIGKILLed, hang,
or die mid-cell, and the sweep still converges to records bit-identical
to a serial run.

Coordination is entirely filesystem-based — no sockets, no queues, no
``fcntl`` locks (see DESIGN.md for why atomic create/rename beats
advisory locking).  Inside the scratch directory, next to its base path
``S``, live::

    S.shard00, S.shard01, ...   one RunJournal per worker (single writer
                                each; read by the supervisor with key
                                dedupe)
    S.leases/<hash>.lease       atomic O_EXCL claim of one cell, carrying
                                owner pid/host + a heartbeat timestamp,
                                refreshed by temp-file + atomic rename
    S.leases/<hash>.attempts    how often the cell was orphaned (lease
                                reclaimed); preserved attempt accounting
    S.done/<hash>.done          completion marker (content = cell key)

The supervisor's recovery-event log is ``<journal>.events.jsonl`` next
to the caller's journal ``J`` (inside the scratch directory when the
sweep has no journal), so it outlives the scratch directory.

Lifecycle of one cell: a worker finds no done marker, creates the lease
with ``O_CREAT | O_EXCL`` (the atomic claim), runs the cell while a
background thread refreshes the heartbeat, appends the record to its own
shard, publishes the done marker, and releases the lease.  The
supervisor loop detects **orphaned** cells — a lease whose owner pid is
dead (SIGKILLed worker) or whose heartbeat expired (hung worker; the
worker is SIGKILLed first so it can never wake up and double-write) —
reclaims them by bumping the attempts file and deleting the lease, and
lets the surviving workers re-claim.  A cell orphaned more often than
the retry policy allows is recorded as failed instead of crash-looping
the fleet.  Each newly finished record is appended to ``J``.

Records are deduplicated on read (a key keeps the first record read):
the only way a cell appears twice is the benign crash window between a
durable shard append and the done marker, and both records were computed
from the same :func:`~repro.harness.runner.cell_seed`.

A SIGKILLed supervisor behaves like a killed serial sweep: ``J`` is the
only durable record and the only thing a rerun resumes from.  Cells its
workers were still running run again, and their orphan tombstones (and
any reclaim the dead supervisor had not yet polled) stay behind in the
abandoned scratch directory, which the next ``workers`` sweep on the
host removes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.cache_disk import atomic_write_bytes, read_jsonl
from repro.exceptions import ExperimentError
from repro.harness.journal import (
    RunJournal,
    cell_key,
    config_fingerprint,
)
from repro.harness.results import ResultTable, RunRecord

__all__ = [
    "ShardPaths",
    "Lease",
    "cell_hash",
    "try_acquire_lease",
    "read_lease",
    "release_lease",
    "scan_stale_leases",
    "read_attempts",
    "bump_attempts",
    "suppress_heartbeats",
    "EventLog",
    "event_log_segments",
    "load_event_segments",
    "load_recovery_events",
    "scratch_directory",
    "run_sharded_experiment",
]

# How many times a cell may be orphaned (worker died or hung while
# holding its lease) before it is recorded as failed, when no retry
# policy pins the bound.
DEFAULT_ORPHAN_ATTEMPTS = 3

# Supervisor poll cadence and worker idle backoff.
_SUPERVISOR_POLL_SECONDS = 0.1
_WORKER_IDLE_SECONDS = 0.2

# Fault hook (see repro.faults "stale_lease"): while True, heartbeat
# threads stop refreshing leases, so a perfectly alive worker looks hung
# to the supervisor.  Per-process, like every fault.
_HEARTBEATS_SUPPRESSED = False


def suppress_heartbeats(flag: bool = True) -> None:
    """Stop (or resume) this process's lease heartbeats — fault hook."""
    global _HEARTBEATS_SUPPRESSED
    _HEARTBEATS_SUPPRESSED = bool(flag)


def cell_hash(key: str) -> str:
    """Filesystem-safe fixed-length name for one cell key."""
    return hashlib.blake2b(key.encode("utf-8"), digest_size=12).hexdigest()


# ----------------------------------------------------------------------
# On-disk layout


class ShardPaths:
    """Every path the scheduler derives from one base path."""

    def __init__(self, base: Union[str, Path]):
        self.base = Path(base)

    def shard(self, index: int) -> Path:
        return self.base.with_name(f"{self.base.name}.shard{index:02d}")

    @property
    def lease_dir(self) -> Path:
        return self.base.with_name(f"{self.base.name}.leases")

    @property
    def done_dir(self) -> Path:
        return self.base.with_name(f"{self.base.name}.done")

    @property
    def events_path(self) -> Path:
        return self.base.with_name(f"{self.base.name}.events.jsonl")

    def ensure_dirs(self) -> None:
        self.base.parent.mkdir(parents=True, exist_ok=True)
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        self.done_dir.mkdir(parents=True, exist_ok=True)


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

    A reader (the supervisor judging staleness) sees either the old
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
        # Lease may have been reclaimed under us; the run loop handles
        # the consequences (duplicate records dedupe on merge).
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
        pass  # already reclaimed; merge-time dedupe covers the rest


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

    Daemonic: if the worker dies, the heartbeat dies with it — which is
    precisely the signal the supervisor keys staleness off.
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
            if _HEARTBEATS_SUPPRESSED:
                continue
            with self._lock:
                held = list(self._held.items())
            for path, (key, attempt, acquired_at) in held:
                refresh_lease(path, key, attempt, acquired_at)


# ----------------------------------------------------------------------
# Recovery-event log


# Rotation bounds for the recovery-event log: a long-lived supervisor
# (or the alignment service, which shares this class) must not grow one
# append-only file without limit.
DEFAULT_EVENT_LOG_MAX_BYTES = 1 << 20
DEFAULT_EVENT_LOG_SEGMENTS = 8


class EventLog:
    """Append log of recovery events with bounded growth.

    Single live writer per path (the supervisor, or one service
    process); readers are free.  Once the live file would exceed
    ``max_bytes`` it is rotated — atomically renamed to a numbered
    segment (``<name>.0001``, ``<name>.0002``, ...) — and segments past
    ``max_segments`` are compacted away oldest-first, so total disk use
    is bounded by roughly ``max_bytes * (max_segments + 1)``.
    :func:`load_event_segments` reads the full history across every
    surviving segment plus the live file.  Thread-safe: the service
    records events from worker threads.
    """

    def __init__(self, path: Path,
                 max_bytes: int = DEFAULT_EVENT_LOG_MAX_BYTES,
                 max_segments: int = DEFAULT_EVENT_LOG_SEGMENTS):
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.max_segments = max(int(max_segments), 1)
        self._handle = None
        self._lock = threading.Lock()

    def record(self, kind: str, **details) -> None:
        entry = {"kind": kind, "time": time.time(), "pid": os.getpid()}
        entry.update(details)
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            try:
                size = os.fstat(self._handle.fileno()).st_size
            except OSError:
                size = 0
            if (self.max_bytes and size
                    and size + len(line.encode("utf-8")) > self.max_bytes):
                self._rotate_locked()
            self._handle.write(line)
            self._handle.flush()
            try:
                os.fsync(self._handle.fileno())
            except OSError:
                pass

    def _rotate_locked(self) -> None:
        """Seal the live file as the next numbered segment; compact."""
        self._handle.close()
        self._handle = None
        segments = event_log_segments(self.path)
        next_index = 1
        if segments:
            next_index = int(segments[-1].name.rsplit(".", 1)[1]) + 1
        try:
            os.replace(self.path,
                       self.path.with_name(f"{self.path.name}"
                                           f".{next_index:04d}"))
        except OSError:
            pass  # rotation is best-effort; appending must go on
        segments = event_log_segments(self.path)
        while len(segments) > self.max_segments:
            try:
                segments.pop(0).unlink()
            except OSError:
                pass
        self._handle = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def event_log_segments(path: Union[str, Path]) -> List[Path]:
    """Rotated segments of one event log, oldest first (live file excluded)."""
    path = Path(path)
    prefix = f"{path.name}."
    found = []
    for candidate in path.parent.glob(f"{path.name}.*"):
        suffix = candidate.name[len(prefix):]
        if suffix.isdigit():
            found.append((int(suffix), candidate))
    return [segment for _, segment in sorted(found)]


def load_event_segments(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Every event across rotated segments plus the live file, in order."""
    path = Path(path)
    events: List[Dict[str, object]] = []
    for segment in [*event_log_segments(path), path]:
        events.extend(read_jsonl(segment)[0])
    return events


def load_recovery_events(journal: Union[str, Path]
                         ) -> List[Dict[str, object]]:
    """The recovery events of every ``workers`` sweep journaled at
    ``journal`` (its ``<journal>.events.jsonl`` log).

    Reads across rotated segments (oldest first) and the live file, and
    tolerates a truncated trailing line in any of them.
    """
    return load_event_segments(ShardPaths(journal).events_path)


# ----------------------------------------------------------------------
# Cell enumeration and shard reading


@dataclass(frozen=True)
class _Cell:
    key: str
    dataset: str
    noise_type: str
    level: float
    rep: int
    algorithm: str

    @property
    def instance(self) -> Tuple[str, str, float, int]:
        return (self.dataset, self.noise_type, self.level, self.rep)


def _enumerate_cells(config, graphs) -> List[_Cell]:
    """Every cell of the sweep, in the serial runner's deterministic order."""
    cells = []
    for dataset in graphs:
        for noise_type in config.noise_types:
            for level in config.noise_levels:
                for rep in range(config.repetitions):
                    for name in config.algorithms:
                        cells.append(_Cell(
                            key=cell_key(dataset, noise_type, level, rep,
                                         name),
                            dataset=dataset, noise_type=noise_type,
                            level=float(level), rep=int(rep),
                            algorithm=str(name),
                        ))
    return cells


def _read_new_records(paths: ShardPaths, workers: int,
                      fingerprint: Optional[str],
                      offsets: Dict[Path, int],
                      records: Dict[str, RunRecord]) -> None:
    """Add every record appended to the ``workers`` shards since the byte
    offsets in ``offsets`` (advanced in place, so a supervisor polling a
    long sweep parses each line once); a key keeps the first record read
    for it.

    Shards are read **without mutating them** (unlike
    ``RunJournal.__init__``, which truncates torn tails — fatal to a
    shard another process is still appending to).  Torn or corrupt
    tails are simply not consumed; the owning worker repairs its own
    shard when it reopens it.
    """
    for path in map(paths.shard, range(workers)):
        start = offsets.get(path, 0)
        entries, consumed = read_jsonl(path, start)
        offsets[path] = start + consumed
        for entry in entries:
            kind = entry.get("kind")
            if kind == "header":
                theirs = entry.get("fingerprint")
                if (fingerprint is not None and theirs is not None
                        and theirs != fingerprint):
                    raise ExperimentError(
                        f"journal shard {path} was written for a different "
                        f"experiment configuration (fingerprint {theirs} != "
                        f"{fingerprint}); use a fresh journal path"
                    )
            elif kind == "record":
                records.setdefault(entry["key"],
                                   RunRecord.from_dict(entry["record"]))


# ----------------------------------------------------------------------
# Done markers


def _done_path(paths: ShardPaths, key: str) -> Path:
    return paths.done_dir / f"{cell_hash(key)}.done"


def _publish_done(paths: ShardPaths, key: str) -> None:
    try:
        atomic_write_bytes(_done_path(paths, key),
                           f"{key}\n".encode("utf-8"), fsync=False)
    except OSError:
        pass  # worst case the cell is re-run; merge dedupes


def _read_done_keys(paths: ShardPaths, markers: Dict[str, str]) -> set:
    """The sweep keys with a done marker, counted by marker name alone.

    ``markers`` maps the marker file name of every sweep key to the key,
    so one listing answers the supervisor's poll without opening a
    marker (workers test a marker's existence the same way); temp
    leftovers of a publish and markers of keys outside the sweep do not
    count.
    """
    return {markers[name] for name in os.listdir(paths.done_dir)
            if name in markers}


# ----------------------------------------------------------------------
# Worker


def _failed_record(cell: _Cell, config, error: str,
                   attempts: int = 1) -> RunRecord:
    return RunRecord(
        algorithm=cell.algorithm, dataset=cell.dataset,
        noise_type=cell.noise_type, noise_level=cell.level,
        repetition=cell.rep, assignment=config.assignment, measures={},
        similarity_time=0.0, assignment_time=0.0, failed=True,
        error=error, attempts=attempts,
    )


def _orphan_attempt_limit(config) -> int:
    policy = getattr(config, "retry_policy", None)
    if policy is not None:
        return int(policy.max_attempts)
    return DEFAULT_ORPHAN_ATTEMPTS


class _GracefulExit(SystemExit):
    """Raised by the worker's SIGTERM handler to unwind cleanly.

    A ``SystemExit`` subclass so an un-caught drain still exits the
    process with code 0, while the per-cell handler can distinguish a
    drain (account the burned attempt, release the lease) from a crash.
    """

    def __init__(self):
        super().__init__(0)


def _install_worker_sigterm_handler():
    """Route SIGTERM through :class:`_GracefulExit`; returns the previous
    handler, or ``None`` when installation is impossible (not the main
    thread — e.g. a worker body driven in-process by a test)."""

    def _on_sigterm(_signum, _frame):
        raise _GracefulExit()

    try:
        return signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        return None


def _shard_worker_main(shard_index: int, base: str, config, graphs,
                       factory, fingerprint: str, supervisor: int) -> None:
    """Worker body: claim → run → journal → done-marker → release, forever.

    Self-directed: the worker walks the full deterministic cell list
    (rotated by shard index to an instance boundary, so workers start on
    different instances and rarely contend on a lease) and claims
    whatever is neither done nor leased.  It leaves the rest of an
    instance to the worker already running one of its cells, so each
    instance's algorithms share one noisy pair and one artifact cache,
    as in the serial loop.  It exits when every cell has a done marker,
    or when its parent is no longer ``supervisor`` (the pid that spawned
    it) — an orphaned worker must not soldier on against a sweep nobody
    owns.  Orphans are re-parented to init *or* to the nearest child
    subreaper (``systemd --user``, any process that set
    ``PR_SET_CHILD_SUBREAPER``), so a parent pid of 1 is not the test.

    SIGTERM drains the worker gracefully: the handler unwinds the run
    loop, the burned attempt is tombstoned, and the held lease is
    released cleanly — so a supervisor ``terminate()`` (or an operator's
    kill) leaves nothing for stale-lease reclaim to clean up.  SIGKILL
    remains the covered-by-reclaim death path.
    """
    from repro.harness.runner import (_describe_failure, _execute_cell,
                                      _instance_cache, cell_seed)

    previous_sigterm = _install_worker_sigterm_handler()
    paths = ShardPaths(base)
    journal = RunJournal(paths.shard(shard_index), fingerprint=fingerprint)
    open_cache = _instance_cache(config)
    cells = _enumerate_cells(config, graphs)
    if not cells:
        journal.close()
        return
    starts = [index for index, cell in enumerate(cells)
              if index == 0 or cell.instance != cells[index - 1].instance]
    offset = starts[(shard_index * len(starts)) // int(config.workers)]
    order = cells[offset:] + cells[:offset]
    lease_timeout = float(getattr(config, "lease_timeout_seconds", 30.0))
    heartbeat = _HeartbeatThread(interval_seconds=lease_timeout / 5.0)
    heartbeat.start()
    limit = _orphan_attempt_limit(config)
    base_seed = int(config.seed)
    last_instance: Optional[Tuple] = None
    last_pair = None
    instance_scope = ExitStack()
    held = None  # (cell, lease, prior): the next cell, claimed in advance

    def claim(cell: _Cell) -> Tuple[Optional[Path], int]:
        prior = read_attempts(paths.lease_dir, cell.key)
        lease = try_acquire_lease(paths.lease_dir, cell.key,
                                  attempt=prior + 1)
        if lease is not None:
            heartbeat.track(lease, cell.key, prior + 1, time.time())
        return lease, prior

    try:
        while True:
            if os.getppid() != supervisor:
                return  # supervisor is gone; stop claiming work
            any_progress = False
            all_done = True
            busy = None  # an instance another worker holds a lease in
            for position, cell in enumerate(order):
                if held is not None and held[0] is cell:
                    if os.getppid() != supervisor:
                        return  # the finally below releases the lease
                    _, lease, prior = held
                    held = None
                else:
                    if _done_path(paths, cell.key).exists():
                        continue
                    if cell.key in journal:
                        # Crash window from a previous incarnation of this
                        # shard: record durable, marker missing.
                        _publish_done(paths, cell.key)
                        any_progress = True
                        continue
                    all_done = False
                    if cell.instance == busy:
                        continue
                    if os.getppid() != supervisor:
                        return
                    lease, prior = claim(cell)
                    if lease is None:
                        busy = cell.instance  # its holder runs the rest
                        continue
                try:
                    if prior >= limit:
                        record = _failed_record(
                            cell, config,
                            f"ExperimentError: cell orphaned {prior} times "
                            "(its worker died or hung mid-cell on every "
                            "attempt); giving up", attempts=prior)
                    else:
                        seed = cell_seed(base_seed, cell.dataset,
                                         cell.noise_type, cell.level,
                                         cell.rep)
                        try:
                            if last_instance != cell.instance:
                                # One artifact cache per instance, as in
                                # the serial loop.
                                instance_scope.close()
                                last_instance = None
                                last_pair = factory(graphs[cell.dataset],
                                                    cell.noise_type,
                                                    cell.level, seed)
                                last_instance = cell.instance
                                instance_scope.enter_context(open_cache())
                            record = _execute_cell(
                                config, cell.algorithm, last_pair,
                                cell.dataset, cell.rep, seed)
                        except Exception as exc:
                            # A pair factory that raises fails its cells:
                            # a worker dying on it would be respawned into
                            # the same error forever.
                            record = _failed_record(cell, config,
                                                    _describe_failure(exc))
                        if prior:
                            record = replace(
                                record, attempts=record.attempts + prior)
                    journal.append(cell.key, record)
                    following = (order[position + 1]
                                 if position + 1 < len(order) else None)
                    if (following is not None
                            and following.instance == cell.instance
                            and not _done_path(paths, following.key).exists()
                            and following.key not in journal):
                        # Claim the instance's next cell before this one
                        # is marked done: other workers then always find
                        # one of its cells leased and leave it to us.
                        next_lease, next_prior = claim(following)
                        if next_lease is not None:
                            held = (following, next_lease, next_prior)
                    _publish_done(paths, cell.key)
                except _GracefulExit:
                    # Drained mid-cell: tombstone the burned attempt so
                    # the orphan bound still holds, then unwind; the
                    # finally below releases the lease cleanly.
                    bump_attempts(paths.lease_dir, cell.key)
                    raise
                finally:
                    heartbeat.untrack(lease)
                    release_lease(lease)
                any_progress = True
            if all_done:
                return
            if not any_progress:
                # Everything left is leased elsewhere; wait for either a
                # completion or a supervisor reclaim.
                time.sleep(_WORKER_IDLE_SECONDS)
    finally:
        if held is not None:
            heartbeat.untrack(held[1])
            release_lease(held[1])
        instance_scope.close()
        heartbeat.stop()
        journal.close()
        if previous_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, previous_sigterm)
            except (ValueError, TypeError):
                pass


# ----------------------------------------------------------------------
# Supervisor

_SCRATCH_PREFIX = "repro-sweep-"


@contextmanager
def scratch_directory() -> Iterator[Path]:
    """A temporary directory for one ``workers=N`` sweep's shards.

    Named after this supervisor's host and pid, as leases are, so that a
    directory a SIGKILLed supervisor could not remove is recognisable:
    every such leftover whose same-host pid is dead is removed before a
    new directory is created.
    """
    prefix = f"{_SCRATCH_PREFIX}{socket.gethostname()}-"
    for leftover in Path(tempfile.gettempdir()).glob(f"{prefix}*"):
        pid = leftover.name[len(prefix):].split("-", 1)[0]
        if pid.isdigit() and not _pid_alive(int(pid)):
            shutil.rmtree(leftover, ignore_errors=True)
    with tempfile.TemporaryDirectory(
            prefix=f"{prefix}{os.getpid()}-") as scratch:
        yield Path(scratch)


def _progress_message(key: str) -> str:
    dataset, noise_type, level, rep, name = key.split("|")
    return f"{dataset} {noise_type} {float(level):.2f} rep{rep} {name}"


def run_sharded_experiment(
    config,
    graphs: Dict[str, object],
    factory: Callable,
    progress: Optional[Callable[[str], None]],
    mirror: Optional[RunJournal] = None,
) -> ResultTable:
    """Run the sweep across ``config.workers`` lease-coordinated workers.

    The supervisor never executes cells; it spawns workers into a fresh
    :func:`scratch_directory`, watches their liveness, reclaims orphaned
    leases (killing provably hung owners first), respawns dead workers
    while work remains, and records every recovery event to
    ``<mirror>.events.jsonl`` (inside the scratch directory when there is
    no mirror).  Returns the table once every cell has a durable record.

    ``mirror`` is the caller's open :class:`RunJournal`, which the
    supervisor alone writes: its records count as done before any worker
    starts, and each newly finished cell is reported to ``progress`` and
    then appended to it.
    """
    import multiprocessing as mp

    processes = int(config.workers)
    fingerprint = config_fingerprint(config)
    cells = _enumerate_cells(config, graphs)
    cell_keys = {cell.key for cell in cells}
    lease_timeout = float(getattr(config, "lease_timeout_seconds", 30.0))
    records: Dict[str, RunRecord] = {}
    if mirror is not None:
        records.update((key, mirror.get(key)) for key in cell_keys
                       if key in mirror)
    reported = set(records)
    ctx = (mp.get_context("fork")
           if "fork" in mp.get_all_start_methods() else mp.get_context())

    with scratch_directory() as scratch:
        paths = ShardPaths(scratch / "sweep.jsonl")
        paths.ensure_dirs()
        events = EventLog(ShardPaths(mirror.path).events_path
                          if mirror is not None else paths.events_path)
        markers = {_done_path(paths, key).name: key for key in cell_keys}
        offsets: Dict[Path, int] = {}
        for key in reported:
            _publish_done(paths, key)

        def spawn(index: int):
            worker = ctx.Process(
                target=_shard_worker_main,
                args=(index, str(paths.base), config, graphs, factory,
                      fingerprint, os.getpid()),
            )
            worker.start()
            return worker

        def respawn(index: int) -> None:
            worker = workers[index]
            worker.join()
            events.record("worker_respawned", shard=index,
                          exit_code=worker.exitcode)
            workers[index] = spawn(index)

        workers: Dict[int, object] = {}
        try:
            while True:
                done_keys = _read_done_keys(paths, markers)
                if done_keys - reported:
                    _read_new_records(paths, processes, fingerprint,
                                      offsets, records)
                for key in sorted((done_keys - reported) & set(records)):
                    if progress is not None:
                        progress(_progress_message(key))
                    if mirror is not None:
                        mirror.append(key, records[key])
                    reported.add(key)
                if len(done_keys) >= len(cell_keys):
                    break

                for path, lease, reason in scan_stale_leases(
                        paths.lease_dir, lease_timeout):
                    if reason == "expired_heartbeat" and lease.pid > 0 \
                            and lease.host == socket.gethostname() \
                            and _pid_alive(lease.pid):
                        # A hung-but-alive worker must die *before* its
                        # lease is handed to someone else, or it could
                        # wake up and append a second copy (harmless for
                        # records, but a second live writer on one shard
                        # is not).
                        try:
                            os.kill(lease.pid, signal.SIGKILL)
                        except OSError:
                            pass
                        # Reap and replace it while its cell is still
                        # leased: a sibling could otherwise finish the
                        # cell before the next poll and end the sweep with
                        # no respawn recorded.
                        for index, worker in list(workers.items()):
                            if worker.pid == lease.pid:
                                respawn(index)
                    attempts = bump_attempts(paths.lease_dir, lease.key) \
                        if lease.key else 0
                    events.record("lease_reclaimed", key=lease.key,
                                  pid=lease.pid, reason=reason,
                                  attempts=attempts)
                    release_lease(path)

                for index in range(processes):
                    if index not in workers:
                        workers[index] = spawn(index)
                    elif not workers[index].is_alive():
                        respawn(index)
                time.sleep(_SUPERVISOR_POLL_SECONDS)
        finally:
            # After a finished sweep the workers left are idle or
            # re-running a done cell: SIGTERM drains them now rather than
            # after their next idle re-scan, and before the scratch
            # directory under them is removed.
            for worker in workers.values():
                if worker.is_alive():
                    worker.terminate()
                    worker.join()
            events.close()

    table = ResultTable()
    missing = []
    for cell in cells:
        record = records.get(cell.key)
        if record is None:
            missing.append(cell.key)
        else:
            table.add(record)
    if missing:
        raise ExperimentError(
            f"sharded sweep finished with {len(missing)} cells missing "
            f"from every shard (first: {missing[0]}); the journal shards "
            "and done markers disagree — rerun to resume"
        )
    return table
