"""Multi-process sweep executor: one supervisor, one pipe per worker.

The one multi-process sweep executor: ``ExperimentConfig(workers=N)``.
The supervisor owns the queue of unfinished **instances** — the cells
that share one noisy pair — and forks the workers, each connected to it
by one :func:`multiprocessing.Pipe`.  A worker receives an instance,
runs its cells in serial order under one artifact cache, and sends back
one pickled :class:`~repro.harness.results.RunRecord` per cell, so the
records are the objects a serial run builds.  A thread in the worker
sends a heartbeat every ``lease_timeout_seconds / 5``.  The supervisor
blocks in :func:`multiprocessing.connection.wait` on every pipe and
every worker's sentinel, and appends each record to the caller's journal
``J`` as it arrives.  It is the sweep's only writer of files (a
``cache_dir`` aside, which every worker shares).

A worker forfeits its instance when its sentinel fires (it died:
``dead_pid``) or when it stays silent past ``lease_timeout_seconds`` (it
hung: ``expired_heartbeat``; it is SIGKILLed first, so it can never wake
up and send a second record).  The supervisor keeps the records the
worker sent before it died, charges the cell in flight one orphaned
attempt — counted in memory and folded into the cell's
``RunRecord.attempts`` — puts the unfinished cells back at the head of
the queue, and respawns the worker.  A cell orphaned as often as the
retry policy allows is recorded as failed instead of crash-looping the
fleet.  Every reclaim and respawn is logged as ``lease_reclaimed`` /
``worker_respawned`` to ``<J>.events.jsonl`` (nowhere when the sweep has
no journal); the kinds keep their names so old logs read the same.

Forked processes inherit copies of pipe ends — a worker gets the
supervisor's ends of its siblings' pipes, a budgeted cell's child gets
its worker's end — so an EOF alone proves nothing about who is gone.
The supervisor therefore watches each worker's sentinel and stops idle
workers with an explicit ``None`` task.  A worker closes the supervisor
ends it inherited, so the supervisor's death reaches an idle worker as
an EOF, and checks its parent pid before every cell.

A SIGKILLed supervisor behaves like a killed serial sweep: ``J`` is the
only durable record and the only thing a rerun resumes from.  Its
workers exit before their next cell, an idle one at once, and the cells
they were running run again.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cache_disk import read_jsonl
from repro.harness.journal import RunJournal, cell_key
from repro.harness.results import ResultTable, RunRecord

__all__ = [
    "suppress_heartbeats",
    "EventLog",
    "event_log_segments",
    "load_event_segments",
    "load_recovery_events",
    "run_sharded_experiment",
]

# How many times a cell may be orphaned (its worker died or hung while
# running it) before it is recorded as failed, when no retry policy pins
# the bound.
DEFAULT_ORPHAN_ATTEMPTS = 3

# Fault hook (see repro.faults "stale_lease"): while True, heartbeat
# threads stop beating — a sweep worker's and the alignment service's
# alike — so a perfectly alive process looks hung.  Per-process, like
# every fault.
_HEARTBEATS_SUPPRESSED = False


def suppress_heartbeats(flag: bool = True) -> None:
    """Stop (or resume) this process's heartbeats — fault hook."""
    global _HEARTBEATS_SUPPRESSED
    _HEARTBEATS_SUPPRESSED = bool(flag)


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
    return load_event_segments(_events_path(journal))


def _events_path(journal: Union[str, Path]) -> Path:
    return Path(f"{journal}.events.jsonl")


# ----------------------------------------------------------------------
# Cells and instances


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


def _failed_record(cell: _Cell, config, error: str,
                   attempts: int = 1) -> RunRecord:
    return RunRecord(
        algorithm=cell.algorithm, dataset=cell.dataset,
        noise_type=cell.noise_type, noise_level=cell.level,
        repetition=cell.rep, assignment=config.assignment, measures={},
        similarity_time=0.0, assignment_time=0.0, failed=True,
        error=error, attempts=attempts,
    )


# ----------------------------------------------------------------------
# Worker


def _worker_main(conn, inherited, config, graphs, factory,
                 supervisor: int) -> None:
    """Worker body: run each instance the supervisor sends, in cell order.

    Sends one record per cell and, from a background thread, a ``None``
    heartbeat every ``lease_timeout_seconds / 5``; both share one lock,
    so a heartbeat never splits a record on the pipe.  Exits on a
    ``None`` task, or once its parent is no longer ``supervisor`` (the
    pid that forked it) — checked before every cell and after every idle
    wait.  Orphans are re-parented to init *or* to the nearest child
    subreaper (``systemd --user``, any process that set
    ``PR_SET_CHILD_SUBREAPER``), so a parent pid of 1 is not the test.
    Closing the supervisor's pipe ends it inherited (``inherited``) makes
    the supervisor's death an EOF here as well, so an idle orphan need
    not wait out its poll.
    """
    from repro.harness.runner import (_describe_failure, _execute_cell,
                                      _instance_cache, cell_seed)

    for end in inherited:
        end.close()
    interval = float(config.lease_timeout_seconds) / 5.0
    lock = threading.Lock()

    def send(message) -> None:
        with lock:
            conn.send(message)

    def beat() -> None:
        while True:
            time.sleep(interval)
            if not _HEARTBEATS_SUPPRESSED:
                try:
                    send(None)
                except ConnectionError:
                    return

    threading.Thread(target=beat, name="heartbeat", daemon=True).start()
    open_cache = _instance_cache(config)
    try:
        while os.getppid() == supervisor:
            if not conn.poll(interval):
                continue
            task = conn.recv()
            if task is None:
                return
            first = task[0]
            seed = cell_seed(int(config.seed), first.dataset,
                             first.noise_type, first.level, first.rep)
            try:
                pair = factory(graphs[first.dataset], first.noise_type,
                               first.level, seed)
                error = None
            except Exception as exc:
                # A pair factory that raises fails its cells: a worker
                # dying on it would be respawned into the same error.
                pair, error = None, _describe_failure(exc)
            with open_cache():  # one artifact cache per instance
                for cell in task:
                    if os.getppid() != supervisor:
                        return
                    if error is None:
                        try:
                            record = _execute_cell(config, cell.algorithm,
                                                   pair, cell.dataset,
                                                   cell.rep, seed)
                        except Exception as exc:
                            record = _failed_record(cell, config,
                                                    _describe_failure(exc))
                    else:
                        record = _failed_record(cell, config, error)
                    send(record)
    except (EOFError, ConnectionError):
        pass  # the supervisor is gone


# ----------------------------------------------------------------------
# Supervisor


@dataclass
class _Worker:
    process: object
    conn: object
    task: List[_Cell] = field(default_factory=list)  # unfinished cells
    heard: float = 0.0  # monotonic time of the last message or hand-out


def run_sharded_experiment(
    config,
    graphs: Dict[str, object],
    factory: Callable,
    progress: Optional[Callable[[str], None]],
    mirror: Optional[RunJournal] = None,
) -> ResultTable:
    """Run the sweep on ``config.workers`` forked worker processes.

    The supervisor never executes cells.  It hands instances to idle
    workers, collects their records, forfeits the instance of a worker
    that died or fell silent past ``config.lease_timeout_seconds``,
    respawns it while work remains, and records every recovery event to
    ``<mirror>.events.jsonl``.  Returns the table once every cell has a
    record.

    ``mirror`` is the caller's open :class:`RunJournal`, which the
    supervisor alone writes: its records count as done before any worker
    starts, and each newly finished cell is reported to ``progress`` and
    then appended to it.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait

    cells = _enumerate_cells(config, graphs)
    total = len({cell.key for cell in cells})
    records: Dict[str, RunRecord] = {}
    if mirror is not None:
        records.update((cell.key, mirror.get(cell.key)) for cell in cells
                       if cell.key in mirror)
    queue = deque(
        list(group) for _, group in itertools.groupby(
            (cell for cell in cells if cell.key not in records),
            key=lambda cell: cell.instance))
    attempts: Dict[str, int] = {}
    limit = (int(config.retry_policy.max_attempts)
             if config.retry_policy is not None else DEFAULT_ORPHAN_ATTEMPTS)
    timeout = float(config.lease_timeout_seconds)
    events = (EventLog(_events_path(mirror.path))
              if mirror is not None else None)
    ctx = (mp.get_context("fork")
           if "fork" in mp.get_all_start_methods() else mp.get_context())
    workers: Dict[int, _Worker] = {}

    def spawn(index: int) -> None:
        parent, child = ctx.Pipe()
        inherited = [parent, *(worker.conn for worker in workers.values())]
        process = ctx.Process(
            target=_worker_main,
            args=(child, inherited, config, graphs, factory, os.getpid()))
        process.start()
        child.close()  # the worker's end lives in the worker alone
        workers[index] = _Worker(process, parent)

    def log(kind: str, **details) -> None:
        if events is not None:
            events.record(kind, **details)

    def finish(cell: _Cell, record: RunRecord) -> None:
        records[cell.key] = record
        if progress is not None:
            progress(f"{cell.dataset} {cell.noise_type} {cell.level:.2f} "
                     f"rep{cell.rep} {cell.algorithm}")
        if mirror is not None:
            mirror.append(cell.key, record)

    def receive(worker: _Worker) -> bool:
        """Take every message the worker has sent; ``False`` at EOF."""
        try:
            while worker.conn.poll():
                record = worker.conn.recv()
                worker.heard = time.monotonic()
                if record is None:
                    continue  # heartbeat
                cell = worker.task.pop(0)
                if cell.key in attempts:
                    record = replace(
                        record, attempts=record.attempts + attempts[cell.key])
                finish(cell, record)
        except (EOFError, ConnectionError):
            return False
        return True

    def forfeit(index: int, reason: str) -> None:
        worker = workers.pop(index)
        if reason == "expired_heartbeat":
            worker.process.kill()
        worker.process.join()
        receive(worker)  # records sent before it died count
        worker.conn.close()
        task = worker.task
        if task:
            cell = task[0]
            count = attempts[cell.key] = attempts.get(cell.key, 0) + 1
            log("lease_reclaimed", key=cell.key, pid=worker.process.pid,
                reason=reason, attempts=count)
            if count >= limit:
                finish(cell, _failed_record(
                    cell, config,
                    f"ExperimentError: cell orphaned {count} times (its "
                    "worker died or hung mid-cell on every attempt); "
                    "giving up", attempts=count))
                task = task[1:]
            if task:
                queue.appendleft(task)
        if len(records) < total:
            log("worker_respawned", shard=index,
                exit_code=worker.process.exitcode)
            spawn(index)

    try:
        for index in range(min(int(config.workers), len(queue))):
            spawn(index)
        while len(records) < total:
            for worker in workers.values():
                if not worker.task and queue:
                    worker.task = queue.popleft()
                    worker.heard = time.monotonic()
                    try:
                        worker.conn.send(worker.task)
                    except ConnectionError:
                        pass  # it died; its sentinel says so next
            busy = [w.heard for w in workers.values() if w.task]
            wait([handle for w in workers.values()
                  for handle in (w.conn, w.process.sentinel)],
                 timeout=(max(min(busy) + timeout - time.monotonic(), 0.0)
                          if busy else None))
            now = time.monotonic()
            for index, worker in list(workers.items()):
                if not receive(worker) or not worker.process.is_alive():
                    forfeit(index, "dead_pid")
                elif worker.task and now - worker.heard >= timeout:
                    forfeit(index, "expired_heartbeat")
    finally:
        for worker in workers.values():
            if worker.task:  # only an exception leaves the loop mid-instance
                worker.process.kill()
                continue
            try:
                worker.conn.send(None)
            except ConnectionError:
                pass
        for worker in workers.values():
            worker.process.join()
            worker.conn.close()
        if events is not None:
            events.close()

    table = ResultTable()
    for cell in cells:
        table.add(records[cell.key])
    return table
