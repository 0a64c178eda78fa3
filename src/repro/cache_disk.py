"""Crash-safe disk-backed artifact cache shared across processes and runs.

:mod:`repro.cache` keeps expensive per-graph intermediates alive for the
duration of one sweep cell; this module makes them durable.  A
:class:`DiskArtifactCache` is a directory of content-addressed payloads
— keyed by ``(Graph.content_digest(), artifact, canonicalize_params)``
exactly like the in-memory cache — that any number of worker processes
(or successive runs) may read and write concurrently:

* **writes are atomic**: the payload is pickled into a temp file in the
  same directory, flushed, fsynced, and ``os.replace``-renamed into
  place; a sidecar metadata file (carrying a BLAKE2b checksum of the
  payload bytes) is written the same way *after* the payload, so a
  metadata file existing implies its payload was fully published.  Two
  workers racing on the same key both write identical content (producers
  are pure functions of ``(graph, params)``), so rename's
  last-write-wins is harmless;
* **reads verify**: every load re-hashes the payload bytes against the
  metadata checksum, so a truncated file (crash mid-anything that
  bypassed the temp-file protocol, a torn copy, bit rot) can never
  deserialize into a silently wrong artifact;
* **corruption is quarantined, never fatal**: a missing/unparsable
  metadata file, a payload that is missing, unreadable, truncated,
  checksum-mismatched, or unpicklable is moved into ``quarantine/`` and
  reported as a miss — the caller recomputes and re-stores.  Every
  quarantine is recorded as a recovery event (see :func:`load_cache_events`)
  and bumps the ``disk_cache_quarantined`` counter, so a sweep that hit
  corruption says so loudly while still finishing.

Layering: :class:`repro.cache.ArtifactCache` accepts a
``backing=DiskArtifactCache(...)`` — memory misses fall through to disk,
disk misses run the producer and populate both tiers.  The harness wires
this up from ``ExperimentConfig.cache_dir`` / CLI ``--cache-dir``.

On-disk layout (everything lives under ``cache_dir``)::

    objects/<kk>/<key>.bin    pickled payload (kk = first 2 hex chars)
    objects/<kk>/<key>.json   metadata: checksum, artifact, digest, size
    quarantine/               corrupt entries moved aside for post-mortem
    events/<host>-<pid>.jsonl recovery events, one single-writer file per
                              process (merged by load_cache_events)

GC: entries are never expired implicitly; :meth:`DiskArtifactCache.prune`
drops least-recently-used entries (by payload mtime) until the directory
is under a byte bound and clears quarantined files older than a cutoff.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import socket
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cache import _freeze, canonicalize_params
from repro.observability import add_counter

__all__ = [
    "DiskArtifactCache",
    "entry_key",
    "atomic_write_bytes",
    "read_jsonl",
    "load_cache_events",
]

# On-disk entry format version; bump on incompatible layout changes.
# A newer-versioned entry is treated as unreadable (quarantined), never
# misparsed.
_ENTRY_VERSION = 1

_PAYLOAD_SUFFIX = ".bin"
_META_SUFFIX = ".json"


def entry_key(digest: bytes, artifact: str,
              params: Optional[Dict[str, object]] = None) -> str:
    """Stable hex key of one cache entry, identical in every process.

    Collapses the in-memory cache's ``(content digest, artifact name,
    canonicalized params)`` tuple into one filesystem-safe name via
    BLAKE2b, so the disk and memory tiers address exactly the same
    artifact space.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(bytes(digest))
    hasher.update(str(artifact).encode("utf-8"))
    hasher.update(repr(canonicalize_params(params)).encode("utf-8"))
    return hasher.hexdigest()


def _checksum(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _fsync_dir(path: Path) -> None:
    """Make a rename durable; best-effort where directories can't be opened."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


_TMP_SERIAL = itertools.count()


def atomic_write_bytes(path: Path, blob: bytes, fsync: bool = True) -> None:
    """Publish ``blob`` at ``path`` via temp file + fsync + atomic rename.

    Readers never observe a partial file: they see either the old content
    or the new, complete content.  The temp file lives in the same
    directory so the rename cannot cross filesystems, and its name is
    unique per call (pid + serial), not just per process — two *threads*
    racing to publish the same path must not share a temp file, or the
    loser renames a file the winner already moved.
    """
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(path.parent)


def read_jsonl(path: Union[str, Path]
               ) -> Tuple[List[Dict[str, object]], int]:
    """The complete entries of an append-only JSONL file.

    A writer may be killed mid-append, so reading stops at the first
    line with no trailing newline (a torn append) or that is not valid
    JSON (a corrupt tail).  Returns the entries before it and the number
    of bytes they span, to which a single writer truncates its file.  An
    unreadable file reads as empty.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return [], 0
    lines = raw.splitlines(keepends=True)
    entries: List[Dict[str, object]] = []
    for line in lines:
        if not line.endswith(b"\n"):
            break
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            break
    else:
        return entries, len(raw)
    # Every line before the stop produced exactly one entry.
    return entries, sum(map(len, lines[:len(entries)]))


class DiskArtifactCache:
    """Shared, persistent, self-healing store of content-addressed artifacts.

    Safe for concurrent use by multiple processes on one directory — no
    locks are taken; atomicity comes entirely from O_EXCL-free temp-file
    + rename publication and content addressing (see the module
    docstring).  Typically used as the ``backing`` tier of an in-memory
    :class:`repro.cache.ArtifactCache`; :meth:`get_or_compute` also
    works standalone.

    Parameters
    ----------
    cache_dir:
        Root directory (created if missing).
    fsync:
        Fsync payloads, metadata, and directories on every store.  On by
        default — the cache's whole point is surviving crashes; tests
        may turn it off for speed.
    """

    def __init__(self, cache_dir: Union[str, Path], fsync: bool = True):
        self.root = Path(cache_dir)
        self.fsync = bool(fsync)
        self.objects_dir = self.root / "objects"
        self.quarantine_dir = self.root / "quarantine"
        self.events_dir = self.root / "events"
        for directory in (self.objects_dir, self.quarantine_dir,
                          self.events_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        self.store_failures = 0

    # -- paths -------------------------------------------------------------

    def _paths(self, key: str) -> Tuple[Path, Path]:
        bucket = self.objects_dir / key[:2]
        return (bucket / f"{key}{_PAYLOAD_SUFFIX}",
                bucket / f"{key}{_META_SUFFIX}")

    def _events_path(self) -> Path:
        # One single-writer event file per process: concurrent workers
        # never interleave partial lines in a shared log.
        return (self.events_dir
                / f"{socket.gethostname()}-{os.getpid()}.jsonl")

    # -- events ------------------------------------------------------------

    def _record_event(self, kind: str, **details) -> None:
        entry = {"kind": kind, "time": time.time(), "pid": os.getpid()}
        entry.update(details)
        line = json.dumps(entry, sort_keys=True) + "\n"
        try:
            with open(self._events_path(), "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
        except OSError:
            # The event log is observability, not correctness; a full or
            # read-only disk must not fail the lookup that triggered it.
            pass

    # -- quarantine --------------------------------------------------------

    def _quarantine(self, key: str, artifact: str, reason: str) -> None:
        """Move a broken entry's files aside; record and count the event.

        ``os.replace`` needs only directory permissions, so even a
        payload we cannot *read* (mode 000) can still be moved out of the
        read path.  Failure to move falls back to unlink; failure to
        unlink is ignored — the checksum gate means a file we cannot
        remove still can never be *served*.
        """
        payload_path, meta_path = self._paths(key)
        stamp = time.time_ns()
        moved = []
        for path in (payload_path, meta_path):
            if not path.exists():
                continue
            target = self.quarantine_dir / f"{key}.{stamp}{path.suffix}"
            try:
                os.replace(path, target)
                moved.append(target.name)
            except OSError:
                try:
                    path.unlink()
                except OSError:
                    pass
        self.quarantined += 1
        add_counter("disk_cache_quarantined")
        self._record_event("entry_quarantined", key=key,
                           artifact=str(artifact), reason=reason,
                           quarantined_files=moved)

    # -- read path ---------------------------------------------------------

    def load(self, graph, artifact: str,
             params: Optional[Dict[str, object]] = None
             ) -> Tuple[bool, Optional[object]]:
        """``(True, value)`` on a verified hit; ``(False, None)`` otherwise.

        Never raises for on-disk breakage: every corruption mode
        (missing metadata, orphan payload, unreadable file, truncation,
        checksum mismatch, unpicklable bytes) quarantines the entry and
        reports a miss so the caller recomputes.
        """
        key = entry_key(graph.content_digest(), artifact, params)
        payload_path, meta_path = self._paths(key)
        if not meta_path.exists():
            if payload_path.exists():
                # A crash between publishing the payload and its metadata
                # (or a manually deleted index entry): the payload alone
                # is unverifiable, so it is quarantined rather than
                # trusted.
                self._quarantine(key, artifact, "orphan payload without "
                                                "metadata")
            return self._miss()
        try:
            meta = json.loads(meta_path.read_bytes())
            version = int(meta.get("version", _ENTRY_VERSION))
            expected = str(meta["checksum"])
        except (OSError, ValueError, KeyError, TypeError):
            self._quarantine(key, artifact, "unreadable or malformed "
                                            "metadata")
            return self._miss()
        if version > _ENTRY_VERSION:
            self._quarantine(
                key, artifact,
                f"entry format version {version} is newer than this "
                f"package reads ({_ENTRY_VERSION})")
            return self._miss()
        try:
            blob = payload_path.read_bytes()
        except FileNotFoundError:
            self._quarantine(key, artifact, "metadata without payload")
            return self._miss()
        except OSError as exc:
            self._quarantine(key, artifact,
                             f"unreadable payload ({type(exc).__name__})")
            return self._miss()
        if _checksum(blob) != expected:
            self._quarantine(key, artifact,
                             "checksum mismatch (truncated or corrupt "
                             "payload)")
            return self._miss()
        try:
            value = pickle.loads(blob)
        except Exception:
            self._quarantine(key, artifact,
                             "payload passed its checksum but failed to "
                             "deserialize")
            return self._miss()
        self.hits += 1
        add_counter("disk_cache_hits")
        return True, _freeze(value)

    def _miss(self) -> Tuple[bool, None]:
        self.misses += 1
        add_counter("disk_cache_misses")
        return False, None

    # -- write path --------------------------------------------------------

    def store(self, graph, artifact: str, value,
              params: Optional[Dict[str, object]] = None) -> bool:
        """Durably publish one artifact; ``False`` (never raises) on failure.

        Payload first, metadata second: a crash between the two leaves
        an orphan payload that the next reader quarantines, never a
        metadata file vouching for bytes that were not fully written.
        """
        key = entry_key(graph.content_digest(), artifact, params)
        payload_path, meta_path = self._paths(key)
        try:
            blob = pickle.dumps(value, protocol=4)
            payload_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(payload_path, blob, fsync=self.fsync)
            meta = {
                "version": _ENTRY_VERSION,
                "checksum": _checksum(blob),
                "artifact": str(artifact),
                "digest": bytes(graph.content_digest()).hex(),
                "params": repr(canonicalize_params(params)),
                "size": len(blob),
                "created_at": time.time(),
            }
            atomic_write_bytes(
                meta_path,
                json.dumps(meta, sort_keys=True).encode("utf-8"),
                fsync=self.fsync)
        except Exception as exc:
            # A full disk or an unpicklable payload must not fail the
            # cell that computed the value — the sweep's answer does not
            # depend on the cache accepting it.
            self.store_failures += 1
            self._record_event("store_failed", key=key,
                              artifact=str(artifact),
                              reason=f"{type(exc).__name__}: {exc}")
            return False
        self.stores += 1
        add_counter("disk_cache_stores")
        add_counter("disk_cache_bytes", len(blob))
        return True

    # -- combined ----------------------------------------------------------

    def get_or_compute(self, graph, artifact: str,
                       producer: Callable[[], object],
                       params: Optional[Dict[str, object]] = None):
        """Standalone read-through: load, else compute + store + return."""
        found, value = self.load(graph, artifact, params)
        if found:
            return value
        value = _freeze(producer())
        self.store(graph, artifact, value, params=params)
        return value

    # -- maintenance -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counters snapshot (this instance) plus on-disk totals (shared)."""
        entries = 0
        payload_bytes = 0
        for payload_path in self.objects_dir.glob(f"*/*{_PAYLOAD_SUFFIX}"):
            try:
                payload_bytes += payload_path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "store_failures": self.store_failures,
            "entries": entries,
            "payload_bytes": payload_bytes,
        }

    def prune_report(self, max_bytes: Optional[int] = None,
                     quarantine_max_age_seconds: Optional[float] = None,
                     dry_run: bool = False) -> Dict[str, object]:
        """GC with a full accounting dict; ``dry_run`` plans without deleting.

        Entries are ranked by payload mtime (reads do not touch mtimes,
        so this is insertion-ordered — a coarse LRU adequate for a
        cross-run cache); eviction continues until payload bytes fit
        under ``max_bytes``.  Quarantined files older than the age
        cutoff are cleared.  The report carries before/after entry and
        byte totals plus what was (or, dry, *would be*) removed — the
        shape ``repro cache prune`` prints.  Safe to run while workers
        are active: a reader that loses the race to a pruned entry sees
        an ordinary miss.
        """
        entries = []
        for payload_path in self.objects_dir.glob(f"*/*{_PAYLOAD_SUFFIX}"):
            try:
                stat = payload_path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, payload_path))
        entries.sort()
        total = sum(size for _, size, _ in entries)
        report: Dict[str, object] = {
            "dry_run": bool(dry_run),
            "entries_before": len(entries),
            "payload_bytes_before": total,
            "entries_removed": 0,
            "bytes_freed": 0,
            "quarantine_files_removed": 0,
            "quarantine_bytes_freed": 0,
        }
        if max_bytes is not None:
            for _, size, payload_path in entries:
                if total <= max_bytes:
                    break
                if not dry_run:
                    meta_path = payload_path.with_suffix(_META_SUFFIX)
                    for path in (meta_path, payload_path):
                        try:
                            path.unlink()
                        except OSError:
                            pass
                total -= size
                report["entries_removed"] += 1
                report["bytes_freed"] += size
        if quarantine_max_age_seconds is not None:
            cutoff = time.time() - quarantine_max_age_seconds
            for path in self.quarantine_dir.iterdir():
                try:
                    stat = path.stat()
                    if stat.st_mtime >= cutoff:
                        continue
                    if not dry_run:
                        path.unlink()
                except OSError:
                    continue
                report["quarantine_files_removed"] += 1
                report["quarantine_bytes_freed"] += stat.st_size
        report["entries_after"] = (report["entries_before"]
                                   - report["entries_removed"])
        report["payload_bytes_after"] = total
        if not dry_run and (report["entries_removed"]
                            or report["quarantine_files_removed"]):
            self._record_event("cache_pruned", **report)
        return report

    def prune(self, max_bytes: Optional[int] = None,
              quarantine_max_age_seconds: Optional[float] = None,
              dry_run: bool = False) -> int:
        """GC: evict LRU entries over a byte bound; clear old quarantine.

        Returns the number of entries removed (quarantine clearances not
        counted); see :meth:`prune_report` for the full accounting and
        the dry-run planner.
        """
        return int(self.prune_report(
            max_bytes=max_bytes,
            quarantine_max_age_seconds=quarantine_max_age_seconds,
            dry_run=dry_run,
        )["entries_removed"])

    def __repr__(self) -> str:
        return (f"DiskArtifactCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores}, "
                f"quarantined={self.quarantined})")


def load_cache_events(cache_dir: Union[str, Path]) -> List[Dict[str, object]]:
    """Merge every process's recovery-event file, oldest first.

    Tolerates truncated trailing lines (a process may have died
    mid-append); complete lines before a torn one are kept.
    """
    events: List[Dict[str, object]] = []
    events_dir = Path(cache_dir) / "events"
    if not events_dir.is_dir():
        return events
    for path in sorted(events_dir.glob("*.jsonl")):
        events.extend(read_jsonl(path)[0])
    events.sort(key=lambda entry: entry.get("time", 0.0))
    return events
