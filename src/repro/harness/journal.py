"""Write-ahead journal for resumable experiment sweeps.

The paper's Table-3 bookkeeping ("does each algorithm finish within
3 hours / 256 GB") presumes sweeps that survive individual breakdowns.
This module makes the sweep itself crash-tolerant: every completed
:class:`~repro.harness.results.RunRecord` is appended to a JSON-lines
file *before* the sweep moves on, so killing the process at any point
loses at most the cell in flight.  Re-running the same experiment with
the same journal path skips every journaled cell and finishes the rest.

Format — one JSON object per line:

* an optional header line ``{"kind": "header", "version": 3,
  "fingerprint": ...}`` pinning the experiment configuration, so a
  journal cannot silently be resumed with different settings;
* record lines ``{"kind": "record", "key": ..., "record": {...}}``
  where ``key`` identifies the (dataset × noise type × level ×
  repetition × algorithm) cell and ``record`` is
  :meth:`RunRecord.to_dict` output;
* stats lines ``{"kind": "stats", "key": ..., "entry": {...}}`` —
  journaled permutation/bootstrap units (:mod:`repro.stats`), written
  by convention into a ``<path>.stats`` side-car journal so the raw
  per-repetition records and the statistics derived from them resume
  independently.

A crash mid-append leaves a truncated last line; on open the journal
drops it (the cell simply reruns) and truncates the file back to the
last complete line before appending again.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.cache_disk import read_jsonl
from repro.exceptions import ExperimentError
from repro.harness.results import RunRecord

__all__ = ["canonical_noise_level", "cell_key", "config_fingerprint",
           "RunJournal"]

# On-disk format version.  History:
#   1 — initial header + record lines;
#   2 — records may carry a serialized stage trace (``"trace"`` key);
#   3 — journals may carry ``stats`` lines (journaled permutation/
#       bootstrap units, see :mod:`repro.stats`); by convention these
#       live in a ``<path>.stats`` side-car journal so run records and
#       statistics stay independently resumable.
# Older journals load unchanged (v1 records simply have no trace, v1/v2
# journals simply have no stats); journals written by a *newer* format
# are refused rather than silently misread — a v2 reader would drop v3
# stats lines on the floor, which is exactly the silent misread the
# version gate exists to prevent.
_FORMAT_VERSION = 3


def canonical_noise_level(noise_level: float) -> str:
    """The one fixed-precision spelling of a noise level.

    Every identity derived from a noise level — journal cell keys *and*
    per-cell noise seeds — must go through this function.  Using two
    different precisions (keys at 6 decimals, seeds at 3) once let two
    levels distinct at the 4th decimal get separate journal keys while
    producing byte-identical noise pairs.
    """
    return f"{float(noise_level):.6f}"


def cell_key(dataset: str, noise_type: str, noise_level: float,
             repetition: int, algorithm: str) -> str:
    """Canonical identity of one sweep cell, stable across processes.

    Noise levels are printed with fixed precision so float formatting
    differences can never split one logical cell into two keys.
    """
    return "|".join((
        str(dataset),
        str(noise_type),
        canonical_noise_level(noise_level),
        str(int(repetition)),
        str(algorithm),
    ))


def config_fingerprint(config) -> str:
    """Stable digest of an :class:`ExperimentConfig`'s identity.

    Covers every axis that changes which cells a sweep contains, how they
    are seeded, or what each cell computes — including per-algorithm
    hyperparameters, so a journal written under one set of
    ``algorithm_params`` cannot silently absorb records produced under
    another.  Deliberately excludes execution knobs (budgets, retries,
    memory tracking, worker count) so hardening or parallelizing a rerun
    does not orphan an existing journal.  ``strict_numerics`` *is*
    covered (only when enabled, so fingerprints of default-policy configs
    are unchanged): under the strict policy a cell that would merely
    degrade fails instead, and a journal must not mix the two regimes.
    """
    payload = {
        "name": config.name,
        "algorithms": list(config.algorithms),
        "algorithm_params": {
            str(name): params
            for name, params in sorted(config.algorithm_params.items())
            if params  # empty/None param sets equal "no overrides"
        },
        "assignment": config.assignment,
        "noise_types": list(config.noise_types),
        "noise_levels": [canonical_noise_level(l)
                         for l in config.noise_levels],
        "repetitions": int(config.repetitions),
        "measures": list(config.measures),
        "seed": int(config.seed),
    }
    if getattr(config, "strict_numerics", False):
        payload["strict_numerics"] = True
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=repr)
    return hashlib.blake2b(canonical.encode("utf-8"),
                           digest_size=16).hexdigest()


class RunJournal:
    """Append-only JSONL journal of completed sweep cells.

    Open it on a fresh path to start journaling; open it on an existing
    path to resume — previously journaled records are available through
    :meth:`get` / :attr:`records` and membership tests, and new appends
    continue the same file.  Every append is flushed and fsynced before
    returning, making the journal a true write-ahead log.

    A journal has exactly **one writer: the process that opened it**.
    The sweep scheduler keeps this invariant by having its workers send
    their records over pipes to the supervisor, which alone appends them
    to the caller's journal; concurrent appends from multiple processes
    would interleave partial lines and corrupt the log.  :meth:`append` asserts the invariant, so a journal object
    smuggled into a forked child fails loudly instead.
    """

    def __init__(self, path: Union[str, Path],
                 fingerprint: Optional[str] = None):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._records: Dict[str, RunRecord] = {}
        self._stats: Dict[str, Dict] = {}
        self._handle = None
        self._owner_pid = os.getpid()
        self._load()

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        if not self.path.exists():
            return
        # A torn or corrupt tail from a crash mid-append is dropped: only
        # the complete prefix before it is kept.
        entries, good_bytes = read_jsonl(self.path)
        header_seen = False
        for entry in entries:
            kind = entry.get("kind")
            if kind == "header" and not header_seen:
                header_seen = True
                self._check_header(entry)
            elif kind == "record":
                record = RunRecord.from_dict(entry["record"])
                self._records[entry["key"]] = record
            elif kind == "stats":
                self._stats[entry["key"]] = dict(entry["entry"])
        if good_bytes < self.path.stat().st_size:
            with open(self.path, "r+b") as handle:
                handle.truncate(good_bytes)

    def _check_header(self, entry: Dict) -> None:
        version = int(entry.get("version", 1))
        if version > _FORMAT_VERSION:
            raise ExperimentError(
                f"journal {self.path} uses format version {version} but "
                f"this package reads at most {_FORMAT_VERSION}; upgrade "
                "the package or use a fresh journal path"
            )
        theirs = entry.get("fingerprint")
        if (self.fingerprint is not None and theirs is not None
                and theirs != self.fingerprint):
            raise ExperimentError(
                f"journal {self.path} was written for a different experiment "
                f"configuration (fingerprint {theirs} != {self.fingerprint}); "
                "use a fresh journal path or the original configuration"
            )
        if self.fingerprint is None:
            self.fingerprint = theirs

    # -- writing -----------------------------------------------------------

    def _ensure_open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._handle = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._write_line({
                    "kind": "header",
                    "version": _FORMAT_VERSION,
                    "fingerprint": self.fingerprint,
                })
        return self._handle

    def _write_line(self, entry: Dict) -> None:
        # Keys keep the order the entry was built in, so a record read
        # back (a resumed cell, or any cell of a ``workers`` sweep)
        # is the record that was written, down to its dicts' key order.
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, key: str, record: RunRecord) -> None:
        """Durably journal one completed cell (idempotent per key).

        Only the process that opened the journal may append: a JSONL
        write-ahead log tolerates exactly one writer.
        """
        if os.getpid() != self._owner_pid:
            raise ExperimentError(
                f"journal {self.path} is owned by pid "
                f"{self._owner_pid} but append was called from pid "
                f"{os.getpid()} — an open journal crossed a fork/spawn "
                "boundary; stream records back to the owning process, as "
                "the workers of repro.harness.scheduler do"
            )
        if key in self._records:
            return
        self._ensure_open()
        self._write_line({
            "kind": "record",
            "key": key,
            "record": record.to_dict(),
        })
        self._records[key] = record

    def append_stats(self, key: str, entry: Dict) -> None:
        """Durably journal one statistics unit (idempotent per key).

        ``entry`` is a JSON-serializable dict (a
        :class:`repro.stats.comparisons.GroupStat`/``ComparisonStat``
        ``to_dict`` payload).  Same single-writer contract as
        :meth:`append`.
        """
        if os.getpid() != self._owner_pid:
            raise ExperimentError(
                f"journal {self.path} is owned by pid {self._owner_pid} "
                f"but append_stats was called from pid {os.getpid()} — "
                "stream stats entries back to the owning process instead"
            )
        if key in self._stats:
            return
        self._ensure_open()
        self._write_line({
            "kind": "stats",
            "key": key,
            "entry": entry,
        })
        self._stats[key] = dict(entry)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -----------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> Optional[RunRecord]:
        return self._records.get(key)

    @property
    def keys(self) -> List[str]:
        return list(self._records)

    @property
    def records(self) -> List[RunRecord]:
        return list(self._records.values())

    def get_stats(self, key: str) -> Optional[Dict]:
        """A journaled statistics entry by key (``None`` if absent)."""
        entry = self._stats.get(key)
        return dict(entry) if entry is not None else None

    @property
    def stats_keys(self) -> List[str]:
        return list(self._stats)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records.values())

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"RunJournal({str(self.path)!r}, {len(self)} records)"
