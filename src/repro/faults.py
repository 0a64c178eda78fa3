"""Fault injection for hardening the experiment harness.

The sweeps behind the paper's figures run hundreds of cells; the harness
must convert *any* single-cell breakdown into a failed record instead of
dying.  This module makes those breakdowns reproducible on demand: a
context manager wraps any registered algorithm so its similarity stage
raises, hangs, or allocates without bound on chosen calls.  The fault
suite uses it to prove end-to-end that journaled sweeps, budgets, and
retries survive every failure mode.

::

    with inject_fault("isorank", FaultSpec(mode="raise",
                                           exc=LinAlgError("injected"))):
        record = run_cell("isorank", pair, "arenas", 0)
    assert record.failed

Because the budget runner forks its children, an injected fault is
inherited by child processes too — a ``hang`` fault exercises the
wall-clock kill path and an ``allocate`` fault the memory cap.  Call
counts are per process: each forked child starts from the parent's count
at fork time.

Two modes exercise the graceful-degradation layer rather than the
process-level machinery:

* ``"nan"`` poisons the similarity matrix the real algorithm computed
  (first row set to NaN), proving the numerical watchdog fires — the cell
  degrades (sanitize policy) or fails (strict policy) instead of quietly
  producing a meaningless alignment;
* ``"disconnect"`` splits both input graphs into two components before
  the run, proving the preflight contract fires for
  connectivity-requiring algorithms (``requires_connected``).  For this
  mode the call counter counts ``align()`` invocations, since the fault
  must act before the similarity stage.

Three modes target the multi-process sweep and the disk cache
(:mod:`repro.harness.scheduler`, :mod:`repro.cache_disk`):

* ``"kill_worker"`` SIGKILLs the *current process* mid-similarity — the
  worker vanishes mid-instance, exactly like an OOM-killed or preempted
  worker, and the supervisor must re-queue the cell in flight;
* ``"stale_lease"`` suppresses the process's heartbeats
  (:func:`repro.harness.scheduler.suppress_heartbeats`; only sweep
  workers send heartbeats) and then hangs, so a perfectly alive worker
  looks hung; the supervisor must SIGKILL it and re-queue the cell;
* ``"corrupt_cache"`` runs the real similarity stage and then flips a
  byte in one committed disk-cache payload under ``spec.cache_dir``
  (see :func:`corrupt_random_cache_entry`) — the next reader must
  quarantine and recompute, never crash or return poisoned data.

Faults injected before a fork are inherited per-process, so in a
``workers`` sweep *every* worker would fire an ``on_call=1`` kill —
including each respawned replacement, forever.
``FaultSpec.trigger_file`` bounds this: when set, the fault additionally
requires winning an ``O_EXCL`` create of that file, making it one-shot
across the whole fleet.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

import numpy as np
from scipy import sparse as _sparse

from repro.algorithms.base import ALGORITHM_REGISTRY
from repro.exceptions import ConvergenceError, ExperimentError
from repro.graphs.graph import Graph

__all__ = ["FaultSpec", "FaultHandle", "inject_fault", "claim_trigger",
           "corrupt_random_cache_entry"]

_MODES = ("raise", "hang", "allocate", "nan", "disconnect",
          "kill_worker", "stale_lease", "corrupt_cache")

# Per-process call counts, keyed by algorithm name (lowercase).
_CALL_COUNTS: Dict[str, int] = {}


@dataclass(frozen=True)
class FaultSpec:
    """What to inject and when.

    Attributes
    ----------
    mode:
        ``"raise"`` raises ``exc``; ``"hang"`` sleeps ``hang_seconds``
        (long past any test budget); ``"allocate"`` grows memory until
        the process's limit raises :class:`MemoryError` (or until
        ``allocate_limit_bytes``, as a safety valve on uncapped hosts);
        ``"nan"`` runs the real similarity stage then poisons its output
        with NaN (exercises the numerical watchdog); ``"disconnect"``
        splits both input graphs into two components before the run
        (exercises preflight contracts).
    on_call:
        1-indexed call that triggers the fault; ``None`` triggers on
        every call.  Non-triggering calls run the real algorithm
        untouched.  For ``"disconnect"`` the counter counts ``align()``
        invocations; for all other modes it counts similarity calls.
    trigger_file:
        When set, a triggering call must *also* win an atomic
        ``O_EXCL`` create of this path for the fault to fire — one shot
        across every process that inherited the injection (the file is
        the claim).  Required for ``"kill_worker"``/``"stale_lease"``
        in ``workers`` sweeps, where respawned workers re-inherit the
        fault.
    cache_dir:
        The disk-cache root the ``"corrupt_cache"`` mode corrupts
        (required for that mode, unused otherwise).
    """

    mode: str = "raise"
    on_call: Optional[int] = 1
    exc: BaseException = field(
        default_factory=lambda: ConvergenceError("injected fault")
    )
    hang_seconds: float = 3600.0
    allocate_limit_bytes: int = 8 * 2 ** 30
    trigger_file: Optional[str] = None
    cache_dir: Optional[str] = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ExperimentError(
                f"unknown fault mode {self.mode!r}; choose from {_MODES}"
            )
        if self.on_call is not None and self.on_call < 1:
            raise ExperimentError(
                f"on_call is 1-indexed, got {self.on_call}"
            )
        if self.mode == "corrupt_cache" and not self.cache_dir:
            raise ExperimentError(
                "the corrupt_cache fault needs cache_dir: the disk cache "
                "root whose entries it flips bytes in"
            )

    def triggers(self, call_number: int) -> bool:
        return self.on_call is None or call_number == self.on_call


class FaultHandle:
    """Live view of an injection: how often the wrapped stage ran."""

    def __init__(self, key: str):
        self._key = key

    @property
    def calls(self) -> int:
        """Counted calls seen so far in *this* process.

        Similarity calls for most modes; ``align()`` calls for the
        ``"disconnect"`` mode.
        """
        return _CALL_COUNTS.get(self._key, 0)


def _poison_similarity(similarity):
    """Real similarity output with its first row overwritten by NaN."""
    dense = (similarity.toarray() if _sparse.issparse(similarity)
             else np.array(similarity, dtype=np.float64, copy=True))
    if dense.size:
        dense[0, :] = np.nan
    return dense


def _split_components(graph: Graph) -> Graph:
    """The graph with every edge crossing its node-index midpoint removed.

    Guarantees at least two connected components for any graph with two
    or more nodes (each half is non-empty and nothing joins them);
    graphs smaller than that are returned unchanged.
    """
    n = graph.num_nodes
    if n < 2:
        return graph
    edges = graph.edges()
    half = n // 2
    same_side = (edges[:, 0] < half) == (edges[:, 1] < half)
    return Graph(n, edges[same_side])


def claim_trigger(spec: FaultSpec) -> bool:
    """Whether this process wins the right to fire a one-shot fault.

    With no ``trigger_file`` every triggering call fires (historical
    behavior).  With one, the atomic ``O_EXCL`` create is the claim:
    exactly one process across the fleet — including workers respawned
    after the casualty — ever wins it.
    """
    if spec.trigger_file is None:
        return True
    try:
        fd = os.open(spec.trigger_file,
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    try:
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
    finally:
        os.close(fd)
    return True


def corrupt_random_cache_entry(cache_dir, seed: int = 0) -> Optional[Path]:
    """Flip one byte mid-payload in one committed disk-cache entry.

    Picks deterministically (by ``seed``) among the ``objects/**/*.bin``
    payloads so chaos runs are reproducible; returns the corrupted path,
    or ``None`` when the cache holds no payloads yet.  The flip lands in
    the middle of the file — sizes and metadata stay valid, so only the
    checksum verification on read can catch it.
    """
    payloads = sorted(Path(cache_dir).glob("objects/*/*.bin"))
    if not payloads:
        return None
    target = payloads[random.Random(int(seed)).randrange(len(payloads))]
    blob = bytearray(target.read_bytes())
    if not blob:
        return None
    blob[len(blob) // 2] ^= 0xFF
    target.write_bytes(bytes(blob))
    return target


def _fire(spec: FaultSpec) -> None:
    if spec.mode == "raise":
        raise spec.exc
    if spec.mode == "hang":
        time.sleep(spec.hang_seconds)
        raise ConvergenceError("injected hang elapsed without being killed")
    if spec.mode == "kill_worker":
        # Die the way the scheduler must survive: no cleanup, no exception
        # path, the cell left unfinished exactly as a SIGKILLed worker
        # leaves it.
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)  # unreachable; SIGKILL cannot be handled
        raise ExperimentError("SIGKILL to self did not terminate")
    if spec.mode == "stale_lease":
        # Look hung without being dead: stop the heartbeats, then stall.
        # In a ``workers`` sweep the supervisor SIGKILLs us mid-sleep;
        # anywhere else the stall ends as an ordinary transient failure.
        from repro.harness.scheduler import suppress_heartbeats
        suppress_heartbeats(True)
        time.sleep(spec.hang_seconds)
        raise ConvergenceError(
            "injected stale lease elapsed without the supervisor killing us"
        )
    # mode == "allocate": grow until the rlimit (or the safety valve) bites.
    hoard = []
    chunk = 16 * 2 ** 20  # 16 MiB of float64 per step
    while sum(block.nbytes for block in hoard) < spec.allocate_limit_bytes:
        hoard.append(np.ones(chunk // 8, dtype=np.float64))
    raise MemoryError(
        "injected allocation reached the safety valve "
        f"({spec.allocate_limit_bytes} bytes) without hitting a limit"
    )


class inject_fault:
    """Context manager: make a registered algorithm misbehave on demand.

    Swaps the algorithm's registry entry for a subclass whose
    ``_similarity`` fires the :class:`FaultSpec` on triggering calls and
    defers to the real implementation otherwise.  The original class is
    restored (and the call count cleared) on exit, even on error.
    """

    def __init__(self, algorithm_name: str, spec: FaultSpec):
        self.key = algorithm_name.lower()
        self.spec = spec
        self._original = None

    def __enter__(self) -> FaultHandle:
        if self.key not in ALGORITHM_REGISTRY:
            raise ExperimentError(
                f"cannot inject fault into unknown algorithm {self.key!r}"
            )
        self._original = ALGORITHM_REGISTRY[self.key]
        _CALL_COUNTS[self.key] = 0
        key, spec, original = self.key, self.spec, self._original

        class _Faulty(original):
            def align(self, source, target, **kwargs):
                if spec.mode == "disconnect":
                    _CALL_COUNTS[key] = _CALL_COUNTS.get(key, 0) + 1
                    if spec.triggers(_CALL_COUNTS[key]):
                        source = _split_components(source)
                        target = _split_components(target)
                return super().align(source, target, **kwargs)

            def _similarity(self, source, target, rng):
                if spec.mode == "disconnect":
                    # counted at align() level; run the real stage
                    return super()._similarity(source, target, rng)
                _CALL_COUNTS[key] = _CALL_COUNTS.get(key, 0) + 1
                if spec.triggers(_CALL_COUNTS[key]) and claim_trigger(spec):
                    if spec.mode == "nan":
                        sim = super()._similarity(source, target, rng)
                        return _poison_similarity(sim)
                    if spec.mode == "corrupt_cache":
                        # The real stage populates the disk cache; flip a
                        # byte in whatever it committed so the *next*
                        # reader must quarantine and recompute.
                        sim = super()._similarity(source, target, rng)
                        corrupt_random_cache_entry(spec.cache_dir,
                                                   seed=_CALL_COUNTS[key])
                        return sim
                    _fire(spec)
                return super()._similarity(source, target, rng)

        _Faulty.__name__ = f"Faulty{original.__name__}"
        ALGORITHM_REGISTRY[self.key] = _Faulty
        return FaultHandle(self.key)

    def __exit__(self, *exc_info) -> None:
        if self._original is not None:
            ALGORITHM_REGISTRY[self.key] = self._original
            self._original = None
        _CALL_COUNTS.pop(self.key, None)
