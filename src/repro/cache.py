"""Content-addressed artifact cache for expensive per-graph intermediates.

The sweep runner executes all algorithms of one cell against the *same*
:class:`~repro.noise.GraphPair`, yet each algorithm independently
recomputes the per-graph intermediates they share: normalized
Laplacians, Laplacian eigenpairs (GRASP), stochastic normalizations
(IsoRank/NSD), the degree prior, embedding bases.  This module caches
those artifacts once per cell so the second consumer gets a lookup
instead of an eigendecomposition.

Keys are *content-addressed*: ``(Graph.content_digest(), artifact_name,
canonicalized parameters)``.  The digest is a deterministic BLAKE2b over
the graph's node count and canonical edge bytes
(:meth:`repro.graphs.Graph.content_digest`), so the cache never depends
on object identity or on Python's per-process salted ``hash()`` — two
processes (or two builds of the same graph) agree on every key.

The design mirrors :mod:`repro.observability.trace`:

* producers are wrapped unconditionally via :func:`cached_artifact`,
  which is a pure pass-through (one boolean check, then the producer)
  unless caching is enabled *and* a cache scope is active;
* :func:`caching` is the off-by-default toggle (the ``cache`` field of
  the current :class:`~repro.context.RunContext`);
  :func:`artifact_cache` opens a collection scope holding one
  :class:`ArtifactCache` — the harness opens one per sweep instance when
  ``ExperimentConfig(cache=True)`` (CLI ``--cache``) asks for it;
* the toggle and the scopes are per-thread, which keeps serial and
  parallel sweeps structurally identical in what they share (one cache
  per instance, never across instances).

Cached values are **frozen** (numpy arrays and scipy sparse buffers are
marked read-only) before being stored or returned: every consumer gets
the same object, so an in-place mutation by one algorithm would
otherwise silently poison every later consumer.  A consumer that does
try to write raises ``ValueError: assignment destination is read-only``
instead — loud, at the offending line.  Producers must therefore be
pure functions of ``(graph, params)``; anything seeded or randomized
does not belong in this cache.

The cache is LRU-bounded by payload bytes (:class:`ArtifactCache`'s
``max_bytes``); an artifact larger than the whole bound is returned
uncached rather than evicting everything else.  Every event feeds both
the instance's own :meth:`~ArtifactCache.stats` and the observability
counters ``cache_hits`` / ``cache_misses`` / ``cache_evictions`` /
``cache_bytes`` (no-ops unless tracing is on, like every counter).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, ContextManager, Dict, Iterator, Optional, Tuple

from repro.context import RunContext, current_context
from repro.observability import add_counter

__all__ = [
    "ArtifactCache",
    "artifact_cache",
    "active_cache",
    "cached_artifact",
    "caching",
    "caching_enabled",
    "canonicalize_params",
    "DEFAULT_MAX_BYTES",
]

# Default LRU byte bound per cache instance (per sweep cell).  Generous
# for the benchmark's graph sizes — a full dense eigenbasis of the
# largest quick/medium-profile graph fits many times over — while
# bounding a pathological cell.
DEFAULT_MAX_BYTES = 256 * 2 ** 20


def caching_enabled() -> bool:
    """Whether the current run context caches."""
    return current_context().cache


def caching(flag: bool = True) -> ContextManager[RunContext]:
    """Scope: the current run context with ``cache`` set to ``flag``."""
    return replace(current_context(), cache=bool(flag)).enter()


class _CacheState(threading.local):
    """Per-thread stack of open cache scopes."""

    def __init__(self):
        self.stack = []


_STATE = _CacheState()


# ----------------------------------------------------------------------
# Key canonicalization


def canonicalize_params(params: Optional[Dict[str, object]]) -> Tuple:
    """A hashable, process-stable form of a producer's parameters.

    Sorted by key; values are reduced to canonical primitives — numpy
    scalars to Python scalars, floats through ``repr`` (the shortest
    round-tripping spelling, identical on every platform), sequences to
    tuples, recursively.  Two parameter dicts that would drive a pure
    producer identically canonicalize identically.
    """
    if not params:
        return ()
    return tuple(
        (str(key), _canonical_value(params[key])) for key in sorted(params)
    )


def _canonical_value(value) -> object:
    if value is None or isinstance(value, (bool, str, bytes)):
        return value
    # numpy scalars expose item(); plain ints/floats pass through the
    # same branches below.
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        value = value.item()
    if isinstance(value, bool):  # re-check: np.bool_.item() is bool
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return ("f", repr(float(value)))
    if isinstance(value, (tuple, list)) or (
            hasattr(value, "__len__") and hasattr(value, "__iter__")
            and not isinstance(value, dict)):
        return tuple(_canonical_value(item) for item in value)
    if isinstance(value, dict):
        return tuple(
            (str(key), _canonical_value(value[key])) for key in sorted(value)
        )
    raise TypeError(
        f"cannot canonicalize cache parameter of type {type(value).__name__}"
    )


# ----------------------------------------------------------------------
# Freezing and sizing payloads


def _freeze(value):
    """Mark a payload's buffers read-only (recursively for containers).

    Dense arrays get ``writeable=False``; scipy sparse matrices get
    their ``data``/``indices``/``indptr`` (or ``row``/``col``) buffers
    frozen.  Scalars and strings pass through.  This is what guarantees
    one consumer's in-place edit cannot poison the next consumer.
    """
    if isinstance(value, tuple):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    if hasattr(value, "setflags"):  # numpy ndarray
        value.setflags(write=False)
        return value
    for attr in ("data", "indices", "indptr", "row", "col"):
        buf = getattr(value, attr, None)
        if buf is not None and hasattr(buf, "setflags"):
            buf.setflags(write=False)
    return value


def _payload_bytes(value) -> int:
    """Best-effort byte size of a cached payload."""
    if isinstance(value, (tuple, list)):
        return sum(_payload_bytes(item) for item in value)
    if hasattr(value, "nbytes") and not hasattr(value, "indptr"):
        return int(value.nbytes)
    total = 0
    for attr in ("data", "indices", "indptr", "row", "col"):
        buf = getattr(value, attr, None)
        if buf is not None and hasattr(buf, "nbytes"):
            total += int(buf.nbytes)
    if total:
        return total
    return int(sys.getsizeof(value))


# ----------------------------------------------------------------------
# The cache proper


class ArtifactCache:
    """Content-addressed, LRU-byte-bounded store of frozen artifacts.

    One instance is scoped per sweep cell by the harness; standalone use
    (benchmarks, tests) goes through :func:`artifact_cache`.

    Parameters
    ----------
    max_bytes:
        LRU bound on the summed payload bytes.  An artifact exceeding
        the whole bound is returned to the caller *uncached*.
    backing:
        Optional second tier consulted on memory misses — anything with
        the ``load(graph, artifact, params) -> (found, value)`` /
        ``store(graph, artifact, value, params)`` protocol, in practice
        a :class:`repro.cache_disk.DiskArtifactCache`.  A backing hit
        avoids the producer; a produced value is pushed down so other
        processes (and future runs) can reuse it.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES, backing=None):
        if int(max_bytes) <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.backing = backing
        self._entries: "OrderedDict[Tuple, Tuple[object, int]]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.current_bytes = 0
        self.inserted_bytes = 0
        self._by_artifact: Dict[str, Dict[str, int]] = {}

    # -- internals ---------------------------------------------------------

    def _key(self, graph, artifact: str, params) -> Tuple:
        return (graph.content_digest(), str(artifact),
                canonicalize_params(params))

    def _count(self, artifact: str, event: str) -> None:
        per = self._by_artifact.setdefault(
            str(artifact), {"hits": 0, "misses": 0})
        per[event] += 1

    def _evict_over_bound(self) -> None:
        while self.current_bytes > self.max_bytes and self._entries:
            _key, (_value, size) = self._entries.popitem(last=False)
            self.current_bytes -= size
            self.evictions += 1
            add_counter("cache_evictions")

    # -- public API --------------------------------------------------------

    def get_or_compute(self, graph, artifact: str,
                       producer: Callable[[], object],
                       params: Optional[Dict[str, object]] = None):
        """The artifact for ``(graph, artifact, params)``; computed on miss.

        On a hit the stored (frozen) value is returned and the entry
        becomes most-recently-used.  On a miss ``producer()`` runs
        *outside* the lock (producers may recurse into the cache for
        sub-artifacts), the result is frozen, stored, and the LRU bound
        enforced by evicting least-recently-used entries.

        With a ``backing`` tier, a memory miss first consults it (still
        counted as a memory miss — the per-tier split lives in the
        backing's own stats); only a miss in *both* tiers runs the
        producer, whose result is pushed down to the backing store.
        """
        key = self._key(graph, artifact, params)
        with self._lock:
            if key in self._entries:
                value, size = self._entries.pop(key)
                self._entries[key] = (value, size)  # most-recently-used
                self.hits += 1
                self._count(artifact, "hits")
                add_counter("cache_hits")
                return value
        value = None
        from_backing = False
        if self.backing is not None:
            from_backing, value = self.backing.load(graph, artifact, params)
        if not from_backing:
            value = _freeze(producer())
            if self.backing is not None:
                self.backing.store(graph, artifact, value, params=params)
        else:
            value = _freeze(value)
        size = _payload_bytes(value)
        with self._lock:
            self.misses += 1
            self._count(artifact, "misses")
            add_counter("cache_misses")
            if size <= self.max_bytes and key not in self._entries:
                self._entries[key] = (value, size)
                self.current_bytes += size
                self.inserted_bytes += size
                add_counter("cache_bytes", size)
                self._evict_over_bound()
        return value

    def stats(self) -> Dict[str, object]:
        """Counters snapshot: totals plus per-artifact hit/miss splits."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "current_bytes": self.current_bytes,
                "inserted_bytes": self.inserted_bytes,
                "by_artifact": {name: dict(split)
                                for name, split in self._by_artifact.items()},
            }

    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry (stats are preserved; no eviction counted)."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (f"ArtifactCache(entries={len(self._entries)}, "
                f"bytes={self.current_bytes}/{self.max_bytes}, "
                f"hits={self.hits}, misses={self.misses})")


# ----------------------------------------------------------------------
# Scope plumbing


def active_cache() -> Optional[ArtifactCache]:
    """The innermost open cache, or ``None`` when caching is inert.

    ``None`` unless the current run context caches *and* a scope is
    active — the same double gate the tracing layer uses, so
    instrumented producers cost one boolean check in normal runs.
    """
    if not (current_context().cache and _STATE.stack):
        return None
    return _STATE.stack[-1]


@contextmanager
def artifact_cache(
    cache: Optional[ArtifactCache] = None,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> Iterator[ArtifactCache]:
    """Open a cache scope; yields the (possibly fresh) cache.

    Only effective while the current run context caches (see
    :func:`caching`).  Scopes nest: the
    innermost cache serves lookups, and leaving the scope restores the
    outer one — a cell-scoped cache can never leak artifacts into the
    next cell.
    """
    opened = cache if cache is not None else ArtifactCache(max_bytes=max_bytes)
    _STATE.stack.append(opened)
    try:
        yield opened
    finally:
        _STATE.stack.remove(opened)


def cached_artifact(graph, artifact: str, producer: Callable[[], object],
                    params: Optional[Dict[str, object]] = None):
    """Route one producer through the active cache (pass-through if none).

    This is the call producers embed: with caching off (the default) it
    costs one boolean check and then runs ``producer()`` directly — the
    value is *not* frozen, preserving the uncached functions' historical
    mutability contracts bit-for-bit.
    """
    cache = active_cache()
    if cache is None:
        return producer()
    return cache.get_or_compute(graph, artifact, producer, params=params)
