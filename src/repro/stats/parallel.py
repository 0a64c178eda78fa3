"""Fork-based fan-out for stats units — bit-identical to serial.

Permutation and bootstrap resampling is an embarrassingly parallel
inner sweep; this module runs it on a fork (where available) process
pool fed by a task queue, results streamed back over a result queue,
and the **parent as the single journal writer**.  Bit-identity with a
serial run is structural, not lucky: every unit computes from its own
BLAKE2b-derived seed through chunk-indexed RNG streams
(:mod:`repro.stats.resampling`), so which worker computes which unit —
or in which order — cannot change a drawn resample.

A unit that raises inside a worker is shipped back as an error and
re-raised in the parent: statistics units are pure functions of
validated vectors, so an exception here is a bug, not a per-cell
failure to bookkeep.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
from typing import Dict, Iterator, List, Tuple

from repro.exceptions import ExperimentError
from repro.stats.comparisons import StatsConfig, compute_unit

__all__ = ["compute_units_parallel"]


def _pool_context():
    """``fork`` where available (workers inherit the vectors for free)."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _stats_worker(task_queue, result_queue, config: StatsConfig) -> None:
    """Pool-worker body: compute units until the ``None`` sentinel."""
    while True:
        task = task_queue.get()
        if task is None:
            break
        kind, key, seed, payload = task
        try:
            entry = compute_unit(kind, seed, payload, config)
            result_queue.put((key, entry, None))
        except Exception as exc:  # re-raised in the parent
            result_queue.put((key, None, f"{type(exc).__name__}: {exc}"))


def compute_units_parallel(
    units: List[Tuple[str, str, int, Dict]],
    config: StatsConfig,
    progress=None,
) -> Iterator[Tuple[str, Dict[str, object]]]:
    """Compute ``(kind, key, seed, payload)`` units on a process pool.

    Yields ``(key, entry)`` as units complete (collection order is
    irrelevant — entries are keyed, and the values are bit-identical to
    a serial computation).  The caller journals; workers never touch
    the journal, preserving the single-writer invariant.
    """
    if not units:
        return
    ctx = _pool_context()
    task_queue = ctx.Queue()
    result_queue = ctx.Queue()
    n_workers = max(1, min(int(config.workers), len(units)))
    for unit in units:
        task_queue.put(unit)
    for _ in range(n_workers):
        task_queue.put(None)
    workers = [
        ctx.Process(target=_stats_worker,
                    args=(task_queue, result_queue, config))
        for _ in range(n_workers)
    ]
    for worker in workers:
        worker.start()
    try:
        received = 0
        while received < len(units):
            try:
                key, entry, error = result_queue.get(timeout=1.0)
            except queue_module.Empty:
                if not any(worker.is_alive() for worker in workers):
                    raise ExperimentError(
                        f"all stats workers exited with "
                        f"{len(units) - received} units outstanding"
                    )
                continue
            received += 1
            if error is not None:
                raise ExperimentError(
                    f"stats unit {key!r} failed in a worker: {error}")
            if progress is not None:
                progress(key)
            yield key, entry
        for worker in workers:
            worker.join()
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join()
