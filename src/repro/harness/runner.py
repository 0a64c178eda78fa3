"""Executing experiment cells: one algorithm on one alignment instance.

The runner enforces the paper's protocol:

* every algorithm is extracted with the *same* assignment back-end,
* runtimes are recorded split into similarity vs. assignment stages,
* peak memory is sampled with :mod:`tracemalloc` when requested,
* failures (time budget, memory, numerical breakdown) are captured as
  failed records instead of aborting the sweep — mirroring the paper's
  "does it finish within 3 hours / 256 GB" bookkeeping in Table 3.
"""

from __future__ import annotations

import hashlib
import traceback
import tracemalloc
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import (Callable, ContextManager, Dict, List, Optional, Sequence,
                    Tuple, Union)

from repro.algorithms import get_algorithm
from repro.algorithms.base import AlignmentAlgorithm
from repro.cache import ArtifactCache, active_cache, artifact_cache
from repro.context import RunContext, current_context
from repro.diagnostics import capture_diagnostics
from repro.observability import (capture_trace, reset_traced_peak, span,
                                 traced_peak)
from repro.harness.config import ExperimentConfig
from repro.harness.journal import (
    RunJournal,
    canonical_noise_level,
    cell_key,
    config_fingerprint,
)
from repro.harness.results import ResultTable, RunRecord
from repro.harness.retry import run_with_retry
from repro.harness.scheduler import run_sharded_experiment
from repro.measures import evaluate_all
from repro.noise import GraphPair, make_pair

__all__ = ["cell_seed", "run_on_pair", "run_cell", "run_experiment"]


def cell_seed(base_seed: int, dataset: str, noise_type: str,
              noise_level: float, repetition: int) -> int:
    """Deterministic per-cell seed, stable across processes and platforms.

    Python's built-in ``hash()`` is salted per process for strings
    (``PYTHONHASHSEED``), so it cannot key reproducible noise: two runs of
    the same experiment would perturb different edges.  A keyed BLAKE2b
    digest of the canonical cell coordinates gives every (dataset × noise
    type × level × repetition) cell the same 32-bit seed in every process.

    The noise level enters the digest through the exact 6-decimal
    canonical form that :func:`~repro.harness.journal.cell_key` uses, so
    two levels get distinct seeds if and only if they get distinct
    journal keys.
    """
    coords = (f"{int(base_seed)}|{dataset}|{noise_type}"
              f"|{canonical_noise_level(noise_level)}|{int(repetition)}")
    digest = hashlib.blake2b(coords.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def run_on_pair(
    algorithm: AlignmentAlgorithm,
    pair: GraphPair,
    assignment: str = "jv",
    measures: Sequence[str] = ("accuracy", "s3", "mnc"),
    seed: int = 0,
    track_memory: bool = False,
) -> Dict[str, object]:
    """Align one pair and evaluate; returns measure values plus timings.

    Runs under the caller's :class:`~repro.context.RunContext`; when it
    traces (see :mod:`repro.observability`), the result dict carries the
    serialized trace under ``"trace"`` (``None`` otherwise).
    """
    peak = 0
    if track_memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        reset_traced_peak()
        own_tracemalloc = True
    else:
        own_tracemalloc = False
    try:
        result = algorithm.align(pair.source, pair.target,
                                 assignment=assignment, seed=seed)
        with span("evaluate"):
            values = evaluate_all(pair.source, pair.target,
                                  result.mapping, pair.ground_truth)
    finally:
        if own_tracemalloc:
            # Spans reset tracemalloc's peak; traced_peak spans them all.
            peak = traced_peak()
            tracemalloc.stop()
    return {
        "measures": {key: values[key] for key in measures if key in values},
        "similarity_time": result.similarity_time,
        "assignment_time": result.assignment_time,
        "peak_memory_bytes": int(peak),
        "mapping": result.mapping,
        "diagnostics": [d.to_dict() for d in result.diagnostics],
        "trace": result.trace,
    }


def run_cell(
    algorithm_name: str,
    pair: GraphPair,
    dataset: str,
    repetition: int,
    assignment: str = "jv",
    measures: Sequence[str] = ("accuracy", "s3", "mnc"),
    seed: int = 0,
    track_memory: bool = False,
    algorithm_params: Optional[dict] = None,
    context: Optional[RunContext] = None,
) -> RunRecord:
    """One (algorithm × instance × repetition) cell as a :class:`RunRecord`.

    *Any* exception from the algorithm (short of process-control ones
    like ``KeyboardInterrupt``/``SystemExit``) is converted into a failed
    record so a sweep continues past individual breakdowns — the paper's
    protocol turns failures into ✗ marks, never into an aborted matrix.
    The record's ``error`` starts with ``"ClassName: message"`` (the form
    retry policies match on) followed by the traceback tail.

    Graceful-degradation events (preflight mitigations, watchdog repairs,
    solver fallbacks) are collected into the record's ``diagnostics`` —
    on failed records too, so a cell that degraded *and then* failed
    keeps its trail.

    The cell runs under ``context`` (a :class:`~repro.context.RunContext`;
    ``None`` means the caller's current context):

    * ``numerics="strict"`` switches the numerical watchdog from
      sanitize-and-warn to fail-fast.
    * ``sketch`` (a :class:`~repro.sketch.SketchPolicy`) switches the
      similarity stage to sparse top-k similarity above the policy
      threshold (eigenpairs and embeddings stay exact); below it the
      cell is bit-identical to an exact run.
    * ``trace`` records the cell's stage trace into the record —
      partially even on failure: a capture scope around the whole cell
      keeps every span that closed before the crash (a span the
      exception escaped through closes with ``status="error"``).
    * ``cache`` shares expensive per-graph intermediates through the
      artifact cache (:mod:`repro.cache`) for the duration of this cell.
      When a cache scope is already active — the sweep runner opens one
      per *instance* so all algorithms of a cell share artifacts, and a
      fork-based budget child inherits the parent's warm scope — it is
      reused instead of opening a colder nested one.
    """
    if context is None:
        context = current_context()
    with ExitStack() as stack:
        events = stack.enter_context(capture_diagnostics())
        stack.enter_context(context.enter())
        if context.cache and active_cache() is None:
            stack.enter_context(artifact_cache())
        cell_trace = (stack.enter_context(capture_trace())
                      if context.trace else None)
        try:
            algorithm = get_algorithm(algorithm_name,
                                      **(algorithm_params or {}))
            outcome = run_on_pair(algorithm, pair, assignment=assignment,
                                  measures=measures, seed=seed,
                                  track_memory=track_memory)
            return RunRecord(
                algorithm=algorithm_name,
                dataset=dataset,
                noise_type=pair.noise_type,
                noise_level=pair.noise_level,
                repetition=repetition,
                assignment=assignment,
                measures=outcome["measures"],
                similarity_time=outcome["similarity_time"],
                assignment_time=outcome["assignment_time"],
                peak_memory_bytes=outcome["peak_memory_bytes"],
                diagnostics=outcome["diagnostics"],
                trace=(cell_trace.to_payload()
                       if cell_trace is not None else None),
            )
        except Exception as exc:
            # Everything from ReproError/LinAlgError/MemoryError down to an
            # unexpected ValueError or ArpackError inside one solver: all
            # become ✗ records.  KeyboardInterrupt/SystemExit are not
            # Exception subclasses and still propagate (the user aborts, the
            # sweep does not eat it).
            return RunRecord(
                algorithm=algorithm_name,
                dataset=dataset,
                noise_type=pair.noise_type,
                noise_level=pair.noise_level,
                repetition=repetition,
                assignment=assignment,
                measures={},
                similarity_time=0.0,
                assignment_time=0.0,
                failed=True,
                error=_describe_failure(exc),
                diagnostics=[d.to_dict() for d in events],
                trace=(cell_trace.to_payload()
                       if cell_trace is not None else None),
            )


def _describe_failure(exc: BaseException, tail_lines: int = 4) -> str:
    """``"ClassName: message"`` plus the last frames of the traceback.

    The leading ``ClassName:`` prefix is load-bearing — it is what
    :meth:`RetryPolicy.is_transient` matches — and the traceback tail
    makes a ✗ in a week-long sweep diagnosable without rerunning it.
    """
    head = f"{type(exc).__name__}: {exc}"
    frames = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = "".join(frames[-tail_lines:]).strip()
    return f"{head}\n{tail}" if tail else head


def _default_pair_factory(graph, noise_type, level, seed) -> GraphPair:
    """Materialize one instance with :func:`repro.noise.make_pair`.

    A module-level function (not a lambda) so sweep workers can receive
    it under every multiprocessing start method.
    """
    return make_pair(graph, noise_type, level, seed=seed)


def run_experiment(
    config: ExperimentConfig,
    graphs: Dict[str, object],
    pair_factory: Optional[Callable] = None,
    progress: Optional[Callable[[str], None]] = None,
    journal: Optional[Union[RunJournal, str, Path]] = None,
) -> ResultTable:
    """Run the full (graph × noise type × level × rep × algorithm) sweep.

    ``graphs`` maps dataset names to base :class:`~repro.graphs.Graph`
    values.  ``pair_factory(graph, noise_type, level, seed)`` can override
    how instances are materialized (defaults to
    :func:`repro.noise.make_pair`); temporal experiments pass pre-built
    pairs through a factory ignoring the graph argument.

    ``journal`` (a :class:`RunJournal` or a path) makes the sweep
    crash-tolerant: every completed cell is durably appended before the
    sweep moves on, already-journaled cells are skipped on a rerun, and
    the returned table always contains journaled and fresh records alike.
    Execution knobs come from the config: ``config.budget`` runs each
    cell in a resource-capped child process, ``config.retry_policy``
    re-attempts transient failures, and ``config.workers > 1`` runs the
    cells on that many worker processes of the pipe scheduler
    (:func:`repro.harness.scheduler.run_sharded_experiment`), which
    tolerates killed and hung workers — with identical results, budgets
    and retries.  Its workers send their records back over pipes, so
    ``journal`` stays the one file, written by this process alone, and
    serial and ``workers`` runs resume each other; its recovery events
    go to ``<journal>.events.jsonl``.
    ``config.cache_dir`` layers a crash-safe disk cache
    (:mod:`repro.cache_disk`) under every per-instance artifact cache,
    so eigendecompositions and other per-graph intermediates persist
    across cells, processes, and reruns.  ``config.stats`` computes the
    sweep's permutation/bootstrap statistics (:mod:`repro.stats`) after
    the last cell and attaches them as ``table.stats``, journaled into
    a ``<journal>.stats`` side-car when the sweep was journaled.
    """
    factory = pair_factory or _default_pair_factory
    journal_path = (journal.path if isinstance(journal, RunJournal)
                    else Path(journal) if journal is not None else None)
    owns_journal = journal is not None and not isinstance(journal, RunJournal)
    if owns_journal:
        journal = RunJournal(journal, fingerprint=config_fingerprint(config))
    try:
        if config.workers > 1:
            table = run_sharded_experiment(config, graphs, factory,
                                           progress, mirror=journal)
        else:
            table = _run_sweep(config, graphs, factory, progress, journal)
    finally:
        if owns_journal:
            journal.close()
    return _attach_stats(config, table, journal_path)


def _attach_stats(config: ExperimentConfig, table: ResultTable,
                  journal_path: Optional[Path]) -> ResultTable:
    """Compute post-sweep statistics when the config asks for them.

    Runs after the sweep (and after the run journal is closed): the
    statistics are derived from the finished table in this process and
    journaled into the ``<journal>.stats`` side-car when the sweep was
    journaled, so serial and ``workers`` sweeps compute them the same
    way.
    """
    if not bool(getattr(config, "stats", False)):
        return table
    from repro.stats import (StatsConfig, compute_sweep_stats,
                             stats_journal_path)
    stats_config = StatsConfig(
        resamples=int(getattr(config, "stats_resamples", 2000)),
        seed=int(config.seed),
        measures=tuple(config.measures),
    )
    stats_journal = (stats_journal_path(journal_path)
                     if journal_path is not None else None)
    table.stats = compute_sweep_stats(table, stats_config,
                                      journal=stats_journal)
    return table


def _instance_cache(config: ExperimentConfig
                    ) -> Callable[[], ContextManager]:
    """The opener of one sweep instance's artifact-cache scope (a no-op
    when the config's run context does not cache).

    Every algorithm of an instance shares one cache, and it dies with
    the instance, so artifacts never leak across noisy pairs.  With a
    ``cache_dir`` one :class:`~repro.cache_disk.DiskArtifactCache` backs
    every instance's cache, across instances and processes.
    """
    if not config.run_context().cache:
        return nullcontext
    disk = None
    if config.cache_dir:
        from repro.cache_disk import DiskArtifactCache
        disk = DiskArtifactCache(config.cache_dir)
    return lambda: artifact_cache(ArtifactCache(backing=disk))


def _collect_instances(config, graphs, journal, table
                       ) -> List[Tuple[str, str, float, int, Tuple[str, ...]]]:
    """Replay journaled records into ``table``; return the remaining work.

    One ``(dataset, noise type, level, rep, pending algorithms)`` entry
    per instance, so the serial loop builds each noisy pair once.  The
    scheduler (``workers``) skips the same journaled cells: its
    supervisor leaves them out of its queue.
    """
    tasks = []
    for dataset in graphs:
        for noise_type in config.noise_types:
            for level in config.noise_levels:
                for rep in range(config.repetitions):
                    pending = []
                    for name in config.algorithms:
                        key = cell_key(dataset, noise_type, level, rep, name)
                        if journal is not None and key in journal:
                            table.add(journal.get(key))
                        else:
                            pending.append(name)
                    if pending:
                        tasks.append((dataset, noise_type, level, rep,
                                      tuple(pending)))
    return tasks


def _run_sweep(config, graphs, factory, progress, journal) -> ResultTable:
    table = ResultTable()
    base_seed = int(config.seed)
    open_cache = _instance_cache(config)
    for dataset, noise_type, level, rep, pending in _collect_instances(
            config, graphs, journal, table):
        seed = cell_seed(base_seed, dataset, noise_type, level, rep)
        pair = factory(graphs[dataset], noise_type, level, seed)
        with open_cache():
            for name in pending:
                if progress is not None:
                    progress(
                        f"{dataset} {noise_type} {level:.2f} "
                        f"rep{rep} {name}"
                    )
                record = _execute_cell(config, name, pair, dataset, rep, seed)
                table.add(record)
                if journal is not None:
                    journal.append(
                        cell_key(dataset, noise_type, level, rep, name),
                        record)
    return table


def _execute_cell(config: ExperimentConfig, name: str, pair: GraphPair,
                  dataset: str, rep: int, seed: int) -> RunRecord:
    """One cell under the config's budget, retry policy and run context."""
    kwargs = dict(
        assignment=config.assignment,
        measures=config.measures,
        seed=seed,
        track_memory=config.track_memory,
        algorithm_params=config.algorithm_params.get(name),
        context=config.run_context(),
    )

    def attempt(_attempt_number: int) -> RunRecord:
        if config.budget is not None:
            from repro.harness.budget import run_cell_with_budget
            return run_cell_with_budget(name, pair, dataset, rep,
                                        config.budget, **kwargs)
        return run_cell(name, pair, dataset, rep, **kwargs)

    if config.retry_policy is not None:
        # The cell seed doubles as the jitter seed so a rerun of the same
        # cell backs off on the same schedule; a sweep run by more than
        # one process counts as distributed, which turns the jitter on.
        return run_with_retry(
            attempt, config.retry_policy, jitter_seed=seed,
            distributed=config.workers > 1)
    return attempt(1)
