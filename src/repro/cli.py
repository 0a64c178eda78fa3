"""Command-line interface: ``python -m repro <command>``.

The benchmark framework's front door (the original study drives runs with
the Sacred framework; this is the stand-in):

* ``algorithms`` — list the registered algorithms with their Table-1 traits;
* ``datasets`` — list the dataset registry with published vs. stand-in stats;
* ``align`` — align two edge-list files and write/print the node mapping;
* ``experiment`` — run a (graphs x noise x algorithms) sweep and print the
  result grid, optionally dumping a CSV.

Examples
--------
::

    python -m repro algorithms
    python -m repro align a.edges b.edges --method cone --output map.txt
    python -m repro experiment --dataset arenas --algorithms isorank nsd \
        --noise-type one-way --levels 0 0.01 0.05 --reps 3 --csv out.csv
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.algorithms import ALGORITHM_REGISTRY, get_algorithm, list_algorithms
from repro.assignment.base import ASSIGNMENT_METHODS
from repro.datasets import dataset_info, list_datasets, load_dataset
from repro.exceptions import ExperimentError
from repro.graphs import read_edgelist
from repro.harness import ExperimentConfig, active_profile, run_experiment
from repro.measures import evaluate_all

__all__ = ["main", "build_parser"]


def _add_sketch_arguments(parser: argparse.ArgumentParser) -> None:
    """Sparse-similarity knobs, shared by ``align`` and ``experiment``."""
    from repro.sketch import SketchPolicy

    parser.add_argument("--sketch", action="store_true",
                        help="above --sketch-threshold nodes, use "
                             "sparse top-k similarity (eigenpairs and "
                             "embeddings stay exact); below it results "
                             "are bit-identical to an exact run")
    parser.add_argument("--sketch-threshold", type=int,
                        default=SketchPolicy.threshold, metavar="N",
                        help="graph size above which sparse similarity "
                             f"applies (default {SketchPolicy.threshold})")


def _sketch_policy_from_args(args):
    """The args' :class:`~repro.sketch.SketchPolicy`, or ``None``."""
    if not getattr(args, "sketch", False):
        return None
    from repro.sketch import SketchPolicy
    return SketchPolicy(threshold=args.sketch_threshold)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unified benchmark of unrestricted graph alignment "
                    "algorithms (EDBT 2023 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algorithms", help="list registered algorithms")

    data = sub.add_parser("datasets", help="list the dataset registry")
    data.add_argument("--scale", type=float, default=None,
                      help="also generate stand-ins at this scale")

    align = sub.add_parser("align", help="align two edge-list files")
    align.add_argument("source", help="source graph edge list")
    align.add_argument("target", help="target graph edge list")
    align.add_argument("--method", default="isorank",
                       choices=sorted(list_algorithms()))
    align.add_argument("--assignment", default="jv",
                       choices=list(ASSIGNMENT_METHODS))
    align.add_argument("--seed", type=int, default=0)
    align.add_argument("--refine", action="store_true",
                       help="apply matched-neighborhood refinement")
    align.add_argument("--strict-numerics", action="store_true",
                       help="fail fast on NaN/Inf/zero similarity matrices "
                            "instead of sanitize-and-warn")
    align.add_argument("--output", default=None,
                       help="write 'source target' mapping lines here "
                            "(default: stdout)")
    _add_sketch_arguments(align)

    tune = sub.add_parser("tune", help="grid-search one hyperparameter")
    tune.add_argument("--dataset", required=True, choices=list_datasets())
    tune.add_argument("--method", required=True,
                      choices=sorted(list_algorithms()))
    tune.add_argument("--param", required=True,
                      help="constructor argument to sweep, e.g. alpha")
    tune.add_argument("--values", nargs="+", required=True,
                      help="candidate values (parsed as float when possible)")
    tune.add_argument("--noise", type=float, default=0.02)
    tune.add_argument("--copies", type=int, default=3)
    tune.add_argument("--scale", type=float, default=None)
    tune.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run a noise sweep")
    exp.add_argument("--dataset", required=True,
                     choices=list_datasets(), help="dataset stand-in")
    exp.add_argument("--algorithms", nargs="+", required=True,
                     choices=sorted(list_algorithms()))
    exp.add_argument("--noise-type", default="one-way",
                     choices=["one-way", "multimodal", "two-way"])
    exp.add_argument("--levels", nargs="+", type=float,
                     default=[0.0, 0.01, 0.05])
    exp.add_argument("--reps", type=int, default=2)
    exp.add_argument("--assignment", default="jv",
                     choices=list(ASSIGNMENT_METHODS))
    exp.add_argument("--measure", default="accuracy",
                     choices=["accuracy", "mnc", "ec", "ics", "s3"])
    exp.add_argument("--scale", type=float, default=None,
                     help="dataset scale (default: active profile's)")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--csv", default=None, help="dump raw records here")
    exp.add_argument("--journal", default=None, metavar="PATH",
                     help="write-ahead journal; rerun with the same path "
                          "to resume a crashed sweep without redoing "
                          "completed cells")
    exp.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                     help="run each cell in a child process killed at this "
                          "wall-clock deadline (paper: 3 h)")
    exp.add_argument("--memory-limit-mb", type=float, default=None,
                     help="cap each cell's address space (paper: 256 GB); "
                          "usable alone as a memory-only budget or "
                          "together with --timeout")
    exp.add_argument("--retries", type=int, default=1, metavar="N",
                     help="total attempts per cell for transient failures "
                          "(default 1 = no retry)")
    exp.add_argument("--retry-backoff", type=float, default=0.5,
                     help="seconds before the first retry, doubled per "
                          "further attempt")
    exp.add_argument("--workers", type=int, default=1, metavar="N",
                     help="run the cells on N worker processes that "
                          "send their records back over pipes (default 1 "
                          "= serial); --journal stays one file, so "
                          "results and resume are identical to a serial "
                          "run, and the recovery log goes to "
                          "<journal>.events.jsonl")
    exp.add_argument("--cache-dir", default=None, metavar="PATH",
                     help="persist cached per-graph intermediates to this "
                          "directory (crash-safe, checksum-verified; "
                          "shared across processes and reruns); implies "
                          "the in-memory --cache tier above it")
    exp.add_argument("--strict-numerics", action="store_true",
                     help="numerical watchdog fails cells on NaN/Inf/zero "
                          "similarity matrices instead of sanitizing and "
                          "recording a degraded cell")
    exp.add_argument("--trace", action="store_true",
                     help="record a per-cell stage trace (wall/CPU time, "
                          "peak memory, performance counters); adds "
                          "per-stage columns to --csv output and a stage "
                          "breakdown to --report and the printed summary")
    exp.add_argument("--cache", action="store_true",
                     help="share expensive per-graph intermediates "
                          "(eigendecompositions, normalizations, priors) "
                          "across the algorithms of each cell via the "
                          "artifact cache; results are bit-identical to "
                          "an uncached run")
    exp.add_argument("--report", default=None, metavar="PATH",
                     help="write a self-contained markdown report of the "
                          "sweep here")
    exp.add_argument("--stats", action="store_true",
                     help="attach paired permutation tests and bootstrap "
                          "CIs to every algorithm comparison (printed, "
                          "and added to --csv/--report); journaled into "
                          "<journal>.stats when --journal is set")
    exp.add_argument("--stats-resamples", type=int, default=2000,
                     metavar="N",
                     help="resamples per permutation test / bootstrap CI "
                          "(default 2000)")
    _add_sketch_arguments(exp)

    stats = sub.add_parser(
        "stats",
        help="compute paired permutation tests + bootstrap CIs for a "
             "finished sweep journal")
    stats.add_argument("--journal", required=True, metavar="PATH",
                       help="run journal of the finished sweep")
    stats.add_argument("--resamples", type=int, default=2000, metavar="N")
    stats.add_argument("--confidence", type=float, default=0.95)
    stats.add_argument("--alpha", type=float, default=0.05,
                       help="family-wise significance level for the Holm "
                            "correction (default 0.05)")
    stats.add_argument("--method", default="bca",
                       choices=["percentile", "bca"],
                       help="bootstrap CI flavor (default bca)")
    stats.add_argument("--seed", type=int, default=0,
                       help="base seed the per-comparison BLAKE2b seeds "
                            "derive from")
    stats.add_argument("--measures", nargs="+", default=None,
                       help="restrict to these measures (default: every "
                            "measure in the journal)")
    stats.add_argument("--stats-journal", default=None, metavar="PATH",
                       help="journal for the statistics themselves "
                            "(default: <journal>.stats); rerun with the "
                            "same path to resume after a crash")
    stats.add_argument("--csv", default=None, metavar="PATH",
                       help="write the full comparison ledger here")
    stats.add_argument("--report", default=None, metavar="PATH",
                       help="write a significance-annotated markdown "
                            "report here")

    serve = sub.add_parser(
        "serve",
        help="run the crash-safe alignment service on a service directory")
    serve.add_argument("--service-dir", required=True, metavar="PATH",
                       help="directory holding the ticket queue (results "
                            "in its outcome files) and event log (created if "
                            "missing; restart with the same path to recover)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="concurrent request executors (default 2)")
    serve.add_argument("--max-depth", type=int, default=256, metavar="N",
                       help="backlog bound: new submissions beyond this are "
                            "rejected with retry-after (default 256)")
    serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="orphaned executions per ticket before it is "
                            "failed instead of re-queued (default 3)")
    serve.add_argument("--retries", type=int, default=1, metavar="N",
                       help="total attempts per request for transient "
                            "failures (default 1 = no retry)")
    serve.add_argument("--retry-backoff", type=float, default=0.5,
                       help="seconds before the first retry, doubled per "
                            "further attempt (decorrelated jitter applied)")
    serve.add_argument("--memory-limit-mb", type=float, default=None,
                       help="cap each request's address space")
    serve.add_argument("--default-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="deadline applied to requests that submit "
                            "without one (default: none)")
    serve.add_argument("--drain-when-idle", action="store_true",
                       help="batch mode: drain and exit once the backlog "
                            "is empty instead of serving forever")
    serve.add_argument("--status", action="store_true",
                       help="print the service's health, ticket counts, and "
                            "recovery events instead of serving")

    cache = sub.add_parser(
        "cache", help="inspect and maintain the disk artifact cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    prune = cache_sub.add_parser(
        "prune", help="evict LRU entries over a byte bound and age out "
                      "quarantined files")
    prune.add_argument("--cache-dir", required=True, metavar="PATH")
    prune.add_argument("--max-mb", type=float, default=None,
                       help="evict least-recently-stored entries until "
                            "payload bytes fit under this bound")
    prune.add_argument("--quarantine-max-age-hours", type=float, default=None,
                       help="delete quarantined files older than this")
    prune.add_argument("--dry-run", action="store_true",
                       help="report what would be removed without deleting "
                            "anything")
    cache_stats = cache_sub.add_parser(
        "stats", help="print entry/byte/quarantine totals for a cache "
                      "directory")
    cache_stats.add_argument("--cache-dir", required=True, metavar="PATH")
    return parser


def _cmd_algorithms(out) -> int:
    for name in list_algorithms():
        info = ALGORITHM_REGISTRY[name].info
        params = ", ".join(f"{k}={v}" for k, v in info.parameters.items())
        out.write(f"{name:<10s} ({info.year}) assignment={info.default_assignment}"
                  f" time={info.time_complexity} params: {params}\n")
    return 0


def _cmd_datasets(args, out) -> int:
    for name in list_datasets():
        spec = dataset_info(name)
        line = (f"{name:<18s} n={spec.nodes:<6d} m={spec.edges:<7d} "
                f"left_out={spec.left_out:<4d} {spec.kind}")
        if args.scale is not None:
            graph = load_dataset(name, scale=args.scale, seed=0)
            line += (f"  | stand-in n={graph.num_nodes} m={graph.num_edges} "
                     f"deg={graph.average_degree:.1f}")
        out.write(line + "\n")
    return 0


def _cmd_align(args, out) -> int:
    from repro.context import RunContext

    source = read_edgelist(args.source)
    target = read_edgelist(args.target)
    algorithm = get_algorithm(args.method)
    context = RunContext(
        numerics="strict" if args.strict_numerics else "sanitize",
        sketch=_sketch_policy_from_args(args))
    with context.enter():
        result = algorithm.align(source, target, assignment=args.assignment,
                                 seed=args.seed)
    for diagnostic in result.diagnostics:
        out.write(f"# diagnostic: {diagnostic}\n")
    mapping = result.mapping
    if args.refine:
        from repro.algorithms.refine import refine_alignment
        mapping = refine_alignment(source, target, mapping)
    scores = evaluate_all(source, target, mapping)
    lines = [f"{u} {v}" for u, v in enumerate(mapping) if v >= 0]
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        out.write("\n".join(lines) + "\n")
    summary = "  ".join(f"{k}={v:.3f}" for k, v in sorted(scores.items()))
    out.write(f"# {args.method} via {args.assignment}: {summary} "
              f"(similarity {result.similarity_time:.2f}s, "
              f"assignment {result.assignment_time:.2f}s)\n")
    return 0


def _cmd_experiment(args, out) -> int:
    from repro.harness import CellBudget, RetryPolicy

    profile = active_profile()
    scale = args.scale if args.scale is not None else profile.graph_scale
    graph = load_dataset(args.dataset, scale=scale, seed=args.seed)
    budget = None
    if args.timeout is not None or args.memory_limit_mb is not None:
        # Either limit alone is a valid budget; CellBudget enforces
        # whichever are set (a memory-only budget waits indefinitely).
        memory = (int(args.memory_limit_mb * 2 ** 20)
                  if args.memory_limit_mb is not None else None)
        budget = CellBudget(time_seconds=args.timeout, memory_bytes=memory)
    retry = (RetryPolicy(max_attempts=args.retries,
                         backoff_seconds=args.retry_backoff)
             if args.retries > 1 else None)
    config = ExperimentConfig(
        name=f"cli-{args.dataset}",
        algorithms=args.algorithms,
        assignment=args.assignment,
        noise_types=(args.noise_type,),
        noise_levels=tuple(args.levels),
        repetitions=args.reps,
        measures=(args.measure,) if args.measure != "accuracy"
        else ("accuracy", "s3", "mnc"),
        seed=args.seed,
        budget=budget,
        retry_policy=retry,
        workers=args.workers,
        strict_numerics=args.strict_numerics,
        trace=args.trace,
        cache=args.cache,
        cache_dir=args.cache_dir,
        stats=args.stats,
        stats_resamples=args.stats_resamples,
        sketch=args.sketch,
        sketch_threshold=args.sketch_threshold,
    )
    started = time.time()
    table = run_experiment(config, {args.dataset: graph},
                           journal=args.journal)
    recovery_events = None
    if args.journal:
        out.write(f"journal: {args.journal} ({len(table)} cells durable; "
                  f"rerun with the same --journal to resume)\n")
    if args.journal and args.workers > 1:
        from repro.harness.scheduler import load_recovery_events
        # The log is appended by every run journaled at this path; count
        # only the events of this one.
        recovery_events = [e for e in load_recovery_events(args.journal)
                           if e.get("time", 0.0) >= started]
        reclaims = sum(1 for e in recovery_events
                       if e.get("kind") == "lease_reclaimed")
        respawns = sum(1 for e in recovery_events
                       if e.get("kind") == "worker_respawned")
        out.write(f"recovery: {reclaims} leases reclaimed, "
                  f"{respawns} workers respawned\n")
    if args.cache_dir:
        from repro.cache_disk import DiskArtifactCache, load_cache_events
        stats = DiskArtifactCache(args.cache_dir).stats()
        # Quarantines happen inside worker processes; the event log is
        # the cross-process truth, not this instance's counter.
        quarantined = sum(1 for e in load_cache_events(args.cache_dir)
                          if e.get("kind") == "entry_quarantined")
        out.write(f"disk cache: {stats['entries']} entries, "
                  f"{stats['payload_bytes']} bytes, "
                  f"{quarantined} quarantined\n")
    out.write(f"{args.dataset} (n={graph.num_nodes}, m={graph.num_edges}), "
              f"{args.noise_type} noise, mean {args.measure} over "
              f"{args.reps} repetitions:\n")
    out.write(table.format_grid("algorithm", "noise_level", args.measure))
    out.write("\n")
    out.write(f"cells: {len(table.clean())} clean, "
              f"{len(table.degraded())} degraded, "
              f"{len(table) - len(table.successful())} failed\n")
    for name, kinds in sorted(table.diagnostic_counts().items()):
        for key, count in sorted(kinds.items()):
            out.write(f"  {name}: {key} x{count}\n")
    if args.trace:
        stages = table.trace_stages()
        if stages:
            out.write("stage breakdown (mean wall seconds):\n")
            for stage in stages:
                for name in sorted({r.algorithm for r in table.records}):
                    value = table.mean(f"trace:{stage}:wall_time",
                                       algorithm=name)
                    if not np.isnan(value):
                        out.write(f"  {name}: {stage} {value:.4f}s\n")
    if args.stats and table.stats is not None:
        out.write(f"statistics ({len(table.stats)} units, "
                  f"{args.stats_resamples} resamples, Holm-corrected):\n")
        out.write(table.stats.format_summary(max_lines=40) + "\n")
        if args.journal:
            out.write(f"stats journal: {args.journal}.stats "
                      "(resumable like the sweep)\n")
    if args.report:
        from repro.harness.report import markdown_report
        with open(args.report, "w") as handle:
            handle.write(markdown_report(
                table, title=f"{args.dataset} {args.noise_type} sweep",
                recovery_events=recovery_events))
        out.write(f"markdown report written to {args.report}\n")
    if args.csv:
        table.to_csv(args.csv)
        out.write(f"raw records written to {args.csv}\n")
    return 0


def _load_finished_table(journal_path, out):
    """A ResultTable from a finished run journal (None on error)."""
    from repro.harness import ResultTable, RunJournal

    path = Path(journal_path)
    if not path.exists():
        out.write(f"error: no journal at {journal_path}\n")
        return None
    journal = RunJournal(path)
    try:
        return ResultTable(journal.records)
    finally:
        journal.close()


def _cmd_stats(args, out) -> int:
    from repro.stats import StatsConfig, compute_sweep_stats

    table = _load_finished_table(args.journal, out)
    if table is None:
        return 2
    if not len(table):
        out.write(f"error: journal {args.journal} holds no records\n")
        return 2
    config = StatsConfig(
        resamples=args.resamples,
        confidence=args.confidence,
        alpha=args.alpha,
        bootstrap_method=args.method,
        seed=args.seed,
        measures=tuple(args.measures) if args.measures else None,
    )
    stats_journal = args.stats_journal or (args.journal + ".stats")
    try:
        stats = compute_sweep_stats(table, config, journal=stats_journal)
    except ExperimentError as exc:
        out.write(f"error: {exc}\n")
        if "fingerprint" in str(exc):
            out.write("hint: the side-car was journaled under different "
                      "stats settings (resamples/seed/measures/...); "
                      "match them or point --stats-journal elsewhere\n")
        return 2
    out.write(f"{len(table)} records -> {len(stats.groups)} group CIs, "
              f"{len(stats.comparisons)} paired comparisons "
              f"({args.resamples} resamples, {args.method} bootstrap, "
              f"Holm at α={args.alpha:g})\n")
    out.write(f"stats journal: {stats_journal} (rerun with the same "
              "path to resume)\n")
    out.write(stats.format_summary() + "\n")
    significant = [c for c in stats.comparisons if stats.is_significant(c)]
    out.write(f"significant after Holm: {len(significant)} of "
              f"{len(stats.comparisons)} comparisons\n")
    if args.csv:
        stats.to_csv(args.csv)
        out.write(f"comparison ledger written to {args.csv}\n")
    if args.report:
        from repro.harness.report import markdown_report
        with open(args.report, "w") as handle:
            handle.write(markdown_report(
                table, title=f"statistics for {args.journal}",
                stats=stats))
        out.write(f"annotated report written to {args.report}\n")
    return 0


def _cmd_serve(args, out) -> int:
    import json

    from repro.service import (AlignmentService, DurableRequestQueue,
                               load_service_events, read_health)

    if args.status:
        if not (Path(args.service_dir) / "queue").is_dir():
            out.write(f"error: no service queue at {args.service_dir} "
                      "(it has no queue/ directory)\n")
            return 2
        health = read_health(args.service_dir)
        if health is None:
            out.write("no heartbeat published yet (has the service run "
                      "on this directory?)\n")
        else:
            out.write(json.dumps(health, sort_keys=True, indent=2) + "\n")
        counts = DurableRequestQueue(f"{args.service_dir}/queue").counts()
        out.write("tickets: " + "  ".join(
            f"{state}={count}" for state, count in counts.items()) + "\n")
        events = load_service_events(args.service_dir)
        kinds: dict = {}
        for event in events:
            kinds[event.get("kind")] = kinds.get(event.get("kind"), 0) + 1
        out.write("events: " + "  ".join(
            f"{kind}={count}" for kind, count in sorted(kinds.items()))
            + "\n")
        return 0

    import asyncio

    from repro.harness import RetryPolicy

    retry = (RetryPolicy(max_attempts=args.retries,
                         backoff_seconds=args.retry_backoff)
             if args.retries > 1 else None)
    memory = (int(args.memory_limit_mb * 2 ** 20)
              if args.memory_limit_mb is not None else None)
    service = AlignmentService(
        args.service_dir,
        max_depth=args.max_depth,
        workers=args.workers,
        max_attempts=args.max_attempts,
        retry_policy=retry,
        default_deadline_seconds=args.default_deadline,
        memory_limit_bytes=memory,
    )
    out.write(f"serving {args.service_dir} with {args.workers} workers "
              f"(backlog {service.queue.depth()}/{args.max_depth}; "
              "SIGTERM drains gracefully)\n")
    try:
        summary = asyncio.run(service.serve(
            stop_when_idle=args.drain_when_idle))
    finally:
        service.close()
    tickets = summary["tickets"]
    out.write("drained; tickets: " + "  ".join(
        f"{state}={count}" for state, count in tickets.items()) + "\n")
    return 0


def _cmd_cache(args, out) -> int:
    from repro.cache_disk import DiskArtifactCache

    if not (Path(args.cache_dir) / "objects").is_dir():
        out.write(f"error: no disk cache at {args.cache_dir} "
                  "(it has no objects/ directory)\n")
        return 2
    disk = DiskArtifactCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = disk.stats()
        out.write(f"entries: {stats['entries']}\n"
                  f"payload bytes: {stats['payload_bytes']}\n")
        quarantined = sum(1 for _ in disk.quarantine_dir.iterdir())
        out.write(f"quarantined files: {quarantined}\n")
        return 0
    if args.max_mb is None and args.quarantine_max_age_hours is None:
        out.write("error: give --max-mb and/or --quarantine-max-age-hours "
                  "(otherwise there is nothing to prune)\n")
        return 2
    max_bytes = (int(args.max_mb * 2 ** 20)
                 if args.max_mb is not None else None)
    max_age = (args.quarantine_max_age_hours * 3600.0
               if args.quarantine_max_age_hours is not None else None)
    report = disk.prune_report(max_bytes=max_bytes,
                               quarantine_max_age_seconds=max_age,
                               dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    out.write(f"{verb} {report['entries_removed']} entries "
              f"({report['bytes_freed']} bytes) and "
              f"{report['quarantine_files_removed']} quarantined files "
              f"({report['quarantine_bytes_freed']} bytes)\n")
    out.write(f"entries: {report['entries_before']} -> "
              f"{report['entries_after']}, payload bytes: "
              f"{report['payload_bytes_before']} -> "
              f"{report['payload_bytes_after']}\n")
    return 0


def _parse_value(raw: str):
    """Best-effort literal parsing for grid values (int > float > str)."""
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            continue
    return raw


def _cmd_tune(args, out) -> int:
    from repro.harness.tuning import grid_search
    from repro.noise import make_noisy_copies

    profile = active_profile()
    scale = args.scale if args.scale is not None else profile.graph_scale
    graph = load_dataset(args.dataset, scale=scale, seed=args.seed)
    pairs = make_noisy_copies(graph, "one-way", args.noise,
                              copies=args.copies, seed=args.seed)
    values = [_parse_value(v) for v in args.values]
    result = grid_search(args.method, {args.param: values}, pairs,
                         seed=args.seed)
    out.write(result.format_table() + "\n")
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "algorithms":
        return _cmd_algorithms(out)
    if args.command == "datasets":
        return _cmd_datasets(args, out)
    if args.command == "align":
        return _cmd_align(args, out)
    if args.command == "tune":
        return _cmd_tune(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "cache":
        return _cmd_cache(args, out)
    if args.command == "stats":
        return _cmd_stats(args, out)
    return _cmd_experiment(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
