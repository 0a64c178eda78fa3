"""Markdown experiment reports from result tables.

Turns a :class:`~repro.harness.results.ResultTable` into a self-contained
markdown document: metadata, one measure grid per noise type, a terminal
line chart for the headline measure, significance sections (bootstrap-CI
grids plus Holm-corrected pairwise permutation matrices, when the sweep
computed statistics — see :mod:`repro.stats`), a stage breakdown
(per-algorithm
mean wall time by pipeline stage, plus performance-counter totals, when
the sweep was traced), a degradation summary (clean vs degraded vs
failed cells per algorithm, with the diagnostic kinds behind each
degradation), a recovery-event section (lease reclaims and worker
respawns from a ``workers`` sweep, when the caller passes the
scheduler's event log), and a failure inventory.  This is what a user
shares from a custom experiment; the bench suite's text reports are its
sibling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.harness.asciiplot import line_plot
from repro.harness.results import ResultTable

__all__ = ["markdown_report"]


def _markdown_grid(table: ResultTable, measure: str, **conditions) -> str:
    """An algorithm x noise-level pipe table of a measure's means."""
    subset = table.filter(**conditions)
    algorithms = sorted({r.algorithm for r in subset.records})
    levels = sorted({r.noise_level for r in subset.records})
    header = "| algorithm | " + " | ".join(f"{l:g}" for l in levels) + " |"
    divider = "|" + "---|" * (len(levels) + 1)
    rows = []
    for name in algorithms:
        cells = []
        for level in levels:
            value = subset.mean(measure, algorithm=name, noise_level=level)
            cells.append("--" if np.isnan(value) else f"{value:.3f}")
        rows.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join([header, divider] + rows)


def _trace_sections(table: ResultTable) -> list:
    """Stage-breakdown and counter tables; empty when nothing was traced.

    The stage table shows, per algorithm, the mean wall-clock seconds of
    every top-level stage across that algorithm's successful traced
    records (``--`` for a stage the algorithm never entered).  The
    counter table shows mean performance-counter totals the same way.
    Both tables' columns are the union over the whole sweep, so serial
    and parallel runs of the same experiment render identically.
    """
    stages = table.trace_stages()
    if not stages:
        return []
    algorithms = sorted({r.algorithm for r in table.records})
    lines = ["## stage breakdown (mean wall seconds)", ""]
    lines.append("| algorithm | " + " | ".join(stages) + " |")
    lines.append("|" + "---|" * (len(stages) + 1))
    for name in algorithms:
        cells = []
        for stage in stages:
            value = table.mean(f"trace:{stage}:wall_time", algorithm=name)
            cells.append("--" if np.isnan(value) else f"{value:.4f}")
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    lines.append("")
    counters = table.trace_counters()
    if counters:
        lines.append("## performance counters (mean per run)")
        lines.append("")
        lines.append("| algorithm | " + " | ".join(counters) + " |")
        lines.append("|" + "---|" * (len(counters) + 1))
        for name in algorithms:
            cells = []
            for counter in counters:
                value = table.mean(f"counter:{counter}", algorithm=name)
                cells.append("--" if np.isnan(value) else f"{value:.1f}")
            lines.append(f"| {name} | " + " | ".join(cells) + " |")
        lines.append("")
    return lines


def _stats_sections(stats) -> List[str]:
    """Significance-annotated comparison matrices, one per measure×noise.

    For each (measure, noise type) family: a per-algorithm grid of
    ``mean [ci_lo, ci_hi]`` bootstrap intervals across noise levels,
    then the pairwise matrix — paired mean difference and sign-flip
    permutation p-value per level, with ``*`` marking claims that
    survive the Holm correction at the family-wise alpha.  Every A-vs-B
    claim a reader could take from the measure grids above thus carries
    its uncertainty right below them.
    """
    lines: List[str] = []
    pct = stats.config.confidence * 100
    for noise_type in stats.noise_types():
        levels = stats.levels(noise_type)
        header = ("| algorithm | "
                  + " | ".join(f"{l:g}" for l in levels) + " |")
        divider = "|" + "---|" * (len(levels) + 1)
        for measure in stats.measures():
            algorithms = [
                name for name in stats.algorithms()
                if any(stats.group(noise_type, l, measure, name)
                       for l in levels)
            ]
            if not algorithms:
                continue
            lines.append(f"## significance — {measure} "
                         f"({noise_type} noise)")
            lines.append("")
            lines.append(f"mean with {pct:g}% "
                         f"{stats.config.bootstrap_method} bootstrap CI "
                         f"over {stats.config.resamples} resamples:")
            lines.append("")
            lines.append(header)
            lines.append(divider)
            for name in algorithms:
                cells = []
                for level in levels:
                    g = stats.group(noise_type, level, measure, name)
                    cells.append("--" if g is None else
                                 f"{g.mean:.3f} [{g.ci_lo:.3f}, "
                                 f"{g.ci_hi:.3f}]")
                lines.append(f"| {name} | " + " | ".join(cells) + " |")
            lines.append("")
            pairs = sorted({
                (c.algorithm_a, c.algorithm_b)
                for c in stats.comparisons
                if c.noise_type == noise_type and c.measure == measure
            })
            if not pairs:
                continue
            lines.append("paired sign-flip permutation tests "
                         "(Δ = row's first − second mean; "
                         f"`*` = significant after Holm at "
                         f"α={stats.config.alpha:g} within this "
                         "measure × noise-type family):")
            lines.append("")
            lines.append("| pair | "
                         + " | ".join(f"{l:g}" for l in levels) + " |")
            lines.append(divider)
            for first, second in pairs:
                cells = []
                for level in levels:
                    c = stats.comparison(noise_type, level, measure,
                                         first, second)
                    if c is None:
                        cells.append("--")
                        continue
                    mark = "\\*" if stats.is_significant(c) else ""
                    cells.append(f"Δ{c.mean_diff:+.3f} "
                                 f"p={c.p_holm:.4f}{mark}")
                lines.append(f"| {first} vs {second} | "
                             + " | ".join(cells) + " |")
            lines.append("")
    return lines


def _recovery_section(events: Sequence[Dict[str, object]]) -> List[str]:
    """The "recovery events" section for a ``workers`` sweep's event log.

    ``events`` is :func:`repro.harness.scheduler.load_recovery_events`
    output (possibly filtered).  Counts come first — that is what a CI
    assertion or a skimming reader wants — then one bullet per event
    with enough identity (cell key, pid, reason) to audit a specific
    reclaim.
    """
    lines = ["## recovery events", ""]
    counts: Dict[str, int] = {}
    for event in events:
        kind = str(event.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    lines.append("| event | count |")
    lines.append("|---|---|")
    for kind in sorted(counts):
        lines.append(f"| {kind} | {counts[kind]} |")
    lines.append("")
    for event in events:
        kind = str(event.get("kind", "?"))
        if kind == "lease_reclaimed":
            detail = (f"cell `{event.get('key') or '(unreadable lease)'}` "
                      f"from pid {event.get('pid')} "
                      f"({event.get('reason')}, "
                      f"attempt {event.get('attempts')})")
        elif kind == "worker_respawned":
            detail = (f"shard {event.get('shard')} "
                      f"(exit code {event.get('exit_code')})")
        else:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(event.items())
                               if k not in ("kind", "time", "pid"))
        lines.append(f"- {kind}: {detail}")
    lines.append("")
    return lines


def markdown_report(
    table: ResultTable,
    title: str = "Alignment experiment",
    measures: Sequence[str] = ("accuracy", "s3", "mnc"),
    chart_measure: Optional[str] = "accuracy",
    recovery_events: Optional[Sequence[Dict[str, object]]] = None,
    stats=None,
) -> str:
    """Render a full markdown report for a result table.

    ``recovery_events`` (a ``workers`` sweep's
    :func:`~repro.harness.scheduler.load_recovery_events` output) adds a
    "recovery events" section; ``None`` or an empty list omits it, so
    serial reports are unchanged.

    ``stats`` (a :class:`~repro.stats.comparisons.SweepStats`; defaults
    to the table's own :attr:`~ResultTable.stats` when present) adds the
    significance sections: per-algorithm bootstrap-CI grids and the
    Holm-corrected pairwise permutation matrices, so every A-vs-B claim
    in the report carries a p-value and a confidence interval.
    """
    stats = stats if stats is not None else getattr(table, "stats", None)
    records = table.records
    lines = [f"# {title}", ""]
    datasets = sorted({r.dataset for r in records})
    noise_types = sorted({r.noise_type for r in records})
    lines.append(
        f"- records: {len(records)} "
        f"({sum(1 for r in records if r.status == 'clean')} clean, "
        f"{sum(1 for r in records if r.status == 'degraded')} degraded, "
        f"{sum(1 for r in records if r.failed)} failed)"
    )
    lines.append(f"- datasets: {', '.join(datasets) or '(none)'}")
    lines.append(f"- noise types: {', '.join(noise_types) or '(none)'}")
    lines.append("")

    present_measures = {
        key for r in records for key in r.measures
    }
    for noise_type in noise_types:
        for measure in measures:
            if measure not in present_measures:
                continue
            lines.append(f"## {measure} — {noise_type} noise")
            lines.append("")
            lines.append(_markdown_grid(table, measure,
                                        noise_type=noise_type))
            lines.append("")

    if chart_measure and chart_measure in present_measures and noise_types:
        headline = noise_types[0]
        series = {
            name: table.series(name, "noise_level", chart_measure,
                               noise_type=headline)
            for name in sorted({r.algorithm for r in records})
        }
        lines.append(f"## chart — {chart_measure} vs noise ({headline})")
        lines.append("")
        lines.append("```")
        lines.append(line_plot(series, x_label="noise"))
        lines.append("```")
        lines.append("")

    if stats is not None:
        lines.extend(_stats_sections(stats))

    lines.extend(_trace_sections(table))

    statuses = table.status_counts(by="algorithm")
    if any(c["degraded"] or c["failed"] for c in statuses.values()):
        lines.append("## degradation summary")
        lines.append("")
        lines.append("| algorithm | clean | degraded | failed |")
        lines.append("|---|---|---|---|")
        for name in sorted(statuses):
            c = statuses[name]
            lines.append(f"| {name} | {c['clean']} | {c['degraded']} "
                         f"| {c['failed']} |")
        lines.append("")
        diag_counts = table.diagnostic_counts(by="algorithm")
        for name in sorted(diag_counts):
            for key, count in sorted(diag_counts[name].items()):
                lines.append(f"- {name}: {key} ×{count}")
        if any(diag_counts.values()):
            lines.append("")

    if recovery_events:
        lines.extend(_recovery_section(recovery_events))

    failures = [r for r in records if r.failed]
    if failures:
        lines.append("## failures")
        lines.append("")
        for r in failures:
            lines.append(
                f"- {r.algorithm} on {r.dataset} "
                f"({r.noise_type} {r.noise_level:g}, rep {r.repetition}): "
                f"{r.error}"
            )
        lines.append("")
    return "\n".join(lines)
