"""Shared machinery for the figure/table benches.

The paper's harness imposes a 3-hour / 256 GB budget per run and simply
reports nothing for algorithm/dataset cells that exceed it (the ✗ marks of
Table 3 and the missing lines in Figs. 7–8).  ``eligible`` emulates that
budget with per-profile node caps derived from each algorithm's measured
cost curve, so the quick profile finishes on a laptop while preserving the
same "who gets to run" structure.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.algorithms import list_algorithms
from repro.context import RunContext
from repro.harness import (
    Profile,
    ResultTable,
    RunJournal,
    RunRecord,
    cell_key,
    run_cell,
)
from repro.noise import GraphPair

ALL_ALGORITHMS = tuple(list_algorithms())

# Largest similarity-stage input each algorithm is allowed per profile;
# cells beyond the cap are recorded as budget failures (the paper's ✗).
_NODE_CAPS: Dict[str, Dict[str, int]] = {
    "quick": {
        "gwl": 400, "s-gwl": 900, "cone": 900, "graal": 600,
        "isorank": 900, "grasp": 2500, "lrea": 4000, "nsd": 4000,
        "regal": 4000,
    },
    "medium": {
        "gwl": 900, "s-gwl": 2000, "cone": 2000, "graal": 1200,
        "isorank": 2000, "grasp": 5000, "lrea": 10000, "nsd": 10000,
        "regal": 10000,
    },
    "full": {
        "gwl": 5000, "s-gwl": 20000, "cone": 20000, "graal": 5000,
        "isorank": 20000, "grasp": 20000, "lrea": 70000, "nsd": 70000,
        "regal": 70000,
    },
}


def node_cap(algorithm: str, profile: Profile) -> int:
    caps = _NODE_CAPS.get(profile.name, _NODE_CAPS["quick"])
    return caps.get(algorithm, 10 ** 9)


def eligible(algorithm: str, num_nodes: int, profile: Profile) -> bool:
    """Whether the cell fits the emulated time/memory budget."""
    return num_nodes <= node_cap(algorithm, profile)


def budget_failure(algorithm: str, pair: GraphPair, dataset: str,
                   repetition: int, assignment: str) -> RunRecord:
    """The record for a cell skipped by the emulated 3-hour budget."""
    return RunRecord(
        algorithm=algorithm,
        dataset=dataset,
        noise_type=pair.noise_type,
        noise_level=pair.noise_level,
        repetition=repetition,
        assignment=assignment,
        measures={},
        similarity_time=0.0,
        assignment_time=0.0,
        failed=True,
        error="exceeds emulated time budget (paper: >3h)",
    )


def run_matrix(
    pairs: Iterable,
    algorithms: Sequence[str],
    profile: Profile,
    assignment: str = "jv",
    measures: Sequence[str] = ("accuracy", "s3", "mnc"),
    dataset: str = "synthetic",
    track_memory: bool = False,
    journal: Optional[RunJournal] = None,
    trace: bool = False,
) -> ResultTable:
    """Run every algorithm on every (pair, repetition) with budget checks.

    ``pairs`` yields ``(pair, repetition)`` tuples (or bare pairs, in which
    case repetitions are numbered by arrival order).  Passing a
    :class:`~repro.harness.RunJournal` makes the matrix resumable: each
    record is durably appended as it completes, and cells already in the
    journal (including budget failures) are replayed from it instead of
    being rerun.  ``trace=True`` records a stage trace per cell, enabling
    the ``trace:<stage>:<field>`` / ``counter:<name>`` pseudo-measures in
    the returned table (the scalability benches grid on them).
    """
    table = ResultTable()
    for index, item in enumerate(pairs):
        pair, repetition = item if isinstance(item, tuple) else (item, index)
        size = max(pair.source.num_nodes, pair.target.num_nodes)
        for name in algorithms:
            key = cell_key(dataset, pair.noise_type, pair.noise_level,
                           repetition, name)
            if journal is not None and key in journal:
                table.add(journal.get(key))
                continue
            if not eligible(name, size, profile):
                record = budget_failure(name, pair, dataset,
                                        repetition, assignment)
            else:
                record = run_cell(name, pair, dataset, repetition,
                                  assignment=assignment, measures=measures,
                                  seed=repetition, track_memory=track_memory,
                                  context=RunContext(trace=trace))
            table.add(record)
            if journal is not None:
                journal.append(key, record)
    return table


def stage_breakdown(table: ResultTable, field: str = "wall_time",
                    fmt: str = "{:.4f}") -> str:
    """A text grid of mean per-stage trace values, algorithms as rows.

    ``field`` is any :func:`repro.observability.stage_rollup` field
    (``wall_time``, ``cpu_time``, ``peak_memory_bytes``, ``calls``).
    Untraced tables produce an explanatory one-liner instead of a grid.
    """
    stages = table.trace_stages()
    if not stages:
        return "(no trace data; rerun with trace=True)"
    algorithms = sorted({r.algorithm for r in table.records})
    width = max([len(s) for s in stages] + [10])
    header = ("     algorithm | "
              + " ".join(f"{s:>{width}s}" for s in stages))
    lines = [header, "-" * len(header)]
    for name in algorithms:
        cells = []
        for stage in stages:
            value = table.mean(f"trace:{stage}:{field}", algorithm=name)
            cells.append(f"{'--':>{width}s}" if np.isnan(value)
                         else f"{fmt.format(value):>{width}s}")
        lines.append(f"{name:>14s} | " + " ".join(cells))
    return "\n".join(lines)


def emit(results_dir, name: str, *sections: str) -> str:
    """Print and persist a bench's report; returns the combined text."""
    text = "\n\n".join(sections)
    print(f"\n===== {name} =====\n{text}\n")
    (results_dir / f"{name}.txt").write_text(text + "\n")
    return text


def thread_settings() -> str:
    """A timing table's header line: the BLAS/OpenMP thread variables in
    force (``benchmarks/conftest.py`` defaults each to 1)."""
    from perfbench.run import THREAD_VARS

    values = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                       for name in THREAD_VARS)
    return f"-- threads: {values} --"


def paper_note(claim: str) -> str:
    """Format the paper's qualitative claim next to our measured table."""
    return f"[paper] {claim}"


def synthetic_model_graph(model: str, n: int, seed=None):
    """One graph from the paper's five random families (§5.1.2).

    Parameters follow the paper: ER keeps average degree ~10 (the published
    p = 0.009 at n = 1133), BA m=5, WS k=10 p=0.5, NW k=7 p=0.5, PL m=5
    p=0.5.
    """
    from repro.graphs import (
        barabasi_albert_graph,
        erdos_renyi_graph,
        newman_watts_graph,
        powerlaw_cluster_graph,
        watts_strogatz_graph,
    )
    if model == "er":
        return erdos_renyi_graph(n, min(10.2 / n, 1.0), seed=seed)
    if model == "ba":
        return barabasi_albert_graph(n, 5, seed=seed)
    if model == "ws":
        return watts_strogatz_graph(n, 10, 0.5, seed=seed)
    if model == "nw":
        return newman_watts_graph(n, 7, 0.5, seed=seed)
    if model == "pl":
        return powerlaw_cluster_graph(n, 5, 0.5, seed=seed)
    raise ValueError(f"unknown synthetic model {model!r}")


def synthetic_figure_table(model: str, profile: Profile,
                           algorithms: Sequence[str] = ALL_ALGORITHMS,
                           seed: int = 0) -> ResultTable:
    """The full table behind one of Figs. 2-6: three noise types x levels.

    Generates ``profile.repetitions`` noisy copies per cell and runs every
    algorithm under the common JV assignment, exactly as §6.3 prescribes.
    """
    from repro.noise import make_pair

    graph = synthetic_model_graph(model, profile.synthetic_nodes, seed=seed)
    table = ResultTable()
    for noise_type in ("one-way", "multimodal", "two-way"):
        for level in profile.noise_levels:
            pairs = [
                (make_pair(graph, noise_type, level,
                           seed=seed * 1000 + rep * 17 + int(level * 997)),
                 rep)
                for rep in range(profile.repetitions)
            ]
            table.extend(run_matrix(pairs, algorithms, profile,
                                    dataset=model).records)
    return table


def figure_report(table: ResultTable, measures=("accuracy", "s3", "mnc")) -> List[str]:
    """Grids per (noise type, measure) plus a text chart of the headline."""
    from repro.harness.asciiplot import line_plot

    sections = []
    noise_types = sorted({r.noise_type for r in table.records})
    for noise_type in noise_types:
        for measure in measures:
            grid = table.format_grid(
                "algorithm", "noise_level", measure, noise_type=noise_type
            )
            sections.append(f"-- {measure} / {noise_type} noise --\n{grid}")
    # Headline chart: accuracy under the first noise type, one line per algo.
    if noise_types:
        headline = noise_types[0]
        series = {
            name: table.series(name, "noise_level", measures[0],
                               noise_type=headline)
            for name in sorted({r.algorithm for r in table.records})
        }
        sections.append(line_plot(
            series, title=f"{measures[0]} vs noise level ({headline})",
            x_label="noise",
        ))
    return sections
