"""Per-layer metrics from the program's own cell traces.

A traced cell's payload (``RunRecord.trace``, or a capture the benchmark
opens around the service's runner) holds the program's spans: top-level
``preflight``/``similarity``/``watchdog``/``assignment``/``evaluate``
and nested ones such as GRASP's ``spectral``, REGAL's and CONE's
``embedding`` and CONE's ``initialization``/``refinement``.  This module
maps those span names onto the benchmark's layers.  Times are per-op
means in ms and counts are per op, except the ``<layer>.ms.<alg>``
family, which is a mean over that algorithm's cells and exists for the
algorithms the cells ran.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.observability import counter_totals

TOP_STAGES = ("preflight", "similarity", "watchdog", "assignment",
              "evaluate")

# The program's spans that make up the OT layer, per algorithm: CONE's
# Sinkhorn initialization and refinement, S-GWL's whole similarity
# stage (its recursive GW solve), GWL's GW solves.
OT_STAGES = {
    "cone": ("initialization", "refinement"),
    "s-gwl": ("similarity",),
    "gwl": ("gw_solve",),
}

# One traced cell: (algorithm, trace payload, diagnostics count).
Cell = Tuple[str, Dict[str, object], int]


def _walk(entries: Sequence[Dict]) -> Iterator[Dict]:
    for entry in entries:
        yield entry
        yield from _walk(entry.get("children", []))


def stage_seconds(payload: Dict[str, object]) -> Tuple[Dict[str, float],
                                                       Dict[str, float]]:
    """``(top-level stage -> s, any-depth stage -> s)`` of one trace."""
    roots = list((payload or {}).get("spans", []))
    top: Dict[str, float] = defaultdict(float)
    for entry in roots:
        top[str(entry["stage"])] += float(entry["wall_time"])
    nested: Dict[str, float] = defaultdict(float)
    for entry in _walk(roots):
        nested[str(entry["stage"])] += float(entry["wall_time"])
    return top, nested


def algorithm_layers(cells: List[Cell], ops: int, cell_seconds: float,
                     harness_seconds: float) -> Dict[str, float]:
    """Per-layer metrics over traced cells.

    ``ops`` is the workload's op count (cells, or tickets), the base of
    every per-op mean.  ``cell_seconds`` is the benchmark-measured cell
    time the shares divide by; ``harness_seconds`` is the time of the
    harness calls around the cells, whose self time is what the program's
    top-level spans leave of it.
    """
    ops = max(int(ops), 1)
    per_alg: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    cells_of: Dict[str, int] = defaultdict(int)
    top_total: Dict[str, float] = defaultdict(float)
    nested_total: Dict[str, float] = defaultdict(float)
    counters: Dict[str, float] = defaultdict(float)
    ot_seconds = 0.0
    events = 0
    for algorithm, payload, diagnostics in cells:
        top, nested = stage_seconds(payload)
        cells_of[algorithm] += 1
        for stage, seconds in top.items():
            top_total[stage] += seconds
            per_alg[algorithm][stage] += seconds
        for stage, seconds in nested.items():
            nested_total[stage] += seconds
        ot_seconds += sum(nested.get(stage, 0.0)
                          for stage in OT_STAGES.get(algorithm, ()))
        for name, value in counter_totals(payload).items():
            counters[name] += value
        events += diagnostics
    metrics: Dict[str, float] = {}
    for alg, stages in per_alg.items():
        metrics[f"assignment.ms.{alg}"] = (
            1e3 * stages["assignment"] / cells_of[alg])
        metrics[f"algorithms.similarity_ms.{alg}"] = (
            1e3 * stages["similarity"] / cells_of[alg])
    share_base = max(cell_seconds, 1e-12)
    sinkhorn = counters.get("sinkhorn_iterations", 0.0)
    hits = counters.get("cache_hits", 0.0)
    misses = counters.get("cache_misses", 0.0)
    metrics.update({
        "assignment.share": top_total["assignment"] / share_base,
        "assignment.densified": counters.get("assignment_densified", 0.0)
        / ops,
        "ot.ms": 1e3 * ot_seconds / ops,
        "ot.share": ot_seconds / share_base,
        "ot.sinkhorn_iterations": sinkhorn / ops,
        "ot.gw_outer_iterations": counters.get("gw_outer_iterations", 0.0)
        / ops,
        "ot.us_per_sinkhorn_iteration": (1e6 * ot_seconds / sinkhorn
                                         if sinkhorn else 0.0),
        "algorithms.preflight_ms": 1e3 * top_total["preflight"] / ops,
        "spectral.ms": 1e3 * nested_total["spectral"] / ops,
        "spectral.eigensolver_calls": counters.get("eigensolver_calls", 0.0)
        / ops,
        "embedding.ms": 1e3 * nested_total["embedding"] / ops,
        "cache.hits": hits / ops,
        "cache.misses": misses / ops,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "harness.self_ms": 1e3 * (harness_seconds - sum(
            top_total[stage] for stage in TOP_STAGES)) / ops,
        "numerics.watchdog_ms": 1e3 * top_total["watchdog"] / ops,
        "measures.evaluate_ms": 1e3 * top_total["evaluate"] / ops,
        "diagnostics.events": events / ops,
    })
    return metrics
