"""Tracing overhead — proof that disabled instrumentation is near-free.

Not a paper artifact: this bench guards the observability layer's core
contract (see ``repro.observability.trace``): every ``span()`` /
``add_counter()`` call site compiled into the algorithms costs one
boolean check when tracing is off, so instrumenting hot paths must not
tax normal benchmark runs.

The proof is a bound, not a diff against an uninstrumented build (which
does not exist): measure the per-call cost of the disabled fast path in
a tight loop, count how many instrumentation events one traced run of
each algorithm actually produces (spans plus counter updates), and
assert that ``events x per-call cost`` stays under 2% of the same
algorithm's untraced runtime.  The enabled-path slowdown is reported
alongside for context (it is allowed to be larger — tracing on is a
diagnostic mode).
"""

import time

from benchmarks.helpers import emit
from repro.context import RunContext
from repro.graphs import powerlaw_cluster_graph
from repro.harness import run_cell
from repro.noise import make_pair
from repro.observability import add_counter, counter_totals, span

_ALGOS = ("isorank", "nsd", "grasp")
_CALIBRATION_LOOPS = 50_000
_OVERHEAD_CEILING = 0.02  # the documented <2% bound


def _disabled_call_cost() -> float:
    """Seconds per disabled ``span`` + ``add_counter`` pair, measured."""
    start = time.perf_counter()
    for _ in range(_CALIBRATION_LOOPS):
        with span("calibration"):
            add_counter("sinkhorn_iterations", 0)
    return (time.perf_counter() - start) / _CALIBRATION_LOOPS


def _instrumentation_events(record) -> int:
    """Spans plus counter updates one traced run actually produced."""
    spans = sum(
        1 + _count_children(entry) for entry in record.trace["spans"]
    )
    counters = len(counter_totals(record.trace))
    return spans + counters


def _count_children(entry) -> int:
    return sum(1 + _count_children(child)
               for child in entry.get("children", []))


def _run(profile):
    n = max(80, int(profile.synthetic_nodes * 0.5))
    graph = powerlaw_cluster_graph(n, 3, 0.3, seed=7)
    pair = make_pair(graph, "one-way", 0.01, seed=7)
    per_call = _disabled_call_cost()
    rows = []
    for name in _ALGOS:
        start = time.perf_counter()
        run_cell(name, pair, "pl", 0, measures=("accuracy",))
        untraced = time.perf_counter() - start
        start = time.perf_counter()
        traced_record = run_cell(name, pair, "pl", 0,
                                 measures=("accuracy",),
                                 context=RunContext(trace=True))
        traced = time.perf_counter() - start
        events = _instrumentation_events(traced_record)
        bound = events * per_call / untraced
        rows.append((name, untraced, traced, events, bound))
    return per_call, rows


def test_trace_overhead(benchmark, profile, results_dir):
    per_call, rows = benchmark.pedantic(_run, args=(profile,),
                                        rounds=1, iterations=1)
    lines = [f"disabled span+counter call: {per_call * 1e9:.0f} ns",
             "",
             f"{'algorithm':>10s} {'untraced[s]':>12s} {'traced[s]':>10s} "
             f"{'events':>7s} {'disabled overhead':>18s}"]
    for name, untraced, traced, events, bound in rows:
        lines.append(f"{name:>10s} {untraced:>12.4f} {traced:>10.4f} "
                     f"{events:>7d} {bound:>17.4%}")
    emit(results_dir, "trace_overhead", "\n".join(lines))

    for name, _untraced, _traced, _events, bound in rows:
        assert bound < _OVERHEAD_CEILING, (
            f"{name}: disabled instrumentation bound {bound:.2%} "
            f"exceeds the documented {_OVERHEAD_CEILING:.0%}"
        )
