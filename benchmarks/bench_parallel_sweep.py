"""Parallel sweep executor — throughput and serial-equivalence check.

Not a paper artifact: this bench guards the harness property the paper's
own runs relied on (a 28-core machine chewing through the full matrix).
It times the same (instance × algorithm) sweep serially and under
``workers=N`` (the pipe scheduler), asserts the two record sets are
identical modulo timings, and reports the speedup.  The supervisor
blocks on its workers' pipes and sentinels, so nothing waits on a poll;
what remains is the fixed cost of forking the workers and pickling
every record back, which outweighs the parallelism on cells as small as
these.  The assertion is only that parallelism never *changes* results.
"""

import os
import time

from benchmarks.helpers import emit
from repro.graphs import powerlaw_cluster_graph
from repro.harness import ExperimentConfig, run_experiment

WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))


def _config(workers: int) -> ExperimentConfig:
    return ExperimentConfig(
        name="parallel-bench",
        algorithms=["isorank", "nsd", "lrea"],
        noise_levels=(0.0, 0.02, 0.05),
        repetitions=2,
        seed=11,
        workers=workers,
    )


def _canonical(table):
    return sorted(
        (r.algorithm, r.dataset, r.noise_type, round(r.noise_level, 6),
         r.repetition, tuple(sorted(r.measures.items())), r.failed)
        for r in table.records
    )


def _run_both(graph):
    start = time.perf_counter()
    serial = run_experiment(_config(1), {"pl": graph})
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_experiment(_config(WORKERS), {"pl": graph})
    parallel_seconds = time.perf_counter() - start
    return serial, parallel, serial_seconds, parallel_seconds


def test_parallel_sweep(benchmark, profile, results_dir):
    graph = powerlaw_cluster_graph(
        max(40, int(profile.synthetic_nodes * profile.graph_scale)), 3, 0.3,
        seed=13,
    )
    serial, parallel, serial_s, parallel_s = benchmark.pedantic(
        _run_both, args=(graph,), rounds=1, iterations=1
    )
    assert len(serial) == len(parallel) == 18
    assert _canonical(serial) == _canonical(parallel)
    emit(results_dir, "parallel_sweep",
         f"serial: {serial_s:.2f}s  workers={WORKERS}: {parallel_s:.2f}s  "
         f"speedup x{serial_s / max(parallel_s, 1e-9):.2f}",
         "[harness] workers=N must change wall-clock only, never records.\n"
         "[harness] Cells this small finish faster than forking the "
         "workers and pickling their records back, so that fixed cost "
         "can exceed the parallel gain; the supervisor itself never "
         "polls.")
