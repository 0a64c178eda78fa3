"""Figure 14 — peak similarity-stage memory vs. average degree.

Same sweep as Fig. 12 with tracemalloc-measured peaks.  Reproduced claim:
methods whose state is n x n (IsoRank, CONE, GRASP) barely move with
density — "with CONE using a sparse representation, even when the number
of edges grows, its memory usage does not" — while edge-proportional
stages (REGAL's k-hop features) do grow.
"""

from benchmarks.helpers import (
    ALL_ALGORITHMS,
    emit,
    paper_note,
    run_matrix,
    stage_breakdown,
    thread_settings,
)
from repro.graphs.generators import configuration_model_graph, normal_degree_sequence
from repro.harness import ResultTable
from repro.noise import make_pair

_ALGOS = tuple(a for a in ALL_ALGORITHMS if a != "graal")


def _run(profile):
    n = 2 ** min(profile.scalability_exponents)
    table = ResultTable()
    for degree in profile.scalability_degrees:
        degree = min(degree, n - 1)
        degrees = normal_degree_sequence(n, degree, seed=degree)
        graph = configuration_model_graph(degrees, seed=degree)
        pair = make_pair(graph, "one-way", 0.0, seed=degree)
        table.extend(run_matrix([(pair, 0)], _ALGOS, profile,
                                dataset=f"deg={degree:05d}",
                                measures=("accuracy",),
                                track_memory=True,
                                trace=True).records)
    return table


def test_fig14_memory_vs_degree(benchmark, profile, results_dir):
    table = benchmark.pedantic(_run, args=(profile,), rounds=1, iterations=1)
    emit(results_dir, "fig14_memory_vs_degree",
         thread_settings(),
         "-- peak similarity-stage memory [bytes] vs avg degree (traced) --\n"
         + table.format_grid("algorithm", "dataset",
                             "trace:similarity:peak_memory_bytes",
                             fmt="{:.3e}"),
         "-- mean peak bytes per stage --\n"
         + stage_breakdown(table, field="peak_memory_bytes", fmt="{:.2e}"),
         paper_note("n x n-state methods are density-insensitive; "
                    "edge-proportional stages grow with degree."))

    degrees = sorted(profile.scalability_degrees)
    lo = f"deg={degrees[0]:05d}"
    hi = f"deg={degrees[-1]:05d}"
    # IsoRank's dense-state similarity memory is density-insensitive
    # (within 3x).
    m_lo = table.mean("trace:similarity:peak_memory_bytes",
                      algorithm="isorank", dataset=lo)
    m_hi = table.mean("trace:similarity:peak_memory_bytes",
                      algorithm="isorank", dataset=hi)
    assert m_hi < 3.0 * m_lo
