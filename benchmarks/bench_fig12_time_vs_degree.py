"""Figure 12 — similarity-stage runtime vs. average degree.

Configuration-model graphs of fixed size (paper: 2^14 nodes; scaled by
profile) with average degree swept over the profile's range (paper:
10–10^4).  Reproduced claim: density hits the dense-matrix methods (GWL,
IsoRank, CONE) hardest, while REGAL's feature stage degrades with degree
too (the paper's Table 3 marks REGAL's time ✗ at extreme density).
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
                                trace=True).records)
    return table


def test_fig12_time_vs_degree(benchmark, profile, results_dir):
    table = benchmark.pedantic(_run, args=(profile,), rounds=1, iterations=1)
    emit(results_dir, "fig12_time_vs_degree",
         thread_settings(),
         "-- similarity-stage runtime [s] vs average degree (traced) --\n"
         + table.format_grid("algorithm", "dataset",
                             "trace:similarity:wall_time", fmt="{:.3f}"),
         "-- mean wall seconds per stage --\n" + stage_breakdown(table),
         paper_note("Density grows edge-dependent stages; sparse-friendly "
                    "NSD/LREA degrade most gracefully."))

    degrees = sorted(profile.scalability_degrees)
    lo = f"deg={degrees[0]:05d}"
    hi = f"deg={degrees[-1]:05d}"
    # NSD completes at every density and stays cheap.
    assert table.mean("trace:similarity:wall_time",
                      algorithm="nsd", dataset=hi) < 60.0
    # Degree growth must not *reduce* REGAL's feature-stage cost.
    t_lo = table.mean("trace:similarity:wall_time",
                      algorithm="regal", dataset=lo)
    t_hi = table.mean("trace:similarity:wall_time",
                      algorithm="regal", dataset=hi)
    assert t_hi > 0.3 * t_lo
