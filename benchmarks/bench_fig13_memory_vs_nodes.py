"""Figure 13 — peak similarity-stage memory vs. node count.

Same sweep as Fig. 11 with tracemalloc-measured peaks.  Reproduced claims:
methods materializing dense n x n similarity (IsoRank, GWL, CONE, GRASP)
grow quadratically; REGAL's landmark factorization and NSD's factored
iteration stay lean.
"""

from benchmarks.helpers import (
    ALL_ALGORITHMS,
    emit,
    node_cap,
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
    table = ResultTable()
    for exponent in profile.scalability_exponents:
        n = 2 ** exponent
        degrees = normal_degree_sequence(n, 10, seed=exponent)
        graph = configuration_model_graph(degrees, seed=exponent)
        pair = make_pair(graph, "one-way", 0.0, seed=exponent)
        table.extend(run_matrix([(pair, 0)], _ALGOS, profile,
                                dataset=f"n=2^{exponent:02d}",
                                measures=("accuracy",),
                                track_memory=True,
                                trace=True).records)
    return table


def _mib(value: float) -> float:
    return value / (1024.0 * 1024.0)


def test_fig13_memory_vs_nodes(benchmark, profile, results_dir):
    table = benchmark.pedantic(_run, args=(profile,), rounds=1, iterations=1)
    emit(results_dir, "fig13_memory_vs_nodes",
         thread_settings(),
         "-- peak similarity-stage memory [bytes] vs graph size (traced) --\n"
         + table.format_grid("algorithm", "dataset",
                             "trace:similarity:peak_memory_bytes",
                             fmt="{:.3e}"),
         "-- mean peak bytes per stage --\n"
         + stage_breakdown(table, field="peak_memory_bytes", fmt="{:.2e}"),
         paper_note("Dense-similarity methods grow ~quadratically; REGAL "
                    "could not fit the largest size in the paper."))

    exps = sorted(profile.scalability_exponents)
    # IsoRank's largest size within its emulated node cap: above it the
    # cell is a budget failure with no trace to read.
    top = max(e for e in exps if 2 ** e <= node_cap("isorank", profile))
    lo, hi = f"n=2^{exps[0]:02d}", f"n=2^{top:02d}"
    # Quadratic growth for a dense-matrix method: a 2^k size ratio should
    # give well over 2^k memory for IsoRank (n^2 state) in its similarity
    # stage.
    m_lo = table.mean("trace:similarity:peak_memory_bytes",
                      algorithm="isorank", dataset=lo)
    m_hi = table.mean("trace:similarity:peak_memory_bytes",
                      algorithm="isorank", dataset=hi)
    size_ratio = 2 ** (top - exps[0])
    assert m_hi > m_lo * size_ratio  # super-linear
    # NSD's factored iteration uses far less than IsoRank at the top size.
    nsd_hi = table.mean("trace:similarity:peak_memory_bytes",
                        algorithm="nsd", dataset=hi)
    assert nsd_hi < m_hi
    # The whole-process peak field still bounds any single stage's peak.
    whole = table.mean("peak_memory_bytes", algorithm="isorank", dataset=hi)
    assert whole >= m_hi * 0.5
