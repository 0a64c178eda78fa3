"""Figure 11 — similarity-stage runtime vs. node count.

Configuration-model graphs with a normal degree distribution (mean degree
10), sizes 2^k for the active profile's exponent range (paper: 2^10–2^16).
Runtime excludes the assignment step, per §6.6; GRAAL is excluded for its
quintic preprocessing, as in the paper.

Reproduced claims: NSD/LREA/REGAL fastest, IsoRank/GWL slowest; cells
beyond the emulated budget go missing exactly where the paper's lines stop.

The sweep runs traced: runtimes come from the ``similarity`` stage span
(``trace:similarity:wall_time``) rather than the legacy stopwatch field,
and the report includes the full per-stage breakdown.
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
    table = ResultTable()
    for exponent in profile.scalability_exponents:
        n = 2 ** exponent
        degrees = normal_degree_sequence(n, 10, seed=exponent)
        graph = configuration_model_graph(degrees, seed=exponent)
        pair = make_pair(graph, "one-way", 0.0, seed=exponent)
        # Tag records with the size through the dataset field.
        table.extend(run_matrix([(pair, 0)], _ALGOS, profile,
                                dataset=f"n=2^{exponent:02d}",
                                measures=("accuracy",),
                                trace=True).records)
    return table


def test_fig11_time_vs_nodes(benchmark, profile, results_dir):
    table = benchmark.pedantic(_run, args=(profile,), rounds=1, iterations=1)
    emit(results_dir, "fig11_time_vs_nodes",
         thread_settings(),
         "-- similarity-stage runtime [s] vs graph size (traced) --\n"
         + table.format_grid("algorithm", "dataset",
                             "trace:similarity:wall_time", fmt="{:.3f}"),
         "-- mean wall seconds per stage --\n" + stage_breakdown(table),
         paper_note("NSD, LREA, REGAL fastest; IsoRank and GWL slowest; "
                    "missing cells exceed the emulated budget."))

    # Every successful record carries a trace with the similarity stage.
    assert all(r.trace is not None for r in table.successful())

    small = f"n=2^{min(profile.scalability_exponents):02d}"
    nsd = table.mean("trace:similarity:wall_time",
                     algorithm="nsd", dataset=small)
    gwl = table.mean("trace:similarity:wall_time",
                     algorithm="gwl", dataset=small)
    assert nsd < gwl, "NSD must be faster than GWL at every size"

    # Runtime grows with size for every algorithm that completes everywhere.
    exps = sorted(profile.scalability_exponents)
    lo, hi = f"n=2^{exps[0]:02d}", f"n=2^{exps[-1]:02d}"
    for name in ("nsd", "regal"):
        t_lo = table.mean("trace:similarity:wall_time",
                          algorithm=name, dataset=lo)
        t_hi = table.mean("trace:similarity:wall_time",
                          algorithm=name, dataset=hi)
        assert t_hi > t_lo * 0.8, name
