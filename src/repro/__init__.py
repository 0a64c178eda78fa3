"""repro — a unified benchmark of unrestricted graph alignment algorithms.

A from-scratch reproduction of

    Skitsas, Orłowski, Hermanns, Mottin, Karras:
    "Comprehensive Evaluation of Algorithms for Unrestricted Graph
    Alignment", EDBT 2023.

The package provides:

* nine alignment algorithms behind one interface
  (:mod:`repro.algorithms`): IsoRank, GRAAL, NSD, LREA, REGAL, GWL, S-GWL,
  CONE, GRASP;
* the substrates they need: graphs and generators (:mod:`repro.graphs`),
  noise models (:mod:`repro.noise`), assignment solvers
  (:mod:`repro.assignment`), quality measures (:mod:`repro.measures`),
  spectral/embedding/OT/graphlet machinery;
* dataset stand-ins matched to the paper's Table 2 (:mod:`repro.datasets`);
* the experiment harness regenerating every table and figure
  (:mod:`repro.harness`, driven by the ``benchmarks/`` suite).

Quickstart
----------
>>> import repro
>>> graph = repro.graphs.powerlaw_cluster_graph(200, 4, 0.3, seed=1)
>>> pair = repro.noise.make_pair(graph, "one-way", 0.02, seed=2)
>>> result = repro.align(pair.source, pair.target, method="isorank")
>>> repro.measures.accuracy(result.mapping, pair.ground_truth) > 0.8
True
"""

from repro import (
    algorithms,
    assignment,
    cache,
    datasets,
    graphlets,
    graphs,
    harness,
    measures,
    noise,
    ot,
    spectral,
)
from repro.algorithms import get_algorithm, list_algorithms
from repro.algorithms.base import AlignmentResult
from repro.cache import ArtifactCache, artifact_cache, caching
from repro.context import RunContext
from repro.diagnostics import Diagnostic, capture_diagnostics
from repro.exceptions import ReproError
from repro.numerics import numerics_policy

__version__ = "1.0.0"

__all__ = [
    "align",
    "get_algorithm",
    "list_algorithms",
    "AlignmentResult",
    "Diagnostic",
    "capture_diagnostics",
    "numerics_policy",
    "RunContext",
    "ReproError",
    "ArtifactCache",
    "artifact_cache",
    "caching",
    "algorithms",
    "assignment",
    "cache",
    "datasets",
    "graphs",
    "graphlets",
    "harness",
    "measures",
    "noise",
    "ot",
    "spectral",
    "__version__",
]


def align(source, target, method: str = "isorank", assignment: str = "jv",
          seed=None, **params) -> AlignmentResult:
    """Align two graphs with a named algorithm (one-call convenience API).

    Parameters
    ----------
    source, target:
        :class:`repro.graphs.Graph` instances.
    method:
        Algorithm name (see :func:`list_algorithms`).
    assignment:
        Assignment back-end: ``"nn"``, ``"nn-1to1"``, ``"sg"``, ``"mwm"``,
        or ``"jv"`` (the paper's common choice, default).
    seed:
        Random seed for stochastic algorithms.
    **params:
        Forwarded to the algorithm constructor.
    """
    return get_algorithm(method, **params).align(
        source, target, assignment=assignment, seed=seed
    )
