"""Registry of the paper's Table-2 datasets and their synthetic stand-ins.

Each :class:`DatasetSpec` carries the published statistics (``nodes``,
``edges``, ``left_out``, ``kind``) and a generator recipe keyed by network
type:

* ``social`` / ``communication`` / ``biological`` — powerlaw-cluster
  (Holme–Kim) graphs matched on average degree; skewed degrees, triangles.
* ``collaboration`` — Holme–Kim with high triangle probability (many
  triangles, as the paper notes).
* ``infrastructure`` — Newman–Watts ring lattices with sparse shortcuts
  (grid-like, very low degree).
* ``proximity`` — dense Holme–Kim with high triangle probability (dense,
  clustered, degree-heterogeneous like real contact networks).

Stand-ins whose original has ``left_out > 0`` nodes outside the largest
connected component get small satellite components, reproducing the
disconnectedness that drives GRASP's failures (§6.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.exceptions import DatasetError
from repro.graphs.generators import (
    SeedLike,
    as_rng,
    newman_watts_graph,
    path_graph,
    powerlaw_cluster_graph,
    watts_strogatz_graph,
)
from repro.graphs.graph import Graph

__all__ = ["DatasetSpec", "DATASETS", "list_datasets", "dataset_info", "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics and stand-in recipe for one Table-2 dataset."""

    name: str
    nodes: int
    edges: int
    left_out: int   # nodes outside the largest connected component
    kind: str       # communication / social / collaboration / ...
    recipe: str     # generator family used for the stand-in

    @property
    def average_degree(self) -> float:
        return 2.0 * self.edges / self.nodes


_TABLE2: List[DatasetSpec] = [
    DatasetSpec("arenas", 1133, 5451, 0, "communication", "powerlaw"),
    DatasetSpec("facebook", 4039, 88234, 0, "social", "powerlaw"),
    DatasetSpec("ca-astroph", 17903, 197031, 0, "collaboration", "collaboration"),
    DatasetSpec("inf-euroroad", 1174, 1417, 200, "infrastructure", "grid"),
    DatasetSpec("inf-power", 4941, 6594, 0, "infrastructure", "grid"),
    DatasetSpec("fb-haverford76", 1446, 59589, 0, "social", "powerlaw"),
    DatasetSpec("fb-hamilton46", 2314, 96394, 2, "social", "powerlaw"),
    DatasetSpec("fb-bowdoin47", 2252, 84387, 2, "social", "powerlaw"),
    DatasetSpec("fb-swarthmore42", 1659, 61050, 2, "social", "powerlaw"),
    DatasetSpec("soc-hamsterster", 2426, 16630, 400, "social", "powerlaw"),
    DatasetSpec("bio-celegans", 453, 2025, 0, "biological", "powerlaw"),
    DatasetSpec("ca-grqc", 4158, 14422, 0, "collaboration", "collaboration"),
    DatasetSpec("ca-netscience", 379, 914, 0, "collaboration", "collaboration"),
    DatasetSpec("multimagna", 1004, 8323, 0, "biological", "powerlaw"),
    DatasetSpec("highschool", 327, 5818, 0, "proximity", "proximity"),
    DatasetSpec("voles", 712, 2391, 0, "proximity", "proximity"),
]

DATASETS: Dict[str, DatasetSpec] = {spec.name: spec for spec in _TABLE2}


def list_datasets() -> List[str]:
    """Dataset names in Table-2 order."""
    return [spec.name for spec in _TABLE2]


def dataset_info(name: str) -> DatasetSpec:
    """The :class:`DatasetSpec` for ``name`` (case-insensitive)."""
    key = name.lower()
    if key not in DATASETS:
        raise DatasetError(
            f"unknown dataset {name!r}; known: {', '.join(list_datasets())}"
        )
    return DATASETS[key]


# ----------------------------------------------------------------------
# Stand-in generation
# ----------------------------------------------------------------------

def _core_graph(spec: DatasetSpec, n: int, rng: np.random.Generator) -> Graph:
    """Connected core matched on the spec's average degree."""
    avg_deg = spec.average_degree
    # Holme–Kim attaches m edges per new node, for degree 2m(n - m)/n:
    # at least 3m nodes keep it at 4m/3 or more.
    m = max(1, int(round(avg_deg / 2.0)))
    if spec.recipe != "grid":
        n = max(n, 3 * m)
    if spec.recipe == "powerlaw":
        return powerlaw_cluster_graph(n, m, 0.3, seed=rng)
    if spec.recipe == "collaboration":
        return powerlaw_cluster_graph(n, m, 0.8, seed=rng)
    if spec.recipe == "grid":
        # Ring lattice of degree 2 plus sparse shortcuts to reach the target.
        shortcut_p = max(avg_deg - 2.0, 0.0)
        return newman_watts_graph(n, 2, min(shortcut_p, 1.0), seed=rng)
    if spec.recipe == "proximity":
        # Real contact networks are dense, clustered, AND degree-heterogeneous
        # (some individuals meet many more people); Holme-Kim with a high
        # triangle probability reproduces all three.
        return powerlaw_cluster_graph(n, m, 0.7, seed=rng)
    raise DatasetError(f"unknown stand-in recipe {spec.recipe!r}")


def _with_satellites(core: Graph, left_out: int,
                     rng: np.random.Generator) -> Graph:
    """Append ``left_out`` nodes as small disconnected path components.

    Components are repeated size-3 paths (plus one remainder fragment):
    many *identical* fragments, like the real euroroad/hamsterster
    peripheries.  The repeated components make the Laplacian spectrum
    highly degenerate, which is exactly what defeats spectral methods on
    these datasets (§6.4.2).
    """
    if left_out <= 0:
        return core
    n0 = core.num_nodes
    edges = [tuple(e) for e in core.edges()]
    node = n0
    remaining = left_out
    while remaining > 0:
        size = int(min(remaining, 3))
        for i in range(size - 1):
            edges.append((node + i, node + i + 1))
        node += size
        remaining -= size
    return Graph(node, np.asarray(edges, dtype=np.int64))


def load_dataset(name: str, scale: float = 1.0, seed: SeedLike = None) -> Graph:
    """Generate the stand-in for ``name`` at ``scale`` times its size.

    ``scale < 1`` shrinks the node count (the ``quick`` profile uses this to
    keep bench runtimes laptop-friendly) and keeps the average degree as far
    as ``n`` allows: a Holme–Kim core (``m`` edges per node, degree
    ``2m(n - m)/n``) gets at least ``3m`` nodes, which at the ``quick`` scale
    of 0.1 keeps every stand-in within 35% of its spec's degree.
    """
    spec = dataset_info(name)
    if not 0.0 < scale <= 1.0:
        raise DatasetError(f"scale must be in (0, 1], got {scale}")
    rng = as_rng(seed)
    left_out = int(round(spec.left_out * scale))
    n = max(int(round(spec.nodes * scale)) - left_out, 10)
    core = _core_graph(spec, n, rng)
    return _with_satellites(core, left_out, rng)
