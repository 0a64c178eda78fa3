"""Experiment configuration and size profiles.

The paper runs on a 28-core / 256 GB machine with a 3-hour-per-run budget.
The ``quick`` profile (default) scales every experiment down so the whole
bench suite completes on a laptop; ``full`` restores sizes close to the
published ones.  Select with the ``REPRO_PROFILE`` environment variable or
by passing a profile explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.context import RunContext
from repro.exceptions import ExperimentError
from repro.harness.budget import CellBudget
from repro.harness.retry import RetryPolicy
from repro.sketch import SketchPolicy

__all__ = ["Profile", "PROFILES", "active_profile", "ExperimentConfig"]


@dataclass(frozen=True)
class Profile:
    """Size knobs for one benchmarking regime."""

    name: str
    graph_scale: float        # multiplier on dataset / model sizes
    synthetic_nodes: int      # n for the random-model experiments (paper: 1133)
    repetitions: int          # noisy copies averaged (paper: 10)
    noise_levels: Tuple[float, ...]            # low-noise grid (paper: 0..0.05)
    high_noise_levels: Tuple[float, ...]       # high-noise grid (paper: 0..0.25)
    scalability_exponents: Tuple[int, ...]     # log2 node counts (paper: 10..16)
    scalability_degrees: Tuple[int, ...]       # avg degrees (paper: 10..10^4)
    time_budget_seconds: float                 # per-cell allowance (paper: 3 h)
    memory_budget_bytes: Optional[int] = None  # per-cell cap (paper: 256 GB)

    def cell_budget(self, grace_seconds: float = 2.0) -> CellBudget:
        """This profile's time+memory allowance as a :class:`CellBudget`."""
        return CellBudget(
            time_seconds=self.time_budget_seconds,
            memory_bytes=self.memory_budget_bytes,
            grace_seconds=grace_seconds,
        )


PROFILES: Dict[str, Profile] = {
    "quick": Profile(
        name="quick",
        graph_scale=0.10,
        synthetic_nodes=160,
        repetitions=2,
        noise_levels=(0.0, 0.01, 0.03, 0.05),
        high_noise_levels=(0.0, 0.05, 0.15, 0.25),
        scalability_exponents=(7, 8, 9, 10),
        scalability_degrees=(10, 32, 100),
        time_budget_seconds=120.0,
        memory_budget_bytes=4 * 2 ** 30,
    ),
    "medium": Profile(
        name="medium",
        graph_scale=0.4,
        synthetic_nodes=500,
        repetitions=3,
        noise_levels=(0.0, 0.01, 0.02, 0.03, 0.04, 0.05),
        high_noise_levels=(0.0, 0.05, 0.1, 0.15, 0.2, 0.25),
        scalability_exponents=(8, 9, 10, 11),
        scalability_degrees=(10, 100, 320),
        time_budget_seconds=600.0,
        memory_budget_bytes=16 * 2 ** 30,
    ),
    "full": Profile(
        name="full",
        graph_scale=1.0,
        synthetic_nodes=1133,
        repetitions=10,
        noise_levels=(0.0, 0.01, 0.02, 0.03, 0.04, 0.05),
        high_noise_levels=(0.0, 0.05, 0.1, 0.15, 0.2, 0.25),
        scalability_exponents=(10, 11, 12, 13, 14),
        scalability_degrees=(10, 100, 1000),
        time_budget_seconds=10800.0,
        memory_budget_bytes=256 * 2 ** 30,
    ),
}


def active_profile(name: Optional[str] = None) -> Profile:
    """Resolve the profile: explicit name > ``REPRO_PROFILE`` > ``quick``."""
    key = name or os.environ.get("REPRO_PROFILE", "quick")
    key = key.lower()
    if key not in PROFILES:
        raise ExperimentError(
            f"unknown profile {key!r}; choose from {sorted(PROFILES)}"
        )
    return PROFILES[key]


@dataclass
class ExperimentConfig:
    """A fully specified experiment: what to run on what.

    Attributes map one-to-one onto the paper's experimental axes: the
    algorithms compared, the common assignment method, the noise grid, the
    repetition count, and the random seed everything derives from.
    Execution knobs (``budget``, ``retry_policy``, ``workers``,
    ``trace``, ``cache``, ``cache_dir``, ``lease_timeout_seconds``)
    change how cells run or what extra telemetry they record, never what
    they compute — they are excluded from the journal fingerprint and a
    ``workers=N`` sweep yields the same records as a serial one.
    ``strict_numerics`` is *not* such a knob: it changes
    cell outcomes (a sanitized-and-degraded cell becomes a failed one), so
    it participates in the fingerprint when enabled.

    ``sketch`` and ``sketch_threshold`` opt cells into sparse
    similarity (:mod:`repro.sketch`): below ``sketch_threshold`` nothing
    changes (runs are bit-identical with the knob on or off), above it
    sparse top-k similarity replaces dense ``n x n`` similarities that
    would not fit in memory anyway; eigenpairs and embeddings stay exact.
    Like the execution knobs they stay out of the journal fingerprint —
    see DESIGN.md for why that boundary is drawn at the threshold — while
    per-cell provenance is carried by trace counters
    (``similarity_topk``, ``dense_bypass``, ``assignment_densified``)
    and diagnostics instead.
    """

    name: str
    algorithms: Sequence[str]
    assignment: str = "jv"
    noise_types: Sequence[str] = ("one-way",)
    noise_levels: Sequence[float] = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
    repetitions: int = 2
    measures: Sequence[str] = ("accuracy", "s3", "mnc")
    seed: int = 0
    track_memory: bool = False
    algorithm_params: Dict[str, dict] = field(default_factory=dict)
    budget: Optional[CellBudget] = None       # run cells in capped children
    retry_policy: Optional[RetryPolicy] = None  # re-attempt transient fails
    workers: int = 1  # >1 runs the pipe scheduler (repro.harness.scheduler)
    strict_numerics: bool = False  # watchdog fail-fast instead of sanitize
    trace: bool = False  # record per-cell stage traces (repro.observability)
    cache: bool = False  # share per-graph intermediates via repro.cache
    cache_dir: Optional[str] = None  # disk-backed cache (repro.cache_disk)
    lease_timeout_seconds: float = 30.0  # worker silence that orphans a cell
    # Post-sweep statistics (repro.stats): permutation tests + bootstrap
    # CIs over the finished table, attached as ``table.stats``.  Derived
    # from the records, never changing them, so excluded from the
    # journal fingerprint; the stats journal side-car carries its own.
    stats: bool = False
    stats_resamples: int = 2000
    # Sparse-similarity opt-in (repro.sketch).
    sketch: bool = False
    sketch_threshold: int = SketchPolicy.threshold

    def sketch_policy(self) -> Optional[SketchPolicy]:
        """The :class:`SketchPolicy` for cells, or ``None`` when off."""
        if not self.sketch:
            return None
        return SketchPolicy(threshold=int(self.sketch_threshold))

    def run_context(self) -> RunContext:
        """The :class:`~repro.context.RunContext` every cell runs under.

        Caching is on for ``cache`` or a ``cache_dir``: a disk tier needs
        the in-memory tier above it.
        """
        return RunContext(
            numerics="strict" if self.strict_numerics else "sanitize",
            sketch=self.sketch_policy(),
            trace=bool(self.trace),
            cache=bool(self.cache) or self.cache_dir is not None,
        )

    def __post_init__(self):
        if not self.algorithms:
            raise ExperimentError("an experiment needs at least one algorithm")
        if self.repetitions < 1:
            raise ExperimentError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        if self.workers < 1:
            raise ExperimentError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.stats_resamples < 1:
            raise ExperimentError(
                f"stats_resamples must be >= 1, got {self.stats_resamples}"
            )
        if self.lease_timeout_seconds <= 0:
            raise ExperimentError(
                f"lease_timeout_seconds must be positive, "
                f"got {self.lease_timeout_seconds}"
            )
        if self.sketch:
            # Delegates the threshold's range check to the policy.
            self.sketch_policy()
        for level in self.noise_levels:
            if not 0.0 <= level < 1.0:
                raise ExperimentError(f"noise level {level} outside [0, 1)")
