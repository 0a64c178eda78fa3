"""Statistical rigor layer: uncertainty for every algorithm comparison.

The paper's core claims are pairwise algorithm rankings per noise level
and measure; bare repetition means cannot distinguish a real win from
seed noise.  This package attaches the missing uncertainty:

* :mod:`repro.stats.resampling` — seeded, chunked primitives: paired
  sign-flip permutation tests (exact or Monte Carlo), percentile/BCa
  bootstrap confidence intervals, Holm step-down correction;
* :mod:`repro.stats.comparisons` — sweep-level orchestration: one
  journaled, BLAKE2b-seeded unit per (noise type, level, measure,
  algorithm [pair]), assembled into a Holm-corrected
  :class:`~repro.stats.comparisons.SweepStats`, computed in the calling
  process.

Typical use::

    from repro.stats import StatsConfig, compute_sweep_stats

    stats = compute_sweep_stats(table, StatsConfig(resamples=2000),
                                journal="sweep.jsonl.stats")
    for claim in stats.comparisons:
        print(claim.algorithm_a, claim.algorithm_b, claim.p_holm)

or end to end via ``ExperimentConfig(stats=True)`` / ``repro experiment
--stats`` / ``repro stats --journal sweep.jsonl``.
"""

from repro.stats.comparisons import (
    ComparisonStat,
    GroupStat,
    StatsConfig,
    SweepStats,
    comparison_key,
    comparison_seed,
    compute_sweep_stats,
    group_key,
    group_seed,
    stats_fingerprint,
    stats_journal_path,
)
from repro.stats.resampling import (
    RESAMPLE_CHUNK,
    BootstrapResult,
    PermutationResult,
    bootstrap_ci,
    chunk_rng,
    holm_correction,
    permutation_test,
    resample_chunks,
)

__all__ = [
    "RESAMPLE_CHUNK",
    "PermutationResult",
    "BootstrapResult",
    "permutation_test",
    "bootstrap_ci",
    "holm_correction",
    "resample_chunks",
    "chunk_rng",
    "StatsConfig",
    "GroupStat",
    "ComparisonStat",
    "SweepStats",
    "group_seed",
    "comparison_seed",
    "group_key",
    "comparison_key",
    "stats_fingerprint",
    "stats_journal_path",
    "compute_sweep_stats",
]
