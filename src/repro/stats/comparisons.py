"""Sweep-level statistics: every A-vs-B claim with uncertainty attached.

This module turns a finished :class:`~repro.harness.results.ResultTable`
into a :class:`SweepStats`: for every ``(noise type, noise level,
measure)`` cell of the sweep it computes

* a **group statistic** per algorithm — the mean over the raw
  per-repetition values with a bootstrap confidence interval, and
* a **comparison statistic** per unordered algorithm pair — the paired
  mean difference over shared instances, a sign-flip permutation
  p-value, a bootstrap CI of the difference, and (at assembly time) the
  Holm-corrected p-value within its ``(noise type, measure)`` family.

Each unit of work is seeded from a BLAKE2b digest of its canonical
coordinates (:func:`group_seed` / :func:`comparison_seed`) — the same
idiom as :func:`repro.harness.runner.cell_seed` — and journaled like a
sweep cell: :func:`compute_sweep_stats` skips journaled units on a
rerun, so a SIGKILLed stats computation resumes exactly where it died.
The stats journal is fingerprint-checked (:func:`stats_fingerprint`
covers the statistical parameters *and* a digest of the underlying
records), so stale statistics can never be silently grafted onto
different data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace, asdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ExperimentError
from repro.harness.journal import RunJournal, canonical_noise_level
from repro.stats.resampling import (
    bootstrap_ci,
    holm_correction,
    permutation_test,
)

__all__ = [
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


@dataclass(frozen=True)
class StatsConfig:
    """What to compute — the statistical twin of ExperimentConfig.

    Every field changes what the statistics *are* and participates in
    :func:`stats_fingerprint`.
    """

    resamples: int = 2000
    confidence: float = 0.95
    alpha: float = 0.05
    bootstrap_method: str = "bca"   # or "percentile"
    seed: int = 0
    measures: Optional[Tuple[str, ...]] = None  # None = every measure seen
    min_pairs: int = 2              # comparisons need at least this many

    def __post_init__(self):
        if self.resamples < 1:
            raise ExperimentError(
                f"resamples must be >= 1, got {self.resamples}")
        if not 0.0 < self.confidence < 1.0:
            raise ExperimentError(
                f"confidence must be in (0, 1), got {self.confidence}")
        if not 0.0 < self.alpha < 1.0:
            raise ExperimentError(
                f"alpha must be in (0, 1), got {self.alpha}")
        if self.bootstrap_method not in ("percentile", "bca"):
            raise ExperimentError(
                "bootstrap_method must be 'percentile' or 'bca', "
                f"got {self.bootstrap_method!r}")
        if self.min_pairs < 1:
            raise ExperimentError(
                f"min_pairs must be >= 1, got {self.min_pairs}")


@dataclass(frozen=True)
class GroupStat:
    """One algorithm's mean and CI at one (noise type, level, measure)."""

    noise_type: str
    noise_level: float
    measure: str
    algorithm: str
    n: int
    mean: float
    ci_lo: float
    ci_hi: float
    seed: int

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GroupStat":
        names = {f.name for f in cls.__dataclass_fields__.values()}
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclass(frozen=True)
class ComparisonStat:
    """One A-vs-B claim: paired difference, permutation p, CI, Holm p.

    ``algorithm_a < algorithm_b`` lexicographically (the canonical
    orientation); ``mean_diff`` is ``mean_a - mean_b``, so a positive
    value favors A.  ``p_holm`` is NaN in journaled entries — the Holm
    correction depends on the whole ``(noise type, measure)`` family
    and is re-derived at assembly, never stored.
    """

    noise_type: str
    noise_level: float
    measure: str
    algorithm_a: str
    algorithm_b: str
    n_pairs: int
    mean_a: float
    mean_b: float
    mean_diff: float
    p_value: float
    exact: bool
    ci_lo: float
    ci_hi: float
    seed: int
    p_holm: float = float("nan")

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data.pop("p_holm")  # family-dependent; recomputed at assembly
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ComparisonStat":
        names = {f.name for f in cls.__dataclass_fields__.values()}
        return cls(**{k: v for k, v in data.items()
                      if k in names and k != "p_holm"})


# ---------------------------------------------------------------------------
# Seeds, keys, fingerprints


def _derive_seed(*parts: object) -> int:
    """32-bit BLAKE2b seed from canonical coordinates (cell_seed's idiom)."""
    coords = "|".join(str(part) for part in parts)
    digest = hashlib.blake2b(coords.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def group_seed(base_seed: int, noise_type: str, noise_level: float,
               measure: str, algorithm: str) -> int:
    """Deterministic per-group resampling seed."""
    return _derive_seed(int(base_seed), "stats", "group", noise_type,
                        canonical_noise_level(noise_level), measure,
                        algorithm)


def comparison_seed(base_seed: int, noise_type: str, noise_level: float,
                    measure: str, algorithm_a: str, algorithm_b: str) -> int:
    """Deterministic per-comparison resampling seed (A, B in sorted order)."""
    first, second = sorted((algorithm_a, algorithm_b))
    return _derive_seed(int(base_seed), "stats", "cmp", noise_type,
                        canonical_noise_level(noise_level), measure,
                        first, second)


def group_key(noise_type: str, noise_level: float, measure: str,
              algorithm: str) -> str:
    """Journal key of one group unit."""
    return "|".join(("stats", "group", noise_type,
                     canonical_noise_level(noise_level), measure, algorithm))


def comparison_key(noise_type: str, noise_level: float, measure: str,
                   algorithm_a: str, algorithm_b: str) -> str:
    """Journal key of one comparison unit (A, B in sorted order)."""
    first, second = sorted((algorithm_a, algorithm_b))
    return "|".join(("stats", "cmp", noise_type,
                     canonical_noise_level(noise_level), measure,
                     first, second))


def _record_identity(record) -> Tuple:
    return (record.algorithm, record.dataset, record.noise_type,
            canonical_noise_level(record.noise_level), record.repetition,
            record.failed, tuple(sorted(record.measures.items())))


def stats_fingerprint(table, config: StatsConfig) -> str:
    """Digest pinning the statistics to their parameters *and* their data.

    A stats journal written against one result table (or one resample
    budget, confidence level, ...) must not be resumed against another:
    the fingerprint covers every field of :class:`StatsConfig` plus a
    digest over the sorted record identities *including their measure
    values*, so even a sweep that re-ran one cell to a different value
    invalidates the journal.  Measures enter as the sorted set they
    resolve to on ``table``: ``None`` and every order of the same
    measures enumerate the same keyed units, so they share a side-car.
    """
    data = hashlib.blake2b(digest_size=16)
    for identity in sorted(repr(_record_identity(r)) for r in table.records):
        data.update(identity.encode("utf-8"))
    payload = {
        "resamples": int(config.resamples),
        "confidence": float(config.confidence),
        "alpha": float(config.alpha),
        "bootstrap_method": config.bootstrap_method,
        "seed": int(config.seed),
        "measures": sorted(set(_sweep_measures(table, config))),
        "min_pairs": int(config.min_pairs),
        "records": data.hexdigest(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"),
                           digest_size=16).hexdigest()


def stats_journal_path(journal: Union[str, Path]) -> Path:
    """The side-car stats journal accompanying a run journal path."""
    return Path(str(journal) + ".stats")


# ---------------------------------------------------------------------------
# Unit enumeration and computation


def _sweep_measures(table, config: StatsConfig) -> List[str]:
    if config.measures is not None:
        return list(config.measures)
    return sorted({key for r in table.successful().records
                   for key in r.measures})


def _enumerate_units(table, config: StatsConfig) -> List[Tuple]:
    """Every (group | comparison) unit of this sweep, deterministic order.

    A unit is ``(kind, key, seed, payload)`` where payload carries the
    raw value vectors — everything :func:`compute_unit` needs.  Units
    whose sample is too small for their statistic (empty groups, pairs
    sharing fewer than ``min_pairs`` instances) are simply not
    enumerated; absence in :class:`SweepStats` is the honest answer.
    """
    units: List[Tuple] = []
    successful = table.successful()
    cells = sorted({(r.noise_type, r.noise_level)
                    for r in successful.records},
                   key=lambda c: (c[0], canonical_noise_level(c[1])))
    measures = _sweep_measures(table, config)
    algorithms = sorted({r.algorithm for r in successful.records})
    for noise_type, level in cells:
        subset = table.filter(noise_type=noise_type, noise_level=level)
        for measure in measures:
            for name in algorithms:
                values = subset.values(measure, algorithm=name)
                if not values:
                    continue
                units.append((
                    "group",
                    group_key(noise_type, level, measure, name),
                    group_seed(config.seed, noise_type, level, measure,
                               name),
                    {"noise_type": noise_type, "noise_level": float(level),
                     "measure": measure, "algorithm": name,
                     "values": values},
                ))
            for i, first in enumerate(algorithms):
                for second in algorithms[i + 1:]:
                    _keys, a, b = subset.paired_values(measure, first,
                                                       second)
                    if len(a) < config.min_pairs:
                        continue
                    units.append((
                        "cmp",
                        comparison_key(noise_type, level, measure, first,
                                       second),
                        comparison_seed(config.seed, noise_type, level,
                                        measure, first, second),
                        {"noise_type": noise_type,
                         "noise_level": float(level), "measure": measure,
                         "algorithm_a": first, "algorithm_b": second,
                         "a": a, "b": b},
                    ))
    return units


def compute_unit(kind: str, seed: int, payload: Dict,
                 config: StatsConfig) -> Dict[str, object]:
    """Compute one journaled unit; returns its serialized entry dict.

    Pure function of ``(kind, seed, payload, config)`` — the contract
    that makes a fresh run and a resumed one interchangeable.
    """
    if kind == "group":
        ci = bootstrap_ci(payload["values"], confidence=config.confidence,
                          resamples=config.resamples, seed=seed,
                          method=config.bootstrap_method)
        return GroupStat(
            noise_type=payload["noise_type"],
            noise_level=payload["noise_level"],
            measure=payload["measure"],
            algorithm=payload["algorithm"],
            n=len(payload["values"]),
            mean=ci.estimate, ci_lo=ci.low, ci_hi=ci.high,
            seed=seed,
        ).to_dict()
    a = np.asarray(payload["a"], dtype=np.float64)
    b = np.asarray(payload["b"], dtype=np.float64)
    diffs = a - b
    perm = permutation_test(diffs, resamples=config.resamples, seed=seed)
    ci = bootstrap_ci(diffs, confidence=config.confidence,
                      resamples=config.resamples, seed=seed,
                      method=config.bootstrap_method)
    return ComparisonStat(
        noise_type=payload["noise_type"],
        noise_level=payload["noise_level"],
        measure=payload["measure"],
        algorithm_a=payload["algorithm_a"],
        algorithm_b=payload["algorithm_b"],
        n_pairs=int(diffs.size),
        mean_a=float(a.mean()), mean_b=float(b.mean()),
        mean_diff=perm.statistic,
        p_value=perm.p_value, exact=perm.exact,
        ci_lo=ci.low, ci_hi=ci.high,
        seed=seed,
    ).to_dict()


# ---------------------------------------------------------------------------
# Assembled view


class SweepStats:
    """Every group and comparison statistic of one sweep, Holm-corrected.

    Lookups canonicalize the noise level through
    :func:`~repro.harness.journal.canonical_noise_level` (float spelling
    can never split a cell) and normalize pair orientation, mirroring
    the journal keys.
    """

    def __init__(self, groups: Iterable[GroupStat],
                 comparisons: Iterable[ComparisonStat],
                 config: StatsConfig):
        self.config = config
        self._groups: Dict[Tuple, GroupStat] = {
            (g.noise_type, canonical_noise_level(g.noise_level),
             g.measure, g.algorithm): g
            for g in groups
        }
        corrected = _apply_holm(list(comparisons))
        self._comparisons: Dict[Tuple, ComparisonStat] = {
            (c.noise_type, canonical_noise_level(c.noise_level),
             c.measure, c.algorithm_a, c.algorithm_b): c
            for c in corrected
        }

    @property
    def groups(self) -> List[GroupStat]:
        return sorted(self._groups.values(),
                      key=lambda g: (g.noise_type,
                                     canonical_noise_level(g.noise_level),
                                     g.measure, g.algorithm))

    @property
    def comparisons(self) -> List[ComparisonStat]:
        return sorted(self._comparisons.values(),
                      key=lambda c: (c.noise_type,
                                     canonical_noise_level(c.noise_level),
                                     c.measure, c.algorithm_a,
                                     c.algorithm_b))

    def __len__(self) -> int:
        return len(self._groups) + len(self._comparisons)

    def group(self, noise_type: str, noise_level: float, measure: str,
              algorithm: str) -> Optional[GroupStat]:
        return self._groups.get((noise_type,
                                 canonical_noise_level(noise_level),
                                 measure, algorithm))

    def comparison(self, noise_type: str, noise_level: float, measure: str,
                   algorithm_a: str,
                   algorithm_b: str) -> Optional[ComparisonStat]:
        first, second = sorted((algorithm_a, algorithm_b))
        return self._comparisons.get((noise_type,
                                      canonical_noise_level(noise_level),
                                      measure, first, second))

    def is_significant(self, stat: ComparisonStat) -> bool:
        """Holm-corrected call at the config's family-wise alpha."""
        return bool(stat.p_holm < self.config.alpha)

    def measures(self) -> List[str]:
        return sorted({g.measure for g in self._groups.values()})

    def noise_types(self) -> List[str]:
        return sorted({g.noise_type for g in self._groups.values()})

    def levels(self, noise_type: str) -> List[float]:
        return sorted({g.noise_level for g in self._groups.values()
                       if g.noise_type == noise_type})

    def algorithms(self) -> List[str]:
        return sorted({g.algorithm for g in self._groups.values()})

    def leader(self, noise_type: str, noise_level: float,
               measure: str) -> Optional[str]:
        """The best-mean algorithm of one cell (ties break alphabetically)."""
        candidates = [
            g for g in self._groups.values()
            if (g.noise_type == noise_type and g.measure == measure
                and canonical_noise_level(g.noise_level)
                == canonical_noise_level(noise_level))
        ]
        if not candidates:
            return None
        return max(sorted(candidates, key=lambda g: g.algorithm),
                   key=lambda g: g.mean).algorithm

    def annotations(self, algorithm: str, noise_type: str,
                    noise_level: float,
                    measure: str) -> Dict[str, float]:
        """CSV-ready uncertainty for one record's cell group.

        ``ci_lo`` / ``ci_hi`` bound the algorithm's own mean;
        ``pvalue`` is the Holm-corrected permutation p-value against the
        cell's leading algorithm (against the runner-up when this
        algorithm *is* the leader) — i.e. "does the ranking claim
        involving this algorithm survive the repetition noise".  Keys
        are absent when the sweep has no matching statistic.
        """
        out: Dict[str, float] = {}
        g = self.group(noise_type, noise_level, measure, algorithm)
        if g is not None:
            out["ci_lo"] = g.ci_lo
            out["ci_hi"] = g.ci_hi
        lead = self.leader(noise_type, noise_level, measure)
        if lead is not None and lead == algorithm:
            rivals = [c for c in self._comparisons.values()
                      if (c.noise_type == noise_type
                          and c.measure == measure
                          and canonical_noise_level(c.noise_level)
                          == canonical_noise_level(noise_level)
                          and algorithm in (c.algorithm_a, c.algorithm_b))]
            if rivals:
                runner_up = max(
                    rivals,
                    key=lambda c: (c.mean_b if c.algorithm_a == algorithm
                                   else c.mean_a))
                out["pvalue"] = runner_up.p_holm
        elif lead is not None:
            stat = self.comparison(noise_type, noise_level, measure,
                                   algorithm, lead)
            if stat is not None:
                out["pvalue"] = stat.p_holm
        return out

    def to_csv(self, path) -> None:
        """One row per comparison: the full claim ledger for spreadsheets."""
        import csv

        columns = ["noise_type", "noise_level", "measure", "algorithm_a",
                   "algorithm_b", "n_pairs", "mean_a", "mean_b",
                   "mean_diff", "ci_lo", "ci_hi", "p_value", "p_holm",
                   "significant", "exact", "seed"]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for c in self.comparisons:
                writer.writerow([
                    c.noise_type, c.noise_level, c.measure, c.algorithm_a,
                    c.algorithm_b, c.n_pairs, c.mean_a, c.mean_b,
                    c.mean_diff, c.ci_lo, c.ci_hi, c.p_value, c.p_holm,
                    self.is_significant(c), c.exact, c.seed,
                ])

    def format_summary(self, max_lines: Optional[int] = None) -> str:
        """Terminal-friendly ledger of every comparison claim."""
        lines = []
        for c in self.comparisons:
            verdict = "*" if self.is_significant(c) else " "
            lines.append(
                f"{c.measure:>9s} {c.noise_type} {c.noise_level:g}: "
                f"{c.algorithm_a} vs {c.algorithm_b} "
                f"Δ={c.mean_diff:+.4f} [{c.ci_lo:+.4f}, {c.ci_hi:+.4f}] "
                f"p={c.p_value:.4f} holm={c.p_holm:.4f}{verdict} "
                f"(n={c.n_pairs})"
            )
        if max_lines is not None and len(lines) > max_lines:
            hidden = len(lines) - max_lines
            lines = lines[:max_lines] + [f"... {hidden} more comparisons"]
        return "\n".join(lines)


def _apply_holm(comparisons: List[ComparisonStat]) -> List[ComparisonStat]:
    """Fill ``p_holm`` within each (noise type, measure) claim family.

    The family is every pairwise claim a reader scans together — all
    pairs across all levels of one measure under one noise type —
    matching how the paper presents rankings (§6–§7 figures are one
    measure × one noise model each).
    """
    families: Dict[Tuple[str, str], List[ComparisonStat]] = {}
    for c in comparisons:
        families.setdefault((c.noise_type, c.measure), []).append(c)
    corrected: List[ComparisonStat] = []
    for family in families.values():
        family = sorted(family,
                        key=lambda c: (canonical_noise_level(c.noise_level),
                                       c.algorithm_a, c.algorithm_b))
        adjusted = holm_correction([c.p_value for c in family])
        corrected.extend(replace(c, p_holm=p)
                         for c, p in zip(family, adjusted))
    return corrected


# ---------------------------------------------------------------------------
# Driver


def _entry_to_stat(kind: str, entry: Dict[str, object]):
    if kind == "group":
        return GroupStat.from_dict(entry)
    return ComparisonStat.from_dict(entry)


def compute_sweep_stats(table, config: Optional[StatsConfig] = None,
                        journal: Union[RunJournal, str, Path, None] = None,
                        progress=None) -> SweepStats:
    """Compute (or resume) every statistic of a finished sweep.

    ``journal`` — a path or an open :class:`RunJournal` — makes the
    computation crash-tolerant exactly like the sweep itself: each unit
    is durably appended as a ``stats`` line before the next one starts,
    journaled units are never recomputed, and the journal's fingerprint
    (:func:`stats_fingerprint`) rejects a resume against different data
    or parameters.  Every unit is computed in the calling process.

    ``progress(key)`` fires before each missing unit is computed.
    """
    config = config or StatsConfig()
    owns_journal = journal is not None and not isinstance(journal, RunJournal)
    if owns_journal:
        journal = RunJournal(journal,
                             fingerprint=stats_fingerprint(table, config))
    try:
        units = _enumerate_units(table, config)
        done: Dict[str, Dict[str, object]] = {}
        for kind, key, seed, payload in units:
            entry = journal.get_stats(key) if journal is not None else None
            if entry is None:
                if progress is not None:
                    progress(key)
                entry = compute_unit(kind, seed, payload, config)
                if journal is not None:
                    journal.append_stats(key, entry)
            done[key] = entry
        groups = []
        comparisons = []
        for kind, key, _seed, _payload in units:
            stat = _entry_to_stat(kind, done[key])
            (groups if kind == "group" else comparisons).append(stat)
        return SweepStats(groups, comparisons, config)
    finally:
        if owns_journal:
            journal.close()
