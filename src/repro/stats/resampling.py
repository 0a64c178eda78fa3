"""Seeded, chunked resampling primitives: permutation tests, bootstrap CIs.

Every statistical claim the framework publishes rides on two estimators:

* :func:`permutation_test` — the paired **sign-flip permutation test**.
  Under the null hypothesis that algorithms A and B are exchangeable on
  each instance, the sign of every paired difference is a fair coin; the
  p-value is the share of sign assignments whose mean difference is at
  least as extreme as the observed one.  Small pair counts are
  enumerated *exactly* (all ``2^n`` assignments); larger ones are
  Monte-Carlo sampled.
* :func:`bootstrap_ci` — percentile or BCa (bias-corrected and
  accelerated) **bootstrap confidence interval** for a sample mean.

Both are built for a journaled, resumable harness, which imposes two
non-negotiable properties:

* **Determinism from one integer seed.**  All randomness flows through
  :class:`numpy.random.SeedSequence`; a ``(seed, chunk_index)`` pair
  fully determines a chunk's draw, independent of process, platform, or
  ``PYTHONHASHSEED``.
* **Execution-order independence.**  Inputs are canonically sorted
  before resampling and per-chunk contributions combine through
  order-independent reductions (exceedance counts; concatenation in
  fixed chunk order), so a fresh run and a resumed one produce
  **bit-identical** p-values and interval endpoints.

Resample draws are observable: each chunk increments the
``permutation_resamples`` / ``bootstrap_resamples`` performance
counters (:mod:`repro.observability`) when tracing is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

from repro.exceptions import ExperimentError
from repro.observability import add_counter

__all__ = [
    "RESAMPLE_CHUNK",
    "PermutationResult",
    "BootstrapResult",
    "resample_chunks",
    "chunk_rng",
    "permutation_test",
    "bootstrap_ci",
    "holm_correction",
]

# Resamples are drawn in fixed-size chunks, each from its own derived
# seed, so a unit's draws are a pure function of (seed, chunk) whatever
# order units run or resume in.  The golden suite pins these draws.
RESAMPLE_CHUNK = 2048

# Largest pair count enumerated exactly: 2^16 sign assignments is a
# ~1 MB sign matrix, beyond which Monte Carlo is both cheaper and
# statistically indistinguishable.
_EXACT_MAX_PAIRS = 16

# Exceedance comparisons subtract this slack so the identity assignment
# (whose resampled statistic *equals* the observed one) always counts as
# "at least as extreme" despite float rounding.
_TIE_EPS = 1e-12


@dataclass(frozen=True)
class PermutationResult:
    """Outcome of one paired sign-flip permutation test."""

    statistic: float      # observed mean of the paired differences
    p_value: float        # two-sided
    resamples: int        # sign assignments actually evaluated
    exact: bool           # True when all 2^n assignments were enumerated

    def to_dict(self) -> dict:
        return {"statistic": self.statistic, "p_value": self.p_value,
                "resamples": self.resamples, "exact": self.exact}


@dataclass(frozen=True)
class BootstrapResult:
    """A bootstrap confidence interval for a sample mean."""

    estimate: float       # the point estimate (plain sample mean)
    low: float
    high: float
    confidence: float
    resamples: int
    method: str           # "percentile" or "bca"

    def to_dict(self) -> dict:
        return {"estimate": self.estimate, "low": self.low,
                "high": self.high, "confidence": self.confidence,
                "resamples": self.resamples, "method": self.method}


def resample_chunks(resamples: int,
                    chunk: int = RESAMPLE_CHUNK) -> List[Tuple[int, int]]:
    """Split a resample budget into ``(chunk_index, count)`` pieces.

    The split is a pure function of ``resamples`` and ``chunk``, so every
    run partitions the budget identically.
    """
    if resamples < 1:
        raise ExperimentError(f"resamples must be >= 1, got {resamples}")
    if chunk < 1:
        raise ExperimentError(f"chunk size must be >= 1, got {chunk}")
    pieces = []
    start = 0
    index = 0
    while start < resamples:
        count = min(chunk, resamples - start)
        pieces.append((index, count))
        start += count
        index += 1
    return pieces


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The RNG for one resample chunk, derived from ``(seed, index)``.

    Built on :class:`~numpy.random.SeedSequence` spawn keys, so chunk
    streams are statistically independent yet fully reproducible: a
    chunk's draw never depends on what was drawn before it.
    """
    sequence = np.random.SeedSequence(entropy=int(seed),
                                      spawn_key=(int(chunk_index),))
    return np.random.default_rng(sequence)


def _as_finite_array(values: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ExperimentError(f"{what} needs a non-empty sample")
    if not np.all(np.isfinite(arr)):
        raise ExperimentError(f"{what} needs finite values; got {arr}")
    return arr


def permutation_test(diffs: Sequence[float], resamples: int = 10_000,
                     seed: int = 0,
                     chunk: int = RESAMPLE_CHUNK) -> PermutationResult:
    """Two-sided paired sign-flip permutation test on paired differences.

    ``diffs`` are per-instance differences ``a_i - b_i`` of one paired
    comparison.  The input is sorted before any resampling, so the
    result is invariant to pair order; with ``n <= 16`` pairs and a
    budget covering all ``2^n`` assignments the test is exact (no RNG at
    all).  The Monte-Carlo p-value uses the add-one estimator
    ``(1 + exceedances) / (1 + resamples)``, which counts the identity
    assignment and can never return 0.
    """
    arr = np.sort(_as_finite_array(diffs, "permutation test"))
    resample_chunks(resamples, chunk)  # validate the budget up front
    n = arr.size
    observed = float(arr.mean())
    threshold = abs(observed) - _TIE_EPS
    if n <= _EXACT_MAX_PAIRS and 2 ** n <= resamples:
        codes = np.arange(2 ** n, dtype=np.uint32)
        signs = (((codes[:, None] >> np.arange(n)) & 1) * 2 - 1)
        means = signs.astype(np.float64).dot(arr) / n
        hits = int(np.sum(np.abs(means) >= threshold))
        add_counter("permutation_resamples", 2 ** n)
        return PermutationResult(statistic=observed,
                                 p_value=hits / float(2 ** n),
                                 resamples=2 ** n, exact=True)
    hits = 0
    for index, count in resample_chunks(resamples, chunk):
        rng = chunk_rng(seed, index)
        signs = rng.integers(0, 2, size=(count, n)) * 2 - 1
        means = signs.astype(np.float64).dot(arr) / n
        hits += int(np.sum(np.abs(means) >= threshold))
        add_counter("permutation_resamples", count)
    return PermutationResult(statistic=observed,
                             p_value=(1 + hits) / float(1 + resamples),
                             resamples=resamples, exact=False)


def _bca_levels(boot: np.ndarray, arr: np.ndarray, estimate: float,
                alpha: float) -> Tuple[float, float]:
    """BCa-adjusted quantile levels for the percentile lookup.

    ``z0`` (bias correction) comes from the share of bootstrap means
    below the estimate — an order-independent count — and ``a``
    (acceleration) from the jackknife skew.  Degenerate shares are
    clamped one pseudo-count into (0, 1) so ``ndtri`` stays finite.
    """
    resamples = boot.size
    below = int(np.sum(boot < estimate))
    share = min(max(below / resamples, 1.0 / (resamples + 1)),
                resamples / (resamples + 1.0))
    z0 = float(ndtri(share))
    n = arr.size
    jack = (arr.sum() - arr) / (n - 1)
    centered = jack.mean() - jack
    denom = float(np.sum(centered ** 2)) ** 1.5
    accel = (float(np.sum(centered ** 3)) / (6.0 * denom)
             if denom > 0.0 else 0.0)

    def adjust(z_alpha: float) -> float:
        z = z0 + z_alpha
        return float(ndtr(z0 + z / (1.0 - accel * z)))

    return adjust(float(ndtri(alpha))), adjust(float(ndtri(1.0 - alpha)))


def bootstrap_ci(values: Sequence[float], confidence: float = 0.95,
                 resamples: int = 10_000, seed: int = 0,
                 method: str = "bca",
                 chunk: int = RESAMPLE_CHUNK) -> BootstrapResult:
    """Bootstrap confidence interval for the mean of ``values``.

    ``method="percentile"`` takes plain quantiles of the resampled
    means; ``method="bca"`` (the default) additionally corrects for
    bias and skew — the variant a released benchmark should quote.
    The input is sorted before resampling (order invariance) and chunk
    draws concatenate in fixed chunk order, so fresh and resumed
    computations agree bitwise.  A single-valued or constant
    sample collapses to a zero-width interval.
    """
    if not 0.0 < confidence < 1.0:
        raise ExperimentError(
            f"confidence must be in (0, 1), got {confidence}")
    if method not in ("percentile", "bca"):
        raise ExperimentError(
            f"bootstrap method must be 'percentile' or 'bca', got {method!r}")
    pieces = resample_chunks(resamples, chunk)
    arr = np.sort(_as_finite_array(values, "bootstrap"))
    estimate = float(arr.mean())
    if arr.size == 1 or arr[0] == arr[-1]:
        return BootstrapResult(estimate=estimate, low=estimate,
                               high=estimate, confidence=confidence,
                               resamples=resamples, method=method)
    n = arr.size
    chunks = []
    for index, count in pieces:
        rng = chunk_rng(seed, index)
        idx = rng.integers(0, n, size=(count, n))
        chunks.append(arr[idx].mean(axis=1))
        add_counter("bootstrap_resamples", count)
    boot = np.concatenate(chunks)
    alpha = (1.0 - confidence) / 2.0
    if method == "bca":
        lo_level, hi_level = _bca_levels(boot, arr, estimate, alpha)
    else:
        lo_level, hi_level = alpha, 1.0 - alpha
    return BootstrapResult(
        estimate=estimate,
        low=float(np.quantile(boot, lo_level)),
        high=float(np.quantile(boot, hi_level)),
        confidence=confidence,
        resamples=resamples,
        method=method,
    )


def holm_correction(p_values: Sequence[float]) -> List[float]:
    """Holm step-down adjusted p-values (family-wise error control).

    Returns adjusted p-values in the input order: each raw p-value is
    scaled by its step-down factor with the running maximum enforced, so
    the adjusted sequence is monotone in the raw one, never smaller than
    the raw value, and capped at 1.  Rejecting ``adjusted < alpha``
    reproduces the classical sequential Holm procedure exactly.
    """
    p = np.asarray(list(p_values), dtype=np.float64)
    if p.size == 0:
        return []
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ExperimentError(f"p-values must lie in [0, 1]; got {p}")
    order = np.argsort(p, kind="stable")
    adjusted = np.empty_like(p)
    running = 0.0
    m = p.size
    for rank, i in enumerate(order):
        running = max(running, (m - rank) * p[i])
        adjusted[i] = min(1.0, running)
    return [float(value) for value in adjusted]
