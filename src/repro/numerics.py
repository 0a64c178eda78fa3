"""Numerical watchdog: validate matrices between pipeline stages.

NaN and Inf are silent travelers: a degenerate eigensolve or an
underflowed transport plan produces them mid-pipeline, the assignment
stage consumes them, and the sweep records a plausible-looking but
meaningless alignment.  The watchdog sits between the similarity and
assignment stages (and at other stage boundaries that opt in) and applies
one of two policies:

* ``"sanitize"`` (default) — repair the matrix and record a
  :class:`~repro.diagnostics.Diagnostic` so the cell is reported as
  *degraded*: NaN and ``-inf`` become the smallest finite entry (least
  similar, so broken entries never win a matching), ``+inf`` becomes the
  largest finite entry.
* ``"strict"`` — raise :class:`~repro.exceptions.NumericsError`
  immediately (fail fast; the harness turns it into a failed record).
  Enabled per-run with the CLI's ``--strict-numerics`` or per-scope with
  :func:`numerics_policy`; the policy is the ``numerics`` field of the
  current :class:`~repro.context.RunContext`.

An identically-zero similarity matrix carries no signal — every matching
extracted from it is arbitrary — so the watchdog flags it too (warning
under ``"sanitize"``, error under ``"strict"``).

:func:`flushed_exp` is the exponential of the entropic kernels (the JV
dual warm start, Sinkhorn): it writes an exact 0 for every exponent below
``-707``, where ``np.exp`` would return less than 1e-307.
"""

from __future__ import annotations

from dataclasses import replace
from typing import ContextManager

import numpy as np
from scipy import sparse

from repro.context import NUMERICS_POLICIES, RunContext, current_context
from repro.diagnostics import record_diagnostic
from repro.exceptions import NumericsError

__all__ = [
    "NUMERICS_POLICIES",
    "get_numerics_policy",
    "numerics_policy",
    "check_similarity",
    "flushed_exp",
]

# exp(-707) ≈ 9.1e-308 is still a normal float; below it numpy's exp
# takes a slow path (17-190 ms per million arguments that underflow,
# against ~1 ms) and returns subnormals, which slow every product they
# enter by an order of magnitude.
_EXP_FLUSH_BELOW = -707.0


def get_numerics_policy() -> str:
    """The active policy for this thread (``"sanitize"`` or ``"strict"``)."""
    return current_context().numerics


def numerics_policy(policy: str) -> ContextManager[RunContext]:
    """Scoped policy override, restored on exit even on error."""
    return replace(current_context(), numerics=policy).enter()


def flushed_exp(x, out=None) -> np.ndarray:
    """``np.exp(x)`` with an exact 0 wherever ``x < -707``.

    Every other entry is bit-for-bit ``np.exp``'s, NaN stays NaN and
    ``-inf`` gives 0.  Flushed exponents are raised to ``-707`` before
    the call, so ``np.exp`` never sees one that underflows, and their
    results are then zeroed.  A flushed result is below 1e-307, so it
    cannot change a sum that some other term keeps above ~1e-290 (each
    caller says why its sums are).  ``out`` may be ``x`` itself.
    """
    x = np.asarray(x, dtype=np.float64)
    # A NaN minimum fails this test; maximum, exp and the product below
    # all keep NaN.
    if x.size == 0 or x.min() >= _EXP_FLUSH_BELOW:
        return np.exp(x, out=out)
    keep = np.greater_equal(x, _EXP_FLUSH_BELOW)
    clipped = np.maximum(x, _EXP_FLUSH_BELOW, out=out)
    np.exp(clipped, out=clipped)
    return np.multiply(clipped, keep, out=clipped)


def check_similarity(similarity, stage: str = "watchdog"):
    """Watchdog checkpoint for a similarity matrix between stages.

    Dense and SciPy-sparse matrices are accepted; the (possibly repaired)
    matrix is returned.  Under the ``"sanitize"`` policy, non-finite
    entries are replaced (NaN/``-inf`` -> smallest finite entry,
    ``+inf`` -> largest finite entry) and a ``nonfinite_similarity``
    diagnostic is recorded; under ``"strict"`` a
    :class:`NumericsError` is raised instead.  An identically-zero matrix
    yields a ``zero_similarity`` diagnostic (or error under strict).
    """
    is_sparse = sparse.issparse(similarity)
    values = similarity.data if is_sparse else np.asarray(similarity)
    finite = np.isfinite(values)
    bad = values.size - int(finite.sum())
    strict = get_numerics_policy() == "strict"

    if bad:
        detail = (
            f"similarity matrix has {bad} non-finite "
            f"entries (of {values.size}: "
            f"{int(np.isnan(values).sum())} NaN, "
            f"{int(np.isposinf(values).sum())} +inf, "
            f"{int(np.isneginf(values).sum())} -inf)"
        )
        if strict:
            # Record before raising so the failed record keeps the trail
            # of what the watchdog saw (fallback_used empty: fail-fast).
            record_diagnostic(stage, "nonfinite_similarity", detail)
            raise NumericsError(f"{stage}: {detail}")
        finite_values = values[finite]
        lo = float(finite_values.min()) if finite_values.size else 0.0
        hi = float(finite_values.max()) if finite_values.size else 0.0
        repaired = np.nan_to_num(
            np.asarray(values, dtype=np.float64),
            nan=lo, posinf=hi, neginf=lo,
        )
        record_diagnostic(
            stage, "nonfinite_similarity",
            f"{detail}; replaced with finite extremes [{lo:g}, {hi:g}]",
            fallback_used="sanitized",
        )
        if is_sparse:
            similarity = similarity.copy()
            similarity.data = repaired
            values = similarity.data
        else:
            similarity = repaired.reshape(np.asarray(similarity).shape)
            values = similarity

    if values.size == 0 or not np.any(values):
        detail = "similarity matrix is identically zero (no signal)"
        if strict:
            record_diagnostic(stage, "zero_similarity", detail)
            raise NumericsError(f"{stage}: {detail}")
        record_diagnostic(stage, "zero_similarity", detail)

    return similarity
