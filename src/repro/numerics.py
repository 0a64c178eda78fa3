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
    "assert_finite",
]


def get_numerics_policy() -> str:
    """The active policy for this thread (``"sanitize"`` or ``"strict"``)."""
    return current_context().numerics


def numerics_policy(policy: str) -> ContextManager[RunContext]:
    """Scoped policy override, restored on exit even on error."""
    return replace(current_context(), numerics=policy).enter()


def assert_finite(values, stage: str, name: str = "matrix") -> None:
    """Raise :class:`NumericsError` if ``values`` has NaN/Inf entries.

    Policy-independent: use at hard API boundaries (e.g. a cost matrix
    handed to Sinkhorn) where non-finite input is a caller bug, not a
    degradation to absorb.
    """
    arr = np.asarray(values.data if sparse.issparse(values) else values)
    bad = arr.size - int(np.isfinite(arr).sum())
    if bad:
        raise NumericsError(
            f"{stage}: {name} contains {bad} non-finite entries "
            f"(of {arr.size})"
        )


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
