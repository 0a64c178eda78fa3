"""Retry policy for transiently failing experiment cells.

Some cell failures are deterministic (a method that cannot handle a
disconnected graph will fail identically every time) and retrying them
only burns budget.  Others — numerical breakdowns sensitive to the BLAS
thread schedule, spurious non-convergence, a child killed by an external
actor — can succeed on a second attempt.  :class:`RetryPolicy` retries
only the error classes named as transient, with exponential backoff, and
the final record carries the attempt count so sweeps remain auditable.

Distributed callers get **decorrelated jitter** (AWS-style: each delay
is drawn uniformly between the base backoff and three times the previous
delay, capped at :data:`MAX_BACKOFF_SECONDS`).  Without it, N workers
that hit the same transient failure — a briefly overloaded filesystem, a
BLAS hiccup under contention — all sleep the same deterministic schedule
and retry in lockstep, re-creating the very contention they are backing
off from.  Jitter is on exactly when the caller passes
``distributed=True``: a cell of a ``workers`` sweep, or a service
ticket.  Single-process sweeps keep the uncapped exponential schedule
(factor :data:`BACKOFF_FACTOR`).  The draw is seeded from the cell's own
seed, so a rerun of the same cell retries on the same schedule — jitter
decorrelates cells from each other, never a run from its rerun.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from repro.exceptions import ExperimentError
from repro.harness.results import RunRecord

__all__ = ["DEFAULT_TRANSIENT_ERRORS", "BACKOFF_FACTOR", "MAX_BACKOFF_SECONDS",
           "RetryPolicy", "run_with_retry"]

# Error classes worth a second attempt by default.  Names match the
# ``ClassName: message`` prefix run_cell writes into RunRecord.error.
DEFAULT_TRANSIENT_ERRORS: Tuple[str, ...] = (
    "LinAlgError",
    "ConvergenceError",
)

# Growth of the un-jittered delay per further attempt, and the ceiling
# on any single jittered delay (decorrelated jitter grows
# multiplicatively and needs one).
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_SECONDS = 60.0


def _jitter_rng(jitter_seed: int) -> random.Random:
    """Process-stable RNG for backoff jitter.

    Seeded through BLAKE2b rather than ``random.Random(int)`` directly so
    adjacent cell seeds (which differ in few bits) still get uncorrelated
    delay sequences.
    """
    digest = hashlib.blake2b(
        f"retry-jitter|{int(jitter_seed)}".encode("utf-8"),
        digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-attempt a failed cell, and for which errors.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first (1 disables retrying).
    backoff_seconds:
        Sleep before the second attempt; grows by :data:`BACKOFF_FACTOR`
        for each further attempt (0 disables sleeping).
    retry_on:
        Exception class names considered transient.  A failed record
        whose ``error`` starts with ``"<name>:"`` is retried; anything
        else (timeouts, memory blowouts, unknown algorithms) fails fast.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.0
    retry_on: Tuple[str, ...] = DEFAULT_TRANSIENT_ERRORS

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ExperimentError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0:
            raise ExperimentError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )

    def is_transient(self, error: str) -> bool:
        """Whether a record's error string names a retryable class."""
        name = error.split(":", 1)[0].strip()
        return name in self.retry_on

    def delay(self, attempt: int, jitter_seed: Optional[int] = None,
              distributed: bool = False) -> float:
        """Seconds to wait after the given (1-indexed) failed attempt.

        When ``distributed`` and a seed is available, the delay after
        attempt ``i`` is the ``i``-th draw of the decorrelated-jitter
        recurrence ``d_i = min(cap, U(base, 3 * d_{i-1}))`` from a
        per-cell RNG — deterministic for a given ``jitter_seed``,
        decorrelated across seeds.  Otherwise the classic
        ``base * factor ** (attempt - 1)`` schedule applies unchanged.
        """
        base = self.backoff_seconds * BACKOFF_FACTOR ** (attempt - 1)
        if (not distributed or jitter_seed is None
                or self.backoff_seconds <= 0):
            return base
        rng = _jitter_rng(jitter_seed)
        pause = self.backoff_seconds
        for _ in range(attempt):
            pause = min(MAX_BACKOFF_SECONDS,
                        rng.uniform(self.backoff_seconds,
                                    max(self.backoff_seconds, pause * 3.0)))
        return pause


def run_with_retry(
    run: Callable[[int], RunRecord],
    policy: RetryPolicy,
    sleep: Callable[[float], None] = time.sleep,
    jitter_seed: Optional[int] = None,
    distributed: bool = False,
) -> RunRecord:
    """Invoke ``run(attempt)`` under the policy; return the final record.

    ``run`` receives the 1-indexed attempt number and must return a
    :class:`RunRecord` (raising is the caller's bug — cell runners
    convert failures into failed records).  The returned record's
    ``attempts`` field is set to the number of attempts actually made.
    ``jitter_seed`` (the cell's seed, in the harness) and ``distributed``
    select the backoff schedule — see :meth:`RetryPolicy.delay`.
    """
    record = None
    for attempt in range(1, policy.max_attempts + 1):
        record = run(attempt)
        if not record.failed or not policy.is_transient(record.error):
            break
        if attempt < policy.max_attempts:
            pause = policy.delay(attempt, jitter_seed=jitter_seed,
                                 distributed=distributed)
            if pause > 0:
                sleep(pause)
    return replace(record, attempts=attempt)
