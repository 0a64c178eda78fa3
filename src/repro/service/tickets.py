"""Idempotent tickets for the alignment service.

A **ticket** is the service's unit of promised work: one alignment of
one graph pair by one algorithm under one canonical parameter set.  Its
identity is content-addressed — :func:`ticket_key` digests
``(Graph.content_digest() of both graphs, algorithm, canonicalized
params, assignment, measures, seed, ground truth)`` — so submitting the
same request twice *is* the same ticket: duplicate submissions return
the existing ticket instead of enqueueing a second computation.

A ticket moves through these states::

    pending ──▶ leased ──▶ done
       │           │  └──▶ failed
       │           └─────▶ pending   (lease reclaimed from a dead worker)
       ├─────────────────▶ cancelled
       └──(either)───────▶ expired   (deadline elapsed)

``done``, ``failed``, ``expired``, and ``cancelled`` are **terminal**:
nothing moves a ticket out of them.  The state is stored nowhere but in
the ticket's files in the :class:`~repro.service.queue.DurableRequestQueue`
(request, lease, outcome), which derives each :class:`Ticket` from them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cache import canonicalize_params
from repro.exceptions import ExperimentError

__all__ = [
    "TICKET_STATES",
    "TERMINAL_STATES",
    "TicketError",
    "Ticket",
    "ticket_key",
]


class TicketError(ExperimentError):
    """A lookup of an unknown ticket, or of a result a ticket lacks."""


TICKET_STATES: Tuple[str, ...] = (
    "pending", "leased", "done", "failed", "expired", "cancelled",
)

TERMINAL_STATES: Tuple[str, ...] = ("done", "failed", "expired", "cancelled")


def ticket_key(
    source_digest: bytes,
    target_digest: bytes,
    algorithm: str,
    params: Optional[Dict[str, object]] = None,
    assignment: str = "jv",
    measures: Tuple[str, ...] = (),
    seed: int = 0,
    ground_truth_digest: Optional[bytes] = None,
) -> str:
    """Content-addressed identity of one alignment request.

    Everything that changes what the service would *compute or report*
    is covered — the two graph digests, the algorithm and its
    canonicalized parameters, the assignment back-end, the measure set,
    the seed, and the ground truth (when supplied, since it changes the
    reported accuracy).  Per-submission QoS such as the deadline is
    deliberately excluded: asking for the same work faster is still the
    same work.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(bytes(source_digest))
    hasher.update(bytes(target_digest))
    for part in (
        str(algorithm),
        repr(canonicalize_params(params)),
        str(assignment),
        repr(tuple(str(m) for m in measures)),
        str(int(seed)),
    ):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"|")
    if ground_truth_digest is not None:
        hasher.update(bytes(ground_truth_digest))
    return hasher.hexdigest()


@dataclass(frozen=True)
class Ticket:
    """One ticket as its queue files show it.

    ``submitted_at`` (when the request was accepted) plus
    ``deadline_seconds`` define the absolute
    deadline (``None`` deadline = no expiry).  ``attempts`` counts
    executions started on the ticket's behalf, including ones whose
    worker died; ``error`` carries the terminal failure or expiry
    reason.
    """

    key: str
    state: str
    algorithm: str
    assignment: str = "jv"
    seed: int = 0
    params: str = "()"
    submitted_at: float = 0.0
    deadline_seconds: Optional[float] = None
    attempts: int = 0
    error: str = ""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def deadline_at(self) -> Optional[float]:
        """Absolute wall-clock deadline, or ``None`` for no deadline."""
        if self.deadline_seconds is None:
            return None
        return self.submitted_at + float(self.deadline_seconds)

    def remaining_seconds(self, now: Optional[float] = None
                          ) -> Optional[float]:
        """Seconds left before the deadline (may be negative); ``None``
        when the ticket has no deadline."""
        deadline = self.deadline_at()
        if deadline is None:
            return None
        return deadline - (time.time() if now is None else now)

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key, "state": self.state,
            "algorithm": self.algorithm, "assignment": self.assignment,
            "seed": self.seed, "params": self.params,
            "submitted_at": self.submitted_at,
            "deadline_seconds": self.deadline_seconds,
            "attempts": self.attempts, "error": self.error,
        }
