"""Alignment-as-a-service: crash-safe ticketed batch front-end.

Submit a graph pair, get a content-addressed ticket, poll it to a
terminal state, fetch the measured record — with admission control,
per-request deadlines, retries, graceful draining, and full recovery
after SIGKILL.  See :mod:`repro.service.server` for the robustness
contract and ``docs/api.md`` for the client walkthrough.
"""

from repro.service.queue import (
    DEFAULT_MEASURES,
    AlignmentRequest,
    DurableRequestQueue,
    QueueFull,
)
from repro.service.server import (
    AlignmentService,
    ServiceUnavailable,
    load_service_events,
    read_health,
)
from repro.service.tickets import (
    TERMINAL_STATES,
    TICKET_STATES,
    Ticket,
    TicketError,
    ticket_key,
)

__all__ = [
    "AlignmentRequest",
    "AlignmentService",
    "DEFAULT_MEASURES",
    "DurableRequestQueue",
    "QueueFull",
    "ServiceUnavailable",
    "TERMINAL_STATES",
    "TICKET_STATES",
    "Ticket",
    "TicketError",
    "load_service_events",
    "read_health",
    "ticket_key",
]
