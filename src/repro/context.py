"""One value for a cell's execution settings: :class:`RunContext`.

The numerics policy (:mod:`repro.numerics`), the sketch policy
(:mod:`repro.sketch`), tracing (:mod:`repro.observability`) and caching
(:mod:`repro.cache`) change how a cell executes, not what it computes.
They travel as one frozen, picklable value held in one per-thread slot:
:meth:`RunContext.enter` is the only code that sets and restores it,
library code reads it through those modules' readers, and their scoped
helpers (``numerics_policy``, ``sketching``, ``tracing``, ``caching``)
enter the current context with one field changed.  A thread starts
under the default context and never sees another thread's scopes.
Process boundaries take the context as a value: a budget child enters
the one its parent resolved, and sweep workers build theirs from the
config (``ExperimentConfig.run_context()``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.exceptions import NumericsError

if TYPE_CHECKING:  # pragma: no cover - annotation only (import cycle)
    from repro.sketch import SketchPolicy

__all__ = ["NUMERICS_POLICIES", "RunContext", "current_context"]

NUMERICS_POLICIES = ("sanitize", "strict")


@dataclass(frozen=True)
class RunContext:
    """The execution settings one cell runs under.

    ``numerics`` is the watchdog policy (``"sanitize"`` repairs and
    degrades, ``"strict"`` fails); ``sketch`` a
    :class:`~repro.sketch.SketchPolicy` or ``None`` for dense similarity;
    ``trace`` records spans and counters into open trace collectors;
    ``cache`` routes per-graph intermediates through the innermost open
    artifact cache.
    """

    numerics: str = "sanitize"
    sketch: Optional["SketchPolicy"] = None
    trace: bool = False
    cache: bool = False

    def __post_init__(self):
        if self.numerics not in NUMERICS_POLICIES:
            raise NumericsError(
                f"unknown numerics policy {self.numerics!r}; "
                f"choose from {NUMERICS_POLICIES}"
            )

    @contextmanager
    def enter(self) -> Iterator["RunContext"]:
        """Make this the current thread's context; restore on exit."""
        previous = _SLOT.context
        _SLOT.context = self
        try:
            yield self
        finally:
            _SLOT.context = previous


class _Slot(threading.local):
    context = RunContext()


_SLOT = _Slot()


def current_context() -> RunContext:
    """The context of the innermost :meth:`RunContext.enter` in this thread."""
    return _SLOT.context
