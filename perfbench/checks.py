"""Output checks: a failing check aborts the run and names itself.

A failed record is not a check failure — it counts against
``success_rate``.  What aborts is output no correct program produces:
a sweep missing or duplicating cells, a measure outside [0, 1], results
that differ between identical repeats, or a repeated service submission
that is not answered from the first one's ticket.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence


class CheckFailed(Exception):
    """An output check failed; ``check`` is its name."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


def check_record_count(records: Sequence, algorithms: Sequence[str],
                       instances: int) -> None:
    """A sweep yields exactly one record per algorithm and instance."""
    expected = len(algorithms) * instances
    if len(records) != expected:
        raise CheckFailed(
            "sweep-record-count",
            f"{len(records)} records, expected {len(algorithms)} "
            f"algorithms x {instances} instances = {expected}")
    cells = {(r.algorithm, r.noise_level, r.repetition) for r in records}
    if len(cells) != expected:
        raise CheckFailed("sweep-record-count",
                          f"{expected - len(cells)} duplicated cells")


def check_measure_range(measures: Iterable[Mapping[str, float]]) -> None:
    """Every measure of every record lies in [0, 1]."""
    for values in measures:
        for name, value in values.items():
            if not (isinstance(value, (int, float))
                    and math.isfinite(value) and 0.0 <= value <= 1.0):
                raise CheckFailed("measure-range",
                                  f"{name}={value!r} outside [0, 1]")


def check_identical(first: Sequence[Mapping[str, float]],
                    again: Sequence[Mapping[str, float]],
                    what: str) -> None:
    """Identical inputs gave identical measures (same order, same bits)."""
    if [dict(m) for m in first] != [dict(m) for m in again]:
        raise CheckFailed("repeat-determinism",
                          f"{what} gave different measures on identical "
                          "inputs")


def check_repeat_ticket(first: Mapping[str, object], ticket) -> None:
    """A repeated submission returns the first one's finished ticket."""
    if ticket.key != first["key"]:
        raise CheckFailed(
            "dedup-key", f"repeat got ticket {ticket.key}, first "
            f"submission got {first['key']}")
    if ticket.state != first["state"]:
        raise CheckFailed(
            "dedup-state", f"repeat's ticket is {ticket.state!r}, the "
            f"first submission finished {first['state']!r}")


def check_repeat_result(first: Mapping[str, object], ran: bool,
                        measures: Mapping[str, float]) -> None:
    """A repeat runs nothing and returns the first result's measures."""
    if ran:
        raise CheckFailed("dedup-ran",
                          "process_once ran work for a repeated request")
    if dict(measures) != dict(first["measures"]):
        raise CheckFailed(
            "dedup-measures", f"repeat returned {dict(measures)}, first "
            f"result was {first['measures']}")
