"""In-memory spans recorded by the benchmark around its own calls.

The benchmark never adds a span inside the program: it records one span
per call it makes into a public entry point (``run_experiment``, the
pair factory it passes in, each sweep cell, the service's
``submit_sync``/``claim_next``/``execute_claimed``/``result_sync`` and
the runner it hands the service).  Spans carry their parent's id, stay
in memory while the run measures, and are written out once at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    """Spans as ``{id, parent, name, start, end, attrs}`` dicts."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: List[Dict[str, object]] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **attrs) -> int:
        """Record a span whose bounds the caller measured."""
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "start": start, "end": end, "attrs": attrs})
        return span_id

    @contextmanager
    def span(self, name: str,
             parent: Optional[int] = None) -> Iterator[Dict[str, object]]:
        """Time the body; yields the span dict (its ``id`` is final)."""
        record = self.spans[self.add(name, self.clock(), 0.0, parent)]
        try:
            yield record
        finally:
            record["end"] = self.clock()

    @staticmethod
    def duration(record: Dict[str, object]) -> float:
        return float(record["end"]) - float(record["start"])

    def named(self, name: str) -> List[Dict[str, object]]:
        return [s for s in self.spans if s["name"] == name]

    def children(self, span_id: int) -> List[Dict[str, object]]:
        return [s for s in self.spans if s["parent"] == span_id]

    def self_time(self, span_id: int) -> float:
        """The span's duration minus the part its children cover."""
        parent = self.spans[span_id]
        intervals = sorted(
            (max(float(c["start"]), float(parent["start"])),
             min(float(c["end"]), float(parent["end"])))
            for c in self.children(span_id))
        covered, reach = 0.0, float(parent["start"])
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return self.duration(parent) - covered

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=None))
