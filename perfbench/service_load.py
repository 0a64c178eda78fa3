"""The service workload: one closed-loop client of an in-process service.

Each unit is a session: a fresh :class:`repro.service.AlignmentService`
directory driven through a fixed list of tickets.  The client submits a
request, runs the service's ``claim_next`` + ``execute_claimed`` (the
body of ``process_once``) and fetches the result, and sends the next
request only once that result is in hand.  Every ``repeat_every``-th
submission repeats an earlier request, which the service must answer
from the first one's ticket without running anything.

Ticket times are calibrated for host speed: the client times the
workload's probe (the pure-Python one) just before and just after every
ticket, outside the ticket's time; see :func:`perfbench.hostenv.calibrate`.
"""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from repro.noise import make_pair
from repro.observability import capture_trace, tracing
from repro.service import AlignmentRequest, AlignmentService
# The service's own default runner, wrapped rather than re-implemented
# so the benchmark always measures what the service runs.
from repro.service.server import _default_runner

from perfbench import checks, hostenv, layers
from perfbench.spans import SpanRecorder
from perfbench.sweeps import make_graph


def request_schedule(inputs: Dict[str, object], graph_spec: Dict[str, object],
                     count: int, seed: int,
                     repeat_every: int) -> List[Dict[str, object]]:
    """``count`` submissions: new requests, and repeats of earlier ones.

    New request ``j`` aligns a fresh graph with its noisy copy using
    ``algorithms[j % len(algorithms)]``.  Submission ``i`` with
    ``i % repeat_every == repeat_every - 1`` repeats a uniformly chosen
    earlier new request (``repeat_every=0``: no repeats); its ``of`` is
    that request's index.  Everything derives from ``seed``.
    """
    rng = random.Random(seed)
    algorithms = list(inputs["algorithms"])
    schedule: List[Dict[str, object]] = []
    originals: List[int] = []
    for i in range(count):
        if originals and repeat_every and i % repeat_every == repeat_every - 1:
            of = rng.choice(originals)
            schedule.append({"request": schedule[of]["request"], "of": of})
            continue
        graph = make_graph(graph_spec, rng.getrandbits(32))
        pair = make_pair(graph, inputs["noise_type"],
                         float(inputs["noise_level"]),
                         seed=rng.getrandbits(32))
        request = AlignmentRequest(
            source=pair.source, target=pair.target,
            algorithm=algorithms[len(originals) % len(algorithms)],
            assignment=inputs["assignment"],
            measures=tuple(inputs["measures"]),
            seed=rng.getrandbits(31), ground_truth=pair.ground_truth)
        originals.append(i)
        schedule.append({"request": request, "of": None})
    return schedule


def _tree_stats(root: Path) -> Dict[str, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    journal = sum(p.stat().st_size for p in (root / "tickets").glob("*.jsonl"))
    return {"files": len(files), "journal_bytes": journal}


class ServiceWorkload:
    """Set-up and timed sessions of the service workload."""

    def __init__(self, spec: Dict[str, object], seed: int, units: int,
                 scratch: Path, recorder: SpanRecorder):
        self.inputs = spec["inputs"]
        self.probe = hostenv.PROBES[spec["calibration"]["probe"]]
        self.probe_nominal_s = 1e-6 * float(
            spec["calibration"]["probe_nominal_us"])
        self.warmup_spec = spec["warmup_graph"]
        self.seed = int(seed)
        self.scratch = scratch
        self.recorder = recorder
        self.schedule: List[Dict[str, object]] = []
        self.service: Optional[AlignmentService] = None
        self.units: List[Dict[str, object]] = []
        self.cells: List[layers.Cell] = []
        self._runner_calls = 0
        self._traced = False
        self._runner_parent: Optional[int] = None
        self._reference: Optional[List[Dict[str, float]]] = None

    def _runner(self, request, budget):
        """The runner handed to the service: counts, and traces if asked."""
        self._runner_calls += 1
        if not self._traced:
            return _default_runner(request, budget)
        with self.recorder.span("runner", parent=self._runner_parent), \
                tracing(True), capture_trace() as trace:
            record = _default_runner(request, budget)
        self.cells.append((request.algorithm, trace.to_payload(),
                           len(record.diagnostics)))
        return record

    def _open(self) -> AlignmentService:
        directory = tempfile.mkdtemp(prefix="service-", dir=self.scratch)
        return AlignmentService(directory, runner=self._runner)

    def _discard(self, service: AlignmentService) -> Dict[str, int]:
        service.close()
        stats = _tree_stats(service.root)
        shutil.rmtree(service.root, ignore_errors=True)
        return stats

    def setup(self) -> None:
        """Generate the requests, open a fresh service, warm up.

        The warm-up sends one small ticket per algorithm through a
        throwaway service, so the measured one starts with an empty
        journal.
        """
        self.close()
        self.schedule = request_schedule(
            self.inputs, self.inputs["graph"],
            int(self.inputs["tickets_per_session"]), self.seed,
            int(self.inputs["repeat_every"]))
        warmup = request_schedule(
            self.inputs, self.warmup_spec, len(self.inputs["algorithms"]),
            self.seed + 1, repeat_every=0)
        self._session(self._open(), warmup, traced=False)
        self.service = self._open()

    def _span(self, traced: bool, name: str, parent: Optional[int]):
        if traced:
            return self.recorder.span(name, parent=parent)
        return nullcontext({"id": None})

    def _session(self, service: AlignmentService, schedule, traced: bool):
        """Drive ``schedule`` through ``service``, then discard it.

        Per submission: ``submit_sync``; ``claim_next`` and, when it
        leased work, ``execute_claimed``; ``result_sync``.  A repeat is
        checked against the first submission of its request.
        """
        self._traced = traced
        span = self._span
        firsts: Dict[int, Dict[str, object]] = {}
        session = {"traced": traced, "latencies": [], "records": [],
                   "probes": [self.probe()], "repeats": 0, "deduped": 0}
        try:
            with span(traced, "session", None) as whole:
                start = time.perf_counter()
                for index, item in enumerate(schedule):
                    first = firsts.get(item["of"])
                    calls = self._runner_calls
                    began = time.perf_counter()
                    with span(traced, "ticket", whole["id"]) as ticket_span:
                        parent = ticket_span["id"]
                        with span(traced, "submit_sync", parent):
                            ticket = service.submit_sync(item["request"])
                        if first is not None:
                            checks.check_repeat_ticket(first, ticket)
                        with span(traced, "claim_next", parent):
                            key = service.claim_next()
                        if key is not None:
                            with span(traced, "execute_claimed",
                                      parent) as execute:
                                self._runner_parent = execute["id"]
                                service.execute_claimed(key)
                        with span(traced, "result_sync", parent):
                            record = service.result_sync(ticket.key)
                    session["latencies"].append(time.perf_counter() - began)
                    session["probes"].append(self.probe())
                    session["records"].append(record)
                    ran = key is not None or self._runner_calls != calls
                    if first is None:
                        final = service.status_sync(ticket.key, refresh=False)
                        firsts[index] = {"key": ticket.key,
                                         "state": final.state,
                                         "measures": dict(record.measures)}
                        continue
                    checks.check_repeat_result(first, ran, record.measures)
                    session["repeats"] += 1
                    session["deduped"] += not ran
                session["wall_s"] = time.perf_counter() - start
        finally:
            session.update(self._discard(service))
        checks.check_measure_range(r.measures for r in session["records"])
        return session

    def run_unit(self, index: int, traced: bool) -> None:
        """One session of ``tickets_per_session`` round trips.

        Every session sends the same requests, so every session must
        return the same measures.
        """
        service = self.service or self._open()
        self.service = None
        session = self._session(service, self.schedule, traced)
        measures = [dict(r.measures) for r in session["records"]]
        if self._reference is None:
            self._reference = measures
        checks.check_identical(self._reference, measures,
                               "a repeated session")
        self.units.append(session)

    latency_what = "tickets"

    def op_times(self, session, raw: bool = False) -> List[float]:
        """The session's ticket times, calibrated unless ``raw``."""
        if raw:
            return session["latencies"]
        return hostenv.calibrate(session["latencies"], session["probes"],
                                 self.probe_nominal_s)

    def latency_groups(self, raw: bool = False) -> List[List[float]]:
        """Submit-to-result times of the untraced tickets, per session."""
        return [self.op_times(s, raw) for s in self.units if not s["traced"]]

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics over the traced sessions."""
        recorder = self.recorder
        traced = [s for s in self.units if s["traced"]]
        ops = sum(len(s["latencies"]) for s in traced)

        def p50_ms(values: List[float]) -> float:
            return 1e3 * statistics.median(values) if values else 0.0

        def durations(name: str) -> List[float]:
            return [recorder.duration(s) for s in recorder.named(name)]

        runner = durations("runner")
        # execute_claimed's own time: its span minus the runner inside it.
        executes = [recorder.self_time(s["id"])
                    for s in recorder.named("execute_claimed")]
        bookkeeping = sum(executes) + sum(
            sum(durations(name))
            for name in ("submit_sync", "claim_next", "result_sync"))
        latency = sum(durations("ticket"))
        growth = []
        for session in traced:
            quarter = max(len(session["latencies"]) // 4, 1)
            growth.append(statistics.median(session["latencies"][-quarter:])
                          / statistics.median(session["latencies"][:quarter]))
        repeats = sum(s["repeats"] for s in traced)
        metrics = layers.algorithm_layers(
            self.cells, ops, cell_seconds=latency,
            harness_seconds=sum(runner))
        metrics.update({
            "service.submit_ms.p50": p50_ms(durations("submit_sync")),
            "service.claim_ms.p50": p50_ms(durations("claim_next")),
            "service.execute_ms.p50": p50_ms(executes),
            "service.result_ms.p50": p50_ms(durations("result_sync")),
            "service.runner_ms.p50": p50_ms(runner),
            "service.share": bookkeeping / latency if latency else 0.0,
            "service.latency_growth": statistics.median(growth),
            "service.journal_bytes": statistics.mean(
                s["journal_bytes"] for s in traced),
            "service.files": statistics.mean(s["files"] for s in traced),
            "service.duplicate_share": repeats / max(ops, 1),
            "service.dedup_ratio": (sum(s["deduped"] for s in traced)
                                    / repeats if repeats else 0.0),
        })
        return metrics

    def close(self) -> None:
        """Discard a service the set-up opened but no session used."""
        if self.service is not None:
            self._discard(self.service)
            self.service = None
