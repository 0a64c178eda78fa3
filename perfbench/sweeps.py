"""Sweep workloads: serial ``run_experiment`` with a journal and the cache.

Each unit is one call of :func:`repro.harness.run_experiment` the way
``repro experiment --journal --cache`` makes it: a serial sweep over
one base graph, with the artifact cache on and a fresh journal file, so
no cell is ever replayed.  Each unit sweeps its own base graph, drawn
from the seed and the unit's index, so a run's figures average over as
many graphs as it has units.  A traced run sweeps every graph twice,
untraced and traced, and the two sweeps must return the same measures.

Untraced sweeps are calibrated for host speed: the workload's probe (the
numpy one) is timed at the sweep's start, before each cell, through the
``progress`` callback, and at its end, outside the ops' times; see
:func:`perfbench.hostenv.calibrate`.  An op is the run-up to the first
cell or one cell.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.graphs.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.harness import ExperimentConfig, run_experiment
from repro.noise import make_pair

from perfbench import checks, hostenv, layers
from perfbench.spans import SpanRecorder

# Seed offsets of the warm-up graph and of each unit's graph.
_WARMUP_SEED_OFFSET = 7919
_UNIT_SEED_STRIDE = 104729


def make_graph(spec: Dict[str, object], seed: int):
    """A base graph from a workloads.json graph spec."""
    n = int(spec["n"])
    if spec["model"] == "erdos_renyi":
        return erdos_renyi_graph(n, float(spec["average_degree"]) / (n - 1),
                                 seed=seed)
    if spec["model"] == "powerlaw_cluster":
        return powerlaw_cluster_graph(n, int(spec["m"]), float(spec["p"]),
                                      seed=seed)
    raise ValueError(f"unknown graph model {spec['model']!r}")


def pair_factory(graph, noise_type, level, seed):
    """The harness's default instance factory, passed explicitly."""
    return make_pair(graph, noise_type, level, seed=seed)


class SweepWorkload:
    """Set-up and timed units of one sweep workload."""

    def __init__(self, spec: Dict[str, object], seed: int, units: int,
                 scratch: Path, recorder: SpanRecorder):
        self.inputs = spec["inputs"]
        self.warmup_spec = spec["warmup_graph"]
        self.probe = hostenv.PROBES[spec["calibration"]["probe"]]
        self.probe_nominal_s = 1e-6 * float(
            spec["calibration"]["probe_nominal_us"])
        self.seed = int(seed)
        self.scratch = scratch
        self.recorder = recorder
        self.algorithms = tuple(self.inputs["algorithms"])
        self.unit_count = int(units)
        self.graphs: List[object] = []
        self.journal_dir: Optional[Path] = None
        self.units: List[Dict[str, object]] = []
        self._reference: Dict[int, List[Dict[str, float]]] = {}

    def _config(self, traced: bool, levels=None) -> ExperimentConfig:
        inputs = self.inputs
        return ExperimentConfig(
            name="perfbench",
            algorithms=self.algorithms,
            assignment=inputs["assignment"],
            noise_types=(inputs["noise_type"],),
            noise_levels=tuple(levels or inputs["noise_levels"]),
            repetitions=int(inputs["repetitions"]),
            measures=tuple(inputs["measures"]),
            seed=self.seed,
            trace=traced,
            cache=bool(inputs["cache"]),
        )

    def _fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="journal-", dir=self.scratch))

    def setup(self) -> None:
        """Generate the inputs, open a journal directory, warm up.

        The warm-up runs one cell per algorithm on a small graph of the
        same family, so every code path has run once before timing.
        """
        self.graphs = [
            make_graph(self.inputs["graph"],
                       self.seed + _UNIT_SEED_STRIDE * index)
            for index in range(self.unit_count)]
        warmup = make_graph(self.warmup_spec,
                            self.seed + _WARMUP_SEED_OFFSET)
        table = run_experiment(
            self._config(False, levels=self.inputs["noise_levels"][:1]),
            {"warmup": warmup}, pair_factory=pair_factory,
            journal=self._fresh_dir() / "warmup.jsonl")
        self._check(table.records, instances=1)
        self.journal_dir = self._fresh_dir()

    def _check(self, records, instances: int) -> None:
        checks.check_record_count(records, self.algorithms, instances)
        checks.check_measure_range(r.measures for r in records)

    @property
    def instances(self) -> int:
        return (len(self.inputs["noise_levels"])
                * int(self.inputs["repetitions"]))

    def run_unit(self, index: int, traced: bool) -> None:
        """One timed sweep of unit ``index``'s graph on a fresh journal."""
        journal_dir = self.journal_dir or self._fresh_dir()
        self.journal_dir = None
        journal = journal_dir / "sweep.jsonl"
        config = self._config(traced)
        graphs = {f"graph{index}": self.graphs[index]}
        if traced:
            records, wall = self._traced_sweep(config, graphs, journal)
            unit = {}
        else:
            records, unit = self._probed_sweep(config, graphs, journal)
            wall = sum(unit["op_s"])
        self._check(records, self.instances)
        measures = [dict(r.measures) for r in records]
        checks.check_identical(self._reference.setdefault(index, measures),
                               measures, "a repeated sweep")
        unit.update(traced=traced, wall_s=wall, records=records)
        self.units.append(unit)

    def _probed_sweep(self, config, graphs, journal):
        """The sweep with a probe at its start, before each cell and at
        its end; returns the records and the ops' raw times, probes and
        instances."""
        marks = []
        instances = []

        def mark() -> None:
            start = time.perf_counter()
            seconds = self.probe()
            marks.append((start, time.perf_counter(), seconds))

        def progress(message: str) -> None:
            # "<dataset> <noise type> <level> rep<r> <algorithm>"
            instances.append(message.rsplit(" ", 1)[0])
            mark()

        mark()
        table = run_experiment(config, graphs, pair_factory=pair_factory,
                               progress=progress, journal=journal)
        mark()
        return table.records, {
            "op_s": [b[0] - a[1] for a, b in zip(marks, marks[1:])],
            "probes": [seconds for _, _, seconds in marks],
            # The run-up to the first cell belongs to the first instance.
            "op_instance": instances[:1] + instances}

    def _traced_sweep(self, config, graphs, journal):
        """The sweep with the benchmark's spans around its calls."""
        recorder = self.recorder
        marks = []

        with recorder.span("run_experiment") as unit:
            def factory(graph, noise_type, level, seed):
                with recorder.span("pair_factory", parent=unit["id"]):
                    return pair_factory(graph, noise_type, level, seed)

            def progress(message: str) -> None:
                marks.append((recorder.clock(), message))

            table = run_experiment(config, graphs, pair_factory=factory,
                                   progress=progress, journal=journal)
        factories = recorder.children(unit["id"])
        bounds = [t for t, _ in marks[1:]] + [unit["end"]]
        for (start, message), end in zip(marks, bounds):
            inside = sum(max(0.0, min(end, f["end"]) - max(start, f["start"]))
                         for f in factories)
            recorder.add("cell", start, end, parent=unit["id"],
                         algorithm=message.split()[-1],
                         pair_factory_s=inside)
        return table.records, recorder.duration(unit)

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics over the traced units."""
        recorder = self.recorder
        cells = [(r.algorithm, r.trace, len(r.diagnostics))
                 for unit in self.units if unit["traced"]
                 for r in unit["records"]]
        cell_seconds = sum(recorder.duration(c) - c["attrs"]["pair_factory_s"]
                           for c in recorder.named("cell"))
        factory_seconds = sum(recorder.duration(f)
                              for f in recorder.named("pair_factory"))
        sweep_seconds = sum(recorder.duration(u)
                            for u in recorder.named("run_experiment"))
        metrics = layers.algorithm_layers(
            cells, len(cells), cell_seconds,
            harness_seconds=sweep_seconds - factory_seconds)
        metrics["noise.make_pair_ms"] = (1e3 * factory_seconds
                                         / max(len(cells), 1))
        return metrics

    latency_what = "instances"

    def op_times(self, unit, raw: bool = False) -> List[float]:
        """The sweep's op times, calibrated unless ``raw``."""
        if raw:
            return unit["op_s"]
        return hostenv.calibrate(unit["op_s"], unit["probes"],
                                 self.probe_nominal_s)

    def latency_groups(self, raw: bool = False) -> List[List[float]]:
        """Instance times of the untraced sweeps, in s, per sweep.

        An instance is one noisy pair through every algorithm of the
        sweep, so each sample holds the same mix of algorithms.  It runs
        from its first cell's start to the next instance's.  A sweep
        holds too few instances for a tail percentile; taking the
        median over sweeps keeps one stalled sweep from setting it.
        """
        groups = []
        for unit in self.units:
            if unit["traced"]:
                continue
            times: Dict[str, float] = {}
            for instance, seconds in zip(unit["op_instance"],
                                         self.op_times(unit, raw)):
                times[instance] = times.get(instance, 0.0) + seconds
            groups.append(list(times.values()))
        return groups

    def close(self) -> None:
        """Nothing outlives a sweep: the journal closes with the call."""
