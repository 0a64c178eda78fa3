"""Unit and integration tests for the pipe-driven sweep scheduler.

The end-to-end chaos invariant (SIGKILL + corruption + resume ==
bit-identical to serial) lives in ``tests/test_chaos.py``; this module
covers the ``workers`` == serial equivalence in the no-fault case, the
supervisor's recovery paths (a worker lost mid-instance, the
orphan-attempt bound), its file footprint, the recovery-event log, and
orphaned-worker shutdown.  The lease-file primitives the alignment
service uses are tested in ``tests/test_service.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from repro.exceptions import ExperimentError
from repro.faults import FaultSpec, inject_fault
from repro.graphs import powerlaw_cluster_graph
from repro.harness import (
    ExperimentConfig,
    RunJournal,
    RunRecord,
    run_experiment,
)
from repro.harness.journal import cell_key
from repro.harness.results import ResultTable
from repro.harness.scheduler import load_recovery_events
from repro.noise import make_pair
from repro.observability import counter_totals

GRAPH = powerlaw_cluster_graph(40, 3, 0.3, seed=5)

BASE_CONFIG = dict(
    name="sched", algorithms=["isorank", "nsd"],
    noise_levels=(0.0, 0.02), repetitions=1, seed=7,
)


def canonical(table):
    """Order- and timing-insensitive view of a result table."""
    return sorted(
        (r.algorithm, r.dataset, r.noise_type, round(r.noise_level, 6),
         r.repetition, r.assignment, tuple(sorted(r.measures.items())),
         r.failed, r.attempts, tuple(map(str, r.diagnostics)))
        for r in table.records
    )


def _record(algorithm):
    return RunRecord(
        algorithm=algorithm, dataset="pl", noise_type="one-way",
        noise_level=0.0, repetition=0, assignment="jv",
        measures={"accuracy": 1.0}, similarity_time=0.1,
        assignment_time=0.1)


class TestShardedSweep:
    def test_sharded_equals_serial(self, tmp_path):
        serial = run_experiment(ExperimentConfig(**BASE_CONFIG),
                                {"pl": GRAPH})
        sharded = run_experiment(
            ExperimentConfig(workers=3, **BASE_CONFIG), {"pl": GRAPH},
            journal=str(tmp_path / "J"))
        assert canonical(sharded) == canonical(serial)

    def test_progress_reports_every_cell_once(self, tmp_path):
        seen = []
        table = run_experiment(
            ExperimentConfig(workers=2, **BASE_CONFIG), {"pl": GRAPH},
            journal=str(tmp_path / "J"), progress=seen.append)
        assert len(seen) == len(table) == 4
        assert len(set(seen)) == 4

    def test_resume_is_pure_replay(self, tmp_path):
        config = ExperimentConfig(workers=2, **BASE_CONFIG)
        first = run_experiment(config, {"pl": GRAPH},
                               journal=str(tmp_path / "J"))
        seen = []
        second = run_experiment(config, {"pl": GRAPH},
                                journal=str(tmp_path / "J"),
                                progress=seen.append)
        assert seen == []  # nothing re-executed
        assert canonical(second) == canonical(first)

    def test_instance_algorithms_share_one_artifact_cache(self, tmp_path):
        """Each instance's algorithms run in one worker under one artifact
        cache, as in a serial sweep: nsd reuses what isorank computed."""
        def cache_counters(table):
            counters = {}
            for r in table.records:
                totals = counter_totals(r.trace)
                counters[(r.algorithm, r.noise_level)] = (
                    totals.get("cache_hits", 0), totals.get("cache_misses", 0))
            return counters

        config = dict(cache=True, trace=True, **BASE_CONFIG)
        serial = cache_counters(run_experiment(ExperimentConfig(**config),
                                               {"pl": GRAPH}))
        sharded = cache_counters(run_experiment(
            ExperimentConfig(workers=2, **config), {"pl": GRAPH},
            journal=str(tmp_path / "J")))
        assert sharded == serial
        assert all(hits > 0 for (name, _), (hits, _) in serial.items()
                   if name == "nsd")

    def test_raising_pair_factory_fails_its_cells(self):
        """A pair factory error becomes failed records, not a worker
        that dies and is respawned into the same error."""
        def factory(graph, noise_type, level, seed):
            if level > 0:
                raise ValueError("no pair at this level")
            return make_pair(graph, noise_type, level, seed=seed)

        table = run_experiment(ExperimentConfig(workers=2, **BASE_CONFIG),
                               {"pl": GRAPH}, pair_factory=factory)
        failed = [r for r in table.records if r.failed]
        assert sorted(r.algorithm for r in failed) == ["isorank", "nsd"]
        assert all(r.noise_level > 0 for r in failed)
        assert all(r.error.startswith("ValueError: no pair") for r in failed)

    def test_workers_sweep_writes_only_its_journal(self, tmp_path,
                                                    monkeypatch):
        """The supervisor owns the queue, so a ``workers`` sweep needs no
        scratch files: the temporary directory stays empty while its
        workers run, and the journal's directory holds the journal alone."""
        scratch, probe, out = (tmp_path / name
                               for name in ("tmp", "probe", "out"))
        for directory in (scratch, probe, out):
            directory.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))

        def listing_factory(graph, noise_type, level, seed):
            (probe / f"{os.getpid()}-{seed}").write_text(
                json.dumps(os.listdir(scratch)))
            return make_pair(graph, noise_type, level, seed=seed)

        table = run_experiment(ExperimentConfig(workers=2, **BASE_CONFIG),
                               {"pl": GRAPH}, pair_factory=listing_factory,
                               journal=str(out / "J"))
        assert len(table) == 4
        listings = sorted(probe.iterdir())
        assert len(listings) == 2  # one pair per instance
        assert not any(path.name.startswith(f"{os.getpid()}-")
                       for path in listings)  # built inside the workers
        assert [json.loads(path.read_text()) for path in listings] == [[], []]
        assert os.listdir(out) == ["J"]

    def test_worker_lost_mid_instance_keeps_finished_cells(self, tmp_path):
        """A worker killed on an instance's second cell has already sent
        the first cell's record: the supervisor keeps it, charges the cell
        in flight one orphaned attempt, and re-runs that cell alone."""
        spec = FaultSpec(mode="kill_worker", on_call=None,
                         trigger_file=str(tmp_path / "killed-once"))
        seen = []
        with inject_fault("nsd", spec):
            table = run_experiment(ExperimentConfig(workers=2, **BASE_CONFIG),
                                   {"pl": GRAPH}, journal=str(tmp_path / "J"),
                                   progress=seen.append)
        assert (tmp_path / "killed-once").exists()
        events = load_recovery_events(tmp_path / "J")
        reclaims = [e for e in events if e["kind"] == "lease_reclaimed"]
        assert [(e["reason"], e["attempts"]) for e in reclaims] == \
            [("dead_pid", 1)]
        assert [e["kind"] for e in events].count("worker_respawned") == 1
        lost = reclaims[0]["key"]
        dataset, noise_type, level, rep, name = lost.split("|")
        assert name == "nsd"
        kept = cell_key(dataset, noise_type, float(level), int(rep),
                        "isorank")
        records = {cell_key(r.dataset, r.noise_type, r.noise_level,
                            r.repetition, r.algorithm): r
                   for r in table.records}
        assert records[lost].attempts == 2 and not records[lost].failed
        assert records[kept].attempts == 1
        assert RunJournal(tmp_path / "J").get(kept).attempts == 1
        # Four cells, four reports: the kept record was never re-run.
        assert len(seen) == len(set(seen)) == 4
        serial = run_experiment(ExperimentConfig(**BASE_CONFIG),
                                {"pl": GRAPH})
        assert canonical(ResultTable(
            [replace(r, attempts=1) for r in table.records])) == \
            canonical(serial)

    def test_orphan_attempt_bound_yields_failed_record(self, tmp_path):
        """A cell whose worker dies on every attempt is recorded as failed
        once it has been orphaned as often as the bound allows, instead
        of crash-looping the fleet; the rest of the sweep is unharmed."""
        spec = FaultSpec(mode="kill_worker", on_call=None)
        with inject_fault("isorank", spec):
            table = run_experiment(ExperimentConfig(workers=2, **BASE_CONFIG),
                                   {"pl": GRAPH}, journal=str(tmp_path / "J"))
        doomed = [r for r in table.records if r.algorithm == "isorank"]
        assert len(doomed) == 2
        for record in doomed:
            assert record.failed
            assert "orphaned 3 times" in record.error
            assert record.attempts == 3  # DEFAULT_ORPHAN_ATTEMPTS
        others = [r for r in table.records if r.algorithm == "nsd"]
        assert len(others) == 2 and all(not r.failed for r in others)


class TestRecoveryEventLog:
    def test_missing_log_reads_empty(self, tmp_path):
        assert load_recovery_events(tmp_path / "nowhere") == []

    def test_torn_tail_tolerated(self, tmp_path):
        (tmp_path / "J.events.jsonl").write_text(
            json.dumps({"kind": "lease_reclaimed", "time": 1.0}) + "\n"
            + '{"kind": "lease_re')
        events = load_recovery_events(tmp_path / "J")
        assert len(events) == 1


class TestJournalForkGuard:
    def test_forked_append_names_both_pids_and_path(self, tmp_path):
        journal = RunJournal(tmp_path / "J", fingerprint="fp")
        record = _record("isorank")
        journal.append("k1", record)
        pid = os.fork()
        if pid == 0:  # child: the append must fail loudly, not corrupt
            try:
                journal.append("k2", record)
            except ExperimentError as exc:
                message = str(exc)
                ok = (str(os.getpid()) in message
                      and str(os.getppid()) in message
                      and str(journal.path) in message
                      and "fork" in message)
                os._exit(0 if ok else 1)
            except BaseException:
                os._exit(2)
            os._exit(3)  # no exception at all
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        journal.close()
        # The parent-owned journal is uncorrupted: one record, loadable.
        assert set(RunJournal(tmp_path / "J").keys) == {"k1"}


class TestEventLogRotation:
    def _log(self, tmp_path, **kwargs):
        from repro.harness.scheduler import EventLog
        return EventLog(tmp_path / "J.events.jsonl", **kwargs)

    def test_small_log_never_rotates(self, tmp_path):
        from repro.harness.scheduler import event_log_segments
        log = self._log(tmp_path)
        log.record("lease_reclaimed", key="k")
        log.close()
        assert event_log_segments(tmp_path / "J.events.jsonl") == []
        assert (tmp_path / "J.events.jsonl").exists()

    def test_rotation_bounds_every_sealed_segment(self, tmp_path):
        from repro.harness.scheduler import event_log_segments
        log = self._log(tmp_path, max_bytes=256, max_segments=4)
        for index in range(60):
            log.record("lease_reclaimed", key=f"cell-{index:03d}")
        log.close()
        segments = event_log_segments(tmp_path / "J.events.jsonl")
        assert len(segments) > 1
        for segment in segments:  # sealed segments respect the bound
            assert segment.stat().st_size <= 256 + 128

    def test_reads_span_segments_in_order(self, tmp_path):
        from repro.harness.scheduler import load_event_segments
        log = self._log(tmp_path, max_bytes=256, max_segments=100)
        for index in range(60):
            log.record("lease_reclaimed", key=f"cell-{index:03d}")
        log.close()
        events = load_event_segments(tmp_path / "J.events.jsonl")
        assert [e["key"] for e in events] == \
            [f"cell-{i:03d}" for i in range(60)]

    def test_compaction_drops_oldest_beyond_cap(self, tmp_path):
        from repro.harness.scheduler import (event_log_segments,
                                             load_event_segments)
        log = self._log(tmp_path, max_bytes=256, max_segments=3)
        for index in range(200):
            log.record("lease_reclaimed", key=f"cell-{index:03d}")
        log.close()
        segments = event_log_segments(tmp_path / "J.events.jsonl")
        assert len(segments) <= 3
        events = load_event_segments(tmp_path / "J.events.jsonl")
        keys = [e["key"] for e in events]
        # the newest events always survive compaction, oldest go first
        assert keys == sorted(keys)
        assert keys[-1] == "cell-199"
        assert len(keys) < 200

    def test_load_recovery_events_spans_rotated_segments(self, tmp_path):
        from repro.harness.scheduler import EventLog
        log = EventLog(tmp_path / "J.events.jsonl", max_bytes=256,
                       max_segments=100)
        for index in range(40):
            log.record("lease_reclaimed", key=f"cell-{index:03d}",
                       reason="dead_pid")
        log.close()
        events = load_recovery_events(tmp_path / "J")
        assert len(events) == 40
        assert all(e["reason"] == "dead_pid" for e in events)


# A workers=2 sweep of 100 instances, each ~0.2 s of pair building (about
# 10 s in all); every worker records its pid when it starts an instance.
ORPHAN_SUPERVISOR = """\
import os, sys, time
from pathlib import Path
from repro.graphs import powerlaw_cluster_graph
from repro.harness import ExperimentConfig, run_experiment
from repro.noise import make_pair

pids = Path(sys.argv[1])

def slow_factory(graph, noise_type, level, seed):
    (pids / str(os.getpid())).touch()
    time.sleep(0.2)
    return make_pair(graph, noise_type, level, seed=seed)

config = ExperimentConfig(name="orphans", algorithms=["isorank"],
                          noise_levels=tuple(i / 100 for i in range(50)),
                          repetitions=2, seed=7, workers=2)
run_experiment(config, {"pl": powerlaw_cluster_graph(20, 3, 0.3, seed=5)},
               pair_factory=slow_factory)
"""

# Becomes a child subreaper, starts the supervisor, SIGKILLs it once both
# workers run, then reaps the orphans it adopts.  Exit 0: every orphan
# exited within the grace period; 1: some were still running; 3: the
# workers never started; 77: no prctl here.
SUBREAPER_DRIVER = """\
import ctypes, os, signal, subprocess, sys, time

PR_SET_CHILD_SUBREAPER = 36
try:
    prctl = ctypes.CDLL(None, use_errno=True).prctl
except (OSError, AttributeError):
    sys.exit(77)
prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                  ctypes.c_ulong, ctypes.c_ulong]
prctl.restype = ctypes.c_int
if prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
    sys.exit(77)

pids, supervisor_script, grace = sys.argv[1], sys.argv[2], float(sys.argv[3])
supervisor = subprocess.Popen([sys.executable, "-c", supervisor_script, pids])
deadline = time.time() + 60
while time.time() < deadline and len(os.listdir(pids)) < 2:
    time.sleep(0.02)
workers = [int(name) for name in os.listdir(pids)]
supervisor.kill()
supervisor.wait()
deadline = time.time() + grace
while time.time() < deadline:
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        sys.exit(0 if len(workers) >= 2 else 3)
    if pid == 0:
        time.sleep(0.02)
for pid in workers:
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass
sys.exit(1)
"""


class TestOrphanedWorkers:
    def test_workers_stop_when_supervisor_dies_under_a_subreaper(
            self, tmp_path):
        """A SIGKILLed supervisor's workers are re-parented to the nearest
        child subreaper, not to init, and must still stop within a cell
        instead of working through the rest of the sweep."""
        pids = tmp_path / "pids"
        pids.mkdir()
        env = dict(os.environ, TMPDIR=str(tmp_path))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        driver = subprocess.run(
            [sys.executable, "-c", SUBREAPER_DRIVER, str(pids),
             ORPHAN_SUPERVISOR, "3.0"],
            env=env, capture_output=True, text=True, timeout=120)
        if driver.returncode == 77:
            pytest.skip("prctl(PR_SET_CHILD_SUBREAPER) is unavailable")
        assert driver.returncode == 0, (
            f"exit {driver.returncode}: orphaned workers outlived their "
            f"supervisor by 3 s\n{driver.stderr}")
