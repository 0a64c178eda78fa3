"""Unit and integration tests for the shard-aware distributed scheduler.

The end-to-end chaos invariant (SIGKILL + corruption + resume ==
bit-identical to serial) lives in ``tests/test_chaos.py``; this module
covers the lease protocol, stale-lease detection, orphan-attempt
accounting, shard merging, and the sharded == serial equivalence in the
no-fault case.
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.exceptions import ExperimentError
from repro.graphs import powerlaw_cluster_graph
from repro.harness import (
    ExperimentConfig,
    RunJournal,
    RunRecord,
    config_fingerprint,
    run_experiment,
)
from repro.harness.scheduler import (
    Lease,
    ShardPaths,
    bump_attempts,
    cell_hash,
    lease_path,
    load_recovery_events,
    merge_shard_records,
    read_attempts,
    read_lease,
    refresh_lease,
    release_lease,
    scan_stale_leases,
    try_acquire_lease,
)
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


class TestLeaseProtocol:
    def test_acquire_is_exclusive(self, tmp_path):
        first = try_acquire_lease(tmp_path, "cell-a")
        assert first is not None
        assert try_acquire_lease(tmp_path, "cell-a") is None
        release_lease(first)
        assert try_acquire_lease(tmp_path, "cell-a") is not None

    def test_lease_carries_owner_identity(self, tmp_path):
        path = try_acquire_lease(tmp_path, "cell-a", attempt=2)
        lease = read_lease(path)
        assert lease.key == "cell-a"
        assert lease.pid == os.getpid()
        assert lease.attempt == 2
        assert lease.heartbeat > 0

    def test_refresh_advances_heartbeat_atomically(self, tmp_path):
        path = try_acquire_lease(tmp_path, "cell-a")
        before = read_lease(path)
        time.sleep(0.02)
        refresh_lease(path, "cell-a", 1, before.acquired_at)
        after = read_lease(path)
        assert after.heartbeat > before.heartbeat
        assert after.acquired_at == before.acquired_at
        assert not list(tmp_path.glob(".*.tmp"))  # rename left no litter

    def test_mid_write_lease_degrades_to_mtime(self, tmp_path):
        path = lease_path(tmp_path, "cell-a")
        path.write_text("{torn")
        lease = read_lease(path)
        assert lease is not None and lease.pid == -1
        assert lease.heartbeat == pytest.approx(path.stat().st_mtime)

    def test_release_tolerates_already_reclaimed(self, tmp_path):
        release_lease(tmp_path / "never-existed.lease")  # no raise


class TestStaleScan:
    def test_live_fresh_lease_not_stale(self, tmp_path):
        try_acquire_lease(tmp_path, "cell-a")
        assert scan_stale_leases(tmp_path, timeout_seconds=30.0) == []

    def test_dead_pid_stale_immediately(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        path = try_acquire_lease(tmp_path, "cell-a")
        lease = read_lease(path)
        dead = Lease(key=lease.key, pid=child.pid, host=lease.host,
                     attempt=1, acquired_at=lease.acquired_at,
                     heartbeat=time.time())
        path.write_text(dead.to_json())
        stale = scan_stale_leases(tmp_path, timeout_seconds=1000.0)
        assert [(l.key, reason) for _, l, reason in stale] == \
            [("cell-a", "dead_pid")]

    def test_expired_heartbeat_stale(self, tmp_path):
        path = try_acquire_lease(tmp_path, "cell-a")
        lease = read_lease(path)
        old = Lease(key=lease.key, pid=lease.pid, host=lease.host,
                    attempt=1, acquired_at=lease.acquired_at,
                    heartbeat=time.time() - 100.0)
        path.write_text(old.to_json())
        stale = scan_stale_leases(tmp_path, timeout_seconds=5.0)
        assert [reason for _, _, reason in stale] == ["expired_heartbeat"]

    def test_foreign_host_judged_only_by_heartbeat(self, tmp_path):
        """A pid from another host means nothing locally — even a
        'dead' one must wait out the heartbeat timeout."""
        path = lease_path(tmp_path, "cell-a")
        foreign = Lease(key="cell-a", pid=2, host="elsewhere", attempt=1,
                        acquired_at=time.time(), heartbeat=time.time())
        path.write_text(foreign.to_json())
        assert scan_stale_leases(tmp_path, timeout_seconds=30.0) == []


class TestAttemptAccounting:
    def test_attempts_survive_reclaim_cycles(self, tmp_path):
        assert read_attempts(tmp_path, "cell-a") == 0
        assert bump_attempts(tmp_path, "cell-a") == 1
        assert bump_attempts(tmp_path, "cell-a") == 2
        assert read_attempts(tmp_path, "cell-a") == 2
        assert read_attempts(tmp_path, "cell-b") == 0

    def test_corrupt_attempts_file_reads_as_zero(self, tmp_path):
        (tmp_path / f"{cell_hash('cell-a')}.attempts").write_text("junk")
        assert read_attempts(tmp_path, "cell-a") == 0


class TestShardMerge:
    @staticmethod
    def _record(algorithm):
        return RunRecord(
            algorithm=algorithm, dataset="pl", noise_type="one-way",
            noise_level=0.0, repetition=0, assignment="jv",
            measures={"accuracy": 1.0}, similarity_time=0.1,
            assignment_time=0.1)

    def test_merge_dedupes_first_shard_wins(self, tmp_path):
        paths = ShardPaths(tmp_path / "J", 2)
        fp = "fp"
        s0 = RunJournal(paths.shard(0), fingerprint=fp)
        s0.append("k1", self._record("isorank"))
        s0.close()
        s1 = RunJournal(paths.shard(1), fingerprint=fp)
        s1.append("k1", self._record("nsd"))  # duplicate key
        s1.append("k2", self._record("nsd"))
        s1.close()
        merged = merge_shard_records(paths, fp)
        assert set(merged) == {"k1", "k2"}
        assert merged["k1"].algorithm == "isorank"

    def test_merge_does_not_truncate_live_shards(self, tmp_path):
        """Reading another worker's shard mid-append must never mutate
        it — the torn tail belongs to its (live) owner."""
        paths = ShardPaths(tmp_path / "J", 1)
        journal = RunJournal(paths.shard(0), fingerprint="fp")
        journal.append("k1", self._record("isorank"))
        journal.close()
        with open(paths.shard(0), "a") as handle:
            handle.write('{"kind": "record", "key": "k2"')  # mid-append
        size_before = paths.shard(0).stat().st_size
        merged = merge_shard_records(paths, "fp")
        assert set(merged) == {"k1"}
        assert paths.shard(0).stat().st_size == size_before

    def test_merge_rejects_foreign_fingerprint(self, tmp_path):
        paths = ShardPaths(tmp_path / "J", 1)
        journal = RunJournal(paths.shard(0), fingerprint="theirs")
        journal.append("k1", self._record("isorank"))
        journal.close()
        with pytest.raises(ExperimentError, match="different experiment"):
            merge_shard_records(paths, "ours")

    def test_merge_sees_shards_from_wider_previous_run(self, tmp_path):
        """Resuming with fewer shards still reads every old shard file."""
        paths_wide = ShardPaths(tmp_path / "J", 4)
        s3 = RunJournal(paths_wide.shard(3), fingerprint="fp")
        s3.append("k1", self._record("isorank"))
        s3.close()
        merged = merge_shard_records(ShardPaths(tmp_path / "J", 2), "fp")
        assert set(merged) == {"k1"}


class TestShardedSweep:
    def test_sharded_equals_serial(self, tmp_path):
        serial = run_experiment(ExperimentConfig(**BASE_CONFIG),
                                {"pl": GRAPH})
        sharded = run_experiment(
            ExperimentConfig(shards=3, **BASE_CONFIG), {"pl": GRAPH},
            journal=str(tmp_path / "J"))
        assert canonical(sharded) == canonical(serial)

    def test_progress_reports_every_cell_once(self, tmp_path):
        seen = []
        table = run_experiment(
            ExperimentConfig(shards=2, **BASE_CONFIG), {"pl": GRAPH},
            journal=str(tmp_path / "J"), progress=seen.append)
        assert len(seen) == len(table) == 4
        assert len(set(seen)) == 4

    def test_resume_is_pure_replay(self, tmp_path):
        config = ExperimentConfig(shards=2, **BASE_CONFIG)
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
            ExperimentConfig(shards=2, **config), {"pl": GRAPH},
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

    def test_sharded_requires_journal_path(self):
        config = ExperimentConfig(shards=2, **BASE_CONFIG)
        with pytest.raises(ExperimentError, match="journal path"):
            run_experiment(config, {"pl": GRAPH})

    def test_sharded_rejects_open_journal_object(self, tmp_path):
        config = ExperimentConfig(shards=2, **BASE_CONFIG)
        journal = RunJournal(tmp_path / "J",
                             fingerprint=config_fingerprint(config))
        with pytest.raises(ExperimentError, match="path"):
            run_experiment(config, {"pl": GRAPH}, journal=journal)

    def test_shards_and_workers_mutually_exclusive(self):
        with pytest.raises(ExperimentError, match="alternative fan-out"):
            ExperimentConfig(shards=2, workers=2, **BASE_CONFIG)

    def test_startup_reclaims_dead_previous_leases(self, tmp_path):
        """A lease left by a crashed previous run (dead pid) must be
        reclaimed at startup, recorded, and its cell completed."""
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        config = ExperimentConfig(shards=2, **BASE_CONFIG)
        paths = ShardPaths(tmp_path / "J", 2)
        paths.ensure_dirs()
        key = "pl|one-way|0.000000|0|isorank"
        stale = Lease(key=key, pid=child.pid, host=__import__("socket")
                      .gethostname(), attempt=1, acquired_at=time.time(),
                      heartbeat=time.time())
        lease_path(paths.lease_dir, key).write_text(stale.to_json())
        table = run_experiment(config, {"pl": GRAPH},
                               journal=str(tmp_path / "J"))
        assert len(table) == 4
        assert all(not r.failed for r in table.records)
        events = load_recovery_events(tmp_path / "J")
        reclaims = [e for e in events if e["kind"] == "lease_reclaimed"]
        assert any(e["key"] == key and e["reason"] == "dead_pid"
                   and e.get("at_startup") for e in reclaims)
        assert read_attempts(paths.lease_dir, key) == 1

    def test_workers_sweep_removes_dead_supervisors_scratch(
            self, tmp_path, monkeypatch):
        """A SIGKILLed ``workers=N`` supervisor cannot remove its scratch
        directory; the next sweep on the host removes every one whose
        supervisor pid is dead and keeps a live supervisor's."""
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        prefix = f"repro-sweep-{socket.gethostname()}-"
        dead = tmp_path / f"{prefix}{child.pid}-left"
        live = tmp_path / f"{prefix}{os.getpid()}-busy"
        for leftover in (dead, live):
            (leftover / "sweep.jsonl.leases").mkdir(parents=True)
        table = run_experiment(ExperimentConfig(workers=2, **BASE_CONFIG),
                               {"pl": GRAPH})
        assert len(table) == 4
        assert not dead.exists()
        assert list(tmp_path.glob(f"{prefix}{os.getpid()}-*")) == [live]

    def test_orphan_attempt_bound_yields_failed_record(self, tmp_path):
        """A cell whose attempts tombstone already exceeds the bound is
        recorded as failed instead of crash-looping the fleet."""
        config = ExperimentConfig(shards=2, **BASE_CONFIG)
        paths = ShardPaths(tmp_path / "J", 2)
        paths.ensure_dirs()
        key = "pl|one-way|0.000000|0|isorank"
        for _ in range(3):  # DEFAULT_ORPHAN_ATTEMPTS (no retry policy set)
            bump_attempts(paths.lease_dir, key)
        table = run_experiment(config, {"pl": GRAPH},
                               journal=str(tmp_path / "J"))
        doomed = [r for r in table.records
                  if r.algorithm == "isorank" and r.noise_level == 0.0]
        assert len(doomed) == 1 and doomed[0].failed
        assert "orphaned" in doomed[0].error
        assert doomed[0].attempts == 3
        others = [r for r in table.records if r is not doomed[0]]
        assert all(not r.failed for r in others)


class TestRecoveryEventLog:
    def test_missing_log_reads_empty(self, tmp_path):
        assert load_recovery_events(tmp_path / "nowhere") == []

    def test_torn_tail_tolerated(self, tmp_path):
        paths = ShardPaths(tmp_path / "J", 1)
        paths.events_path.write_text(
            json.dumps({"kind": "lease_reclaimed", "time": 1.0}) + "\n"
            + '{"kind": "lease_re')
        events = load_recovery_events(tmp_path / "J")
        assert len(events) == 1


class TestJournalForkGuard:
    def test_forked_append_names_both_pids_and_path(self, tmp_path):
        journal = RunJournal(tmp_path / "J.shard00", fingerprint="fp")
        record = TestShardMerge._record("isorank")
        journal.append("k1", record)
        pid = os.fork()
        if pid == 0:  # child: the append must fail loudly, not corrupt
            try:
                journal.append("k2", record)
            except ExperimentError as exc:
                message = str(exc)
                ok = (str(os.getpid()) in message
                      and str(os.getppid()) in message
                      and "J.shard00" in message
                      and "fork" in message)
                os._exit(0 if ok else 1)
            except BaseException:
                os._exit(2)
            os._exit(3)  # no exception at all
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        journal.close()
        # The parent-owned shard is uncorrupted: one record, loadable.
        assert set(RunJournal(tmp_path / "J.shard00").keys) == {"k1"}


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
        paths = ShardPaths(tmp_path / "J", 1)
        paths.ensure_dirs()
        log = EventLog(paths.events_path, max_bytes=256, max_segments=100)
        for index in range(40):
            log.record("lease_reclaimed", key=f"cell-{index:03d}",
                       reason="dead_pid")
        log.close()
        events = load_recovery_events(tmp_path / "J")
        assert len(events) == 40
        assert all(e["reason"] == "dead_pid" for e in events)


WORKER_DRAIN_DRIVER = """\
import sys, time
from pathlib import Path
from repro.graphs import powerlaw_cluster_graph
from repro.harness import ExperimentConfig, config_fingerprint
from repro.harness.scheduler import ShardPaths, _shard_worker_main
from repro.noise import make_pair

base = sys.argv[1]
ShardPaths(base, 1).ensure_dirs()  # normally the supervisor's job
config = ExperimentConfig(name="drain", algorithms=["isorank"],
                          noise_levels=(0.0,), repetitions=1, seed=7,
                          shards=1)
graph = powerlaw_cluster_graph(40, 3, 0.3, seed=5)

def stalling_factory(graph, noise_type, level, seed):
    Path(base + ".ready").touch()
    time.sleep(120)  # hold the lease until the parent SIGTERMs us
    return make_pair(graph, noise_type, level, seed=seed)

_shard_worker_main(0, base, config, {"pl": graph}, stalling_factory,
                   config_fingerprint(config))
"""


class TestWorkerSigtermDrain:
    def test_sigterm_releases_lease_and_tombstones_attempt(self, tmp_path):
        """A drained worker must exit 0 with its lease released and the
        burned attempt tombstoned — nothing left for stale reclaim."""
        base = tmp_path / "J"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        worker = subprocess.Popen(
            [sys.executable, "-c", WORKER_DRAIN_DRIVER, str(base)],
            env=env, stderr=subprocess.PIPE, text=True)
        try:
            ready = Path(str(base) + ".ready")
            deadline = time.time() + 60
            while time.time() < deadline and not ready.exists():
                time.sleep(0.05)
            assert ready.exists(), "worker never claimed a cell"
            worker.terminate()  # SIGTERM mid-cell, lease held
            assert worker.wait(timeout=60) == 0, worker.stderr.read()
        finally:
            worker.kill()
        paths = ShardPaths(base, 1)
        assert list(paths.lease_dir.glob("*.lease")) == []
        key = "pl|one-way|0.000000|0|isorank"
        assert read_attempts(paths.lease_dir, key) == 1
