"""Unit and property tests for the alignment service front-end.

Covers the lease-file primitives under the queue (exclusive claims,
heartbeats, stale-lease detection, attempt tombstones), the durable
request queue (admission, claims, stale-lease reclaim, ticket state
and result derived from its files), and the service itself:
idempotent submission under concurrent races (hypothesis),
backpressure, deadlines, cancellation, drain, and restart recovery.
The SIGKILL chaos scenario lives in ``test_service_chaos.py``.
"""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ExperimentError
from repro.graphs.generators import erdos_renyi_graph
from repro.harness.results import RunRecord
from repro.harness.runner import run_cell
from repro.noise import GraphPair, make_pair
from repro.service import (
    DEFAULT_MEASURES,
    AlignmentRequest,
    AlignmentService,
    DurableRequestQueue,
    QueueFull,
    ServiceUnavailable,
    TICKET_STATES,
    TicketError,
    load_service_events,
    read_health,
    ticket_key,
)
from repro.service.queue import (
    Lease,
    bump_attempts,
    cell_hash,
    lease_path,
    read_attempts,
    read_lease,
    refresh_lease,
    release_lease,
    scan_stale_leases,
    try_acquire_lease,
)

G1 = erdos_renyi_graph(16, 0.3, seed=1)
G2 = erdos_renyi_graph(16, 0.3, seed=2)


def fast_record(request, measures=None):
    return RunRecord(
        algorithm=request.algorithm, dataset="service",
        noise_type="service", noise_level=0.0, repetition=0,
        assignment=request.assignment,
        measures=measures or {"s3": 1.0},
        similarity_time=0.0, assignment_time=0.0,
    )


def fast_runner(request, budget):
    return fast_record(request)


def request_for(seed=0, **overrides):
    pair = make_pair(erdos_renyi_graph(14, 0.3, seed=seed),
                     "one-way", 0.1, seed=seed)
    options = dict(source=pair.source, target=pair.target,
                   algorithm="isorank", seed=seed)
    options.update(overrides)
    return AlignmentRequest(**options)


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


class TestTicketKey:
    def test_deterministic_and_content_addressed(self):
        a = ticket_key(G1.content_digest(), G2.content_digest(), "isorank")
        b = ticket_key(G1.content_digest(), G2.content_digest(), "isorank")
        assert a == b

    def test_everything_that_changes_the_work_changes_the_key(self):
        base = dict(params={"alpha": 0.5}, assignment="jv",
                    measures=("s3",), seed=0)
        key = ticket_key(G1.content_digest(), G2.content_digest(),
                         "isorank", **base)
        for mutation in (
            dict(params={"alpha": 0.6}),
            dict(assignment="greedy"),
            dict(measures=("s3", "mnc")),
            dict(seed=1),
        ):
            other = ticket_key(G1.content_digest(), G2.content_digest(),
                               "isorank", **{**base, **mutation})
            assert other != key, mutation
        assert ticket_key(G2.content_digest(), G1.content_digest(),
                          "isorank", **base) != key

    def test_ground_truth_participates_when_supplied(self):
        truth = np.arange(16, dtype=np.int64)
        with_truth = ticket_key(G1.content_digest(), G2.content_digest(),
                                "isorank",
                                ground_truth_digest=truth.tobytes())
        without = ticket_key(G1.content_digest(), G2.content_digest(),
                             "isorank")
        assert with_truth != without

    def test_deadline_is_not_identity(self):
        fast = request_for(0, deadline_seconds=1.0)
        slow = request_for(0, deadline_seconds=None)
        assert fast.key() == slow.key()


class TestDurableRequestQueue:
    def test_enqueue_round_trips_the_request(self, tmp_path):
        queue = DurableRequestQueue(tmp_path)
        request = request_for(3, params={"alpha": 0.7},
                              deadline_seconds=9.0)
        key, fresh = queue.enqueue(request)
        assert fresh
        loaded = queue.load_request(key)
        assert loaded.algorithm == "isorank"
        assert loaded.params == {"alpha": 0.7}
        assert loaded.deadline_seconds == 9.0
        assert loaded.source.content_digest() == \
            request.source.content_digest()
        assert loaded.key() == key

    def test_backpressure_bounds_new_requests_only(self, tmp_path):
        queue = DurableRequestQueue(tmp_path, max_depth=2)
        queue.enqueue(request_for(0))
        queue.enqueue(request_for(1))
        with pytest.raises(QueueFull) as info:
            queue.enqueue(request_for(2))
        assert info.value.depth == 2 and info.value.max_depth == 2
        # the rejected request left nothing behind
        assert queue.depth() == 2
        # a duplicate of an accepted request is re-accepted at full depth
        _, fresh = queue.enqueue(request_for(0))
        assert not fresh

    def test_done_markers_free_depth(self, tmp_path):
        queue = DurableRequestQueue(tmp_path, max_depth=1)
        key, _ = queue.enqueue(request_for(0))
        queue.mark_done(key)
        assert queue.depth() == 0
        queue.enqueue(request_for(1))  # admitted again

    def test_claim_is_exclusive_until_released(self, tmp_path):
        queue = DurableRequestQueue(tmp_path)
        key, _ = queue.enqueue(request_for(0))
        claim = queue.claim(key)
        assert claim is not None
        assert queue.claim(key) is None
        assert queue.holder(key).pid == os.getpid()
        queue.release(claim)
        assert queue.claim(key) is not None

    def test_reclaim_stale_recovers_dead_holder(self, tmp_path):
        queue = DurableRequestQueue(tmp_path, lease_timeout_seconds=30.0)
        key, _ = queue.enqueue(request_for(0))
        claim = queue.claim(key)
        # rewrite the lease as if its owner had died
        import json as _json
        lease = _json.loads(claim.read_text())
        lease["pid"] = 2 ** 22 + 1234  # beyond pid_max: provably dead
        claim.write_text(_json.dumps(lease))
        reclaimed = queue.reclaim_stale()
        assert reclaimed == [(key, 1, "dead_pid")]
        assert queue.attempts(key) == 1
        assert queue.claim(key) is not None  # claimable again

    def test_missing_payload_is_reported_not_raised_at_scan(self, tmp_path):
        queue = DurableRequestQueue(tmp_path)
        with pytest.raises(ExperimentError):
            queue.load_request("nope")


class TestTicketState:
    """A ticket's state is its queue files: every process reads the same
    answer, and the first terminal outcome wins."""

    def test_counts_zero_filled_on_an_empty_directory(self, tmp_path):
        counts = DurableRequestQueue(tmp_path).counts()
        assert counts == dict.fromkeys(TICKET_STATES, 0)
        assert set(counts) == {"pending", "leased", "done", "failed",
                               "expired", "cancelled"}

    def test_each_state_is_read_from_the_files(self, tmp_path):
        queue = DurableRequestQueue(tmp_path)
        keys = [queue.enqueue(request_for(seed))[0] for seed in range(6)]
        queue.claim(keys[1])
        for key, state in zip(keys[2:], TICKET_STATES[2:]):
            queue.mark_done(key, state, attempts=1, error=state)
        fresh = DurableRequestQueue(tmp_path)  # reads nothing memoized
        assert fresh.counts() == dict.fromkeys(TICKET_STATES, 1)
        assert {t.key: t.state for t in fresh.tickets()} == \
            dict(zip(keys, TICKET_STATES))
        assert [t.key for t in fresh.tickets("leased")] == [keys[1]]
        assert fresh.ticket(keys[1]).attempts == 1
        assert fresh.ticket(keys[3]).error == "failed"
        assert fresh.ticket("0" * 32) is None
        assert fresh.depth() == 2

    def test_unreadable_outcome_reads_as_failed(self, tmp_path):
        queue = DurableRequestQueue(tmp_path)
        key, _ = queue.enqueue(request_for(0))
        queue.done_path(key).write_text("not json")
        ticket = queue.ticket(key)
        assert ticket.state == "failed" and "unreadable" in ticket.error

    def test_unreadable_request_still_reads_as_a_ticket_and_fails(
            self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        key = svc.submit_sync(request_for(0)).key
        svc.queue.request_path(key).write_bytes(b"not a pickle")
        fresh = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        assert fresh.status_sync(key).state == "pending"
        assert fresh.run_until_drained(max_seconds=30) == 1
        failed = fresh.status_sync(key)
        assert failed.state == "failed" and "deserialize" in failed.error
        svc.close(), fresh.close()

    def test_second_instance_reads_the_outcome_without_refresh(
            self, tmp_path):
        def boom_runner(request, budget):
            return replace(fast_record(request), failed=True,
                           error="ValueError: boom", measures={})
        first = AlignmentService(tmp_path, workers=1, runner=boom_runner)
        second = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        ticket = first.submit_sync(request_for(0))
        assert second.status_sync(ticket.key).state == "pending"
        first.run_until_drained(max_seconds=30)
        seen = second.status_sync(ticket.key, refresh=False)
        assert seen.state == "failed"
        assert seen.error == "ValueError: boom"
        assert second.status_sync(ticket.key) == seen
        with pytest.raises(TicketError):
            second.status_sync("0" * 32)
        first.close(), second.close()

    def test_first_terminal_outcome_wins(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        key = svc.submit_sync(request_for(0)).key
        assert svc.queue.mark_done(key)
        assert not svc.queue.mark_done(key, "cancelled", error="too late")
        assert not svc.queue.mark_done(key, "expired", error="too late")
        assert svc.status_sync(key).state == "done"
        assert svc.cancel_sync(key).state == "done"
        fresh = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        assert fresh.status_sync(key).state == "done"  # on disk too
        svc.close(), fresh.close()

    def test_racing_outcomes_publish_exactly_one(self, tmp_path):
        queue = DurableRequestQueue(tmp_path)
        key, _ = queue.enqueue(request_for(0))
        states = ["done", "failed", "expired", "cancelled"] * 3
        barrier = threading.Barrier(len(states))
        won = []

        def publish(state):
            barrier.wait(timeout=10)
            if queue.mark_done(key, state, error=state):
                won.append(state)

        threads = [threading.Thread(target=publish, args=(state,))
                   for state in states]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(won) == 1
        assert queue.ticket(key).state == won[0]
        assert DurableRequestQueue(tmp_path).ticket(key).state == won[0]
        assert not list(queue.done_dir.glob("*.tmp"))

    def test_claim_hands_back_a_ticket_finished_since_the_listing(
            self, tmp_path, monkeypatch):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        key = svc.submit_sync(request_for(0)).key
        claim = svc.queue.claim

        def claim_after_a_cancel(claimed_key):
            svc.queue.mark_done(claimed_key, "cancelled", error="raced")
            return claim(claimed_key)

        monkeypatch.setattr(svc.queue, "claim", claim_after_a_cancel)
        assert svc.claim_next() is None
        assert svc.queue.holder(key) is None
        assert svc.status_sync(key).state == "cancelled"
        svc.close()

    def test_outcome_written_during_the_run_beats_the_runs_own(
            self, tmp_path):
        def cancelling_runner(request, budget):
            svc.queue.mark_done(request.key(), "cancelled",
                                error="cancelled mid-run")
            return fast_record(request)
        svc = AlignmentService(tmp_path, workers=1,
                               runner=cancelling_runner)
        key = svc.submit_sync(request_for(0)).key
        assert svc.claim_next() == key
        final = svc.execute_claimed(key)
        assert final.state == "cancelled"
        assert final.error == "cancelled mid-run"
        assert svc.queue.holder(key) is None  # the lease was released
        fresh = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        assert fresh.status_sync(key).state == "cancelled"
        svc.close(), fresh.close()

    def test_a_new_ticket_is_two_files_and_four_fsyncs(
            self, tmp_path, monkeypatch):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        fsyncs = []
        fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        key = svc.submit_sync(request_for(0)).key
        assert svc.claim_next() == key
        assert svc.execute_claimed(key).state == "done"
        record = svc.result_sync(key)
        monkeypatch.undo()
        # The request and the outcome: each file, then its directory.
        assert len(fsyncs) == 4
        files = sorted(path.relative_to(tmp_path).as_posix()
                       for path in tmp_path.rglob("*") if path.is_file())
        assert files == [f"queue/done/{key}.done",
                         f"queue/requests/{key}.req"]
        assert not (tmp_path / "cache").exists()
        outcome = json.loads(svc.queue.done_path(key).read_bytes())
        assert RunRecord.from_dict(outcome["record"]) == record
        assert record.measures == {"s3": 1.0}
        # Only the state is kept in memory; the record stays on disk.
        assert set(svc.queue.outcome(key)) == {"state", "attempts", "error"}
        svc.close()

    def test_second_instance_serves_the_result_without_running_it(
            self, tmp_path):
        calls = {"n": 0}

        def counting_runner(request, budget):
            calls["n"] += 1
            return fast_record(request)

        def rich_runner(request, budget):
            return replace(
                fast_record(request, measures={"s3": 1 / 3, "mnc": 0.1}),
                diagnostics=[{"kind": "probe", "detail": "kept"}])

        first = AlignmentService(tmp_path, workers=1, runner=rich_runner)
        key = first.submit_sync(request_for(0)).key
        first.run_until_drained(max_seconds=30)
        second = AlignmentService(tmp_path, workers=1,
                                  runner=counting_runner)
        served = second.result_sync(key)
        assert served == first.result_sync(key)
        assert served.measures == {"s3": 1 / 3, "mnc": 0.1}
        assert served.diagnostics == [{"kind": "probe", "detail": "kept"}]
        assert calls["n"] == 0
        first.close(), second.close()

    def test_directory_with_a_ticket_journal_is_refused(self, tmp_path):
        (tmp_path / "tickets").mkdir()
        (tmp_path / "tickets" / "host-1.jsonl").write_text(
            json.dumps({"key": "k", "state": "pending"}) + "\n")
        with pytest.raises(ExperimentError, match="fresh service directory"):
            AlignmentService(tmp_path, workers=1, runner=fast_runner)

    def test_full_cycle_writes_no_ticket_journal(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        ticket = svc.submit_sync(request_for(0))
        svc.run_until_drained(max_seconds=30)
        assert svc.result_sync(ticket.key).measures == {"s3": 1.0}
        svc.close()
        assert not (tmp_path / "tickets").exists()


class TestServiceLifecycle:
    def test_submit_poll_result_round_trip(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        ticket = svc.submit_sync(request_for(0))
        assert ticket.state == "pending"
        assert svc.run_until_drained(max_seconds=30) == 1
        assert svc.status_sync(ticket.key).state == "done"
        record = svc.result_sync(ticket.key)
        assert record.measures == {"s3": 1.0}
        svc.close()

    def test_real_runner_matches_serial_run_cell(self, tmp_path):
        pair = make_pair(erdos_renyi_graph(18, 0.3, seed=4),
                         "one-way", 0.1, seed=4)
        svc = AlignmentService(tmp_path, workers=1)
        ticket = svc.submit_sync(AlignmentRequest(
            source=pair.source, target=pair.target, algorithm="isorank",
            seed=4, ground_truth=pair.ground_truth))
        svc.run_until_drained(max_seconds=120)
        record = svc.result_sync(ticket.key)
        reference = run_cell(
            "isorank",
            GraphPair(pair.source, pair.target, pair.ground_truth,
                      noise_type="service", noise_level=0.0),
            "service", 0, assignment="jv", measures=DEFAULT_MEASURES,
            seed=4)
        assert record.measures == reference.measures
        assert record.failed == reference.failed
        svc.close()

    def test_duplicate_submit_returns_same_ticket_any_state(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        request = request_for(0)
        first = svc.submit_sync(request)
        assert svc.submit_sync(request).key == first.key
        svc.run_until_drained(max_seconds=30)
        after = svc.submit_sync(request)
        assert after.key == first.key and after.state == "done"
        # still exactly one durable request
        assert len(svc.queue.accepted_keys()) == 1
        svc.close()

    def test_backpressure_rejects_with_retry_after(self, tmp_path):
        svc = AlignmentService(tmp_path, max_depth=2, workers=1,
                               runner=fast_runner)
        accepted = [svc.submit_sync(request_for(s)) for s in range(2)]
        with pytest.raises(ServiceUnavailable) as info:
            svc.submit_sync(request_for(2))
        assert info.value.reason == "queue_full"
        assert info.value.retry_after_seconds > 0
        # accepted tickets are never dropped by the rejection
        svc.run_until_drained(max_seconds=30)
        for ticket in accepted:
            assert svc.status_sync(ticket.key).state == "done"
        svc.close()

    def test_draining_rejects_new_accepts_duplicates(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        ticket = svc.submit_sync(request_for(0))
        svc.request_drain()
        with pytest.raises(ServiceUnavailable) as info:
            svc.submit_sync(request_for(1))
        assert info.value.reason == "draining"
        assert svc.submit_sync(request_for(0)).key == ticket.key
        svc.close()

    def test_cancel_only_pending(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        ticket = svc.submit_sync(request_for(0))
        cancelled = svc.cancel_sync(ticket.key)
        assert cancelled.state == "cancelled"
        assert svc.queue.depth() == 0  # cancellation frees the backlog
        assert svc.cancel_sync(ticket.key).state == "cancelled"  # idempotent
        with pytest.raises(TicketError):
            svc.result_sync(ticket.key)
        svc.close()

    def test_deadline_expires_queued_ticket(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        ticket = svc.submit_sync(request_for(0, deadline_seconds=0.001))
        time.sleep(0.02)
        svc.janitor_pass()
        expired = svc.status_sync(ticket.key)
        assert expired.state == "expired"
        assert "deadline" in expired.error
        assert svc.queue.depth() == 0
        svc.close()

    def test_default_deadline_applies(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner,
                               default_deadline_seconds=123.0)
        ticket = svc.submit_sync(request_for(0))
        assert ticket.deadline_seconds == 123.0
        svc.close()

    def test_failed_computation_is_a_failed_ticket_with_result(self, tmp_path):
        def failing_runner(request, budget):
            record = fast_record(request)
            from dataclasses import replace
            return replace(record, failed=True,
                           error="ValueError: synthetic failure",
                           measures={})
        svc = AlignmentService(tmp_path, workers=1, runner=failing_runner)
        ticket = svc.submit_sync(request_for(0))
        svc.run_until_drained(max_seconds=30)
        final = svc.status_sync(ticket.key)
        assert final.state == "failed"
        assert "ValueError" in final.error
        # the failed record is still the servable result, like sweep cells
        assert svc.result_sync(ticket.key).failed
        svc.close()

    def test_done_outcome_without_a_record_is_recomputed(self, tmp_path):
        calls = {"n": 0}

        def counting_runner(request, budget):
            calls["n"] += 1
            return fast_record(request)
        svc = AlignmentService(tmp_path, workers=1, runner=counting_runner)
        key = svc.submit_sync(request_for(0)).key
        # An outcome as an earlier version wrote it: no record.
        svc.queue.done_path(key).write_text(json.dumps(
            {"attempts": 1, "error": "", "state": "done"}))
        assert svc.status_sync(key).state == "done"
        recomputed = svc.result_sync(key)
        assert recomputed.measures == {"s3": 1.0}
        assert calls["n"] == 1  # the deterministic request ran again
        # ...once per process: the next fetch serves the recomputed record.
        assert svc.result_sync(key) == recomputed
        assert calls["n"] == 1
        assert [e["key"] for e in load_service_events(tmp_path)
                if e["kind"] == "result_recomputed"] == [key]
        svc.close()

    def test_claim_next_takes_the_oldest_request_first(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        keys = []
        for seed in (3, 1, 2, 0):
            keys.append(svc.submit_sync(request_for(seed)).key)
            time.sleep(0.02)
        assert sorted(keys) != keys  # the order is not the keys'
        svc.cancel_sync(keys[0])
        claimed = []
        key = svc.claim_next()
        while key is not None:
            claimed.append(key)
            svc.execute_claimed(key)
            key = svc.claim_next()
        assert claimed == keys[1:]
        svc.close()

    def test_result_of_an_abandoned_ticket_never_runs_its_request(
            self, tmp_path):
        calls = {"n": 0}

        def counting_runner(request, budget):
            calls["n"] += 1
            return fast_record(request)
        svc = AlignmentService(tmp_path, workers=1, max_attempts=3,
                               runner=counting_runner)
        key = svc.submit_sync(request_for(0)).key
        for _ in range(3):
            svc.queue.record_attempt(key)
        assert svc.claim_next() == key
        final = svc.execute_claimed(key)
        assert final.state == "failed"
        assert "orphaned 3 times" in final.error
        record = svc.result_sync(key)
        assert record.failed
        assert "orphaned 3 times" in record.error
        assert record.attempts == 3
        assert calls["n"] == 0  # the request that killed 3 workers
        svc.close()

    def test_health_and_heartbeat_file(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=3, runner=fast_runner)
        svc.submit_sync(request_for(0))
        svc.write_heartbeat()
        health = read_health(tmp_path)
        assert health["status"] == "ok"
        assert health["backlog"] == 1
        assert health["workers"] == 3
        assert health["tickets"]["pending"] == 1
        svc.close()


class TestServiceRecovery:
    def test_restart_resumes_pending_backlog(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        keys = [svc.submit_sync(request_for(s)).key for s in range(3)]
        svc.close()  # "crash" before serving anything
        svc2 = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        assert svc2.queue.counts()["pending"] == 3
        svc2.run_until_drained(max_seconds=30)
        for key in keys:
            assert svc2.status_sync(key).state == "done"
        svc2.close()

    def test_orphan_request_without_ticket_is_adopted(self, tmp_path):
        # Crash window: request payload durable, ticket create lost.
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        request = request_for(0)
        key, _ = svc.queue.enqueue(request)
        svc.close()
        svc2 = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        adopted = svc2.status_sync(key)
        assert adopted.state == "pending"
        assert adopted.algorithm == "isorank"
        svc2.run_until_drained(max_seconds=30)
        assert svc2.status_sync(key).state == "done"
        svc2.close()

    def test_done_marker_with_lost_transition_heals_to_done(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        ticket = svc.submit_sync(request_for(0))
        svc.queue.mark_done(ticket.key)  # marker out, transition lost
        svc.close()
        svc2 = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        assert svc2.status_sync(ticket.key).state == "done"
        svc2.close()

    def test_stale_lease_from_dead_pid_is_reclaimed_live(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner,
                               lease_timeout_seconds=30.0)
        ticket = svc.submit_sync(request_for(0))
        claim = try_acquire_lease(svc.queue.lease_dir, ticket.key, attempt=1)
        assert claim is not None
        lease = json.loads(claim.read_text())
        lease["pid"] = 2 ** 22 + 999
        claim.write_text(json.dumps(lease))
        svc.janitor_pass()
        reclaimed = svc.status_sync(ticket.key)
        assert reclaimed.state == "pending"
        assert reclaimed.attempts == 1
        events = load_service_events(tmp_path)
        assert any(e["kind"] == "lease_reclaimed" for e in events)
        svc.close()

    def test_events_survive_restart(self, tmp_path):
        svc = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        svc._record_event("probe", detail=1)
        svc.close()
        svc2 = AlignmentService(tmp_path, workers=1, runner=fast_runner)
        svc2._record_event("probe", detail=2)
        svc2.close()
        probes = [e for e in load_service_events(tmp_path)
                  if e["kind"] == "probe"]
        assert [e["detail"] for e in probes] == [1, 2]


class TestIdempotencyUnderRaces:
    """Hypothesis: concurrent duplicate submissions of the same pair
    converge to one ticket and one computation."""

    @given(n_threads=st.integers(2, 5), seed=st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_concurrent_duplicate_submissions_converge(self, tmp_path_factory,
                                                       n_threads, seed):
        tmp_path = tmp_path_factory.mktemp("race")
        executions = []
        lock = threading.Lock()

        def counting_runner(request, budget):
            with lock:
                executions.append(request.key())
            return fast_record(request)

        svc = AlignmentService(tmp_path, workers=1, runner=counting_runner)
        request = request_for(seed)
        barrier = threading.Barrier(n_threads)
        tickets, errors = [], []

        def submit():
            try:
                barrier.wait(timeout=10)
                tickets.append(svc.submit_sync(request))
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=submit)
                   for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        assert len(tickets) == n_threads
        assert len({t.key for t in tickets}) == 1  # one ticket
        assert len(svc.queue.accepted_keys()) == 1  # one durable request
        svc.run_until_drained(max_seconds=30)
        assert executions == [request.key()]  # exactly one computation
        assert svc.status_sync(request.key()).state == "done"
        svc.close()


class TestServeAsync:
    def test_serve_stop_when_idle_drains_batch(self, tmp_path):
        import asyncio

        async def scenario():
            svc = AlignmentService(tmp_path, workers=2, runner=fast_runner)
            tickets = [await svc.submit(request_for(s)) for s in range(4)]
            summary = await asyncio.wait_for(
                svc.serve(stop_when_idle=True), 60)
            assert summary["tickets"]["done"] == 4
            for ticket in tickets:
                record = await svc.result(ticket.key)
                assert record.measures == {"s3": 1.0}
            assert svc.draining
            svc.close()

        asyncio.run(scenario())
