"""End-to-end chaos invariant of the distributed scheduler + disk cache.

The acceptance bar: running a sweep with ``workers=4`` and a
``cache_dir`` while (a) a worker is SIGKILLed mid-cell, (b) the
supervisor itself is SIGKILLed mid-sweep, and (c) cache payloads are
corrupted between resume rounds, the resumed sweep still completes with
journaled records **bit-identical** (order-insensitive, attempts
excluded — orphaned cells legitimately accumulate extra attempts) to a
serial cache-off run, and every recovery is visible in the scheduler's
event log, the cache's event log, and the markdown report.

Set ``REPRO_CHAOS_REPORT=/path/report.md`` (the CI chaos job does) to
get the recovery report written out as a build artifact.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.cache_disk import DiskArtifactCache, load_cache_events
from repro.faults import FaultSpec, corrupt_random_cache_entry, inject_fault
from repro.graphs import powerlaw_cluster_graph
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.report import markdown_report
from repro.harness.scheduler import load_recovery_events

ROOT = Path(__file__).resolve().parent.parent

GRAPH = powerlaw_cluster_graph(40, 3, 0.3, seed=5)

SWEEP = dict(
    name="chaos", algorithms=["isorank", "nsd"],
    noise_levels=(0.0, 0.02, 0.05), repetitions=2, seed=7,
)
TOTAL_CELLS = 12  # 3 levels x 2 reps x 2 algorithms


def canonical_no_attempts(table):
    """Order/timing-insensitive records, minus the attempt counter.

    Attempts legitimately differ under chaos: a reclaimed cell carries
    its orphaned attempts, a serial run never orphans.  Everything the
    paper's tables are built from — measures, failure flags,
    diagnostics — must still match exactly.
    """
    return sorted(
        (r.algorithm, r.dataset, r.noise_type, round(r.noise_level, 6),
         r.repetition, r.assignment, tuple(sorted(r.measures.items())),
         r.failed, tuple(map(str, r.diagnostics)))
        for r in table.records
    )


# Driver: one workers=4 sweep round, optionally with a one-shot
# kill_worker fault and a suicide-after-N-cells supervisor.  Run as a
# subprocess so SIGKILLing the supervisor kills a whole process tree,
# exactly like a crashed host.
DRIVER = """\
import os, signal, sys
from repro.faults import FaultSpec, inject_fault
from repro.graphs import powerlaw_cluster_graph
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.scheduler import load_recovery_events

journal, cache_dir, kill_after, trigger = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])
config = ExperimentConfig(
    name="chaos", algorithms=["isorank", "nsd"],
    noise_levels=(0.0, 0.02, 0.05), repetitions=2, seed=7,
    workers=4, cache_dir=cache_dir, lease_timeout_seconds=5.0,
)
graph = powerlaw_cluster_graph(40, 3, 0.3, seed=5)
count = 0

def reclaimed():
    return any(event["kind"] == "lease_reclaimed"
               for event in load_recovery_events(journal))

def progress(message):
    global count
    count += 1
    # Die only once the dead worker's lease reclaim is on record: the
    # next run starts in a fresh scratch directory and never sees a
    # lease this supervisor had not yet polled.
    if kill_after and count >= kill_after and reclaimed():
        os.kill(os.getpid(), signal.SIGKILL)  # supervisor dies mid-sweep

def sweep():
    return run_experiment(config, {"pl": graph}, progress=progress,
                          journal=journal)

if trigger != "-":
    # One worker, fleet-wide, SIGKILLs itself mid-similarity.
    spec = FaultSpec(mode="kill_worker", on_call=None, trigger_file=trigger)
    with inject_fault("isorank", spec):
        table = sweep()
else:
    table = sweep()
print(len(table), sum(r.failed for r in table.records))
"""


def _run_driver(journal, cache_dir, kill_after, trigger):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-c", DRIVER, str(journal), str(cache_dir),
         str(kill_after), str(trigger)],
        capture_output=True, text=True, env=env, timeout=300,
    )


def _wait_for_orphans(timeout=15.0):
    """Give round-1 stragglers time to notice their supervisor is gone.

    Workers check between cells that their parent is still the
    supervisor that spawned them; a worker mid-cell when the supervisor
    is SIGKILLed finishes that cell and exits.  A straggler could still
    publish cache payloads, so the corruption below and round 2 must not
    start while a round-1 worker breathes.
    """
    deadline = time.time() + timeout
    while time.time() < deadline:
        probe = subprocess.run(
            ["pgrep", "-f", "repro.faults"], capture_output=True)
        if probe.returncode != 0:  # no stragglers match
            return
        time.sleep(0.25)


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    """The full chaos scenario, executed once and asserted from many tests."""
    tmp = tmp_path_factory.mktemp("chaos")
    journal = tmp / "J"
    cache_dir = tmp / "cache"
    trigger = tmp / "killed-once"

    # Round 1: one worker SIGKILLs itself mid-cell (kill_worker fault),
    # and once 3 cells are done and that worker's lease is reclaimed,
    # the supervisor is SIGKILLed too.
    first = _run_driver(journal, cache_dir, kill_after=3, trigger=trigger)
    assert first.returncode == -signal.SIGKILL, first.stderr
    _wait_for_orphans()

    # Between rounds: flip a byte in every committed cache payload, the
    # way bit rot or a torn copy would.  (corrupt_random_cache_entry
    # corrupts *one* seeded pick; here every entry must be bad so round 2
    # cannot dodge the corruption by reading a lucky survivor.)
    payloads = sorted(Path(cache_dir).glob("objects/*/*.bin"))
    assert payloads, "round 1 should have populated the disk cache"
    for payload in payloads:
        blob = bytearray(payload.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload.write_bytes(bytes(blob))
    corrupted_before = {p: p.read_bytes() for p in payloads}

    # Round 2: clean resume — no faults, no kills.
    second = _run_driver(journal, cache_dir, kill_after=0, trigger="-")
    assert second.returncode == 0, second.stderr
    return dict(journal=journal, cache_dir=cache_dir, trigger=trigger,
                first=first, second=second,
                corrupted=corrupted_before)


class TestChaosInvariant:
    def test_worker_was_actually_killed(self, chaos_run):
        assert chaos_run["trigger"].exists(), \
            "the kill_worker fault never fired — the scenario is vacuous"

    def test_resumed_sweep_completes_all_cells_clean(self, chaos_run):
        total, failed = map(int, chaos_run["second"].stdout.split())
        assert total == TOTAL_CELLS
        assert failed == 0

    def test_bit_identical_to_serial_cache_off_reference(self, chaos_run):
        from repro.harness import RunJournal
        from repro.harness.results import ResultTable

        journal = RunJournal(chaos_run["journal"])
        merged = ResultTable(journal.records)
        journal.close()
        reference = run_experiment(ExperimentConfig(**SWEEP), {"pl": GRAPH})
        assert canonical_no_attempts(merged) == \
            canonical_no_attempts(reference)

    def test_lease_reclaims_visible_in_event_log(self, chaos_run):
        events = load_recovery_events(chaos_run["journal"])
        reclaims = [e for e in events if e["kind"] == "lease_reclaimed"]
        assert reclaims, "a SIGKILLed worker must leave a reclaim event"
        assert all(e.get("reason") in ("dead_pid", "expired_heartbeat")
                   for e in reclaims)

    def test_cache_corruption_quarantined_and_healed(self, chaos_run):
        cache_dir = chaos_run["cache_dir"]
        events = load_cache_events(cache_dir)
        quarantined = [e for e in events if e["kind"] == "entry_quarantined"]
        assert quarantined, \
            "round 2 read corrupted entries; quarantines must be recorded"
        assert any("checksum" in e["reason"] for e in quarantined)
        # The corrupt files were moved aside, not served and not fatal;
        # entries round 2 re-read were re-published (an entry it never
        # needed may legitimately still sit corrupt in objects/).
        disk = DiskArtifactCache(cache_dir)
        assert list(disk.quarantine_dir.iterdir())
        assert disk.stats()["entries"] > 0
        healed = set()
        for event in quarantined:
            for name in event.get("quarantined_files", []):
                healed.add(name.split(".")[0])
        for key in healed:
            payload = disk._paths(key)[0]
            if payload.exists():
                old = chaos_run["corrupted"].get(payload)
                assert old is None or payload.read_bytes() != old

    def test_recovery_report_section(self, chaos_run):
        """The markdown report carries the recovery trail; optionally
        written to $REPRO_CHAOS_REPORT for the CI artifact."""
        from repro.harness import RunJournal
        from repro.harness.results import ResultTable

        journal = RunJournal(chaos_run["journal"])
        table = ResultTable(journal.records)
        journal.close()
        events = list(load_recovery_events(chaos_run["journal"]))
        events.extend(load_cache_events(chaos_run["cache_dir"]))
        report = markdown_report(table, title="chaos sweep",
                                 recovery_events=events)
        assert "## recovery events" in report
        assert "lease_reclaimed" in report
        assert "entry_quarantined" in report
        out = os.environ.get("REPRO_CHAOS_REPORT")
        if out:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(report)


class TestStaleLeaseRecovery:
    def test_hung_worker_is_killed_and_its_cell_reclaimed(
            self, tmp_path, monkeypatch):
        """A worker that stops heartbeating while alive (the stale_lease
        fault) must be SIGKILLed by the supervisor and its cell re-run
        by a surviving worker — in-process, since the supervisor lives.
        The journal and its recovery log outlive the scratch directory."""
        scratch_root = tmp_path / "tmp"
        scratch_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch_root))
        config = ExperimentConfig(
            workers=2, lease_timeout_seconds=2.0,
            cache_dir=str(tmp_path / "cache"), **SWEEP)
        trigger = tmp_path / "stalled-once"
        spec = FaultSpec(mode="stale_lease", on_call=None,
                         trigger_file=str(trigger), hang_seconds=60.0)
        with inject_fault("nsd", spec):
            table = run_experiment(config, {"pl": GRAPH},
                                   journal=str(tmp_path / "J"))
        assert trigger.exists(), "the stale_lease fault never fired"
        assert len(table) == TOTAL_CELLS
        assert all(not r.failed for r in table.records)
        events = load_recovery_events(tmp_path / "J")
        reclaims = [e for e in events if e["kind"] == "lease_reclaimed"]
        assert any(e["reason"] == "expired_heartbeat" for e in reclaims)
        assert any(e["kind"] == "worker_respawned" for e in events)
        assert (tmp_path / "J").exists()
        assert (tmp_path / "J.events.jsonl").exists()
        assert list(scratch_root.iterdir()) == []
        reference = run_experiment(ExperimentConfig(**SWEEP), {"pl": GRAPH})
        assert canonical_no_attempts(table) == \
            canonical_no_attempts(reference)
