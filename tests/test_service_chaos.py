"""Chaos proof for the alignment service.

The acceptance bar: SIGKILLing the service process mid-batch and
restarting leaves **zero lost or duplicated tickets**, every ticket
reaches a terminal state, and every completed ticket's result is
bit-identical to a serial run of the same cell.  Under overload, the
bounded queue rejects new submissions with a retry-after hint while
never dropping an accepted ticket.

The kill happens in a subprocess driver (the service cannot SIGKILL the
test runner), at a deterministic point: the runner SIGKILLs its own
process at the start of the K-th execution, so at death the directory
holds completed tickets, one leased ticket whose lease its dead holder
left unlocked, and a queued remainder — all three recovery paths at
once.

A second scenario serves every request under a budget, so each cell
runs in a forked child, and SIGKILLs the server while one such child
hangs: the orphaned child must not keep the dead server's lease locked.

Set ``REPRO_SERVICE_REPORT=/path/report.json`` (the CI soak job does)
to dump the final ticket states and recovery events as an artifact.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graphs.generators import erdos_renyi_graph
from repro.harness.runner import run_cell
from repro.noise import GraphPair, make_pair
from repro.service import (
    DEFAULT_MEASURES,
    AlignmentRequest,
    AlignmentService,
    ServiceUnavailable,
    load_service_events,
)

ROOT = Path(__file__).resolve().parent.parent

BATCH = 6  # requests per batch
KILL_AFTER = 2  # completed executions before the service SIGKILLs itself


def batch_requests():
    """The deterministic batch both the drivers and the test rebuild."""
    requests = []
    for seed in range(BATCH):
        pair = make_pair(erdos_renyi_graph(22, 0.25, seed=seed),
                         "one-way", 0.1, seed=seed)
        requests.append(AlignmentRequest(
            source=pair.source, target=pair.target, algorithm="isorank",
            seed=seed, ground_truth=pair.ground_truth))
    return requests


# Same body as batch_requests(), inlined into the driver subprocess.
DRIVER = """\
import json, os, signal, sys
from repro.graphs.generators import erdos_renyi_graph
from repro.noise import make_pair
from repro.service import AlignmentRequest, AlignmentService

mode, root = sys.argv[1], sys.argv[2]
kill_after = int(sys.argv[3])

requests = []
for seed in range(6):
    pair = make_pair(erdos_renyi_graph(22, 0.25, seed=seed),
                     "one-way", 0.1, seed=seed)
    requests.append(AlignmentRequest(
        source=pair.source, target=pair.target, algorithm="isorank",
        seed=seed, ground_truth=pair.ground_truth))

svc = AlignmentService(root, workers=1)
if mode == "submit":
    keys = [svc.submit_sync(r).key for r in requests]
    svc.close()
    print(json.dumps(keys))
    sys.exit(0)

if kill_after >= 0:
    real = svc._runner
    started = {"n": 0}

    def suicidal_runner(request, budget):
        if started["n"] == kill_after:
            os.kill(os.getpid(), signal.SIGKILL)  # dies holding the lease
        started["n"] += 1
        return real(request, budget)

    svc._runner = suicidal_runner
svc.run_until_drained(max_seconds=240)
states = {t.key: t.state for t in svc.queue.tickets()}
svc.close()
print(json.dumps(states))
"""


def _run_driver(mode, root, kill_after=-1):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-c", DRIVER, mode, str(root), str(kill_after)],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.fixture(scope="module")
def chaos_service(tmp_path_factory):
    """Submit a batch, SIGKILL the serving process mid-batch, restart."""
    root = tmp_path_factory.mktemp("service")

    submitted = _run_driver("submit", root)
    assert submitted.returncode == 0, submitted.stderr
    keys = json.loads(submitted.stdout)
    assert len(keys) == BATCH

    killed = _run_driver("serve", root, kill_after=KILL_AFTER)
    assert killed.returncode == -signal.SIGKILL, \
        f"the service should have died by SIGKILL: {killed.stderr}"

    restarted = _run_driver("serve", root, kill_after=-1)
    assert restarted.returncode == 0, restarted.stderr
    states = json.loads(restarted.stdout)
    return dict(root=root, keys=keys, states=states)


class TestServiceChaos:
    def test_zero_lost_or_duplicated_tickets(self, chaos_service):
        assert sorted(chaos_service["states"]) == \
            sorted(chaos_service["keys"])

    def test_every_ticket_terminal_and_done(self, chaos_service):
        # Nothing in this batch legitimately fails or expires, so full
        # recovery means every ticket converged all the way to done.
        assert set(chaos_service["states"].values()) == {"done"}

    def test_results_bit_identical_to_serial_run(self, chaos_service):
        svc = AlignmentService(chaos_service["root"], workers=1)
        try:
            for seed, request in enumerate(batch_requests()):
                record = svc.result_sync(request.key())
                reference = run_cell(
                    "isorank",
                    GraphPair(request.source, request.target,
                              request.ground_truth,
                              noise_type="service", noise_level=0.0),
                    "service", 0, assignment="jv",
                    measures=DEFAULT_MEASURES, seed=seed)
                assert record.measures == reference.measures, seed
                assert record.failed == reference.failed
                assert record.diagnostics == reference.diagnostics
        finally:
            svc.close()

    def test_kill_left_a_reclaim_or_requeue_event(self, chaos_service):
        events = load_service_events(chaos_service["root"])
        kinds = {e["kind"] for e in events}
        assert kinds & {"lease_reclaimed", "ticket_recovered"}, kinds

    def test_queue_fully_drained(self, chaos_service):
        svc = AlignmentService(chaos_service["root"], workers=1)
        try:
            assert svc.queue.depth() == 0
            stats = svc.queue.stats()
            assert stats["leased"] == 0
            assert stats["finished"] == BATCH
        finally:
            svc.close()

    def test_report_artifact(self, chaos_service):
        """Dump ticket states + events when CI asks for an artifact."""
        target = os.environ.get("REPRO_SERVICE_REPORT")
        if not target:
            pytest.skip("REPRO_SERVICE_REPORT not set")
        svc = AlignmentService(chaos_service["root"], workers=1)
        try:
            payload = {
                "tickets": [t.to_dict() for t in svc.queue.tickets()],
                "counts": svc.queue.counts(),
                "queue": svc.queue.stats(),
                "events": load_service_events(chaos_service["root"]),
                "health": svc.health(),
            }
        finally:
            svc.close()
        Path(target).parent.mkdir(parents=True, exist_ok=True)
        Path(target).write_text(json.dumps(payload, indent=2,
                                           sort_keys=True))
        assert Path(target).stat().st_size > 0


HANG_SECONDS = 60.0  # how long the orphaned budget child sleeps

# The budgeted scenario's driver.  "hang" submits the batch with a
# default deadline (so every request runs in a run_cell_with_budget
# child), stalls the first child in a one-shot hang, and SIGKILLs itself
# once that child sleeps; "serve" is the restart.
BUDGETED_DRIVER = """\
import json, os, signal, sys, threading, time
from repro.faults import FaultSpec, inject_fault
from repro.graphs.generators import erdos_renyi_graph
from repro.noise import make_pair
from repro.service import AlignmentRequest, AlignmentService

mode, root, trigger = sys.argv[1:4]
hang = float(sys.argv[4])
svc = AlignmentService(root, workers=1, default_deadline_seconds=600.0)
if mode == "hang":
    for seed in range(6):
        pair = make_pair(erdos_renyi_graph(22, 0.25, seed=seed),
                         "one-way", 0.1, seed=seed)
        svc.submit_sync(AlignmentRequest(
            source=pair.source, target=pair.target, algorithm="isorank",
            seed=seed, ground_truth=pair.ground_truth))

    def kill_once_hung():
        while not os.path.exists(trigger):  # the hanging child made it
            time.sleep(0.01)
        time.sleep(0.2)
        os.kill(os.getpid(), signal.SIGKILL)  # its child sleeps on

    threading.Thread(target=kill_once_hung, daemon=True).start()
    with inject_fault("isorank", FaultSpec(mode="hang", on_call=None,
                                           hang_seconds=hang,
                                           trigger_file=trigger)):
        svc.run_until_drained(max_seconds=hang)
    sys.exit("the hang never fired")

start = time.monotonic()
svc.run_until_drained(max_seconds=hang / 2)
seconds = time.monotonic() - start
tickets = {t.key: [t.state, t.attempts] for t in svc.queue.tickets()}
svc.close()
print(json.dumps({"tickets": tickets, "seconds": seconds}))
"""


def _start_budgeted_driver(mode, root, trigger):
    """Start one budgeted driver in a session of its own, its output in
    files: an orphaned child keeps inherited pipes open."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = root.parent / f"{mode}.out"
    with open(out, "w") as stdout, open(f"{out}.err", "w") as stderr:
        driver = subprocess.Popen(
            [sys.executable, "-c", BUDGETED_DRIVER, mode, str(root),
             str(trigger), str(HANG_SECONDS)],
            stdout=stdout, stderr=stderr, env=env, start_new_session=True)
    return driver, out


@pytest.fixture(scope="module")
def budgeted_chaos(tmp_path_factory):
    """SIGKILL a budgeted server while a forked cell hangs, restart."""
    base = tmp_path_factory.mktemp("budgeted")
    root, trigger = base / "service", base / "hang.trigger"
    drivers = []
    try:
        killed, out = _start_budgeted_driver("hang", root, trigger)
        drivers.append(killed)
        assert killed.wait(timeout=120) == -signal.SIGKILL, \
            Path(f"{out}.err").read_text()
        orphan = int(trigger.read_text())
        restarted, out = _start_budgeted_driver("serve", root, trigger)
        drivers.append(restarted)
        assert restarted.wait(timeout=120) == 0, \
            Path(f"{out}.err").read_text()
        alive = True
        try:
            os.kill(orphan, 0)
        except ProcessLookupError:
            alive = False
        yield dict(json.loads(out.read_text()), root=root,
                   orphan_alive=alive)
    finally:
        for driver in drivers:
            try:
                os.killpg(driver.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            driver.wait(timeout=30)


class TestBudgetedChaos:
    def test_every_ticket_done_while_the_orphan_still_runs(
            self, budgeted_chaos):
        states = [state for state, _ in budgeted_chaos["tickets"].values()]
        assert states == ["done"] * BATCH
        assert budgeted_chaos["orphan_alive"]

    def test_the_orphaned_ticket_ran_twice(self, budgeted_chaos):
        reclaims = [e for e in load_service_events(budgeted_chaos["root"])
                    if e["kind"] == "lease_reclaimed"]
        assert [(e["reason"], e["attempts"]) for e in reclaims] == \
            [("holder_exited", 1)]
        attempts = {key: attempts for key, (_, attempts)
                    in budgeted_chaos["tickets"].items()}
        assert attempts.pop(reclaims[0]["key"]) == 2
        assert set(attempts.values()) == {1}

    def test_restart_finished_well_inside_the_hang(self, budgeted_chaos):
        assert budgeted_chaos["seconds"] < HANG_SECONDS / 4


class TestOverloadContract:
    def test_bounded_queue_rejects_but_never_drops(self, tmp_path):
        from repro.harness.results import RunRecord

        def fast_runner(request, budget):
            return RunRecord(
                algorithm=request.algorithm, dataset="service",
                noise_type="service", noise_level=0.0, repetition=0,
                assignment=request.assignment, measures={"s3": 1.0},
                similarity_time=0.0, assignment_time=0.0)

        svc = AlignmentService(tmp_path, max_depth=3, workers=1,
                               runner=fast_runner)
        requests = batch_requests()
        accepted, rejected = [], []
        for request in requests:
            try:
                accepted.append(svc.submit_sync(request))
            except ServiceUnavailable as exc:
                assert exc.reason == "queue_full"
                assert exc.retry_after_seconds > 0
                rejected.append(request)
        assert len(accepted) == 3 and len(rejected) == BATCH - 3
        # duplicates of accepted work are still served at full depth
        assert svc.submit_sync(requests[0]).key == accepted[0].key
        svc.run_until_drained(max_seconds=60)
        for ticket in accepted:
            assert svc.status_sync(ticket.key).state == "done"
        # the freed depth now admits the previously rejected requests
        for request in rejected:
            svc.submit_sync(request)
        svc.run_until_drained(max_seconds=60)
        assert svc.queue.counts()["done"] == BATCH
        svc.close()
