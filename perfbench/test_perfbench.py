"""Self-test of the benchmark: tiny runs of every workload.

Run from the checkout root::

    PYTHONPATH=src python -m pytest -q perfbench

It checks three things.  Every end-to-end metric is printed with its
unit and a sample count.  The traced run emits every per-layer metric
the per-layer map names for that workload.  Each output check fires on
a deliberately corrupted result.  It also checks BENCHMARK.json against
the workload definitions, and that the command refuses to run where
the program's sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 101


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _expected_per_layer(workload: str):
    """The per-layer names the map says this workload must reach."""
    algorithms = SPEC["workloads"][workload]["inputs"]["algorithms"]
    names = set()
    for pattern, entry in SPEC["per_layer_map"].items():
        if workload not in entry["on"]:
            continue
        if "<alg>" in pattern:
            names.update(pattern.replace("<alg>", alg) for alg in algorithms)
        else:
            names.add(pattern)
    return names


def test_benchmark_json_matches_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert set(WORKLOADS) == set(SPEC["workloads"])
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + WORKLOADS:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    for workload in WORKLOADS:
        assert _expected_per_layer(workload) <= per_layer
        assert len(SPEC["workloads"][workload]["why"]) <= 200


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units_and_samples(workload):
    done = _run(workload, trace=0)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = dict(run.declared_metrics("end_to_end"))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] != 0
        printed = [line for line in lines[:-1]
                   if line.split()[:1] == [name]]
        assert len(printed) == 1, name
        # name, value, unit, then the sample count in words.
        fields = printed[0].split()
        assert fields[2] == unit and re.search(r"\d", " ".join(fields[3:]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reaches_every_mapped_layer(workload):
    done = _run(workload, trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert [m for m in result["metrics"]] == [
        m["name"] for m in BENCH["per_layer"]]
    report = json.loads(
        (run.OUT / f"{workload}-seed{SEED}-trace1.json").read_text())
    missing = _expected_per_layer(workload) & set(
        report["per_layer_not_reached"])
    assert not missing
    assert (run.OUT / report["spans"]).is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("sweep-jv", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


# -- output checks on deliberately corrupted results ------------------------

def _spec(workload):
    return run.load_spec(workload, tiny=True)


@pytest.fixture
def sweep(tmp_path):
    from perfbench.sweeps import SweepWorkload
    workload = SweepWorkload(_spec("sweep-jv"), SEED, 2, tmp_path,
                             SpanRecorder())
    workload.setup()
    return workload


def _corrupt_sweeps(monkeypatch, corrupt):
    """Make every run_experiment the benchmark calls return corrupt()."""
    from perfbench import sweeps
    from repro.harness import ResultTable
    real = sweeps.run_experiment

    def corrupted(*args, **kwargs):
        return ResultTable(corrupt(real(*args, **kwargs).records))

    monkeypatch.setattr(sweeps, "run_experiment", corrupted)


def _with_measure(record, name, value):
    return dataclasses.replace(record,
                               measures={**record.measures, name: value})


@pytest.mark.parametrize("corrupt", [
    lambda records: records[:-1],
    lambda records: records + records[-1:],
], ids=["missing-cell", "duplicated-cell"])
def test_record_count_check_fires(sweep, monkeypatch, corrupt):
    _corrupt_sweeps(monkeypatch, corrupt)
    with pytest.raises(CheckFailed) as failure:
        sweep.run_unit(0, traced=False)
    assert failure.value.check == "sweep-record-count"


@pytest.mark.parametrize("value", [1.5, -0.1, float("nan")])
def test_measure_range_check_fires(sweep, monkeypatch, value):
    _corrupt_sweeps(monkeypatch, lambda records: [
        _with_measure(records[0], "accuracy", value)] + records[1:])
    with pytest.raises(CheckFailed) as failure:
        sweep.run_unit(0, traced=False)
    assert failure.value.check == "measure-range"


def test_traced_unit_must_match_its_untraced_twin(sweep, monkeypatch):
    sweep.run_unit(0, traced=False)
    _corrupt_sweeps(monkeypatch, lambda records: [
        _with_measure(records[0], "s3", records[0].measures["s3"] / 2)]
        + records[1:])
    with pytest.raises(CheckFailed) as failure:
        sweep.run_unit(0, traced=True)
    assert failure.value.check == "repeat-determinism"


def test_failed_record_counts_against_success_rate(sweep, monkeypatch):
    _corrupt_sweeps(monkeypatch, lambda records: [
        dataclasses.replace(records[0], failed=True, measures={})]
        + records[1:])
    sweep.run_unit(0, traced=False)
    records = sweep.units[-1]["records"]
    e2e = run.end_to_end(sweep, [1.0], 1.0)
    assert e2e["success_rate"][0] == (len(records) - 1) / len(records)


@pytest.fixture
def service(tmp_path):
    from perfbench.service_load import ServiceWorkload
    workload = ServiceWorkload(_spec("service-tickets"), SEED, 1, tmp_path,
                               SpanRecorder())
    workload.setup()
    yield workload
    workload.close()


def _corrupt_repeats(monkeypatch, ticket=None, result=None,
                     lose_result=False):
    """Corrupt the service's answers to repeated submissions only."""
    from repro.service import AlignmentService
    submit, fetch = AlignmentService.submit_sync, AlignmentService.result_sync
    seen, repeat = set(), [False]

    def submit_sync(self, request):
        answer = submit(self, request)
        repeat[0] = answer.key in seen
        seen.add(answer.key)
        return ticket(answer) if repeat[0] and ticket else answer

    def result_sync(self, key):
        if repeat[0] and lose_result:
            # The cached result is gone, so the service runs it again.
            shutil.rmtree(self.root / "cache", ignore_errors=True)
        answer = fetch(self, key)
        return result(answer) if repeat[0] and result else answer

    monkeypatch.setattr(AlignmentService, "submit_sync", submit_sync)
    monkeypatch.setattr(AlignmentService, "result_sync", result_sync)


@pytest.mark.parametrize("corruption,check", [
    ({"ticket": lambda t: dataclasses.replace(t, key="0" * 64)},
     "dedup-key"),
    ({"ticket": lambda t: dataclasses.replace(t, state="pending")},
     "dedup-state"),
    ({"lose_result": True}, "dedup-ran"),
    ({"result": lambda r: _with_measure(r, "mnc",
                                        1.0 - r.measures["mnc"] / 2)},
     "dedup-measures"),
], ids=["dedup-key", "dedup-state", "dedup-ran", "dedup-measures"])
def test_repeat_checks_fire(service, monkeypatch, corruption, check):
    _corrupt_repeats(monkeypatch, **corruption)
    with pytest.raises(CheckFailed) as failure:
        service.run_unit(0, traced=False)
    assert failure.value.check == check


@pytest.mark.parametrize("kind", ["sweep", "service"])
def test_op_times_are_calibrated_by_the_probes_around_each_op(
        kind, request, monkeypatch):
    workload = request.getfixturevalue(kind)
    # A host at half the nominal speed: calibrated times are half the raw.
    monkeypatch.setattr(workload, "probe",
                        lambda: 2 * workload.probe_nominal_s)
    workload.run_unit(0, traced=False)
    unit = workload.units[-1]
    raw = workload.op_times(unit, raw=True)
    assert len(unit["probes"]) == len(raw) + 1
    assert workload.op_times(unit) == pytest.approx([t / 2 for t in raw])
    assert sum(map(sum, workload.latency_groups())) == pytest.approx(
        sum(raw) / 2)


def test_a_failed_check_aborts_the_run_and_names_it(monkeypatch, capsys):
    _corrupt_sweeps(monkeypatch, lambda records: records[:-1])
    code = run.main(["--workload", "sweep-jv", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "0", "--tiny"])
    captured = capsys.readouterr()
    assert code == 3
    assert "check failed: sweep-record-count" in captured.err
    assert '"correct"' not in captured.out
