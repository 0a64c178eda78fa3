"""Execution-identity and crash-resume guarantees of the statistics layer.

The contract under test: statistics are **bit-identical** however the
sweep behind them was executed — serial, or on ``workers`` with or
without a journal — and when resumed after a SIGKILL, because every resample
flows from a derived seed through chunk-indexed RNG streams.  The
SIGKILL test drives a real child interpreter, exactly like the sweep's
own resume-integration suite.
"""

import io
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import ExperimentError
from repro.graphs import powerlaw_cluster_graph
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.results import ResultTable
from repro.stats import StatsConfig, compute_sweep_stats, stats_journal_path
from tests.test_stats_golden import golden_records

ROOT = Path(__file__).resolve().parent.parent

GRAPH = powerlaw_cluster_graph(40, 3, 0.3, seed=5)

SWEEP = dict(
    name="stats-parallel", algorithms=["isorank", "nsd"],
    noise_levels=(0.0, 0.02), repetitions=2, seed=7,
    stats=True, stats_resamples=256,
)


def _stats_dump(stats):
    """Everything semantically observable, for exact-equality checks."""
    return ([g.to_dict() for g in stats.groups],
            [(c.to_dict(), c.p_holm) for c in stats.comparisons])


class TestSweepExecutionIdentity:
    def test_serial_workers_shards_agree(self, tmp_path):
        serial = run_experiment(ExperimentConfig(**SWEEP), {"pl": GRAPH})
        pooled = run_experiment(ExperimentConfig(workers=4, **SWEEP),
                                {"pl": GRAPH})
        journaled = run_experiment(
            ExperimentConfig(workers=2, **SWEEP), {"pl": GRAPH},
            journal=str(tmp_path / "run.jsonl"))
        assert serial.stats is not None
        assert (_stats_dump(serial.stats) == _stats_dump(pooled.stats)
                == _stats_dump(journaled.stats))

    def test_sharded_sweep_writes_stats_sidecar(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        table = run_experiment(ExperimentConfig(workers=2, **SWEEP),
                               {"pl": GRAPH}, journal=str(journal))
        sidecar = stats_journal_path(journal)
        assert sidecar.exists()
        # The CLI reads the journal the supervisor wrote and resumes from
        # the very same side-car.
        import io
        from repro.cli import main
        out = io.StringIO()
        assert main(["stats", "--journal", str(journal),
                     "--resamples", "256", "--seed", "7",
                     "--measures", "accuracy", "s3", "mnc"],
                    out=out) == 0
        assert table.stats.format_summary() in out.getvalue()

    def test_fingerprint_rejects_other_parameters(self, tmp_path):
        table = ResultTable(golden_records())
        sidecar = tmp_path / "units.stats"
        compute_sweep_stats(table, StatsConfig(resamples=128, seed=3),
                            journal=sidecar)
        with pytest.raises(ExperimentError, match="fingerprint"):
            compute_sweep_stats(table, StatsConfig(resamples=256, seed=3),
                                journal=sidecar)

    def test_fingerprint_accepts_any_order_of_measures(self, tmp_path):
        # None and every order of the same measures enumerate the same
        # keyed units, so they resume one side-car with nothing recomputed.
        table = ResultTable(golden_records())
        sidecar = tmp_path / "units.stats"
        first = compute_sweep_stats(
            table, StatsConfig(resamples=128, seed=3,
                               measures=("s3", "accuracy")),
            journal=sidecar)
        for measures in (None, ("accuracy", "s3")):
            recomputed = []
            resumed = compute_sweep_stats(
                table, StatsConfig(resamples=128, seed=3, measures=measures),
                journal=sidecar, progress=recomputed.append)
            assert recomputed == []
            assert resumed.format_summary() == first.format_summary()

    def test_cli_resumes_the_sweep_sidecar_without_measures(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        table = run_experiment(ExperimentConfig(**SWEEP), {"pl": GRAPH},
                               journal=str(journal))
        sidecar = stats_journal_path(journal).read_bytes()
        out = io.StringIO()
        assert main(["stats", "--journal", str(journal),
                     "--resamples", "256", "--seed", "7"], out=out) == 0
        assert table.stats.format_summary() in out.getvalue()
        assert stats_journal_path(journal).read_bytes() == sidecar

    def test_fingerprint_rejects_other_data(self, tmp_path):
        table = ResultTable(golden_records())
        sidecar = tmp_path / "units.stats"
        compute_sweep_stats(table, StatsConfig(resamples=128, seed=3),
                            journal=sidecar)
        smaller = ResultTable(golden_records()[:-1])
        with pytest.raises(ExperimentError, match="fingerprint"):
            compute_sweep_stats(smaller, StatsConfig(resamples=128, seed=3),
                                journal=sidecar)


# Driver for the SIGKILL test: finish (or resume) the sweep, then compute
# journaled statistics, killing the process after N units.  The progress
# callback fires before each unit is computed, so "count > N" means N
# units are durably journaled and the N+1th dies in flight.
DRIVER = """\
import os, signal, sys
from repro.graphs import powerlaw_cluster_graph
from repro.harness import ExperimentConfig, run_experiment
from repro.stats import StatsConfig, compute_sweep_stats

journal_path, kill_after = sys.argv[1], int(sys.argv[2])
config = ExperimentConfig(
    name="stats-kill", algorithms=["isorank", "nsd"],
    noise_levels=(0.0, 0.02), repetitions=2, seed=7,
)
graph = powerlaw_cluster_graph(40, 3, 0.3, seed=5)
table = run_experiment(config, {"pl": graph}, journal=journal_path)
count = 0

def progress(key):
    global count
    count += 1
    with open(journal_path + ".computed", "a") as handle:
        handle.write(key + "\\n")
    if kill_after and count > kill_after:
        os.kill(os.getpid(), signal.SIGKILL)

stats = compute_sweep_stats(
    table, StatsConfig(resamples=256, seed=7),
    journal=journal_path + ".stats", progress=progress)
print(stats.format_summary())
"""


def _driver_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _run_driver(journal, kill_after):
    return subprocess.run(
        [sys.executable, "-c", DRIVER, str(journal), str(kill_after)],
        capture_output=True, text=True, env=_driver_env(), timeout=300,
    )


class TestKillAndResume:
    KILL_AFTER = 5

    def test_sigkill_then_resume_exactly(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        first = _run_driver(journal, self.KILL_AFTER)
        assert first.returncode == -signal.SIGKILL
        computed = tmp_path / "run.jsonl.computed"
        killed_at = len(computed.read_text().splitlines())
        assert killed_at == self.KILL_AFTER + 1  # N journaled, N+1 died

        second = _run_driver(journal, 0)
        assert second.returncode == 0, second.stderr
        log = computed.read_text().splitlines()
        total_units = len(set(log))
        # The rerun recomputed only what the kill left unjournaled: the
        # N journaled units were skipped, so across both runs only the
        # unit that died in flight appears twice.
        assert len(log) == total_units + 1
        assert len(log[self.KILL_AFTER + 1:]) == \
            total_units - self.KILL_AFTER
        assert log[self.KILL_AFTER] in log[self.KILL_AFTER + 1:]

        # A never-killed control run agrees with the resumed one bitwise.
        control_journal = tmp_path / "control.jsonl"
        control = _run_driver(control_journal, 0)
        assert control.returncode == 0, control.stderr
        assert control.stdout == second.stdout
        assert control.stdout.strip()
