"""Tests for per-cell time+memory budgets and the hardened child runner."""

import os
import signal
import time

import numpy as np
import pytest

from repro.algorithms.base import (
    ALGORITHM_REGISTRY,
    AlgorithmInfo,
    AlignmentAlgorithm,
    register_algorithm,
)
from repro.context import RunContext
from repro.exceptions import ExperimentError
from repro.graphs import powerlaw_cluster_graph
from repro.harness import (
    PROFILES,
    CellBudget,
    run_cell_with_budget,
)
from repro.noise import make_pair

PAIR = make_pair(powerlaw_cluster_graph(40, 3, 0.3, seed=71), "one-way",
                 0.0, seed=72)

GIB = 2 ** 30


def _info(name):
    return AlgorithmInfo(
        name=name, year=2026, preprocessing="no", biological=False,
        default_assignment="jv", optimizes="any", time_complexity="O(?)",
        parameters={},
    )


class _Hog(AlignmentAlgorithm):
    """Allocates far past any sane budget (~4 GiB) before returning."""

    info = _info("_hog")

    def _similarity(self, source, target, rng):
        hoard = []
        for _ in range(256):
            hoard.append(np.ones((16 * 2 ** 20,), dtype=np.float64))
        return np.ones((source.num_nodes, target.num_nodes))


class _SuddenDeath(AlignmentAlgorithm):
    """Exits the process abruptly — the pipe closes with nothing sent."""

    info = _info("_suddendeath")

    def _similarity(self, source, target, rng):
        os._exit(7)


class _Unkillable(AlignmentAlgorithm):
    """Ignores SIGTERM, like a child wedged in a C-level loop."""

    info = _info("_unkillable")

    def _similarity(self, source, target, rng):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(600)
        return np.ones((source.num_nodes, target.num_nodes))


class _DiagnoseThenHang(AlignmentAlgorithm):
    """Emits a degradation diagnostic, then wedges until killed."""

    info = _info("_diaghang")

    def _similarity(self, source, target, rng):
        from repro.diagnostics import record_diagnostic

        record_diagnostic("similarity", "fallback", "about to wedge",
                          fallback_used="none")
        time.sleep(600)
        return np.ones((source.num_nodes, target.num_nodes))


@pytest.fixture(scope="module", autouse=True)
def _register_misbehavers():
    for cls in (_Hog, _SuddenDeath, _Unkillable, _DiagnoseThenHang):
        register_algorithm(cls)
    yield
    for cls in (_Hog, _SuddenDeath, _Unkillable, _DiagnoseThenHang):
        ALGORITHM_REGISTRY.pop(cls.info.name, None)


class TestCellBudgetValidation:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(ExperimentError):
            CellBudget(time_seconds=0)

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ExperimentError):
            CellBudget(time_seconds=1, memory_bytes=0)

    def test_rejects_negative_grace(self):
        with pytest.raises(ExperimentError):
            CellBudget(time_seconds=1, grace_seconds=-1)

    def test_rejects_budget_with_no_limits(self):
        """A budget that limits nothing is a configuration error."""
        with pytest.raises(ExperimentError):
            CellBudget()

    def test_memory_only_budget_is_valid(self):
        budget = CellBudget(memory_bytes=GIB)
        assert budget.time_seconds is None
        assert budget.memory_bytes == GIB

    def test_profile_budgets(self):
        budget = PROFILES["full"].cell_budget()
        assert budget.time_seconds == 10800.0
        assert budget.memory_bytes == 256 * GIB  # the paper's machine


class TestBudgetRunner:
    def test_cell_within_budget_succeeds(self):
        budget = CellBudget(time_seconds=60, memory_bytes=4 * GIB)
        record = run_cell_with_budget("isorank", PAIR, "pl", 2, budget)
        assert not record.failed
        assert record.dataset == "pl"
        assert record.repetition == 2
        assert "accuracy" in record.measures

    def test_memory_cap_reported_as_failed_record(self):
        budget = CellBudget(time_seconds=120, memory_bytes=1 * GIB)
        record = run_cell_with_budget("_hog", PAIR, "pl", 0, budget)
        assert record.failed
        # Either numpy raised MemoryError cleanly inside the child, or the
        # child died under the cap; both are the paper's ✗, not a crash.
        assert "MemoryError" in record.error or "died" in record.error

    def test_memory_only_budget_runs_cell_without_deadline(self):
        """time_seconds=None blocks on the child instead of polling a
        deadline; a well-behaved cell completes normally."""
        budget = CellBudget(memory_bytes=4 * GIB)
        record = run_cell_with_budget("isorank", PAIR, "pl", 1, budget)
        assert not record.failed
        assert "accuracy" in record.measures

    def test_memory_only_budget_still_enforces_the_cap(self):
        budget = CellBudget(memory_bytes=1 * GIB)
        record = run_cell_with_budget("_hog", PAIR, "pl", 0, budget)
        assert record.failed
        assert "MemoryError" in record.error or "died" in record.error

    def test_child_error_captured(self):
        """An error inside the child (here: an unknown algorithm) comes
        back as a failed record, not as an exception in the parent."""
        budget = CellBudget(time_seconds=30)
        record = run_cell_with_budget("no-such-algorithm", PAIR, "pl", 0,
                                      budget)
        assert record.failed
        assert record.error

    def test_dead_child_yields_exit_code_record(self):
        budget = CellBudget(time_seconds=60)
        record = run_cell_with_budget("_suddendeath", PAIR, "pl", 0, budget)
        assert record.failed
        assert "died without result" in record.error
        assert "7" in record.error

    def test_sigterm_immune_child_is_killed(self):
        budget = CellBudget(time_seconds=1.0, grace_seconds=0.5)
        start = time.monotonic()
        record = run_cell_with_budget("_unkillable", PAIR, "pl", 0, budget)
        elapsed = time.monotonic() - start
        assert record.failed
        assert "timeout" in record.error
        # terminate -> grace -> kill, not the child's 600 s sleep.
        assert elapsed < 30


class TestPartialTelemetry:
    """Regression (dead-child telemetry drop): a child killed mid-span
    used to lose every diagnostic and span it had produced.  The child
    now streams completed root spans and diagnostics over the pipe as
    they happen, so the parent's failure record carries whatever the
    child flushed before dying."""

    def test_hang_mid_span_keeps_flushed_partial_trace(self):
        from repro.faults import FaultSpec, inject_fault

        budget = CellBudget(time_seconds=2.0, grace_seconds=0.5)
        with inject_fault("isorank", FaultSpec(mode="hang")):
            record = run_cell_with_budget("isorank", PAIR, "pl", 0, budget,
                                          context=RunContext(trace=True))
        assert record.failed
        assert "timeout" in record.error
        # The hang fires inside the similarity stage, so the preflight
        # root span had already closed and streamed to the parent.
        assert record.trace is not None
        stages = [entry["stage"] for entry in record.trace["spans"]]
        assert "preflight" in stages
        assert "similarity" not in stages  # never closed — mid-span kill

    def test_sudden_death_keeps_flushed_partial_trace(self):
        budget = CellBudget(time_seconds=60)
        record = run_cell_with_budget("_suddendeath", PAIR, "pl", 0, budget,
                                      context=RunContext(trace=True))
        assert record.failed
        assert "died without result" in record.error
        assert record.trace is not None
        stages = [entry["stage"] for entry in record.trace["spans"]]
        assert "preflight" in stages

    def test_timeout_keeps_streamed_diagnostics(self):
        budget = CellBudget(time_seconds=2.0, grace_seconds=0.5)
        record = run_cell_with_budget("_diaghang", PAIR, "pl", 0, budget)
        assert record.failed
        assert "timeout" in record.error
        # The diagnostic the child emitted just before wedging streamed
        # over the pipe and survived the kill.
        assert any(d["kind"] == "fallback" and "wedge" in d["message"]
                   for d in record.diagnostics)

    def test_untraced_timeout_has_no_trace(self):
        budget = CellBudget(time_seconds=1.0, grace_seconds=0.5)
        record = run_cell_with_budget("_unkillable", PAIR, "pl", 0, budget)
        assert record.failed and record.trace is None


class TestRecordRetagging:
    def test_retag_preserves_attempts_and_measures(self, monkeypatch):
        """Regression: the parent's re-tag of the child's record once
        rebuilt it field by field and dropped ``attempts`` back to 1, so
        journaled records under budget+retry misreported retry counts."""
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("monkeypatching the child needs fork inheritance")

        import repro.harness.runner as runner_module
        from repro.harness import RunRecord

        def fake_run_cell(algorithm_name, pair, dataset, repetition, **kwargs):
            return RunRecord(
                algorithm=algorithm_name, dataset=dataset,
                noise_type=pair.noise_type, noise_level=pair.noise_level,
                repetition=repetition, assignment="jv",
                measures={"accuracy": 0.75}, similarity_time=1.25,
                assignment_time=0.25, peak_memory_bytes=4096, attempts=3,
            )

        monkeypatch.setattr(runner_module, "run_cell", fake_run_cell)
        budget = CellBudget(time_seconds=60)
        record = run_cell_with_budget("isorank", PAIR, "pl", 5, budget)
        assert record.attempts == 3  # the child's count, not a reset 1
        assert record.dataset == "pl" and record.repetition == 5
        assert record.measures == {"accuracy": 0.75}
        assert record.peak_memory_bytes == 4096
