"""Graceful-degradation suite: preflight contracts, numerical watchdog,
fallback observability, and diagnostics plumbing end to end.

Acceptance (ISSUE PR 3): a sweep over fixtures that includes a
disconnected graph and an injected-NaN fault completes with zero
uncaught exceptions; the journal and report distinguish clean, degraded,
and failed cells; serial and parallel runs produce identical diagnostic
records.
"""

import json

import numpy as np
import pytest

import repro
from repro.algorithms import get_algorithm
from repro.algorithms.base import ALGORITHM_REGISTRY, _expand_mapping
from repro.context import RunContext
from repro.diagnostics import Diagnostic, capture_diagnostics, record_diagnostic
from repro.exceptions import NumericsError, PreflightError
from repro.faults import FaultSpec, inject_fault
from repro.graphs import Graph, powerlaw_cluster_graph
from repro.harness import (
    ExperimentConfig,
    RunJournal,
    run_cell,
    run_experiment,
)
from repro.harness.journal import config_fingerprint
from repro.harness.report import markdown_report
from repro.harness.results import RunRecord
from repro.noise import make_pair
from repro.numerics import check_similarity, numerics_policy

TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])

CONNECTED = powerlaw_cluster_graph(30, 3, 0.3, seed=8)
PAIR = make_pair(CONNECTED, "one-way", 0.0, seed=9)
SPLIT_PAIR = make_pair(TWO_TRIANGLES, "one-way", 0.0, seed=9)


class TestDiagnosticPrimitives:
    def test_record_without_scope_is_noop(self):
        d = record_diagnostic("stage", "kind", "msg")
        assert isinstance(d, Diagnostic)

    def test_capture_collects(self):
        with capture_diagnostics() as events:
            record_diagnostic("watchdog", "zero_similarity", "all zero")
        assert len(events) == 1
        assert events[0].stage == "watchdog"

    def test_nested_scopes_both_collect(self):
        with capture_diagnostics() as outer:
            with capture_diagnostics() as inner:
                record_diagnostic("s", "k", "m")
        assert len(outer) == len(inner) == 1

    def test_round_trip(self):
        d = Diagnostic("preflight", "disconnected_input", "msg", "lcc")
        assert Diagnostic.from_dict(d.to_dict()) == d


class TestPreflightContracts:
    @pytest.mark.parametrize("name", ["grasp", "cone"])
    def test_connected_contract_declared(self, name):
        assert ALGORITHM_REGISTRY[name].info.requires_connected

    @pytest.mark.parametrize("name", ["grasp", "cone"])
    def test_disconnected_input_degrades_not_crashes(self, name):
        """Paper §6.4.2: spectrum-based methods need a connected graph.

        The harness mitigation is the paper's own: restrict to the
        largest connected component and record that it happened.
        """
        result = repro.align(SPLIT_PAIR.source, SPLIT_PAIR.target,
                             method=name, seed=0)
        assert result.degraded
        kinds = {d.kind for d in result.diagnostics}
        assert "disconnected_input" in kinds
        assert all(d.fallback_used == "largest_connected_component"
                   for d in result.diagnostics
                   if d.kind == "disconnected_input")
        # nodes outside the LCC are explicitly unmatched, not garbage
        assert result.mapping.shape == (6,)
        assert np.any(result.mapping == -1)
        matched = result.mapping[result.mapping >= 0]
        assert np.all((matched >= 0) & (matched < 6))

    def test_connected_input_stays_clean(self):
        result = repro.align(PAIR.source, PAIR.target, method="grasp", seed=0)
        assert not result.degraded
        assert result.diagnostics == []

    def test_tolerant_algorithm_unaffected(self):
        result = repro.align(SPLIT_PAIR.source, SPLIT_PAIR.target,
                             method="isorank", seed=0)
        assert not any(d.kind == "disconnected_input"
                       for d in result.diagnostics)

    def test_min_nodes_contract(self):
        tiny = Graph(1, ())
        with pytest.raises(PreflightError):
            get_algorithm("grasp").align(tiny, tiny, seed=0)

    def test_unmitigable_input_degrades_to_unmatched(self):
        """When the LCC itself violates the contract (e.g. an edgeless
        graph), the result is a degraded all-unmatched skip, not a crash."""
        edgeless = Graph(4)
        result = repro.align(edgeless, edgeless, method="grasp", seed=0)
        assert result.mapping.tolist() == [-1, -1, -1, -1]
        assert result.degraded
        assert any(d.kind == "contract_violation"
                   and d.fallback_used == "unmatched_result"
                   for d in result.diagnostics)

    def test_expand_mapping_lifts_indices(self):
        source_nodes = np.array([0, 1, 2])
        target_nodes = np.array([3, 4, 5])
        restricted = np.array([2, 0, -1])
        full = _expand_mapping(restricted, source_nodes, target_nodes, 6)
        assert full.tolist() == [5, 3, -1, -1, -1, -1]


class TestNumericalWatchdog:
    def test_sanitize_replaces_nonfinite(self):
        sim = np.array([[1.0, np.nan], [np.inf, 0.5]])
        with capture_diagnostics() as events:
            fixed = check_similarity(sim)
        assert np.all(np.isfinite(fixed))
        assert events[0].kind == "nonfinite_similarity"
        assert events[0].fallback_used == "sanitized"

    def test_strict_raises(self):
        sim = np.array([[1.0, np.nan]])
        with numerics_policy("strict"):
            with pytest.raises(NumericsError):
                check_similarity(sim)

    def test_zero_matrix_flagged(self):
        with capture_diagnostics() as events:
            check_similarity(np.zeros((3, 3)))
        assert events[0].kind == "zero_similarity"

    def test_finite_matrix_untouched(self):
        sim = np.array([[0.2, 0.8], [0.5, 0.1]])
        with capture_diagnostics() as events:
            out = check_similarity(sim)
        assert out is sim
        assert events == []

    def test_nan_fault_degrades_cell(self):
        with inject_fault("isorank", FaultSpec(mode="nan")):
            record = run_cell("isorank", PAIR, "pl", 0)
        assert not record.failed
        assert record.status == "degraded"
        assert any(d["kind"] == "nonfinite_similarity"
                   for d in record.diagnostics)

    def test_nan_fault_fails_cell_under_strict(self):
        with inject_fault("isorank", FaultSpec(mode="nan")):
            record = run_cell("isorank", PAIR, "pl", 0,
                              context=RunContext(numerics="strict"))
        assert record.failed
        assert record.status == "failed"
        assert "NumericsError" in record.error
        # the watchdog's trail survives into the failed record
        assert any(d["kind"] == "nonfinite_similarity"
                   for d in record.diagnostics)


class TestAssignmentFallback:
    def test_jv_failure_falls_back_to_greedy_with_diagnostic(self, monkeypatch):
        from repro.assignment import base as assignment_base
        from repro.assignment.base import extract_alignment
        from repro.exceptions import AssignmentError

        def _infeasible(similarity):
            raise AssignmentError("injected: problem infeasible")

        monkeypatch.setattr(assignment_base, "jonker_volgenant", _infeasible)
        sim = np.array([[0.9, 0.1], [0.2, 0.8]])
        with capture_diagnostics() as events:
            mapping = extract_alignment(sim, method="jv")
        assert sorted(mapping.tolist()) == [0, 1]
        assert any(e.kind == "lap_infeasible" and e.fallback_used == "sg"
                   for e in events)

    def test_nonfinite_input_still_raises(self, monkeypatch):
        from repro.assignment import base as assignment_base
        from repro.assignment.base import extract_alignment
        from repro.exceptions import AssignmentError

        def _infeasible(similarity):
            raise AssignmentError("injected: problem infeasible")

        monkeypatch.setattr(assignment_base, "jonker_volgenant", _infeasible)
        sim = np.array([[np.nan, 0.1], [0.2, 0.8]])
        with capture_diagnostics() as events:
            with pytest.raises(AssignmentError):
                extract_alignment(sim, method="jv")
        # greedy must not mask a caller bug: no fallback diagnostic
        assert not any(e.kind == "lap_infeasible" for e in events)


class TestRecordStatus:
    def test_status_taxonomy(self):
        base = dict(algorithm="a", dataset="d", noise_type="one-way",
                    noise_level=0.0, repetition=0, assignment="jv",
                    similarity_time=0.0, assignment_time=0.0)
        clean = RunRecord(**base, measures={"accuracy": 1.0})
        degraded = RunRecord(**base, measures={"accuracy": 0.5},
                             diagnostics=[{"stage": "watchdog",
                                           "kind": "nonfinite_similarity",
                                           "message": "m",
                                           "fallback_used": "sanitized"}])
        failed = RunRecord(**base, measures={}, failed=True, error="X: boom")
        assert (clean.status, degraded.status, failed.status) == \
            ("clean", "degraded", "failed")

    def test_record_dict_round_trip_keeps_diagnostics(self):
        record = RunRecord(
            algorithm="a", dataset="d", noise_type="one-way",
            noise_level=0.0, repetition=0, assignment="jv",
            similarity_time=0.0, assignment_time=0.0,
            measures={"accuracy": 0.5},
            diagnostics=[{"stage": "preflight", "kind": "disconnected_input",
                          "message": "m",
                          "fallback_used": "largest_connected_component"}],
        )
        back = RunRecord.from_dict(record.to_dict())
        assert back.diagnostics == record.diagnostics
        assert back.status == "degraded"


SWEEP_CONFIG = dict(
    name="degradation-sweep",
    algorithms=["isorank", "grasp"],
    noise_types=("one-way",),
    noise_levels=(0.0, 0.02),
    repetitions=1,
    seed=13,
)

GRAPHS = {"connected": CONNECTED, "split": TWO_TRIANGLES}


class TestSweepAcceptance:
    def test_sweep_with_disconnected_graph_and_nan_fault(self, tmp_path):
        """The headline acceptance test: nothing escapes, everything is
        classified, and the journal round-trips the classification."""
        journal_path = tmp_path / "sweep.jsonl"
        config = ExperimentConfig(**SWEEP_CONFIG)
        with inject_fault("isorank", FaultSpec(mode="nan", on_call=1)):
            table = run_experiment(config, GRAPHS, journal=str(journal_path))
        assert len(table) == 8  # 2 datasets x 2 levels x 2 algorithms

        statuses = {r.status for r in table.records}
        assert "clean" in statuses
        assert "degraded" in statuses
        # grasp on the split dataset degrades via preflight on every cell
        for r in table.records:
            if r.algorithm == "grasp" and r.dataset == "split":
                assert r.status == "degraded"
                assert any(d["kind"] == "disconnected_input"
                           for d in r.diagnostics)
        # the nan fault degraded exactly one isorank cell via the watchdog
        poisoned = [r for r in table.records
                    if any(d["kind"] == "nonfinite_similarity"
                           for d in r.diagnostics)]
        assert len(poisoned) == 1
        assert poisoned[0].algorithm == "isorank"

        # journal round-trip preserves the full classification
        reloaded = RunJournal(journal_path,
                              fingerprint=config_fingerprint(config))
        assert len(reloaded) == 8
        by_status = {}
        for r in reloaded.records:
            by_status.setdefault(r.status, []).append(r)
        assert {r.status for r in table.records} == set(by_status)
        def canonical_diags(records):
            # json round-trips sort dict keys; compare canonical forms
            return sorted(
                (r.algorithm, r.dataset, round(r.noise_level, 6),
                 json.dumps(r.diagnostics, sort_keys=True))
                for r in records)

        assert canonical_diags(reloaded.records) == \
            canonical_diags(table.records)

    def test_strict_numerics_changes_fingerprint(self):
        default = ExperimentConfig(**SWEEP_CONFIG)
        strict = ExperimentConfig(strict_numerics=True, **SWEEP_CONFIG)
        assert config_fingerprint(default) != config_fingerprint(strict)

    def test_strict_sweep_fails_instead_of_degrading(self):
        config = ExperimentConfig(strict_numerics=True, **SWEEP_CONFIG)
        with inject_fault("isorank", FaultSpec(mode="nan", on_call=1)):
            table = run_experiment(config, {"connected": CONNECTED})
        failed = [r for r in table.records if r.failed]
        assert len(failed) == 1
        assert "NumericsError" in failed[0].error

    def test_serial_and_parallel_diagnostics_identical(self):
        def canonical(table):
            return sorted(
                (r.algorithm, r.dataset, round(r.noise_level, 6),
                 r.repetition, r.status, str(r.diagnostics))
                for r in table.records)

        serial = run_experiment(ExperimentConfig(**SWEEP_CONFIG), GRAPHS)
        parallel = run_experiment(
            ExperimentConfig(workers=2, **SWEEP_CONFIG), GRAPHS)
        assert canonical(serial) == canonical(parallel)
        assert any(r.status == "degraded" for r in serial.records)


class TestReporting:
    def _table(self):
        return run_experiment(ExperimentConfig(**SWEEP_CONFIG), GRAPHS)

    def test_status_counts(self):
        table = self._table()
        counts = table.status_counts(by="algorithm")
        assert set(counts) == {"isorank", "grasp"}
        for c in counts.values():
            assert set(c) == {"clean", "degraded", "failed"}
            assert sum(c.values()) == 4
        assert counts["grasp"]["degraded"] == 2  # split dataset cells

    def test_diagnostic_counts(self):
        table = self._table()
        counts = table.diagnostic_counts(by="algorithm")
        assert counts.get("grasp", {}).get("preflight/disconnected_input") == 4

    def test_markdown_report_degradation_section(self):
        table = self._table()
        report = markdown_report(table, title="degradation")
        assert "## degradation summary" in report
        assert "degraded" in report
        assert "preflight/disconnected_input" in report

    def test_csv_carries_status_and_diagnostics(self, tmp_path):
        table = self._table()
        path = tmp_path / "out.csv"
        table.to_csv(path)
        text = path.read_text()
        header = text.splitlines()[0]
        assert "status" in header
        assert "diagnostics" in header
        assert "degraded" in text
        assert "preflight/disconnected_input" in text
