"""The run context: one per-thread settings slot, one value across boundaries."""

import pickle
import threading

import pytest

from repro.cache import active_cache, artifact_cache, caching
from repro.context import RunContext
from repro.exceptions import NumericsError
from repro.faults import FaultSpec, inject_fault
from repro.graphs import powerlaw_cluster_graph
from repro.harness import CellBudget, ExperimentConfig
from repro.harness.budget import run_cell_with_budget
from repro.noise import make_pair
from repro.numerics import numerics_policy
from repro.observability import capture_trace, span, tracing
from repro.sketch import SketchPolicy

PAIR = make_pair(powerlaw_cluster_graph(30, 3, 0.3, seed=8), "one-way", 0.0,
                 seed=9)


class TestThreadIsolation:
    def test_leaving_scopes_in_one_thread_keeps_the_others(self):
        """Thread B is still inside its tracing and caching scopes when
        thread A leaves its own: B keeps recording spans and keeps its
        cache."""
        b_inside, a_left = threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with tracing(True), capture_trace(), caching(True), \
                    artifact_cache():
                assert b_inside.wait(10)
            a_left.set()

        def thread_b():
            with tracing(True), capture_trace() as trace, caching(True), \
                    artifact_cache() as cache:
                b_inside.set()
                assert a_left.wait(10)
                with span("after-a-left"):
                    pass
                seen["spans"] = [s.stage for s in trace.spans]
                seen["cache"] = active_cache() is cache

        threads = [threading.Thread(target=thread_a),
                   threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert seen == {"spans": ["after-a-left"], "cache": True}


class TestBudgetBoundary:
    def test_budget_child_runs_under_the_callers_context(self):
        """A strict scope around a budgeted cell reaches the child: the
        poisoned similarity fails the cell instead of degrading it."""
        budget = CellBudget(time_seconds=60)
        with inject_fault("isorank", FaultSpec(mode="nan")), \
                numerics_policy("strict"):
            record = run_cell_with_budget("isorank", PAIR, "pl", 0, budget)
        assert record.failed
        assert "NumericsError" in record.error


class TestValue:
    def test_survives_a_pickle_round_trip(self):
        context = RunContext(numerics="strict",
                             sketch=SketchPolicy(threshold=100),
                             trace=True, cache=True)
        assert pickle.loads(pickle.dumps(context)) == context

    def test_rejects_an_unknown_numerics_policy(self):
        with pytest.raises(NumericsError, match="unknown numerics policy"):
            RunContext(numerics="bogus")
        with pytest.raises(NumericsError):
            numerics_policy("bogus")


class TestConfigMapping:
    def test_config_fields_map_onto_the_context(self, tmp_path):
        config = ExperimentConfig(
            name="ctx", algorithms=["isorank"], strict_numerics=True,
            sketch=True, sketch_threshold=100, cache_dir=str(tmp_path))
        assert config.run_context() == RunContext(
            numerics="strict", sketch=SketchPolicy(threshold=100),
            trace=False, cache=True)
        plain = ExperimentConfig(name="ctx", algorithms=["isorank"])
        assert plain.run_context() == RunContext()
