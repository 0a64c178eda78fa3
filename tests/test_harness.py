"""Tests for the experiment harness: config, runner, result tables."""

import numpy as np
import pytest

from repro.context import RunContext
from repro.exceptions import ExperimentError
from repro.graphs import erdos_renyi_graph, powerlaw_cluster_graph
from repro.harness import (
    ExperimentConfig,
    Profile,
    PROFILES,
    ResultTable,
    RunRecord,
    active_profile,
    run_cell,
    run_experiment,
    run_on_pair,
)
from repro.algorithms import get_algorithm
from repro.noise import make_pair
from repro.observability import Span

GRAPH = powerlaw_cluster_graph(60, 3, 0.3, seed=31)
PAIR = make_pair(GRAPH, "one-way", 0.02, seed=32)


def _record(**overrides):
    base = dict(
        algorithm="isorank", dataset="pl", noise_type="one-way",
        noise_level=0.02, repetition=0, assignment="jv",
        measures={"accuracy": 0.9, "s3": 0.8},
        similarity_time=1.0, assignment_time=0.5,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestProfiles:
    def test_quick_is_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert active_profile().name == "quick"

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "medium")
        assert active_profile().name == "medium"

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "medium")
        assert active_profile("full").name == "full"

    def test_unknown_rejected(self):
        with pytest.raises(ExperimentError):
            active_profile("gigantic")

    def test_profiles_ordered_by_size(self):
        assert (PROFILES["quick"].synthetic_nodes
                < PROFILES["medium"].synthetic_nodes
                < PROFILES["full"].synthetic_nodes)
        assert PROFILES["full"].repetitions == 10  # the paper's value


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(name="x", algorithms=[])
        with pytest.raises(ExperimentError):
            ExperimentConfig(name="x", algorithms=["isorank"], repetitions=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(name="x", algorithms=["isorank"],
                             noise_levels=(1.2,))
        with pytest.raises(ExperimentError):
            ExperimentConfig(name="x", algorithms=["isorank"], workers=0)


class TestRunOnPair:
    def test_measures_and_timings(self):
        out = run_on_pair(get_algorithm("isorank"), PAIR)
        assert 0.0 <= out["measures"]["accuracy"] <= 1.0
        assert out["similarity_time"] > 0
        assert out["mapping"].shape == (60,)

    def test_memory_tracking(self):
        out = run_on_pair(get_algorithm("isorank"), PAIR, track_memory=True)
        assert out["peak_memory_bytes"] > 0

    def test_measure_selection(self):
        out = run_on_pair(get_algorithm("isorank"), PAIR, measures=("ec",))
        assert set(out["measures"]) == {"ec"}


class TestRunCell:
    def test_success_record(self):
        record = run_cell("isorank", PAIR, "pl", repetition=0)
        assert not record.failed
        assert record.algorithm == "isorank"
        assert record.noise_type == "one-way"
        assert "accuracy" in record.measures

    def test_failure_captured_not_raised(self):
        record = run_cell("no-such-algo", PAIR, "pl", repetition=0)
        assert record.failed
        assert "no-such-algo" in record.error or "unknown" in record.error

    def test_algorithm_params_forwarded(self):
        record = run_cell("isorank", PAIR, "pl", repetition=0,
                          algorithm_params={"alpha": 0.5})
        assert not record.failed

    @pytest.mark.parametrize("algorithm", ["isorank", "regal"])
    def test_traced_peak_memory_is_the_whole_cell_peak(self, algorithm):
        """Spans reset tracemalloc's peak to measure their own windows;
        the record still reports the peak of the whole cell."""
        pair = make_pair(erdos_renyi_graph(300, 10 / 299, seed=5),
                         "one-way", 0.02, seed=3)
        plain, traced = (
            run_cell(algorithm, pair, "er", repetition=0, track_memory=True,
                     context=RunContext(trace=trace))
            for trace in (False, True))
        assert traced.peak_memory_bytes == pytest.approx(
            plain.peak_memory_bytes, rel=0.05)
        spans = [Span.from_dict(root) for root in traced.trace["spans"]]
        assert spans
        for root in spans:
            for stage in root.walk():
                assert traced.peak_memory_bytes >= stage.peak_memory_bytes


class TestRunCellBroadFailureNet:
    """Any exception becomes a ✗ record (the paper's protocol); only
    process-control exceptions may abort the sweep."""

    @pytest.fixture(autouse=True)
    def _register(self):
        from repro.algorithms.base import (
            ALGORITHM_REGISTRY, AlgorithmInfo, AlignmentAlgorithm,
            register_algorithm,
        )

        def make_info(name):
            return AlgorithmInfo(
                name=name, year=2026, preprocessing="no", biological=False,
                default_assignment="jv", optimizes="any",
                time_complexity="O(?)", parameters={},
            )

        value_errorer_info = make_info("_valueerrorer")
        interrupter_info = make_info("_interrupter")

        class _ValueErrorer(AlignmentAlgorithm):
            info = value_errorer_info

            def _similarity(self, source, target, rng):
                raise ValueError("matrix has unexpected shape")

        class _Interrupter(AlignmentAlgorithm):
            info = interrupter_info

            def _similarity(self, source, target, rng):
                raise KeyboardInterrupt

        for cls in (_ValueErrorer, _Interrupter):
            register_algorithm(cls)
        yield
        for name in ("_valueerrorer", "_interrupter"):
            ALGORITHM_REGISTRY.pop(name, None)

    def test_unexpected_exception_becomes_failed_record(self):
        record = run_cell("_valueerrorer", PAIR, "pl", repetition=0)
        assert record.failed
        assert record.error.startswith("ValueError: matrix has unexpected")

    def test_error_carries_traceback_tail(self):
        record = run_cell("_valueerrorer", PAIR, "pl", repetition=0)
        assert "_similarity" in record.error  # the raising frame is named

    def test_error_prefix_still_matches_retry_policies(self):
        from repro.harness import RetryPolicy
        record = run_cell("_valueerrorer", PAIR, "pl", repetition=0)
        policy = RetryPolicy(retry_on=("ValueError",))
        assert policy.is_transient(record.error)
        assert not RetryPolicy().is_transient(record.error)

    def test_keyboard_interrupt_propagates(self):
        with pytest.raises(KeyboardInterrupt):
            run_cell("_interrupter", PAIR, "pl", repetition=0)

    def test_unexpected_failure_does_not_abort_sweep(self):
        config = ExperimentConfig(
            name="net", algorithms=["_valueerrorer", "isorank"],
            noise_levels=(0.0,), repetitions=1, seed=3,
        )
        table = run_experiment(config, {"pl": GRAPH})
        assert len(table) == 2
        by_algo = {r.algorithm: r for r in table.records}
        assert by_algo["_valueerrorer"].failed
        assert not by_algo["isorank"].failed


class TestRunExperiment:
    def test_sweep_shape(self):
        cfg = ExperimentConfig(
            name="t", algorithms=["isorank", "nsd"],
            noise_types=("one-way", "multimodal"),
            noise_levels=(0.0, 0.02), repetitions=2,
        )
        table = run_experiment(cfg, {"pl": GRAPH})
        # 1 graph x 2 types x 2 levels x 2 reps x 2 algorithms = 16 records.
        assert len(table) == 16

    def test_progress_callback(self):
        seen = []
        cfg = ExperimentConfig(name="t", algorithms=["nsd"],
                               noise_levels=(0.0,), repetitions=1)
        run_experiment(cfg, {"pl": GRAPH}, progress=seen.append)
        assert len(seen) == 1
        assert "nsd" in seen[0]

    def test_custom_pair_factory(self):
        calls = []

        def factory(graph, noise_type, level, seed):
            calls.append((noise_type, level))
            return make_pair(graph, noise_type, level, seed=seed)

        cfg = ExperimentConfig(name="t", algorithms=["nsd"],
                               noise_levels=(0.01,), repetitions=1)
        run_experiment(cfg, {"pl": GRAPH}, pair_factory=factory)
        assert calls == [("one-way", 0.01)]


class TestResultTable:
    def test_filter_and_mean(self):
        table = ResultTable([
            _record(noise_level=0.0, measures={"accuracy": 1.0}),
            _record(noise_level=0.0, repetition=1, measures={"accuracy": 0.8}),
            _record(noise_level=0.05, measures={"accuracy": 0.2}),
        ])
        assert table.mean("accuracy", noise_level=0.0) == pytest.approx(0.9)
        assert len(table.filter(noise_level=0.05)) == 1

    def test_failed_records_excluded_from_mean(self):
        table = ResultTable([
            _record(measures={"accuracy": 1.0}),
            _record(failed=True, measures={}),
        ])
        assert table.mean("accuracy") == 1.0

    def test_mean_of_nothing_is_nan(self):
        assert np.isnan(ResultTable().mean("accuracy"))

    def test_series(self):
        table = ResultTable([
            _record(noise_level=0.0, measures={"accuracy": 1.0}),
            _record(noise_level=0.05, measures={"accuracy": 0.4}),
        ])
        series = table.series("isorank", "noise_level", "accuracy")
        assert series == [(0.0, 1.0), (0.05, 0.4)]

    def test_pseudo_measures(self):
        table = ResultTable([_record()])
        assert table.mean("total_time") == pytest.approx(1.5)
        assert table.mean("similarity_time") == pytest.approx(1.0)

    def test_unknown_measure_rejected(self):
        with pytest.raises(ExperimentError):
            _record().value("flops")

    def test_format_grid(self):
        table = ResultTable([
            _record(algorithm="a", noise_level=0.0, measures={"accuracy": 1.0}),
            _record(algorithm="b", noise_level=0.0, measures={"accuracy": 0.5}),
        ])
        text = table.format_grid("algorithm", "noise_level", "accuracy")
        assert "1.000" in text and "0.500" in text

    def test_grid_marks_missing_cells(self):
        table = ResultTable([
            _record(algorithm="a", noise_level=0.0),
            _record(algorithm="b", noise_level=0.1, failed=True, measures={}),
        ])
        text = table.format_grid("algorithm", "noise_level", "accuracy")
        assert "--" in text

    def test_csv_roundtrip_columns(self, tmp_path):
        path = tmp_path / "out.csv"
        ResultTable([_record()]).to_csv(path)
        header = path.read_text().splitlines()[0]
        assert "algorithm" in header and "accuracy" in header
