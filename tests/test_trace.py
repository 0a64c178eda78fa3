"""Unit tests for the span/counter tracing core (repro.observability)."""

import tracemalloc

import pytest

from repro.observability import (
    KNOWN_COUNTERS,
    Span,
    add_counter,
    capture_trace,
    counter_totals,
    reset_traced_peak,
    span,
    stage_rollup,
    trace_clock,
    trace_structure,
    traced_peak,
    tracing,
    tracing_enabled,
)


class FakeClock:
    """Deterministic monotonic clock: every read advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSwitch:
    def test_disabled_by_default(self):
        assert not tracing_enabled()

    def test_set_tracing_flips_and_restores(self):
        with tracing(True):
            assert tracing_enabled()
        assert not tracing_enabled()

    def test_tracing_scope_restores_prior_state(self):
        with tracing(True):
            assert tracing_enabled()
            with tracing(False):
                assert not tracing_enabled()
            assert tracing_enabled()
        assert not tracing_enabled()


class TestSpanNoOp:
    def test_span_disabled_yields_none(self):
        with span("anything") as live:
            assert live is None

    def test_span_enabled_without_scope_yields_none(self):
        with tracing(True):
            with span("anything") as live:
                assert live is None

    def test_scope_without_enable_collects_nothing(self):
        with capture_trace() as trace:
            with span("stage"):
                pass
        assert trace.spans == []

    def test_counter_disabled_is_noop(self):
        add_counter("sinkhorn_iterations", 5)  # must not raise or record

    def test_counter_enabled_without_scope_is_noop(self):
        with tracing(True):
            add_counter("sinkhorn_iterations", 5)


class TestSpanCollection:
    def test_root_span_recorded(self):
        with tracing(True), capture_trace() as trace:
            with span("similarity") as live:
                assert live is not None and live.stage == "similarity"
        assert [s.stage for s in trace.spans] == ["similarity"]
        assert trace.spans[0].status == "ok"

    def test_nesting_attaches_children(self):
        with tracing(True), capture_trace() as trace:
            with span("outer"):
                with span("inner-a"):
                    pass
                with span("inner-b"):
                    pass
        (outer,) = trace.spans
        assert [c.stage for c in outer.children] == ["inner-a", "inner-b"]

    def test_root_spans_reach_every_active_scope(self):
        with tracing(True), capture_trace() as outer:
            with capture_trace() as inner:
                with span("stage"):
                    pass
            with span("outer-only"):
                pass
        assert [s.stage for s in inner.spans] == ["stage"]
        assert [s.stage for s in outer.spans] == ["stage", "outer-only"]

    def test_exception_closes_span_with_error_status(self):
        with tracing(True), capture_trace() as trace:
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        (doomed,) = trace.spans
        assert doomed.status == "error"
        assert doomed.error == "ValueError: boom"

    def test_observer_fires_per_root_span(self):
        seen = []
        with tracing(True), capture_trace(observer=seen.append):
            with span("a"):
                with span("child"):
                    pass
            with span("b"):
                pass
        assert [s.stage for s in seen] == ["a", "b"]

    def test_fake_clock_gives_deterministic_times(self):
        clock = FakeClock(step=1.0)
        with trace_clock(clock):
            with tracing(True), capture_trace() as trace:
                with span("timed"):
                    pass
        (timed,) = trace.spans
        # enter reads wall+cpu, exit reads wall+cpu: wall spans 2 ticks.
        assert timed.wall_time == 2.0
        assert timed.cpu_time == 2.0

    def test_separate_cpu_clock(self):
        wall = FakeClock(step=1.0)
        cpu = FakeClock(step=0.5)
        with trace_clock(wall, cpu):
            with tracing(True), capture_trace() as trace:
                with span("timed"):
                    pass
        assert trace.spans[0].wall_time == 1.0
        assert trace.spans[0].cpu_time == 0.5


class TestCounters:
    def test_counter_lands_on_innermost_span(self):
        with tracing(True), capture_trace() as trace:
            with span("outer"):
                with span("inner"):
                    add_counter("power_iterations", 3)
        (outer,) = trace.spans
        assert outer.counters == {}
        assert outer.children[0].counters == {"power_iterations": 3}

    def test_orphan_counter_lands_on_scope(self):
        with tracing(True), capture_trace() as trace:
            add_counter("eigensolver_calls")
            add_counter("eigensolver_calls")
        assert trace.counters == {"eigensolver_calls": 2}
        assert trace.to_payload()["counters"] == {"eigensolver_calls": 2}

    def test_negative_increment_rejected(self):
        with tracing(True), capture_trace():
            with pytest.raises(ValueError):
                add_counter("power_iterations", -1)

    def test_known_counters_documented(self):
        assert "sinkhorn_iterations" in KNOWN_COUNTERS
        assert all(isinstance(v, str) and v for v in KNOWN_COUNTERS.values())


class TestMemoryAttribution:
    def test_peak_memory_nonzero_without_tracemalloc(self):
        assert not tracemalloc.is_tracing()
        with tracing(True), capture_trace() as trace:
            with span("stage"):
                pass
        # RSS fallback: a live process's high water is positive.
        assert trace.spans[0].peak_memory_bytes > 0

    def test_tracemalloc_windows_and_child_folding(self):
        tracemalloc.start()
        try:
            with tracing(True), capture_trace() as trace:
                with span("parent"):
                    with span("child"):
                        hoard = [0] * 300_000  # allocate inside the child
                    del hoard
        finally:
            tracemalloc.stop()
        (parent,) = trace.spans
        (child,) = parent.children
        assert child.peak_memory_bytes > 0
        assert parent.peak_memory_bytes >= child.peak_memory_bytes

    def test_traced_peak_survives_span_resets(self):
        tracemalloc.start()
        try:
            reset_traced_peak()
            with tracing(True), capture_trace() as trace:
                with span("hoarding"):
                    hoard = [0] * 300_000
                    del hoard
                with span("idle"):
                    pass
            # The span resets left tracemalloc's own peak far below the
            # hoard; the high-water mark still holds it.
            assert tracemalloc.get_traced_memory()[1] < 300_000 * 8
            assert traced_peak() >= trace.spans[0].peak_memory_bytes
            assert traced_peak() >= 300_000 * 8
            reset_traced_peak()
            assert traced_peak() < 300_000 * 8
        finally:
            tracemalloc.stop()
        assert traced_peak() == 0


class TestSpanSerialization:
    def test_round_trip(self):
        original = Span(stage="s", status="error", wall_time=1.5,
                        cpu_time=1.0, peak_memory_bytes=42,
                        error="ValueError: x",
                        counters={"power_iterations": 2},
                        children=[Span(stage="c")])
        rebuilt = Span.from_dict(original.to_dict())
        assert rebuilt == original

    def test_from_dict_ignores_unknown_keys(self):
        data = Span(stage="s").to_dict()
        data["future_field"] = "whatever"
        assert Span.from_dict(data).stage == "s"

    def test_walk_is_depth_first(self):
        tree = Span(stage="a", children=[
            Span(stage="b", children=[Span(stage="c")]),
            Span(stage="d"),
        ])
        assert [s.stage for s in tree.walk()] == ["a", "b", "c", "d"]


class TestPayloadHelpers:
    def _payload(self):
        with tracing(True), capture_trace() as trace:
            with span("similarity"):
                add_counter("power_iterations", 4)
                with span("embedding"):
                    add_counter("eigensolver_calls")
            with span("similarity"):
                add_counter("power_iterations", 6)
            add_counter("jv_augmenting_steps", 9)
        return trace.to_payload()

    def test_stage_rollup_sums_times_and_counts_calls(self):
        rollup = stage_rollup(self._payload())
        assert set(rollup) == {"similarity"}  # root spans only
        assert rollup["similarity"]["calls"] == 2.0
        assert rollup["similarity"]["wall_time"] >= 0.0

    def test_stage_rollup_peak_is_max_not_sum(self):
        payload = {"spans": [
            {"stage": "s", "peak_memory_bytes": 10},
            {"stage": "s", "peak_memory_bytes": 30},
        ], "counters": {}}
        assert stage_rollup(payload)["s"]["peak_memory_bytes"] == 30.0

    def test_stage_rollup_of_none_is_empty(self):
        assert stage_rollup(None) == {}

    def test_counter_totals_cover_tree_and_orphans(self):
        totals = counter_totals(self._payload())
        assert totals == {"power_iterations": 10, "eigensolver_calls": 1,
                          "jv_augmenting_steps": 9}

    def test_counter_totals_of_none_is_empty(self):
        assert counter_totals(None) == {}

    def test_trace_structure_is_timing_free(self):
        payload = self._payload()
        first = trace_structure(payload)
        for entry in payload["spans"]:
            entry["wall_time"] = 999.0
            entry["peak_memory_bytes"] = 12345
        assert trace_structure(payload) == first
        assert first[0][0] == "similarity"
        assert first[0][3][0][0] == "embedding"

    def test_trace_structure_of_none_is_empty(self):
        assert trace_structure(None) == ()
