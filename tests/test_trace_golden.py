"""Golden-trace regression suite: per-algorithm stage structure.

Every algorithm's traced run must produce exactly the span tree and
counter names pinned here — a refactor that silently drops a stage span
or renames a counter breaks these goldens, not a downstream dashboard.

Nothing in this file asserts on real time: structures are compared via
:func:`repro.observability.trace_structure` (timing-free by design) and
the timing checks run under an injected fake monotonic clock
(:func:`repro.observability.trace_clock`), so the suite cannot be
wall-clock flaky.
"""

import pytest

from repro.algorithms import get_algorithm, list_algorithms
from repro.graphs import powerlaw_cluster_graph
from repro.noise import make_pair
from repro.observability import (
    counter_totals,
    trace_clock,
    trace_structure,
    tracing,
)

PAIR = make_pair(powerlaw_cluster_graph(40, 3, 0.3, seed=5), "one-way",
                 0.02, seed=6)

# The default pipeline wrapper (preflight -> similarity -> watchdog ->
# assignment) around an algorithm-specific similarity signature.
def _pipeline(similarity):
    return (
        ("preflight", "ok", (), ()),
        similarity,
        ("watchdog", "ok", (), ()),
        ("assignment", "ok", ("jv_augmenting_steps",), ()),
    )


GOLDEN = {
    "isorank": _pipeline(("similarity", "ok", ("power_iterations",), ())),
    "nsd": _pipeline(("similarity", "ok", ("power_iterations",), ())),
    "lrea": _pipeline(("similarity", "ok", ("factor_iterations",), ())),
    "grasp": _pipeline(("similarity", "ok", (), (
        ("spectral", "ok", ("eigensolver_calls",), ()),
        ("base_alignment", "ok", (), ()),
    ))),
    "regal": _pipeline(("similarity", "ok", (), (
        ("embedding", "ok", (), ()),
    ))),
    "cone": _pipeline(("similarity", "ok", (), (
        ("embedding", "ok", (), ()),
        ("initialization", "ok",
         ("fallback_activations", "sinkhorn_iterations"), ()),
        ("refinement", "ok",
         ("fallback_activations", "sinkhorn_iterations"), ()),
    ))),
    # GRAAL's native align() has no preflight/watchdog stages.
    "graal": (
        ("similarity", "ok", (), (("graphlets", "ok", (), ()),)),
        ("assignment", "ok", (), ()),
    ),
}

# The slower GW-family algorithms get structure checks but are excluded
# from the double-run determinism matrix to keep the suite fast.
GW_GOLDEN = {
    "gwl": _pipeline(("similarity", "ok", (), (
        ("gw_solve", "ok",
         ("fallback_activations", "gw_outer_iterations",
          "sinkhorn_iterations"), ()),
        ("gw_solve", "ok",
         ("fallback_activations", "gw_outer_iterations",
          "sinkhorn_iterations"), ()),
    ))),
    # S-GWL solves a pair within its leaf size as one leaf and hands the
    # solver's dense plan to JV, so nothing is densified.
    "s-gwl": (
        ("preflight", "ok", (), ()),
        ("similarity", "ok",
         ("fallback_activations", "gw_leaf_solves", "gw_outer_iterations",
          "sinkhorn_iterations"), ()),
        ("watchdog", "ok", (), ()),
        ("assignment", "ok", ("jv_augmenting_steps",), ()),
    ),
}


def _traced_run(name, clock=None):
    algorithm = get_algorithm(name)
    if clock is not None:
        with trace_clock(clock), tracing(True):
            result = algorithm.align(PAIR.source, PAIR.target, seed=0)
    else:
        with tracing(True):
            result = algorithm.align(PAIR.source, PAIR.target, seed=0)
    assert result.trace is not None
    return result.trace


class FakeClock:
    """Monotonic fake: every read advances by a fixed step."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestGoldenStructures:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_structure_matches_golden(self, name):
        assert trace_structure(_traced_run(name)) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(GW_GOLDEN))
    def test_gw_structure_matches_golden(self, name):
        assert trace_structure(_traced_run(name)) == GW_GOLDEN[name]

    def test_goldens_cover_every_registered_algorithm(self):
        assert set(GOLDEN) | set(GW_GOLDEN) == set(list_algorithms())


class TestDeterminism:
    @pytest.mark.parametrize("name", ["isorank", "nsd", "grasp", "lrea"])
    def test_counters_identical_across_runs(self, name):
        first = counter_totals(_traced_run(name))
        second = counter_totals(_traced_run(name))
        assert first == second
        assert first  # a traced run emits at least one counter

    @pytest.mark.parametrize("name", ["isorank", "grasp"])
    def test_fake_clock_times_identical_across_runs(self, name):
        """Under an injected clock the recorded times depend only on the
        number and order of clock reads — i.e. on the trace structure —
        so two runs must agree exactly, proving nothing times off the
        real wall clock while the fake is installed."""
        first = _traced_run(name, clock=FakeClock())
        second = _traced_run(name, clock=FakeClock())

        def times(payload):
            def walk(entry):
                yield (entry["stage"], entry["wall_time"], entry["cpu_time"])
                for child in entry["children"]:
                    yield from walk(child)
            return [item for root in payload["spans"]
                    for item in walk(root)]

        assert times(first) == times(second)
        assert all(wall > 0 for _stage, wall, _cpu in times(first))


class TestCachedGoldenStructures:
    """The artifact cache only *adds* ``cache_*`` counters inside the
    spans whose producers it wraps: stripping them from a cold cached
    run recovers the uncached golden exactly, and the cache toggle
    without an active scope changes nothing at all."""

    @staticmethod
    def _strip_cache(structure):
        def strip(entry):
            stage, status, counters, children = entry
            return (
                stage, status,
                tuple(c for c in counters if not c.startswith("cache_")),
                tuple(strip(child) for child in children),
            )
        return tuple(strip(entry) for entry in structure)

    @staticmethod
    def _counter_names(structure):
        names = set()

        def walk(entry):
            names.update(entry[2])
            for child in entry[3]:
                walk(child)

        for entry in structure:
            walk(entry)
        return names

    @pytest.mark.parametrize("name", ["isorank", "nsd", "grasp"])
    def test_cold_cached_structure_is_golden_plus_cache_counters(self, name):
        from repro.cache import artifact_cache, caching

        with caching(True), artifact_cache():
            structure = trace_structure(_traced_run(name))
        assert self._strip_cache(structure) == GOLDEN[name]
        counters = self._counter_names(structure)
        assert "cache_misses" in counters  # cold scope: producers ran
        assert "cache_bytes" in counters

    def test_warm_cached_grasp_reports_only_hits(self):
        """A fully warm cell performs zero eigensolves: the producer
        counter disappears from the spectral span and every lookup is a
        hit."""
        from repro.cache import artifact_cache, caching

        with caching(True), artifact_cache():
            _traced_run("grasp")
            structure = trace_structure(_traced_run("grasp"))
        counters = self._counter_names(structure)
        assert "cache_hits" in counters
        assert "cache_misses" not in counters
        assert "eigensolver_calls" not in counters

    def test_toggle_without_scope_leaves_goldens_untouched(self):
        from repro.cache import caching

        with caching(True):
            structure = trace_structure(_traced_run("grasp"))
        assert structure == GOLDEN["grasp"]


class TestGoldenCounterValues:
    def test_isorank_iteration_count_pinned(self):
        """The counter carries the *total* for the run; for a seeded run
        on a fixed pair that total is exact, not approximate."""
        first = counter_totals(_traced_run("isorank"))
        assert first["power_iterations"] >= 1
        assert first["jv_augmenting_steps"] == PAIR.source.num_nodes

    def test_grasp_counts_one_eigensolve_per_graph(self):
        totals = counter_totals(_traced_run("grasp"))
        assert totals["eigensolver_calls"] == 2  # source + target
