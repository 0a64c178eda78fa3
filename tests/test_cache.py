"""Tests for the content-addressed artifact cache (:mod:`repro.cache`).

Three contracts under test:

1. **Identity** — ``Graph.content_digest()`` (and the ``__hash__`` derived
   from it) is a pure function of graph content: stable across processes
   and ``PYTHONHASHSEED`` values, different for different graphs.
2. **Cache mechanics** — keying on ``(digest, artifact, params)``,
   LRU-by-bytes eviction, read-only freezing, pass-through when disabled,
   scope nesting, stats and counters.
3. **Accessor integration** — the wrapped producers (normalizations,
   eigenpairs, degree prior, embedding bases) hit the cache within a
   scope and behave exactly as before outside one; in particular, a cell
   performs at most one ``laplacian_eigenpairs`` per (graph, k), proven
   by the ``eigensolver_calls`` counter.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.cache import (
    DEFAULT_MAX_BYTES,
    ArtifactCache,
    active_cache,
    artifact_cache,
    cached_artifact,
    caching,
    caching_enabled,
    canonicalize_params,
)
from repro.graphs import Graph, powerlaw_cluster_graph
from repro.graphs.matrices import (
    column_stochastic,
    normalized_adjacency,
    normalized_laplacian,
    row_stochastic,
)
from repro.spectral import laplacian_eigenpairs

ROOT = Path(__file__).resolve().parent.parent

G = powerlaw_cluster_graph(50, 3, 0.3, seed=11)
H = powerlaw_cluster_graph(50, 3, 0.3, seed=12)


# ----------------------------------------------------------------------
# Graph identity


class TestContentDigest:
    def test_equal_graphs_digest_equally(self):
        twin = Graph(G.num_nodes, G.edges())
        assert twin.content_digest() == G.content_digest()
        assert hash(twin) == hash(G)

    def test_different_graphs_digest_differently(self):
        assert G.content_digest() != H.content_digest()
        assert Graph(3, [(0, 1)]).content_digest() != \
            Graph(4, [(0, 1)]).content_digest()

    def test_digest_ignores_edge_input_order(self):
        a = Graph(4, [(0, 1), (1, 2), (2, 3)])
        b = Graph(4, [(3, 2), (2, 1), (1, 0)])  # reversed pairs, reversed order
        assert a.content_digest() == b.content_digest()

    def test_digest_is_16_bytes_and_cached(self):
        digest = G.content_digest()
        assert isinstance(digest, bytes) and len(digest) == 16
        assert G.content_digest() is digest  # memoized on the instance

    def test_empty_graph_digest(self):
        assert Graph.empty(5).content_digest() != \
            Graph.empty(6).content_digest()

    def test_digest_stable_across_hash_seeds(self):
        """The regression the salted ``hash()`` bug would fail: digests
        and ``hash(graph)`` agree across processes started with different
        PYTHONHASHSEED values."""
        script = (
            "from repro.graphs import powerlaw_cluster_graph\n"
            "g = powerlaw_cluster_graph(50, 3, 0.3, seed=11)\n"
            "print(g.content_digest().hex(), hash(g))\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(ROOT / "src") + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1  # identical digest AND identical hash
        digest_hex, graph_hash = outputs.pop().split()
        assert digest_hex == G.content_digest().hex()
        assert int(graph_hash) == hash(G)


# ----------------------------------------------------------------------
# Parameter canonicalization


class TestCanonicalizeParams:
    def test_empty_and_none_are_equal(self):
        assert canonicalize_params(None) == canonicalize_params({}) == ()

    def test_order_insensitive(self):
        assert canonicalize_params({"a": 1, "b": 2}) == \
            canonicalize_params({"b": 2, "a": 1})

    def test_numpy_scalars_match_python_scalars(self):
        assert canonicalize_params({"k": np.int64(7)}) == \
            canonicalize_params({"k": 7})
        assert canonicalize_params({"t": np.float64(0.5)}) == \
            canonicalize_params({"t": 0.5})

    def test_int_and_float_of_same_value_differ(self):
        # 1 and 1.0 may drive a producer differently (dtype, branching).
        assert canonicalize_params({"k": 1}) != canonicalize_params({"k": 1.0})

    def test_sequences_canonicalize_to_tuples(self):
        assert canonicalize_params({"t": [0.1, 0.2]}) == \
            canonicalize_params({"t": (0.1, 0.2)})
        assert canonicalize_params({"t": np.array([0.1, 0.2])}) == \
            canonicalize_params({"t": [0.1, 0.2]})

    def test_nested_dicts_and_none(self):
        assert canonicalize_params({"o": {"b": None, "a": 1}}) == \
            canonicalize_params({"o": {"a": 1, "b": None}})

    def test_result_is_hashable(self):
        hash(canonicalize_params({"k": 3, "times": [0.1], "mode": "x"}))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonicalize_params({"fn": object()})


# ----------------------------------------------------------------------
# Cache mechanics


class TestArtifactCache:
    def test_miss_then_hit_returns_same_object(self):
        cache = ArtifactCache()
        calls = []

        def produce():
            calls.append(1)
            return np.arange(8, dtype=np.float64)

        first = cache.get_or_compute(G, "thing", produce)
        second = cache.get_or_compute(G, "thing", produce)
        assert first is second
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_keying_separates_graph_artifact_and_params(self):
        cache = ArtifactCache()
        make = lambda: np.zeros(4)
        cache.get_or_compute(G, "a", make)
        cache.get_or_compute(H, "a", make)          # other graph
        cache.get_or_compute(G, "b", make)          # other artifact
        cache.get_or_compute(G, "a", make, params={"k": 2})  # other params
        assert cache.misses == 4 and cache.hits == 0
        cache.get_or_compute(G, "a", make)
        assert cache.hits == 1

    def test_values_are_frozen_read_only(self):
        cache = ArtifactCache()
        arr = cache.get_or_compute(G, "arr", lambda: np.ones(4))
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 5.0
        mat = cache.get_or_compute(
            G, "mat", lambda: sparse.eye(4, format="csr"))
        assert not mat.data.flags.writeable
        with pytest.raises(ValueError):
            mat.data[0] = 5.0
        pair = cache.get_or_compute(
            G, "pair", lambda: (np.ones(2), np.ones(3)))
        assert all(not item.flags.writeable for item in pair)

    def test_lru_eviction_by_bytes(self):
        one_kb = np.zeros(128)  # 1024 bytes of float64
        cache = ArtifactCache(max_bytes=3 * one_kb.nbytes)
        for name in "abc":
            cache.get_or_compute(G, name, lambda: np.zeros(128))
        assert len(cache) == 3 and cache.evictions == 0
        cache.get_or_compute(G, "a", lambda: np.zeros(128))  # refresh a
        cache.get_or_compute(G, "d", lambda: np.zeros(128))  # evicts b (LRU)
        assert cache.evictions == 1
        before = cache.misses
        cache.get_or_compute(G, "a", lambda: np.zeros(128))  # still resident
        cache.get_or_compute(G, "c", lambda: np.zeros(128))
        assert cache.misses == before  # both hits
        cache.get_or_compute(G, "b", lambda: np.zeros(128))  # was evicted
        assert cache.misses == before + 1

    def test_oversized_artifact_returned_uncached(self):
        cache = ArtifactCache(max_bytes=64)
        big = cache.get_or_compute(G, "big", lambda: np.zeros(1024))
        assert big.shape == (1024,)
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.evictions == 0  # nothing else was sacrificed

    def test_stats_and_hit_rate(self):
        cache = ArtifactCache()
        assert cache.hit_rate() == 0.0
        cache.get_or_compute(G, "x", lambda: np.zeros(4))
        cache.get_or_compute(G, "x", lambda: np.zeros(4))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["current_bytes"] == stats["inserted_bytes"] == 32
        assert stats["by_artifact"] == {"x": {"hits": 1, "misses": 1}}
        assert cache.hit_rate() == 0.5

    def test_clear_preserves_stats(self):
        cache = ArtifactCache()
        cache.get_or_compute(G, "x", lambda: np.zeros(4))
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.misses == 1

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_bytes=0)

    def test_repr_mentions_occupancy(self):
        assert "entries=0" in repr(ArtifactCache())


# ----------------------------------------------------------------------
# Scoping and the global toggle


class TestScoping:
    def test_disabled_is_pure_passthrough(self):
        calls = []

        def produce():
            calls.append(1)
            return np.ones(4)

        first = cached_artifact(G, "x", produce)
        second = cached_artifact(G, "x", produce)
        assert first is not second
        assert len(calls) == 2
        assert first.flags.writeable  # uncached values stay mutable

    def test_scope_without_toggle_is_inert(self):
        with artifact_cache() as cache:
            cached_artifact(G, "x", lambda: np.ones(4))
        assert cache.misses == 0  # never consulted: toggle stayed off

    def test_toggle_without_scope_is_inert(self):
        with caching(True):
            assert caching_enabled()
            assert active_cache() is None
            value = cached_artifact(G, "x", lambda: np.ones(4))
            assert value.flags.writeable
        assert not caching_enabled()

    def test_set_caching_restores_via_context(self):
        with caching(True):
            with caching(False):
                assert not caching_enabled()
            assert caching_enabled()

    def test_nested_scopes_innermost_wins(self):
        with caching(True), artifact_cache() as outer:
            cached_artifact(G, "x", lambda: np.ones(4))
            with artifact_cache() as inner:
                assert active_cache() is inner
                cached_artifact(G, "x", lambda: np.ones(4))
                assert inner.misses == 1  # cold: not served by outer
            assert active_cache() is outer
            cached_artifact(G, "x", lambda: np.ones(4))
            assert outer.hits == 1 and outer.misses == 1

    def test_scope_accepts_existing_cache(self):
        warm = ArtifactCache()
        with caching(True):
            with artifact_cache(cache=warm):
                cached_artifact(G, "x", lambda: np.ones(4))
            with artifact_cache(cache=warm):
                cached_artifact(G, "x", lambda: np.ones(4))
        assert warm.hits == 1 and warm.misses == 1

    def test_default_bound(self):
        assert ArtifactCache().max_bytes == DEFAULT_MAX_BYTES


# ----------------------------------------------------------------------
# Accessor integration


class TestAccessorIntegration:
    def test_normalizations_share_entries(self):
        with caching(True), artifact_cache() as cache:
            a1 = normalized_adjacency(G)
            a2 = normalized_adjacency(G)
            assert a1 is a2
            for accessor in (normalized_laplacian, row_stochastic,
                             column_stochastic):
                m1 = accessor(G)
                m2 = accessor(G)
                assert m1 is m2
        by = cache.stats()["by_artifact"]
        assert by["normalized_adjacency"]["misses"] == 1
        # normalized_laplacian's producer reuses the cached adjacency.
        assert by["normalized_adjacency"]["hits"] >= 2

    def test_dense_requests_are_fresh_mutable_copies(self):
        with caching(True), artifact_cache():
            d1 = normalized_laplacian(G, dense=True)
            d2 = normalized_laplacian(G, dense=True)
        assert d1 is not d2
        assert d1.flags.writeable  # toarray() of the frozen CSR is a copy
        assert np.array_equal(d1, d2)

    def test_uncached_matches_cached_values(self):
        plain = {
            "na": normalized_adjacency(G).toarray(),
            "nl": normalized_laplacian(G).toarray(),
            "rs": row_stochastic(G).toarray(),
            "cs": column_stochastic(G).toarray(),
        }
        with caching(True), artifact_cache():
            assert np.array_equal(normalized_adjacency(G).toarray(),
                                  plain["na"])
            assert np.array_equal(normalized_laplacian(G).toarray(),
                                  plain["nl"])
            assert np.array_equal(row_stochastic(G).toarray(), plain["rs"])
            assert np.array_equal(column_stochastic(G).toarray(),
                                  plain["cs"])

    def test_one_eigensolve_per_graph_and_k(self):
        """The acceptance criterion: within a scope, repeated
        ``laplacian_eigenpairs`` calls with the same (graph, k) run the
        eigensolver exactly once — the counter lives inside the producer,
        so hits do not inflate it."""
        from repro.observability import capture_trace, counter_totals, tracing

        with tracing(True), capture_trace() as collector:
            with caching(True), artifact_cache() as cache:
                for _ in range(3):
                    laplacian_eigenpairs(G, k=10)
                laplacian_eigenpairs(H, k=10)
        totals = counter_totals(collector.to_payload())
        assert totals["eigensolver_calls"] == 2  # once per graph
        assert totals["cache_misses"] == cache.misses
        assert totals["cache_hits"] == cache.hits == 2
        by = cache.stats()["by_artifact"]["laplacian_eigenpairs"]
        assert by == {"hits": 2, "misses": 2}

    def test_full_spectrum_k_aliases_share_one_entry(self):
        n = G.num_nodes
        with caching(True), artifact_cache() as cache:
            full_none = laplacian_eigenpairs(G, k=None)
            full_n = laplacian_eigenpairs(G, k=n)
            full_over = laplacian_eigenpairs(G, k=n + 5)
        assert full_none[1] is full_n[1] is full_over[1]
        assert cache.stats()["by_artifact"]["laplacian_eigenpairs"] == \
            {"hits": 2, "misses": 1}

    def test_heat_kernel_diagonals_cached_when_graph_given(self):
        from repro.spectral import heat_kernel_diagonals

        vals, vecs = laplacian_eigenpairs(G, k=8)
        times = [0.1, 1.0, 10.0]
        plain = heat_kernel_diagonals(vals, vecs, times)
        with caching(True), artifact_cache() as cache:
            d1 = heat_kernel_diagonals(vals, vecs, times, graph=G)
            d2 = heat_kernel_diagonals(vals, vecs, times, graph=G)
        assert d1 is d2
        assert np.array_equal(plain, d1)
        assert cache.stats()["by_artifact"]["heat_kernel_diagonals"] == \
            {"hits": 1, "misses": 1}

    def test_embedding_bases_cached(self):
        from repro.embedding import netmf_embeddings, structural_features

        with caching(True), artifact_cache() as cache:
            e1 = netmf_embeddings(G, dim=16, window=3)
            e2 = netmf_embeddings(G, dim=16, window=3)
            f1 = structural_features(G)
            f2 = structural_features(G)
        assert e1 is e2 and f1 is f2
        by = cache.stats()["by_artifact"]
        assert by["netmf_embeddings"]["misses"] == 1
        assert by["structural_features"]["misses"] == 1
        assert np.array_equal(e1, netmf_embeddings(G, dim=16, window=3))

    def test_structural_features_default_width_aliases_explicit(self):
        from repro.embedding import structural_features

        default = structural_features(G)
        width = default.shape[1]
        with caching(True), artifact_cache() as cache:
            structural_features(G)
            structural_features(G, num_buckets=width)
        assert cache.stats()["by_artifact"]["structural_features"] == \
            {"hits": 1, "misses": 1}

    def test_degree_prior_orientation_has_distinct_entries(self):
        from repro.util import degree_prior_pair

        with caching(True), artifact_cache() as cache:
            forward = degree_prior_pair(G, H)
            backward = degree_prior_pair(H, G)
        assert forward.shape == (G.num_nodes, H.num_nodes)
        assert np.array_equal(backward, forward.T)
        assert cache.stats()["by_artifact"]["degree_prior"] == \
            {"hits": 0, "misses": 2}

    def test_nsd_does_not_mutate_the_shared_prior(self):
        """The in-place normalization NSD used to apply would poison the
        shared prior for every later consumer; frozen artifacts turn that
        into a loud error, and NSD now normalizes out-of-place."""
        from repro.algorithms import get_algorithm
        from repro.util import degree_prior_pair

        with caching(True), artifact_cache():
            before = degree_prior_pair(G, H).copy()
            get_algorithm("nsd", prior="degree").align(G, H, seed=0)
            after = degree_prior_pair(G, H)
        assert np.array_equal(before, after)
