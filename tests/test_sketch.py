"""Sketch policy and sparse-first similarity: the neutrality suite.

Three contracts are pinned here:

* a sketch policy never changes the Laplacian eigenpairs or the NetMF
  embeddings: both are exact, the same arrays with or without one;
* below the policy threshold, a sketch-enabled run is **bit-identical**
  to an exact one — serial or parallel, align() or run_experiment();
* above the threshold, the embedding algorithms go sparse end to end,
  with the provenance counters (``eigensolver_calls``,
  ``similarity_topk``, ``dense_bypass``, ``assignment_densified``)
  proving which path ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.context import current_context
from repro.exceptions import AlgorithmError, ExperimentError
from repro.graphs import powerlaw_cluster_graph
from repro.sketch import (
    SIMILARITY_TOPK,
    SketchPolicy,
    sketch_policy_for,
    sketching,
)
from repro.spectral import laplacian_eigenpairs, sketch_seed


def _explicit_csr(dense):
    """CSR storing every entry of ``dense`` explicitly, zeros included."""
    n, k = dense.shape
    return sparse.csr_matrix(
        (dense.ravel().astype(float), np.tile(np.arange(k), n),
         np.arange(0, n * k + 1, k)), shape=(n, k))


@st.composite
def full_patterns(draw):
    """Dense n x k similarities (1 <= n, k <= 8): integers in [-3, 3]
    (zeros, negatives and ties), or a shuffled run of distinct integers
    around zero (tie-free)."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        low = -(n * k // 2)
        values = draw(st.permutations(range(low, low + n * k)))
    else:
        values = draw(st.lists(st.integers(-3, 3), min_size=n * k,
                               max_size=n * k))
    return np.array(values, dtype=float).reshape(n, k)


@st.composite
def thin_square_patterns(draw):
    """Square n x n candidate sets (4 <= n <= 12) of density <= 1/4 with
    a full diagonal, carrying integers in [-3, 3] (explicit zeros too)."""
    n = draw(st.integers(4, 12))
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    extra = draw(st.lists(st.sampled_from(off_diagonal), unique=True,
                          max_size=n * n // 4 - n))
    cells = [(i, i) for i in range(n)] + extra
    values = draw(st.lists(st.integers(-3, 3), min_size=len(cells),
                           max_size=len(cells)))
    rows, cols = (np.array(axis) for axis in zip(*cells))
    return sparse.coo_matrix((np.array(values, dtype=float), (rows, cols)),
                             shape=(n, n)).tocsr()


class TestSketchPolicy:
    def test_defaults_validate(self):
        assert SketchPolicy().threshold == 4096
        assert SIMILARITY_TOPK == 10

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            SketchPolicy(**kwargs)

    def test_applies_only_above_threshold(self):
        policy = SketchPolicy(threshold=100)
        assert not policy.applies_to(100)
        assert policy.applies_to(101)
        assert policy.applies_to(50, 101)
        assert not policy.applies_to()

    def test_scope_nesting_and_shadowing(self):
        assert current_context().sketch is None
        outer = SketchPolicy(threshold=10)
        with sketching(outer):
            assert current_context().sketch is outer
            with sketching(None):  # explicit opt-out shadows the outer
                assert current_context().sketch is None
                assert sketch_policy_for(10 ** 9) is None
            assert current_context().sketch is outer
        assert current_context().sketch is None

    def test_policy_for_asks_scope_and_size_together(self):
        assert sketch_policy_for(10 ** 9) is None  # no scope open
        with sketching(SketchPolicy(threshold=100)):
            assert sketch_policy_for(50) is None
            assert sketch_policy_for(101) is not None
            assert sketch_policy_for(50, 101) is not None


class TestSketchSeed:
    def test_deterministic(self):
        assert (sketch_seed(b"graph", k=4, rank=8)
                == sketch_seed(b"graph", rank=8, k=4))

    def test_sensitive_to_digest_and_params(self):
        base = sketch_seed(b"graph", k=4)
        assert sketch_seed(b"other", k=4) != base
        assert sketch_seed(b"graph", k=5) != base


class TestSketchedEigenpairs:
    """A sketch policy leaves the Laplacian eigenpairs exact: above the
    dense cutoff one deflated Lanczos solver serves every truncated
    spectrum, policy or not.  The graph is a powerlaw one, whose gapless
    low spectrum no randomized range finder can separate."""

    GRAPH = powerlaw_cluster_graph(900, 3, 0.2, seed=7)
    POLICY = SketchPolicy(threshold=500)

    def test_sketched_run_is_deterministic(self):
        with sketching(self.POLICY):
            first = laplacian_eigenpairs(self.GRAPH, k=6)
            second = laplacian_eigenpairs(self.GRAPH, k=6)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_below_threshold_bit_identical(self):
        small = powerlaw_cluster_graph(120, 3, 0.2, seed=4)
        exact = laplacian_eigenpairs(small, k=5)
        with sketching(SketchPolicy(threshold=500)):
            sketched_off = laplacian_eigenpairs(small, k=5)
        assert np.array_equal(exact[0], sketched_off[0])
        assert np.array_equal(exact[1], sketched_off[1])

    def test_cache_key_holds_the_fixed_parameters(self):
        """Above the dense cutoff the key names the solver and nothing
        of the policy, so entries that earlier solvers wrote (the
        shift-invert solve, or the randomized sketch under a policy) are
        recomputed, never served."""
        from repro.cache import artifact_cache, caching, canonicalize_params
        with caching(True), artifact_cache() as cache, \
                sketching(self.POLICY):
            laplacian_eigenpairs(self.GRAPH, k=6)
        digest = self.GRAPH.content_digest()
        assert (digest, "laplacian_eigenpairs", canonicalize_params(
            {"k": 6, "solver": "lanczos"})) in cache
        for stale in ({"k": 6}, {"k": 6, "sketch": {
                "method": "rsvd", "rank": 128, "oversampling": 16,
                "power_iters": 8}}):
            assert (digest, "laplacian_eigenpairs",
                    canonicalize_params(stale)) not in cache

    def test_policy_leaves_eigenpairs_bit_identical(self):
        """Under a policy the arrays are bit-identical to the arrays
        without one, and with the cache on both calls address one entry:
        the second is a hit."""
        from repro.cache import artifact_cache, caching
        exact = laplacian_eigenpairs(self.GRAPH, k=6)
        with sketching(self.POLICY):
            under_policy = laplacian_eigenpairs(self.GRAPH, k=6)
        assert np.array_equal(exact[0], under_policy[0])
        assert np.array_equal(exact[1], under_policy[1])
        with caching(True), artifact_cache() as cache:
            laplacian_eigenpairs(self.GRAPH, k=6)
            with sketching(self.POLICY):
                laplacian_eigenpairs(self.GRAPH, k=6)
        assert cache.stats()["by_artifact"]["laplacian_eigenpairs"] == \
            {"hits": 1, "misses": 1}


class TestSketchedNetMF:
    """A sketch policy leaves the NetMF embedding exact: one symmetric
    eigensolve serves every graph size, policy or not (its fidelity
    oracle is ``TestNetmfOracle`` in test_embedding.py)."""

    GRAPH = powerlaw_cluster_graph(150, 3, 0.2, seed=9)

    def test_cache_key_holds_the_fixed_parameters(self):
        """The key names the solver and nothing of the policy, so entries
        that earlier paths wrote (the dense SVD, or the randomized SVD
        under a policy) are recomputed, never served."""
        from repro.cache import artifact_cache, caching, canonicalize_params
        from repro.embedding.netmf import netmf_embeddings
        with caching(True), artifact_cache() as cache, \
                sketching(SketchPolicy(threshold=100)):
            netmf_embeddings(self.GRAPH, dim=16, window=4)
        digest = self.GRAPH.content_digest()
        fixed = {"dim": 16, "window": 4, "negative": 1.0}
        assert (digest, "netmf_embeddings", canonicalize_params(
            {**fixed, "solver": "eigh"})) in cache
        for stale in (fixed, {**fixed, "sketch": {
                "method": "rsvd", "rank": 16, "oversampling": 8,
                "power_iters": 2}}):
            assert (digest, "netmf_embeddings",
                    canonicalize_params(stale)) not in cache

    def test_policy_leaves_embeddings_bit_identical(self):
        """A policy whose threshold lies above or below n: the arrays are
        bit-identical to the arrays without one, and with the cache on
        both calls address one entry: the second is a hit."""
        from repro.cache import artifact_cache, caching
        from repro.embedding.netmf import netmf_embeddings
        exact = netmf_embeddings(self.GRAPH, dim=16, window=4)
        for threshold in (500, 100):  # n = 150
            with sketching(SketchPolicy(threshold=threshold)):
                under_policy = netmf_embeddings(self.GRAPH, dim=16, window=4)
            assert np.array_equal(exact, under_policy)
        with caching(True), artifact_cache() as cache:
            netmf_embeddings(self.GRAPH, dim=16, window=4)
            with sketching(SketchPolicy(threshold=100)):
                netmf_embeddings(self.GRAPH, dim=16, window=4)
        assert cache.stats()["by_artifact"]["netmf_embeddings"] == \
            {"hits": 1, "misses": 1}


class TestTopkSimilarity:
    def test_kernels(self):
        from repro.embedding.topk import topk_similarity
        rng = np.random.default_rng(0)
        src, tgt = rng.standard_normal((12, 4)), rng.standard_normal((15, 4))
        exp_mat = topk_similarity(src, tgt, k=3, kernel="exp")
        neg_mat = topk_similarity(src, tgt, k=3, kernel="neg")
        assert exp_mat.shape == (12, 15) and exp_mat.nnz == 36
        # Same sparsity pattern, exp-transformed values.
        assert (exp_mat != 0).nnz == 36
        assert np.allclose(np.exp(neg_mat[exp_mat.nonzero()]),
                           exp_mat[exp_mat.nonzero()])
        with pytest.raises(AlgorithmError):
            topk_similarity(src, tgt, k=3, kernel="cosine")

    def test_neg_kernel_survives_large_distances(self):
        from repro.embedding.topk import topk_similarity
        src = np.zeros((2, 3))
        tgt = np.full((4, 3), 40.0)  # d^2 = 4800: exp underflows to 0
        neg = topk_similarity(src, tgt, k=2, kernel="neg")
        assert neg.nnz == 4
        assert np.all(neg.data < 0)


class TestSparseAssignment:
    def test_exact_sparse_matches_masked_dense(self):
        from scipy.optimize import linear_sum_assignment
        from repro.assignment.sparse import sparse_max_weight_matching
        rng = np.random.default_rng(5)
        n, k = 40, 5
        rows = np.repeat(np.arange(n), k)
        cols = np.concatenate([
            np.sort(rng.choice(n, size=k, replace=False)) for _ in range(n)])
        # Guarantee feasibility: include the diagonal.
        rows = np.concatenate([rows, np.arange(n)])
        cols = np.concatenate([cols, np.arange(n)])
        data = rng.random(rows.shape[0]) - 0.5  # negatives included
        mat = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        mapping = sparse_max_weight_matching(mat)
        assert np.all(mapping >= 0)
        # Objective equals the dense LAP optimum on the masked matrix.
        dense = mat.toarray()
        eligible = np.asarray((mat != 0).toarray())
        cost = np.where(eligible, -dense, 1e6)
        r, c = linear_sum_assignment(cost)
        assert np.isclose(dense[np.arange(n), mapping].sum(),
                          dense[r, c].sum())

    def test_densification_counted(self):
        from repro.assignment.sparse import sparse_max_weight_matching
        from repro.observability import (capture_trace, counter_totals,
                                         span, tracing)
        dense_pattern = sparse.csr_matrix(np.random.default_rng(0)
                                          .random((8, 8)))  # density 1.0
        with tracing(True), capture_trace() as trace:
            with span("test"):
                sparse_max_weight_matching(dense_pattern)
        totals = counter_totals(trace.to_payload())
        assert totals.get("assignment_densified") == 1

    @given(full_patterns())
    @settings(max_examples=300, deadline=None)
    def test_sparse_extractors_match_dense_on_full_pattern(self, dense):
        """With every entry stored, the sparse extractors see what the
        dense ones see: NN and JV reach the dense objective on every
        draw, SG and NN-1to1 return the dense mapping on tie-free ones."""
        from repro.assignment import extract_alignment
        sp = _explicit_csr(dense)
        assert sp.nnz == dense.size
        tie_free = np.unique(dense).size == dense.size

        def objective(mapping):
            matched = np.flatnonzero(mapping >= 0)
            return dense[matched, mapping[matched]].sum()

        for method in ("nn", "jv", "sg", "nn-1to1"):
            expected = extract_alignment(dense, method)
            with sketching(SketchPolicy(threshold=1)):
                got = extract_alignment(sp, method)
            if method in ("nn", "jv"):
                assert (got >= 0).sum() == (expected >= 0).sum(), method
                assert objective(got) == objective(expected), method
            elif tie_free:
                assert np.array_equal(got, expected), method

    @given(thin_square_patterns())
    @settings(max_examples=150, deadline=None)
    def test_jv_on_thin_square_pattern_matches_masked_optimum(self, sp):
        """At density <= 1/4 JV runs LAPJVsp on the candidate set itself
        (nothing is densified) and reaches scipy's optimum on the
        masked matrix, explicit zeros being candidates like any other."""
        from scipy.optimize import linear_sum_assignment
        from repro.assignment import extract_alignment
        from repro.observability import (capture_trace, counter_totals,
                                         span, tracing)
        n = sp.shape[0]
        dense = sp.toarray()
        eligible = np.zeros((n, n), dtype=bool)
        coo = sp.tocoo()  # stored entries; nonzero() would skip zeros
        eligible[coo.row, coo.col] = True
        assert eligible.sum() == sp.nnz <= n * n // 4
        with sketching(SketchPolicy(threshold=1)), tracing(True), \
                capture_trace() as trace:
            with span("test"):
                mapping = extract_alignment(sp, "jv")
        assert counter_totals(trace.to_payload()).get(
            "assignment_densified", 0) == 0
        assert np.array_equal(np.sort(mapping), np.arange(n))
        assert eligible[np.arange(n), mapping].all()
        rows, cols = linear_sum_assignment(np.where(eligible, -dense, 1e6))
        assert dense[np.arange(n), mapping].sum() == dense[rows, cols].sum()

    def test_sparse_extractors_respect_candidate_set(self):
        from repro.assignment.sparse import (
            sparse_nearest_neighbor,
            sparse_nearest_neighbor_one_to_one,
        )
        # Row 1 has no candidates at all; row 0's only candidate is col 2.
        mat = sparse.csr_matrix(
            (np.array([-3.0]), (np.array([0]), np.array([2]))), shape=(2, 4))
        assert np.array_equal(sparse_nearest_neighbor(mat), [2, -1])
        assert np.array_equal(sparse_nearest_neighbor_one_to_one(mat),
                              [2, -1])

    def test_extract_alignment_routes_sparse_under_policy(self):
        from repro.assignment import extract_alignment
        rng = np.random.default_rng(3)
        n, k = 30, 4
        rows = np.concatenate([np.repeat(np.arange(n), k), np.arange(n)])
        cols = np.concatenate([
            rng.integers(0, n, size=n * k), np.arange(n)])
        data = rng.random(rows.shape[0]) + 0.5
        mat = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        with sketching(SketchPolicy(threshold=10)):
            for method in ("nn", "nn-1to1", "sg", "jv", "mwm"):
                mapping = extract_alignment(mat, method)
                assert mapping.shape == (n,)
                assert mapping.max() < n


class TestSparseFirstPipeline:
    """End-to-end: embedding algorithms go sparse above the threshold."""

    PAIR_N = 700

    @classmethod
    def _pair(cls):
        from repro.noise import make_pair
        graph = powerlaw_cluster_graph(cls.PAIR_N, 3, 0.2, seed=8)
        return make_pair(graph, "one-way", 0.01, seed=9)

    def _run(self, name, policy, assignment="sg", **params):
        from repro.algorithms import get_algorithm
        from repro.observability import tracing
        pair = self._pair()
        algorithm = get_algorithm(name, **params)
        with sketching(policy), tracing(True):
            return algorithm.align(pair.source, pair.target,
                                   assignment=assignment, seed=0)

    @staticmethod
    def _totals(result):
        from repro.observability import counter_totals
        return counter_totals(result.trace)

    def test_grasp_sparse_similarity_and_counters(self):
        result = self._run("grasp", SketchPolicy(threshold=500),
                           k=10, q=20)
        assert sparse.issparse(result.similarity)
        totals = self._totals(result)
        # Both eigenbases come from the exact solver, never a sketch.
        assert totals.get("eigensolver_calls", 0) == 2
        assert totals.get("similarity_topk", 0) > 0
        assert totals.get("dense_bypass", 0) == 0
        assert totals.get("assignment_densified", 0) == 0
        assert (result.mapping >= 0).sum() > 0

    def test_regal_sparse_similarity(self):
        result = self._run("regal", SketchPolicy(threshold=500),
                           assignment="nn")
        assert sparse.issparse(result.similarity)
        totals = self._totals(result)
        assert totals.get("similarity_topk", 0) > 0
        assert totals.get("dense_bypass", 0) == 0

    def test_cone_sparse_extraction_but_honest_bypass(self):
        result = self._run("cone", SketchPolicy(threshold=500),
                           assignment="nn", dim=16, window=4, iterations=2,
                           sinkhorn_iter=20)
        assert sparse.issparse(result.similarity)
        totals = self._totals(result)
        # CONE's Sinkhorn refinement is still dense: the bypass counter
        # and diagnostic must say so.
        assert totals.get("dense_bypass", 0) == 1
        assert any(d.kind == "dense_bypass" for d in result.diagnostics)

    def test_dense_algorithm_audited_above_threshold(self):
        result = self._run("isorank", SketchPolicy(threshold=500),
                           assignment="sg")
        totals = self._totals(result)
        assert totals.get("dense_bypass", 0) == 1
        assert any(d.kind == "dense_bypass" for d in result.diagnostics)

    def test_below_threshold_align_bit_identical(self):
        from repro.algorithms import get_algorithm
        from repro.noise import make_pair
        pair = make_pair(powerlaw_cluster_graph(60, 3, 0.3, seed=5),
                         "one-way", 0.02, seed=6)
        for name in ("grasp", "regal"):
            algorithm = get_algorithm(name)
            exact = algorithm.align(pair.source, pair.target, seed=0)
            with sketching(SketchPolicy()):  # default threshold 4096
                sketched_off = algorithm.align(pair.source, pair.target,
                                               seed=0)
            assert np.array_equal(exact.mapping, sketched_off.mapping)
            assert np.array_equal(np.asarray(exact.similarity),
                                  np.asarray(sketched_off.similarity))


class TestHarnessIntegration:
    @staticmethod
    def _config(**overrides):
        from repro.harness import ExperimentConfig
        base = dict(
            name="sketch-test",
            algorithms=("regal",),
            noise_types=("one-way",),
            noise_levels=(0.0, 0.02),
            repetitions=2,
            measures=("accuracy",),
            seed=0,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    @staticmethod
    def _records(table):
        return sorted(
            (r.algorithm, r.noise_level, r.repetition,
             tuple(sorted(r.measures.items())))
            for r in table.records
        )

    def test_config_validates_sketch_knobs(self):
        with pytest.raises(ExperimentError):
            self._config(sketch=True, sketch_threshold=0)
        assert self._config(sketch=True).sketch_policy() is not None
        assert self._config().sketch_policy() is None

    def test_sweep_below_threshold_identical_with_sketch_on_off(self):
        from repro.harness import run_experiment
        graph = powerlaw_cluster_graph(50, 3, 0.3, seed=1)
        plain = run_experiment(self._config(), {"pl": graph})
        sketchy = run_experiment(self._config(sketch=True), {"pl": graph})
        assert self._records(plain) == self._records(sketchy)

    def test_sweep_parallel_matches_serial_with_sketch(self):
        from repro.harness import run_experiment
        graph = powerlaw_cluster_graph(50, 3, 0.3, seed=1)
        serial = run_experiment(self._config(sketch=True), {"pl": graph})
        parallel = run_experiment(self._config(sketch=True, workers=2),
                                  {"pl": graph})
        assert self._records(serial) == self._records(parallel)
