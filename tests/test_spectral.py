"""Tests for the spectral substrate."""

import numpy as np
import pytest

from repro.exceptions import AlgorithmError
from repro.graphs import (
    Graph,
    cycle_graph,
    erdos_renyi_graph,
    normalized_laplacian,
    powerlaw_cluster_graph,
)
from repro.spectral import fix_signs, heat_kernel_diagonals, laplacian_eigenpairs


class TestEigenpairs:
    def test_full_spectrum(self, karate_like):
        vals, vecs = laplacian_eigenpairs(karate_like)
        assert vals.shape == (34,)
        assert vecs.shape == (34, 34)
        assert np.all(np.diff(vals) >= -1e-10)

    def test_partial_spectrum(self, karate_like):
        vals, vecs = laplacian_eigenpairs(karate_like, k=5)
        full_vals, _ = laplacian_eigenpairs(karate_like)
        assert np.allclose(vals, full_vals[:5], atol=1e-8)

    def test_eigen_equation(self, karate_like):
        lap = normalized_laplacian(karate_like, dense=True)
        vals, vecs = laplacian_eigenpairs(karate_like, k=4)
        assert np.allclose(lap @ vecs, vecs * vals[np.newaxis, :], atol=1e-8)

    def test_first_eigenvalue_zero_when_connected(self, pl_graph):
        vals, _ = laplacian_eigenpairs(pl_graph, k=2)
        assert vals[0] == pytest.approx(0.0, abs=1e-9)
        assert vals[1] > 1e-6

    def test_sparse_path_used_for_large_graphs(self):
        g = erdos_renyi_graph(700, 0.02, seed=0)  # above the dense cutoff
        vals, vecs = laplacian_eigenpairs(g, k=6)
        assert vals.shape == (6,)
        lap = normalized_laplacian(g, dense=True)
        assert np.allclose(lap @ vecs, vecs * vals[np.newaxis, :], atol=1e-6)

    def test_empty_graph_rejected(self):
        with pytest.raises(AlgorithmError):
            laplacian_eigenpairs(Graph(0))

    def test_sparse_solve_is_a_pure_function_of_the_graph(self):
        """ARPACK's default start vector comes from per-process random
        state that every solve advances; the sparse path must not depend
        on it, or a cache hit and a miss would differ in their bits."""
        from scipy.sparse.linalg import eigsh
        g = erdos_renyi_graph(700, 0.02, seed=0)  # above the dense cutoff
        first = laplacian_eigenpairs(g, k=6)
        other = normalized_laplacian(erdos_renyi_graph(650, 0.02, seed=1))
        eigsh(other.tocsc(), k=3, sigma=-1e-6, which="LM")
        second = laplacian_eigenpairs(g, k=6)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


class TestFixSigns:
    def test_idempotent(self, karate_like):
        _, vecs = laplacian_eigenpairs(karate_like, k=5)
        assert np.allclose(fix_signs(vecs), vecs)

    def test_flips_negative_peak(self):
        vecs = np.array([[0.1, -0.9], [0.9, 0.1]])
        fixed = fix_signs(vecs)
        assert fixed[1, 0] > 0
        assert fixed[0, 1] > 0

    def test_permutation_invariant_after_fixing(self, pl_graph):
        """Isomorphic graphs get the same eigenvectors up to the node relabeling."""
        from repro.graphs.operations import permute_graph
        rng = np.random.default_rng(0)
        perm = rng.permutation(pl_graph.num_nodes)
        permuted = permute_graph(pl_graph, perm)
        vals_a, vecs_a = laplacian_eigenpairs(pl_graph, k=4)
        vals_b, vecs_b = laplacian_eigenpairs(permuted, k=4)
        assert np.allclose(vals_a, vals_b, atol=1e-8)
        # Skip eigenvectors with nearly-repeated eigenvalues (rotation freedom).
        for j in range(4):
            gap_ok = (j == 0 or vals_a[j] - vals_a[j - 1] > 1e-6) and (
                j == 3 or vals_a[j + 1] - vals_a[j] > 1e-6
            )
            if gap_ok:
                assert np.allclose(np.abs(vecs_a[:, j]),
                                   np.abs(vecs_b[perm, j]), atol=1e-6)


class TestHeatKernelDiagonals:
    def test_shape(self, small_cycle):
        vals, vecs = laplacian_eigenpairs(small_cycle)
        diags = heat_kernel_diagonals(vals, vecs, [0.1, 1.0, 10.0])
        assert diags.shape == (3, 6)

    def test_matches_expm_diagonal(self, triangle):
        from scipy.linalg import expm
        lap = normalized_laplacian(triangle, dense=True)
        vals, vecs = laplacian_eigenpairs(triangle)
        diags = heat_kernel_diagonals(vals, vecs, [0.5])
        assert np.allclose(diags[0], np.diag(expm(-0.5 * lap)))


class TestEigshFallback:
    def test_arpack_failure_falls_back_to_dense_with_diagnostic(self, monkeypatch):
        from scipy.sparse.linalg import ArpackError

        from repro.diagnostics import capture_diagnostics
        from repro.spectral import decomposition

        def _broken_eigsh(*args, **kwargs):
            raise ArpackError(-9999, {-9999: "injected breakdown"})

        monkeypatch.setattr(decomposition, "eigsh", _broken_eigsh)
        graph = erdos_renyi_graph(650, 0.02, seed=3)  # above _DENSE_CUTOFF
        with capture_diagnostics() as events:
            vals, vecs = laplacian_eigenpairs(graph, k=4)
        assert vals.shape == (4,)
        assert vecs.shape == (650, 4)
        assert np.all(np.diff(vals) >= 0)
        assert any(e.kind == "eigsh_failure"
                   and e.fallback_used == "dense_eigh" for e in events)

    def test_non_arpack_error_propagates(self, monkeypatch):
        from repro.diagnostics import capture_diagnostics
        from repro.spectral import decomposition

        def _buggy_eigsh(*args, **kwargs):
            raise ValueError("a caller bug, not an ARPACK breakdown")

        monkeypatch.setattr(decomposition, "eigsh", _buggy_eigsh)
        graph = erdos_renyi_graph(650, 0.02, seed=3)
        with capture_diagnostics() as events:
            with pytest.raises(ValueError):
                laplacian_eigenpairs(graph, k=4)
        assert events == []


class TestIsolatedNodeGraph:
    """An isolated node has an all-zero normalized-Laplacian row: its
    ``e_i`` is a null vector of its own, outside ``D^½·1``."""

    @staticmethod
    def _isolated_node_graph():
        # erdos_renyi leaves node 649 untouched: wire a graph where the
        # last node has no edges at all, above the dense cutoff (600).
        base = erdos_renyi_graph(650, 0.02, seed=3)
        kept = [(u, v) for u, v in base.edges() if u != 649 and v != 649]
        return Graph(650, kept)

    def test_isolated_node_graph_end_to_end(self):
        """The call must return valid ascending eigenpairs, never raise."""
        graph = self._isolated_node_graph()
        vals, vecs = laplacian_eigenpairs(graph, k=4)
        assert vals.shape == (4,)
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))
        assert np.all(np.diff(vals) >= -1e-12)


def _disjoint_union(*graphs):
    edges, offset = [], 0
    for graph in graphs:
        edges.append(graph.edges() + offset)
        offset += graph.num_nodes
    return Graph(offset, np.vstack(edges))


def _null_basis(graph):
    """``D^½·1_C`` per component (``e_i`` for an isolated node), unit
    columns in the order scipy labels the components."""
    from scipy.sparse.csgraph import connected_components
    count, labels = connected_components(graph.adjacency(), directed=False)
    weights = np.sqrt(graph.degrees.astype(np.float64))
    weights[weights == 0] = 1.0
    basis = np.zeros((graph.num_nodes, count))
    basis[np.arange(graph.num_nodes), labels] = weights
    return basis / np.linalg.norm(basis, axis=0)


def _er_er_ring():
    er700 = erdos_renyi_graph(700, 10 / 699, seed=5)
    return _disjoint_union(er700, er700, cycle_graph(10))


# Inputs above the dense cutoff, built on demand.
_LANCZOS_GRAPHS = {
    "er-1000": lambda: erdos_renyi_graph(1000, 10 / 999, seed=5),
    "pl-1000": lambda: powerlaw_cluster_graph(1000, 5, 0.3, seed=5),
    # Every non-zero eigenvalue of a ring is doubled.
    "ring-800": lambda: cycle_graph(800),
    # Three components, two of them isomorphic: zero is triple and the
    # ER spectrum is doubled on top of the ring's.
    "er-er-ring": _er_er_ring,
    "isolated-node": TestIsolatedNodeGraph._isolated_node_graph,
    # 25 components for k=20: the null space alone fills k.
    "25-rings": lambda: _disjoint_union(*[cycle_graph(30)] * 25),
}


class TestLanczosAgainstDense:
    """Above the dense cutoff the truncated spectrum comes from Lanczos
    on the deflated companion ``2I - L - 2ZZᵀ``; dense ``eigh`` is the
    oracle.  Eigenvectors inside a repeated eigenvalue are only defined
    up to rotation, so each cluster of equal eigenvalues is compared as
    a subspace (principal angles), never column by column."""

    VALUE_TOL = 1e-10
    ANGLE_TOL = 1e-8
    CLUSTER_TOL = 1e-8

    @pytest.mark.parametrize("name", sorted(_LANCZOS_GRAPHS))
    def test_matches_dense_eigh(self, name):
        from scipy.linalg import eigh, subspace_angles
        graph = _LANCZOS_GRAPHS[name]()
        k = 20
        assert graph.num_nodes > 600  # the Lanczos path
        vals, vecs = laplacian_eigenpairs(graph, k=k)
        dense_vals, dense_vecs = eigh(normalized_laplacian(graph, dense=True))
        assert vals.shape == (k,) and vecs.shape == (graph.num_nodes, k)
        assert np.abs(vals - dense_vals[:k]).max() <= self.VALUE_TOL
        lo = 0
        while lo < k:
            hi = lo + 1
            while (hi < graph.num_nodes
                   and dense_vals[hi] - dense_vals[hi - 1] < self.CLUSTER_TOL):
                hi += 1
            # A cluster cut at k: the returned columns must lie inside
            # the whole eigenspace.
            angles = subspace_angles(vecs[:, lo:min(hi, k)],
                                     dense_vecs[:, lo:hi])
            assert angles.max() <= self.ANGLE_TOL, (lo, hi)
            lo = hi

    def test_k_up_to_n_minus_one(self):
        """k up to n - 1 stays on the Lanczos path and exact, as it was
        under shift-invert; ARPACK clips the Krylov width 2(k - c) + 1
        to n."""
        from scipy.linalg import eigh
        graph = erdos_renyi_graph(650, 10 / 649, seed=5)
        vals, vecs = laplacian_eigenpairs(graph, k=649)
        dense_vals = eigh(normalized_laplacian(graph, dense=True),
                          eigvals_only=True)
        assert vecs.shape == (650, 649)
        assert np.abs(vals - dense_vals[:649]).max() <= self.VALUE_TOL

    def test_null_space_is_the_closed_form_basis_in_component_order(self):
        graph = _LANCZOS_GRAPHS["25-rings"]()
        vals, vecs = laplacian_eigenpairs(graph, k=20)
        assert np.array_equal(vals, np.zeros(20))
        assert np.array_equal(vecs, _null_basis(graph)[:, :20])

    @pytest.mark.parametrize("name", ["er-er-ring", "isolated-node"])
    def test_null_space_columns_lead(self, name):
        """Fewer components than k: the closed-form null basis comes
        first, then the Lanczos eigenvectors."""
        graph = _LANCZOS_GRAPHS[name]()
        null = _null_basis(graph)
        vals, vecs = laplacian_eigenpairs(graph, k=20)
        c = null.shape[1]
        assert 1 < c < 20
        assert np.array_equal(vecs[:, :c], null)
        assert np.array_equal(vals[:c], np.zeros(c))


class TestFixSignsTieBreaking:
    """Satellite pin: sign gauges must not depend on which of two
    magnitude-tied entries argmax happens to visit first."""

    def test_exact_tie_lowest_index_decides(self):
        # |v| peaks at rows 0 and 2 with opposite signs; the lowest tied
        # index (row 0, negative) decides, so the column flips.
        col = np.array([-0.7, 0.1, 0.7, 0.2])
        fixed = fix_signs(col[:, np.newaxis])
        assert fixed[0, 0] > 0

    def test_tie_with_positive_first_keeps_sign(self):
        col = np.array([0.7, 0.1, -0.7, 0.2])
        fixed = fix_signs(col[:, np.newaxis])
        assert np.allclose(fixed[:, 0], col)

    def test_near_tie_within_rtol_uses_lowest_index(self):
        # One-ulp-style jitter: row 0 is within 1e-13 (relative) of the
        # peak at row 2 — close enough that a different BLAS build could
        # swap their order — so row 0 must decide either way.
        peak = 0.7
        col = np.array([-(peak * (1 - 1e-13)), 0.1, peak, 0.2])
        fixed = fix_signs(col[:, np.newaxis])
        assert fixed[0, 0] > 0

    def test_empty_basis_passes_through(self):
        for shape in ((5, 0), (0, 0)):
            assert fix_signs(np.zeros(shape)).shape == shape

    def test_zero_at_deciding_index_counts_positive(self):
        col = np.zeros(3)
        fixed = fix_signs(col[:, np.newaxis])
        assert np.allclose(fixed[:, 0], col)

    def test_gauge_independent_of_input_sign(self):
        from hypothesis import given, settings, strategies as st
        from hypothesis.extra import numpy as hnp

        @settings(max_examples=60, deadline=None)
        @given(hnp.arrays(np.float64, (7, 3),
                          elements=st.floats(-1.0, 1.0, allow_nan=False)))
        def run(vecs):
            fixed = fix_signs(vecs)
            flipped = fix_signs(-vecs)
            # The gauge is a property of the *line* each column spans:
            # v and -v must land on the same representative.
            assert np.array_equal(fixed, flipped)
            # Idempotence: the representative is already gauged.
            assert np.array_equal(fix_signs(fixed), fixed)

        run()
