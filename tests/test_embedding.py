"""Tests for the embedding substrate (xNetMF and NetMF)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embedding import netmf_embeddings, structural_features, xnetmf_embeddings
from repro.embedding import netmf, xnetmf
from repro.exceptions import AlgorithmError
from repro.graphs import (
    Graph,
    erdos_renyi_graph,
    path_graph,
    powerlaw_cluster_graph,
    star_graph,
)
from repro.graphs.operations import bfs_distances, permute_graph
from repro.util import pairwise_sq_dists


def reference_structural_features(graph, max_hops=2, delta=0.1,
                                  num_buckets=None):
    """One BFS per node: the per-node loop the frontier products replace."""
    degrees = graph.degrees.astype(np.int64)
    max_deg = int(degrees.max()) if degrees.size else 0
    needed = int(np.floor(np.log2(max(max_deg, 1)))) + 1
    width = needed if num_buckets is None else int(num_buckets)
    features = np.zeros((graph.num_nodes, width))
    bucket = np.floor(np.log2(np.maximum(degrees, 1))).astype(np.int64)
    for u in range(graph.num_nodes):
        dist = bfs_distances(graph, u, max_depth=max_hops)
        for k in range(1, max_hops + 1):
            members = np.flatnonzero(dist == k)
            if members.size == 0:
                break
            hist = np.bincount(bucket[members], minlength=width)
            features[u] += (delta ** (k - 1)) * hist
    return features


def reference_netmf(graph, dim=128, window=10, negative=1.0):
    """``window`` dense walk products and a full SVD: the path the blocked
    sparse products and the symmetric eigensolve replace."""
    n = graph.num_nodes
    d = int(min(dim, max(n - 1, 1)))
    adj = graph.adjacency(dense=True)
    deg = adj.sum(axis=1)
    vol = deg.sum()
    if vol == 0:
        return np.zeros((n, d))
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)

    walk = inv_deg[:, np.newaxis] * adj  # P = D^{-1} A
    power = np.eye(n)
    acc = np.zeros_like(adj)
    for _ in range(window):
        power = power @ walk
        acc += power

    m = (vol / (negative * window)) * acc * inv_deg[np.newaxis, :]
    m = np.log(np.maximum(m, 1.0))  # shifted-PMI with log-clipping at 0

    u, s, _vt = np.linalg.svd(m, full_matrices=False)
    return u[:, :d] * np.sqrt(s[:d])[np.newaxis, :]


@st.composite
def random_graphs(draw):
    """Small simple graphs, edgeless and single-node ones included; most
    carry isolated nodes."""
    n = draw(st.integers(1, 40))
    if n == 1:
        return Graph(1)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=4 * n))
             if u != v]
    return Graph(n, edges)


class TestStructuralFeatures:
    def test_star_center_vs_leaf(self):
        g = star_graph(9)  # center degree 8, leaves degree 1
        feats = structural_features(g, max_hops=1)
        # Center sees 8 degree-1 neighbors (bucket 0); leaves see one
        # degree-8 neighbor (bucket 3).
        assert feats[0, 0] == 8
        assert feats[1, 3] == 1

    def test_hop_discount(self):
        g = path_graph(5)
        feats = structural_features(g, max_hops=2, delta=0.5)
        # Node 0: hop-1 = {1} (deg 2, bucket 1); hop-2 = {2} (deg 2) * 0.5.
        assert feats[0, 1] == pytest.approx(1.0 + 0.5)

    def test_fixed_width(self, pl_graph):
        feats = structural_features(pl_graph, num_buckets=12)
        assert feats.shape == (pl_graph.num_nodes, 12)

    def test_width_too_small_rejected(self, pl_graph):
        with pytest.raises(AlgorithmError):
            structural_features(pl_graph, num_buckets=1)

    def test_permutation_equivariance(self, pl_graph):
        rng = np.random.default_rng(0)
        perm = rng.permutation(pl_graph.num_nodes)
        permuted = permute_graph(pl_graph, perm)
        feats = structural_features(pl_graph)
        feats_perm = structural_features(permuted)
        assert np.allclose(feats, feats_perm[perm])

    @given(graph=random_graphs(), max_hops=st.integers(1, 4),
           delta=st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.5]),
           extra_width=st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_node_bfs(self, graph, max_hops, delta, extra_width):
        """Frontier products repeat the BFS loop's float operations."""
        degrees = graph.degrees
        width = int(np.floor(np.log2(max(int(degrees.max()), 1)))) + 1
        width += extra_width
        expected = reference_structural_features(graph, max_hops, delta,
                                                 num_buckets=width)
        got = structural_features(graph, max_hops, delta, num_buckets=width)
        assert np.array_equal(got, expected)

    def test_matches_per_node_bfs_across_row_blocks(self, pl_graph,
                                                    monkeypatch):
        monkeypatch.setattr(xnetmf, "_BLOCK_ELEMENTS", 7 * pl_graph.num_nodes)
        for hops in (1, 3):
            assert np.array_equal(
                structural_features(pl_graph, max_hops=hops, delta=0.3),
                reference_structural_features(pl_graph, hops, 0.3))

    def test_star_graph_streams_within_block_budget(self):
        """A star's hop-2 frontier is n^2 entries; row blocks keep the
        traced peak to a fixed multiple of the element budget."""
        n = 3000
        graph = star_graph(n)
        graph.adjacency()
        budget_bytes = 32 * xnetmf._BLOCK_ELEMENTS
        # Unblocked, the frontier's indices alone would exceed the bound.
        assert 4 * n * n > budget_bytes
        tracemalloc.start()
        try:
            feats = structural_features(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget_bytes
        # A leaf sees the hub (degree n - 1, bucket 11) at hop 1 and the
        # other n - 2 leaves (bucket 0) at hop 2.
        assert feats[1, 11] == 1
        assert feats[1, 0] == pytest.approx(0.1 * (n - 2))


class TestXnetmf:
    def test_joint_embedding_shapes(self, pl_graph, nw_graph):
        emb_a, emb_b = xnetmf_embeddings([pl_graph, nw_graph], seed=0)
        assert emb_a.shape[0] == pl_graph.num_nodes
        assert emb_b.shape[0] == nw_graph.num_nodes
        assert emb_a.shape[1] == emb_b.shape[1]

    def test_rows_normalized(self, pl_graph):
        (emb,) = xnetmf_embeddings([pl_graph], seed=0)
        norms = np.linalg.norm(emb, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_isomorphic_nodes_land_close(self, pl_graph):
        rng = np.random.default_rng(1)
        perm = rng.permutation(pl_graph.num_nodes)
        permuted = permute_graph(pl_graph, perm)
        emb_a, emb_b = xnetmf_embeddings([pl_graph, permuted], seed=0)
        dists = pairwise_sq_dists(emb_a, emb_b)
        nearest = np.argmin(dists, axis=1)
        # Structural embeddings cannot break all symmetry, but a clear
        # majority of nodes must find their true image nearest.
        assert np.mean(nearest == perm) > 0.5

    def test_landmark_count_override(self, pl_graph):
        emb, = xnetmf_embeddings([pl_graph], num_landmarks=7, seed=0)
        assert emb.shape[1] == 7

    def test_empty_list_rejected(self):
        with pytest.raises(AlgorithmError):
            xnetmf_embeddings([])


class TestNetmf:
    def test_shape_and_clipping(self, pl_graph):
        emb = netmf_embeddings(pl_graph, dim=64)
        assert emb.shape == (pl_graph.num_nodes, 64)
        small = netmf_embeddings(path_graph(5), dim=64)
        assert small.shape == (5, 4)  # clipped to n - 1

    def test_deterministic(self, pl_graph):
        a = netmf_embeddings(pl_graph, dim=16)
        b = netmf_embeddings(pl_graph, dim=16)
        assert np.array_equal(a, b)

    def test_connected_nodes_closer_than_random(self, pl_graph):
        emb = netmf_embeddings(pl_graph, dim=32)
        dists = pairwise_sq_dists(emb, emb)
        edges = pl_graph.edges()
        edge_mean = dists[edges[:, 0], edges[:, 1]].mean()
        assert edge_mean < dists.mean()

    def test_empty_graph_rejected(self):
        with pytest.raises(AlgorithmError):
            netmf_embeddings(Graph(0))

    def test_edgeless_graph_zero_embedding(self):
        emb = netmf_embeddings(Graph(4), dim=3)
        assert np.all(emb == 0)

    def test_invalid_window_rejected(self, pl_graph):
        with pytest.raises(AlgorithmError):
            netmf_embeddings(pl_graph, window=0)

    @pytest.mark.parametrize("negative", [0.0, -1.0, float("inf"),
                                          float("nan")])
    def test_invalid_negative_rejected(self, pl_graph, negative):
        """A scale that is not finite and positive would divide by zero,
        or clip every entry of M to log 1 = 0 and embed nothing."""
        with pytest.raises(AlgorithmError):
            netmf_embeddings(pl_graph, negative=negative)

    def test_row_blocks_do_not_change_the_result(self, pl_graph,
                                                 monkeypatch):
        whole = netmf_embeddings(pl_graph, dim=16)
        monkeypatch.setattr(netmf, "_BLOCK_ELEMENTS", 7 * pl_graph.num_nodes)
        assert np.array_equal(netmf_embeddings(pl_graph, dim=16), whole)

    def test_peak_memory_is_a_few_n_squared(self):
        """M, the eigenvectors and one row block's walk buffers: under
        three n x n arrays of float64 at n=1500 (the dense products and
        the SVD held seven)."""
        graph = powerlaw_cluster_graph(1500, 5, 0.3, seed=5)
        graph.adjacency()
        tracemalloc.start()
        try:
            netmf_embeddings(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * graph.num_nodes ** 2


def _pl(n):
    return powerlaw_cluster_graph(n, 5, 0.3, seed=5)


def _er(n):
    return erdos_renyi_graph(n, 10 / (n - 1), seed=5)


# NetMF oracle inputs, built on demand.  ER n=700 carries an isolated
# node of its own.
_NETMF_GRAPHS = {
    "pl-60": lambda: _pl(60),
    "pl-300": lambda: _pl(300),
    "pl-700": lambda: _pl(700),
    "er-60": lambda: _er(60),
    "er-300": lambda: _er(300),
    "er-700": lambda: _er(700),
    "pl-60+isolated": lambda: Graph(61, _pl(60).edges()),
}


class TestNetmfOracle:
    """The blocked sparse products and the symmetric eigensolve against
    the dense products and the SVD.  M is symmetric, so its singular
    values are the |λ| of its eigenvalues; singular vectors inside a
    cluster of equal singular values are only defined up to rotation, so
    each cluster is compared as a subspace (principal angles)."""

    NORM_TOL = 1e-10
    ANGLE_TOL = 1e-8
    CLUSTER_TOL = 1e-8

    @pytest.mark.parametrize("window", [1, 5, 10])
    @pytest.mark.parametrize("name", sorted(_NETMF_GRAPHS))
    def test_matches_dense_svd(self, name, window):
        from scipy.linalg import subspace_angles
        graph = _NETMF_GRAPHS[name]()
        n = graph.num_nodes
        full = reference_netmf(graph, dim=n, window=window)  # n - 1 columns
        sigma = np.linalg.norm(full, axis=0) ** 2
        top = np.sqrt(sigma[0])
        for dim in (n // 3, n + 5):
            emb = netmf_embeddings(graph, dim=dim, window=window)
            d = min(dim, n - 1)
            assert emb.shape == (n, d)
            assert np.array_equal(
                emb, netmf_embeddings(graph, dim=dim, window=window))
            norms = np.linalg.norm(emb, axis=0)
            assert np.abs(norms - np.sqrt(sigma[:d])).max() \
                <= self.NORM_TOL * top
            assert np.all(emb[graph.degrees == 0] == 0.0)
            lo = 0
            while lo < d:
                hi = lo + 1
                while (hi < n - 1
                       and sigma[hi - 1] - sigma[hi]
                       < self.CLUSTER_TOL * sigma[0]):
                    hi += 1
                # A cluster cut at d: the returned columns must lie
                # inside the whole singular subspace.
                angles = subspace_angles(emb[:, lo:min(hi, d)],
                                         full[:, lo:hi])
                assert angles.max() <= self.ANGLE_TOL, (dim, lo, hi)
                lo = hi

    def test_isolated_node_rows_are_zero(self):
        graph = _NETMF_GRAPHS["pl-60+isolated"]()
        assert graph.degrees[-1] == 0
        emb = netmf_embeddings(graph, dim=80, window=5)
        assert np.all(emb[-1] == 0.0)
        assert np.abs(emb[:-1]).sum(axis=1).min() > 0

    def test_edgeless_graph_matches(self):
        graph = Graph(5)
        assert np.array_equal(netmf_embeddings(graph, dim=3),
                              reference_netmf(graph, dim=3))
