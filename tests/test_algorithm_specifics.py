"""Per-algorithm behavior tests: the traits the paper attributes to each."""

import numpy as np
import pytest
from scipy import sparse

from repro.algorithms import (
    Cone,
    GWL,
    Graal,
    Grasp,
    IsoRank,
    LREA,
    NSD,
    Regal,
    SGWL,
)
from repro.algorithms.isorank import _mass_preserving
from repro.exceptions import AlgorithmError
from repro.graphs import (
    Graph,
    barabasi_albert_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    random_regular_graph,
)
from repro.graphs.matrices import column_stochastic
from repro.graphs.operations import induced_subgraph
from repro.measures import accuracy
from repro.noise import make_pair
from repro.observability import capture_trace, tracing
from repro.util import degree_prior, degree_prior_pair

PL = powerlaw_cluster_graph(80, 3, 0.3, seed=21)
PL_PAIR = make_pair(PL, "one-way", 0.02, seed=22)


class TestIsoRank:
    def test_degree_prior_beats_uniform(self):
        """The paper's §6.1 weight schema: the degree prior is the difference
        between IsoRank being competitive and being mediocre."""
        with_prior = IsoRank(prior="degree").align(
            PL_PAIR.source, PL_PAIR.target, seed=0
        )
        without = IsoRank(prior="uniform").align(
            PL_PAIR.source, PL_PAIR.target, seed=0
        )
        acc_with = accuracy(with_prior.mapping, PL_PAIR.ground_truth)
        acc_without = accuracy(without.mapping, PL_PAIR.ground_truth)
        assert acc_with > acc_without

    def test_alpha_bounds_validated(self):
        with pytest.raises(AlgorithmError):
            IsoRank(alpha=1.5)

    def test_prior_validated(self):
        with pytest.raises(AlgorithmError):
            IsoRank(prior="blast")

    def test_similarity_normalized(self):
        sim = IsoRank().similarity(PL_PAIR.source, PL_PAIR.target)
        assert sim.sum() == pytest.approx(1.0, rel=1e-3)

    def test_zero_prior_rejected(self):
        # Every source node isolated, no target node: the degree prior
        # is zero everywhere.
        with pytest.raises(AlgorithmError, match="sums to zero"):
            IsoRank().similarity(Graph(3), PL_PAIR.target)

    def test_degree_prior_helper(self):
        sim = degree_prior(np.array([4, 0]), np.array([4, 2, 0]))
        assert sim[0, 0] == 1.0
        assert sim[0, 1] == pytest.approx(0.5)
        assert sim[1, 2] == 1.0  # both isolated -> perfectly similar
        assert sim[1, 0] == 0.0


def reference_isorank(alg, source, target):
    """The dense, renormalized power iteration: ``(similarity, sweeps)``."""
    e = alg._prior_matrix(source, target)
    op_a = column_stochastic(source)
    op_b = column_stochastic(target)
    r = e.copy()
    sweeps = 0
    for _ in range(alg.iterations):
        updated = alg.alpha * (op_a @ r @ op_b.T) + (1.0 - alg.alpha) * e
        total = updated.sum()
        if total > 0:
            updated /= total
        delta = np.abs(updated - r).sum()
        r = updated
        sweeps += 1
        if delta < alg.tol:
            break
    return r, sweeps


def _without_isolated(graph):
    return induced_subgraph(graph, np.flatnonzero(graph.degrees > 0))


def _with_isolated(graph, count=3):
    return Graph(graph.num_nodes + count, graph.edges())


_ORACLE_MODELS = {
    "er": lambda n: erdos_renyi_graph(n, 8 / (n - 1), seed=n),
    "pl": lambda n: powerlaw_cluster_graph(n, 3, 0.3, seed=n),
    "ba": lambda n: barabasi_albert_graph(n, 3, seed=n),
}

# Which inputs run the dense loop: the degree prior leaks mass only when
# both graphs have an isolated node, the uniform prior when either does.
_DENSE_LOOP = {
    ("degree", "neither"): False, ("degree", "source"): False,
    ("degree", "target"): False, ("degree", "both"): True,
    ("uniform", "neither"): False, ("uniform", "source"): True,
    ("uniform", "target"): True, ("uniform", "both"): True,
}


class TestIsoRankOracle:
    """The factored iteration against the dense loop it replaces."""

    @pytest.mark.parametrize("isolated", ["neither", "source", "target",
                                          "both"])
    @pytest.mark.parametrize("n", [60, 150, 400])
    @pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
    def test_matches_dense_loop(self, model, n, isolated):
        pair = make_pair(_ORACLE_MODELS[model](n), "one-way", 0.05, seed=n)
        source = _without_isolated(pair.source)
        target = _without_isolated(pair.target)
        if isolated in ("source", "both"):
            source = _with_isolated(source)
        if isolated in ("target", "both"):
            target = _with_isolated(target)
        for prior in ("degree", "uniform"):
            dense = not _mass_preserving(prior, source.degrees,
                                         target.degrees)
            assert dense == _DENSE_LOOP[prior, isolated]
            for alpha in (0.0, 0.5, 0.9, 1.0):
                alg = IsoRank(alpha=alpha, prior=prior)
                expected, expected_sweeps = reference_isorank(alg, source,
                                                              target)
                with tracing(True), capture_trace() as trace:
                    sim = alg.similarity(source, target)
                err = np.abs(sim - expected).max() / np.abs(expected).max()
                assert err <= 1e-12, (prior, alpha, err)
                assert trace.counters == {"power_iterations":
                                          expected_sweeps}, (prior, alpha)

    def test_first_iterate_is_the_prior(self):
        """No sweep at all returns the cached prior's values unchanged."""
        alg = IsoRank(iterations=0)
        sim = alg.similarity(PL_PAIR.source, PL_PAIR.target)
        assert np.array_equal(sim,
                              alg._prior_matrix(PL_PAIR.source,
                                                PL_PAIR.target))


def nsd_outer_product_reference(nsd, source, target):
    """NSD's similarity (Eq. 4-5) as one ``np.outer`` pass per term:
    ``(1-alpha) alpha^k w^(k) z^(k)T`` for k < n, then ``alpha^n w^(n) z^(n)T``,
    for each of the prior's rank-one components."""
    op_a, op_b = column_stochastic(source), column_stochastic(target)
    n_a, n_b = source.num_nodes, target.num_nodes
    if nsd.prior == "uniform":
        ws, zs = [np.full(n_a, 1.0 / n_a)], [np.full(n_b, 1.0 / n_b)]
    else:
        prior = degree_prior_pair(source, target)
        prior = prior / prior.sum()
        u, s, vt = np.linalg.svd(prior, full_matrices=False)
        rank = int(min(nsd.components, s.size))
        ws = [u[:, i] * np.sqrt(s[i]) for i in range(rank)]
        zs = [vt[i] * np.sqrt(s[i]) for i in range(rank)]
    sim = np.zeros((n_a, n_b))
    for w0, z0 in zip(ws, zs):
        w, z = w0.copy(), z0.copy()
        for k in range(nsd.iterations):
            sim += (1.0 - nsd.alpha) * (nsd.alpha ** k) * np.outer(w, z)
            w = op_a @ w
            z = op_b @ z
        sim += (nsd.alpha ** nsd.iterations) * np.outer(w, z)
    return sim


class TestNSD:
    @pytest.mark.parametrize("prior", ["uniform", "degree"])
    @pytest.mark.parametrize("alpha, iterations",
                             [(0.8, 20), (0.0, 1), (1.0, 3), (0.5, 7)])
    def test_one_gemm_matches_outer_product_loop(self, prior, alpha,
                                                 iterations):
        nsd = NSD(alpha=alpha, iterations=iterations, prior=prior)
        # An isolated node in each graph gives zero columns in A D^-1.
        for source, target in ((PL_PAIR.source, PL_PAIR.target),
                               (Graph(6, [(0, 1), (1, 2), (3, 4)]),
                                Graph(5, [(0, 1), (2, 3), (3, 4)]))):
            sim = nsd.similarity(source, target)
            reference = nsd_outer_product_reference(nsd, source, target)
            assert sim.shape == reference.shape
            assert (np.abs(sim - reference).max()
                    <= 1e-13 * np.abs(reference).max())

    def test_converges_toward_isorank(self):
        """NSD is an unrolled IsoRank: with the same (degree) prior and many
        iterations the two similarity matrices rank pairs consistently."""
        iso = IsoRank(prior="degree", iterations=30).similarity(
            PL_PAIR.source, PL_PAIR.target
        )
        nsd = NSD(prior="degree", iterations=30, components=10).similarity(
            PL_PAIR.source, PL_PAIR.target
        )
        # Spearman-like check: top-scoring target per source agrees often.
        agree = np.mean(np.argmax(iso, axis=1) == np.argmax(nsd, axis=1))
        assert agree > 0.5

    def test_uniform_prior_runs_without_preprocessing(self):
        result = NSD(prior="uniform").align(PL_PAIR.source, PL_PAIR.target)
        assert accuracy(result.mapping, PL_PAIR.ground_truth) > 0.3

    def test_parameter_validation(self):
        with pytest.raises(AlgorithmError):
            NSD(alpha=-0.1)
        with pytest.raises(AlgorithmError):
            NSD(iterations=0)
        with pytest.raises(AlgorithmError):
            NSD(prior="blast")


class TestLREA:
    def test_perfect_on_isomorphic(self):
        """The paper: LREA 'consistently finds the correct alignment on
        graphs with no noise'."""
        clean = make_pair(PL, "one-way", 0.0, seed=1)
        result = LREA().align(clean.source, clean.target, assignment="mwm")
        assert accuracy(result.mapping, clean.ground_truth) > 0.9

    def test_collapses_under_noise(self):
        """And drops sharply with only a few percent noise."""
        noisy = make_pair(PL, "one-way", 0.05, seed=2)
        result = LREA().align(noisy.source, noisy.target, assignment="mwm")
        clean = make_pair(PL, "one-way", 0.0, seed=2)
        base = LREA().align(clean.source, clean.target, assignment="mwm")
        assert accuracy(result.mapping, noisy.ground_truth) < accuracy(
            base.mapping, clean.ground_truth
        )

    def test_candidate_matchings_sparse(self):
        cands = LREA().candidate_matchings(PL_PAIR.source, PL_PAIR.target)
        assert sparse.issparse(cands)
        n = PL_PAIR.source.num_nodes
        assert cands.nnz < n * n / 2  # genuinely sparse
        assert np.all(cands.data > 0)

    def test_reward_ordering_validated(self):
        with pytest.raises(AlgorithmError):
            LREA(s_overlap=0.5, s_noninformative=1.0, s_conflict=0.1)


class TestRegal:
    def test_landmark_override(self):
        algo = Regal(num_landmarks=12)
        sim = algo.similarity(PL_PAIR.source, PL_PAIR.target, seed=0)
        assert sim.shape == (80, 80)

    def test_embeddings_joint_space(self):
        emb_a, emb_b = Regal().embeddings(PL_PAIR.source, PL_PAIR.target, seed=0)
        assert emb_a.shape[1] == emb_b.shape[1]

    def test_max_hops_validated(self):
        with pytest.raises(AlgorithmError):
            Regal(max_hops=0)


class TestGWL:
    def test_good_on_powerlaw_bad_on_regular(self):
        """The paper's headline GWL finding: it only discriminates nodes when
        the degree distribution does."""
        ba = barabasi_albert_graph(70, 3, seed=3)
        ba_pair = make_pair(ba, "one-way", 0.0, seed=4)
        reg = random_regular_graph(70, 6, seed=3)
        reg_pair = make_pair(reg, "one-way", 0.0, seed=4)
        algo = GWL(epochs=1)
        ba_acc = accuracy(
            algo.align(ba_pair.source, ba_pair.target, seed=0).mapping,
            ba_pair.ground_truth,
        )
        reg_acc = accuracy(
            algo.align(reg_pair.source, reg_pair.target, seed=0).mapping,
            reg_pair.ground_truth,
        )
        assert ba_acc > 0.8
        assert reg_acc < 0.3

    def test_plan_is_distribution(self):
        plan = GWL(epochs=1).similarity(PL_PAIR.source, PL_PAIR.target, seed=0)
        assert plan.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(plan >= 0)

    def test_epochs_validated(self):
        with pytest.raises(AlgorithmError):
            GWL(epochs=0)


class TestSGWL:
    def test_leaf_solve_matches_small_graphs(self):
        result = SGWL(leaf_size=256).align(PL_PAIR.source, PL_PAIR.target, seed=0)
        assert accuracy(result.mapping, PL_PAIR.ground_truth) > 0.7

    def test_recursive_path_runs(self):
        """Force partitioning by setting leaf_size below the graph size."""
        algo = SGWL(leaf_size=40, partitions=2)
        result = algo.align(PL_PAIR.source, PL_PAIR.target, seed=0)
        assert result.mapping.shape == (80,)
        # Block similarity matrix is sparse.
        assert sparse.issparse(result.similarity)

    @pytest.mark.parametrize("model", ["er", "pl"])
    def test_zero_noise_is_perfect_at_default_settings(self, model):
        """n=300 is above the partition's old default leaf size (256),
        where the partition's clusters failed to correspond (0.04 on ER,
        0.30 on PL); the default now solves it directly."""
        graph = (erdos_renyi_graph(300, 10 / 299, seed=5) if model == "er"
                 else powerlaw_cluster_graph(300, 5, 0.3, seed=5))
        pair = make_pair(graph, "one-way", 0.0, seed=3)
        result = SGWL().align(pair.source, pair.target, seed=0)
        assert accuracy(result.mapping, pair.ground_truth) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(AlgorithmError):
            SGWL(partitions=1)
        with pytest.raises(AlgorithmError):
            SGWL(leaf_size=1)


class TestCone:
    def test_structural_init_beats_frank_wolfe_on_er(self):
        """The ablation the module docstring documents."""
        from repro.graphs import erdos_renyi_graph
        g = erdos_renyi_graph(70, 0.12, seed=5)
        pair = make_pair(g, "one-way", 0.01, seed=6)
        struct = Cone(init="structural").align(pair.source, pair.target, seed=0)
        fw = Cone(init="frank-wolfe").align(pair.source, pair.target, seed=0)
        acc_struct = accuracy(struct.mapping, pair.ground_truth)
        acc_fw = accuracy(fw.mapping, pair.ground_truth)
        assert acc_struct >= acc_fw
        assert acc_struct > 0.7

    def test_similarity_in_unit_interval(self):
        sim = Cone().similarity(PL_PAIR.source, PL_PAIR.target, seed=0)
        assert np.all(sim > 0) and np.all(sim <= 1.0)

    def test_invalid_init_rejected(self):
        with pytest.raises(AlgorithmError):
            Cone(init="random")

    @pytest.mark.parametrize("params", [
        {"window": 0},
        # A non-positive scale clips every NetMF entry to log 1 = 0 (or
        # divides by zero): an all-zero embedding, accuracy 0.
        {"negative": -1.0}, {"negative": 0.0}, {"negative": float("inf")},
        {"negative": float("nan")},
        # A negative count would slice the epsilon schedule from its end.
        {"iterations": -1},
        # Zero Sinkhorn sweeps leave every plan at its kernel.
        {"sinkhorn_iter": 0}, {"sinkhorn_iter": -3},
        {"init_iterations": -1},
    ], ids=lambda params: "-".join(f"{k}={v}" for k, v in params.items()))
    def test_out_of_range_parameters_rejected(self, params):
        with pytest.raises(AlgorithmError):
            Cone(**params)


class TestGrasp:
    def test_near_perfect_no_noise(self):
        clean = make_pair(PL, "one-way", 0.0, seed=7)
        result = Grasp().align(clean.source, clean.target)
        assert accuracy(result.mapping, clean.ground_truth) > 0.85

    def test_disconnection_hurts(self):
        """The paper: GRASP 'falters on graphs with several connected
        components'."""
        from repro.graphs import Graph
        connected = powerlaw_cluster_graph(60, 3, 0.3, seed=8)
        pair_c = make_pair(connected, "one-way", 0.0, seed=9)
        acc_connected = accuracy(
            Grasp().align(pair_c.source, pair_c.target).mapping,
            pair_c.ground_truth,
        )
        # Two disjoint copies of a 30-node graph: heavy eigenvalue degeneracy.
        half = powerlaw_cluster_graph(30, 3, 0.3, seed=8)
        edges = np.vstack([half.edges(), half.edges() + 30])
        disconnected = Graph(60, edges)
        pair_d = make_pair(disconnected, "one-way", 0.0, seed=9)
        acc_disconnected = accuracy(
            Grasp().align(pair_d.source, pair_d.target).mapping,
            pair_d.ground_truth,
        )
        assert acc_connected > acc_disconnected

    @pytest.mark.parametrize("sketched", [False, True],
                             ids=["exact", "sketch-policy"])
    @pytest.mark.parametrize("graph", [
        erdos_renyi_graph(650, 10 / 649, seed=5),
        powerlaw_cluster_graph(1200, 3, 0.2, seed=5),
    ], ids=["er-650", "pl-1200"])
    def test_zero_noise_is_perfect_above_the_dense_cutoff(self, graph,
                                                          sketched):
        """Canonical labeling gives every node of these graphs a unique
        label (arXiv 1804.09758), so a zero-noise pair is fully
        recoverable and any accuracy below 1.0 is the eigensolver's
        fault — with or without a sketch policy."""
        from repro.sketch import SketchPolicy, sketching
        pair = make_pair(graph, "one-way", 0.0, seed=3)
        with sketching(SketchPolicy(threshold=500) if sketched else None):
            result = Grasp().align(pair.source, pair.target, assignment="jv")
        assert accuracy(result.mapping, pair.ground_truth) == 1.0

    def test_k_clipped_to_graph_size(self):
        small = powerlaw_cluster_graph(12, 2, 0.3, seed=10)
        pair = make_pair(small, "one-way", 0.0, seed=11)
        result = Grasp(k=50).align(pair.source, pair.target)
        assert result.mapping.shape == (12,)

    def test_params_validated(self):
        with pytest.raises(AlgorithmError):
            Grasp(k=0)
        with pytest.raises(AlgorithmError):
            Grasp(q=0)


class TestGraal:
    def test_native_alignment_default(self):
        result = Graal().align(PL_PAIR.source, PL_PAIR.target)
        assert result.assignment == "native"
        assert accuracy(result.mapping, PL_PAIR.ground_truth) > 0.7

    def test_standard_backend_available(self):
        result = Graal().align(PL_PAIR.source, PL_PAIR.target, assignment="jv")
        assert result.assignment == "jv"

    def test_cost_matrix_range(self):
        cost = Graal().cost_matrix(PL_PAIR.source, PL_PAIR.target)
        assert np.all(cost >= 0.0) and np.all(cost <= 2.0)

    def test_native_mapping_one_to_one(self):
        result = Graal().align(PL_PAIR.source, PL_PAIR.target)
        matched = result.mapping[result.mapping >= 0]
        assert len(set(matched.tolist())) == len(matched)

    def test_alpha_validated(self):
        with pytest.raises(AlgorithmError):
            Graal(alpha=2.0)
