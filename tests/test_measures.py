"""Tests for the quality measures (paper §5.2), with hand-computed cases."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ReproError
from repro.graphs import Graph, cycle_graph, path_graph
from repro.measures import (
    accuracy,
    edge_correctness,
    evaluate_all,
    induced_conserved_structure,
    matched_neighborhood_consistency,
    symmetric_substructure_score,
)
from repro.measures.metrics import _aligned_edge_count
from repro.noise import make_pair


# ----------------------------------------------------------------------
# References: the definitional loops the array implementations must
# reproduce exactly.
# ----------------------------------------------------------------------

def aligned_edge_count_reference(source, target, mapping):
    """``|f(E_A)|`` by one ``has_edge`` probe per source edge."""
    count = 0
    for u, v in source.edges():
        a, b = int(mapping[u]), int(mapping[v])
        if a >= 0 and b >= 0 and a != b and target.has_edge(a, b):
            count += 1
    return count


def induced_edge_count_reference(target, mapping):
    """``|E(G_B[f(V_A)])|`` by one membership probe per target edge."""
    image = {int(j) for j in mapping if j >= 0}
    return sum(1 for u, v in target.edges()
               if int(u) in image and int(v) in image)


def mnc_reference(source, target, mapping):
    """MNC (Eq. 15) with one pair of Python sets per source node."""
    arr = np.asarray(mapping, dtype=np.int64)
    if source.num_nodes == 0:
        return 0.0
    scores = np.zeros(source.num_nodes)
    for i in range(source.num_nodes):
        j = arr[i]
        if j < 0:
            continue
        mapped = arr[source.neighbors(i)]
        mapped = set(int(x) for x in mapped[mapped >= 0])
        actual = set(int(x) for x in target.neighbors(int(j)))
        union = mapped | actual
        if not union:
            scores[i] = 1.0
        else:
            scores[i] = len(mapped & actual) / len(union)
    return float(scores.mean())


@st.composite
def alignment_cases(draw):
    """``(source, target, mapping)``: graphs of 0-30 nodes with isolated
    nodes (and edgeless or empty graphs) mapped into a smaller or larger
    target, injectively or many-to-one, with ``-1`` entries."""
    n_source, n_target = draw(st.integers(0, 30)), draw(st.integers(0, 30))

    def graph(n):
        ends = st.integers(0, max(n - 1, 0))
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=60))
        return Graph(n, [(u, v) for u, v in pairs if u != v])

    source, target = graph(n_source), graph(n_target)
    if n_target >= n_source and draw(st.booleans()):
        mapping = draw(st.permutations(range(n_target)))[:n_source]
        unmatched = draw(st.lists(st.booleans(), min_size=n_source,
                                  max_size=n_source))
        mapping = [-1 if drop else j for j, drop in zip(mapping, unmatched)]
    else:
        mapping = draw(st.lists(st.integers(-1, n_target - 1),
                                min_size=n_source, max_size=n_source))
    return source, target, np.asarray(mapping, dtype=np.int64)


class TestAccuracy:
    def test_perfect(self):
        truth = np.array([2, 0, 1])
        assert accuracy(truth, truth) == 1.0

    def test_partial(self):
        assert accuracy([0, 1, 2, 3], [0, 1, 3, 2]) == 0.5

    def test_unmatched_counts_as_wrong(self):
        assert accuracy([-1, 1], [0, 1]) == 0.5

    def test_unmatched_never_matches_negative_truth(self):
        # Even if truth contained -1 (it should not), -1 == -1 is not correct.
        assert accuracy([-1], [-1]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            accuracy([0, 1], [0, 1, 2])

    def test_empty(self):
        assert accuracy([], []) == 0.0


class TestEdgeCorrectness:
    def test_identity_on_same_graph(self, small_cycle):
        mapping = np.arange(6)
        assert edge_correctness(small_cycle, small_cycle, mapping) == 1.0

    def test_hand_computed(self):
        # Source P3: 0-1-2; target only has edge (0, 1).
        source = path_graph(3)
        target = Graph(3, [(0, 1)])
        mapping = np.array([0, 1, 2])
        # f(E_A) ∩ E_B = {(0,1)}; |E_A| = 2.
        assert edge_correctness(source, target, mapping) == pytest.approx(0.5)

    def test_unmatched_endpoint_not_conserved(self):
        source = path_graph(3)
        target = path_graph(3)
        mapping = np.array([0, 1, -1])
        assert edge_correctness(source, target, mapping) == pytest.approx(0.5)

    def test_empty_source_edges(self):
        source = Graph(3)
        target = path_graph(3)
        assert edge_correctness(source, target, np.arange(3)) == 0.0

    def test_bad_mapping_rejected(self, small_cycle):
        with pytest.raises(ReproError):
            edge_correctness(small_cycle, small_cycle, [0, 1])
        with pytest.raises(ReproError):
            edge_correctness(small_cycle, small_cycle, [9] * 6)


class TestIcsAndS3:
    def test_ics_penalizes_dense_target_region(self):
        # Source: single edge; mapped into a target triangle.
        source = Graph(3, [(0, 1)])
        target = Graph(3, [(0, 1), (1, 2), (0, 2)])
        mapping = np.array([0, 1, 2])
        # Aligned edges = 1; induced target edges on {0,1,2} = 3.
        assert induced_conserved_structure(source, target, mapping) == pytest.approx(1 / 3)
        # EC would be a perfect 1.0 here - the flaw ICS corrects.
        assert edge_correctness(source, target, mapping) == 1.0

    def test_s3_hand_computed(self):
        source = Graph(3, [(0, 1), (1, 2)])
        target = Graph(3, [(0, 1), (0, 2)])
        mapping = np.array([0, 1, 2])
        # f(E_A) ∩ E_B = {(0,1)}: aligned = 1; induced = 2; |E_A| = 2.
        # S3 = 1 / (2 + 2 - 1) = 1/3.
        assert symmetric_substructure_score(source, target, mapping) == pytest.approx(1 / 3)

    def test_s3_equals_one_iff_perfect(self, small_cycle):
        assert symmetric_substructure_score(
            small_cycle, small_cycle, np.arange(6)
        ) == 1.0

    def test_ics_empty_induced(self):
        source = path_graph(2)
        target = Graph(3, [(1, 2)])
        mapping = np.array([0, 0])  # degenerate many-to-one image {0}
        assert induced_conserved_structure(source, target, mapping) == 0.0


class TestMnc:
    def test_perfect_alignment(self, small_cycle):
        assert matched_neighborhood_consistency(
            small_cycle, small_cycle, np.arange(6)
        ) == 1.0

    def test_hand_computed(self):
        # Source: star center 0 with leaves 1, 2. Target: path 0-1, 1-2.
        source = Graph(3, [(0, 1), (0, 2)])
        target = path_graph(3)
        mapping = np.array([1, 0, 2])
        # Node 0 -> 1: mapped N(0) = {f(1), f(2)} = {0, 2}; N_B(1) = {0, 2}: J = 1.
        # Node 1 -> 0: mapped N(1) = {f(0)} = {1}; N_B(0) = {1}: J = 1.
        # Node 2 -> 2: mapped N(2) = {f(0)} = {1}; N_B(2) = {1}: J = 1.
        assert matched_neighborhood_consistency(source, target, mapping) == 1.0

    def test_disjoint_neighborhoods(self):
        source = Graph(4, [(0, 1)])
        target = Graph(4, [(0, 2)])
        mapping = np.array([0, 1, 2, 3])
        # Node 0: mapped N = {1}, actual N = {2}: J = 0.
        # Node 1: mapped N = {0}, actual N = {} : J = 0.
        # Nodes 2, 3: both neighborhoods empty -> convention 1.0... node 2's
        # actual N_B(2) = {0}, so J = 0; node 3 both empty -> 1.
        value = matched_neighborhood_consistency(source, target, mapping)
        assert value == pytest.approx(1 / 4)

    def test_unmatched_scores_zero(self):
        source = path_graph(2)
        target = path_graph(2)
        assert matched_neighborhood_consistency(
            source, target, np.array([-1, -1])
        ) == 0.0


class TestEvaluateAll:
    def test_keys(self, noisy_pair):
        mapping = noisy_pair.ground_truth
        out = evaluate_all(noisy_pair.source, noisy_pair.target, mapping,
                           noisy_pair.ground_truth)
        assert set(out) == {"accuracy", "mnc", "ec", "ics", "s3"}
        assert out["accuracy"] == 1.0

    def test_without_truth(self, noisy_pair):
        out = evaluate_all(noisy_pair.source, noisy_pair.target,
                           noisy_pair.ground_truth)
        assert "accuracy" not in out

    def test_all_measures_in_unit_interval(self, noisy_pair):
        rng = np.random.default_rng(0)
        n = noisy_pair.source.num_nodes
        random_mapping = rng.permutation(n)
        out = evaluate_all(noisy_pair.source, noisy_pair.target,
                           random_mapping, noisy_pair.ground_truth)
        for key, value in out.items():
            assert 0.0 <= value <= 1.0, key

    def test_truth_mapping_scores_high_under_noise(self, pl_graph):
        pair = make_pair(pl_graph, "one-way", 0.05, seed=0)
        out = evaluate_all(pair.source, pair.target, pair.ground_truth,
                           pair.ground_truth)
        assert out["accuracy"] == 1.0
        assert out["ec"] == pytest.approx(0.95, abs=0.02)


class TestAlignedEdgeCountVectorization:
    """The vectorized |f(E_A)| must agree with the definitional
    per-edge has_edge loop on arbitrary graphs and mappings."""

    def test_matches_loop_reference_on_random_graphs(self):
        @settings(max_examples=200, deadline=None)
        @given(alignment_cases())
        def check(case):
            source, target, mapping = case
            assert (_aligned_edge_count(source, target, mapping)
                    == aligned_edge_count_reference(source, target, mapping))

        check()

    def test_matches_loop_reference_on_noisy_pairs(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            pair = make_pair(cycle_graph(50), "multimodal", 0.1, seed=seed)
            for mapping in (pair.ground_truth,
                            rng.permutation(pair.source.num_nodes),
                            np.full(pair.source.num_nodes, -1)):
                arr = np.asarray(mapping, dtype=np.int64)
                assert (_aligned_edge_count(pair.source, pair.target, arr)
                        == aligned_edge_count_reference(
                            pair.source, pair.target, arr))


class TestMncOracle:
    """MNC from edge arrays against the per-node set loop: equal, not
    close, since both divide the same two integers per node and average
    the same scores."""

    @given(alignment_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_set_loop(self, case):
        source, target, mapping = case
        assert (matched_neighborhood_consistency(source, target, mapping)
                == mnc_reference(source, target, mapping))

    @pytest.mark.parametrize("noise_type", ["one-way", "multimodal"])
    def test_matches_set_loop_on_noisy_pairs(self, pl_graph, noise_type):
        pair = make_pair(pl_graph, noise_type, 0.1, seed=4)
        rng = np.random.default_rng(4)
        n_a, n_b = pair.source.num_nodes, pair.target.num_nodes
        for mapping in (pair.ground_truth, rng.permutation(n_b)[:n_a],
                        rng.integers(-1, n_b, size=n_a),
                        np.zeros(n_a, dtype=np.int64)):
            assert (matched_neighborhood_consistency(
                pair.source, pair.target, mapping)
                == mnc_reference(pair.source, pair.target, mapping))


class TestSharedEdgeCounts:
    """``evaluate_all`` counts the aligned and induced edges once for EC,
    ICS and S³; every measure must equal its standalone function and the
    paper's formula over the reference counts."""

    @given(alignment_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_evaluate_all_matches_each_measure(self, case, with_truth):
        source, target, mapping = case
        truth = mapping if with_truth else None
        out = evaluate_all(source, target, mapping, truth)
        assert out["ec"] == edge_correctness(source, target, mapping)
        assert out["ics"] == induced_conserved_structure(source, target,
                                                         mapping)
        assert out["s3"] == symmetric_substructure_score(source, target,
                                                         mapping)
        assert out["mnc"] == matched_neighborhood_consistency(
            source, target, mapping)
        assert ("accuracy" in out) == with_truth

        aligned = aligned_edge_count_reference(source, target, mapping)
        induced = induced_edge_count_reference(target, mapping)
        union = source.num_edges + induced - aligned
        assert out["ec"] == (aligned / source.num_edges
                             if source.num_edges else 0.0)
        assert out["ics"] == (aligned / induced if induced else 0.0)
        assert out["s3"] == (aligned / union if union else 0.0)
