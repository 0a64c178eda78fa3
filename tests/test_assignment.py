"""Tests for the assignment back-ends (paper §3 / §6.2)."""

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linear_sum_assignment

from repro.assignment import (
    extract_alignment,
    jonker_volgenant,
    nearest_neighbor,
    nearest_neighbor_one_to_one,
    solve_lap,
    sort_greedy,
    sparse_max_weight_matching,
)
from repro.assignment.base import ASSIGNMENT_METHODS
from repro.exceptions import AssignmentError


@pytest.fixture
def sim_3x3():
    return np.array([
        [0.9, 0.1, 0.0],
        [0.8, 0.7, 0.2],
        [0.1, 0.6, 0.5],
    ])


class TestNearestNeighbor:
    def test_picks_row_argmax(self, sim_3x3):
        assert nearest_neighbor(sim_3x3).tolist() == [0, 0, 1]

    def test_many_to_one_allowed(self, sim_3x3):
        mapping = nearest_neighbor(sim_3x3)
        assert len(set(mapping.tolist())) < 3

    def test_one_to_one_variant(self, sim_3x3):
        mapping = nearest_neighbor_one_to_one(sim_3x3)
        matched = mapping[mapping >= 0]
        assert len(set(matched.tolist())) == len(matched)
        # Row 0 (best score 0.9) keeps its favorite column.
        assert mapping[0] == 0

    def test_rejects_nan(self):
        with pytest.raises(AssignmentError):
            nearest_neighbor(np.array([[np.nan, 1.0]]))

    def test_rejects_non_2d(self):
        with pytest.raises(AssignmentError):
            nearest_neighbor(np.ones(3))

    def test_empty(self):
        assert nearest_neighbor(np.empty((0, 3))).size == 0


class TestSortGreedy:
    def test_greedy_order(self, sim_3x3):
        mapping = sort_greedy(sim_3x3)
        # Pairs in similarity order: (0,0)=0.9 taken, (1,0) blocked,
        # (1,1)=0.7 taken, (2,1) blocked, (2,2)=0.5 taken.
        assert mapping.tolist() == [0, 1, 2]

    def test_one_to_one(self):
        rng = np.random.default_rng(0)
        sim = rng.random((20, 20))
        mapping = sort_greedy(sim)
        assert sorted(mapping.tolist()) == list(range(20))

    def test_rectangular_more_rows(self):
        sim = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2]])
        mapping = sort_greedy(sim)
        assert np.sum(mapping == -1) == 1  # one row unmatched
        matched = mapping[mapping >= 0]
        assert len(set(matched.tolist())) == 2

    def test_rectangular_more_cols(self):
        sim = np.array([[0.1, 0.9, 0.5]])
        assert sort_greedy(sim).tolist() == [1]

    def test_greedy_can_be_suboptimal(self):
        # Greedy takes 10 then is forced into 1 (total 11); optimal is 9+9=18.
        sim = np.array([[10.0, 9.0], [9.0, 1.0]])
        greedy = sort_greedy(sim)
        optimal = jonker_volgenant(sim)
        value = lambda m: sim[np.arange(2), m].sum()
        assert value(greedy) == 11.0
        assert value(optimal) == 18.0


class TestJonkerVolgenant:
    def test_maximizes_similarity(self, sim_3x3):
        mapping = jonker_volgenant(sim_3x3)
        assert sorted(mapping.tolist()) == [0, 1, 2]
        total = sim_3x3[np.arange(3), mapping].sum()
        rows, cols = linear_sum_assignment(-sim_3x3)
        assert total == pytest.approx(sim_3x3[rows, cols].sum())

    @pytest.mark.parametrize("engine", ["python", "scipy"])
    def test_engines_agree_on_value(self, engine):
        rng = np.random.default_rng(1)
        for _ in range(10):
            cost = rng.random((15, 20))
            ours = solve_lap(cost, engine=engine)
            rows, cols = linear_sum_assignment(cost)
            assert cost[np.arange(15), ours].sum() == pytest.approx(
                cost[rows, cols].sum()
            )

    def test_python_engine_square_with_ties(self):
        cost = np.zeros((4, 4))
        mapping = solve_lap(cost, engine="python")
        assert sorted(mapping.tolist()) == [0, 1, 2, 3]

    def test_rows_exceeding_cols(self):
        sim = np.array([[1.0], [2.0], [3.0]])
        mapping = jonker_volgenant(sim)
        assert np.sum(mapping >= 0) == 1
        assert mapping[2] == 0  # the most similar row wins the only column

    def test_non_finite_rejected(self):
        with pytest.raises(AssignmentError):
            solve_lap(np.array([[np.inf, 1.0]]))

    def test_rows_gt_cols_rejected_in_solve_lap(self):
        with pytest.raises(AssignmentError):
            solve_lap(np.zeros((3, 2)))

    def test_unknown_engine_rejected(self):
        with pytest.raises(AssignmentError):
            solve_lap(np.zeros((2, 2)), engine="cuda")

    def test_empty(self):
        assert solve_lap(np.empty((0, 5))).size == 0


class TestSparseMwm:
    def test_respects_sparsity_pattern(self):
        # Dense optimum would match row 0 to col 1, but that entry is absent.
        sim = sparse.csr_matrix(np.array([[1.0, 0.0], [0.5, 0.4]]))
        mapping = sparse_max_weight_matching(sim)
        assert mapping[0] == 0
        assert mapping[1] == 1

    def test_matches_jv_on_dense_pattern(self):
        rng = np.random.default_rng(2)
        sim = rng.random((12, 12)) + 0.01
        dense = jonker_volgenant(sim)
        sparse_map = sparse_max_weight_matching(sparse.csr_matrix(sim))
        value = lambda m: sim[np.arange(12), m].sum()
        assert value(sparse_map) == pytest.approx(value(dense))

    def test_dense_exact_zeros_are_eligible(self):
        """Regression: dense input went through csr_matrix, which drops
        exact zeros, so the zero diagonal (the optimum) was ineligible."""
        mapping = sparse_max_weight_matching(np.array([[0.0, -1.0],
                                                       [-1.0, 0.0]]))
        assert mapping.tolist() == [0, 1]

    def test_greedy_fallback_when_no_perfect_matching(self):
        # Two rows compete for a single eligible column.
        sim = sparse.csr_matrix(np.array([[0.9, 0.0], [0.5, 0.0]]))
        mapping = sparse_max_weight_matching(sim)
        assert mapping[0] == 0
        assert mapping[1] == -1

    def test_empty_matrix(self):
        mapping = sparse_max_weight_matching(sparse.csr_matrix((3, 3)))
        assert mapping.tolist() == [-1, -1, -1]

    def test_negative_similarities_terminate(self):
        """Regression: raw negative weights sent SciPy's LAPJVsp into an
        infinite loop; our cost shift must keep every input terminating."""
        rng = np.random.default_rng(7)
        sim = sparse.random(40, 40, density=0.15, random_state=7,
                            data_rvs=lambda size: rng.normal(size=size))
        sim = sim.tocsr()
        mapping = sparse_max_weight_matching(sim)
        matched = mapping[mapping >= 0]
        assert len(set(matched.tolist())) == len(matched)

    def test_thin_feasible_pattern_terminates(self):
        """The LREA-style case: a thin candidate pattern with a perfect
        matching must be solved exactly, not fall back to greedy."""
        n = 30
        rng = np.random.default_rng(8)
        perm = rng.permutation(n)
        rows = np.concatenate([np.arange(n), np.arange(n)])
        cols = np.concatenate([perm, rng.integers(0, n, n)])
        data = np.concatenate([np.full(n, 5.0), rng.random(n)])
        sim = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        mapping = sparse_max_weight_matching(sim)
        assert np.array_equal(mapping, perm)


class TestExtractAlignment:
    @pytest.mark.parametrize("method", ASSIGNMENT_METHODS)
    def test_all_methods_run(self, method, sim_3x3):
        mapping = extract_alignment(sim_3x3, method)
        assert mapping.shape == (3,)

    def test_unknown_method_rejected(self, sim_3x3):
        with pytest.raises(AssignmentError):
            extract_alignment(sim_3x3, "hungarian-deluxe")

    def test_sparse_input_densified_for_jv(self):
        sim = sparse.csr_matrix(np.eye(4))
        assert extract_alignment(sim, "jv").tolist() == [0, 1, 2, 3]

    def test_oracle_similarity_recovers_permutation(self):
        rng = np.random.default_rng(3)
        perm = rng.permutation(30)
        sim = np.zeros((30, 30))
        sim[np.arange(30), perm] = 1.0
        for method in ("sg", "jv", "nn", "nn-1to1"):
            assert np.array_equal(extract_alignment(sim, method), perm), method
