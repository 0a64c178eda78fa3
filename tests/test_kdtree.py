"""Tests for the exact k-NN index, validated against SciPy's cKDTree."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.assignment import KDTree
from repro.exceptions import AssignmentError


class TestCorrectness:
    @pytest.mark.parametrize("dim", [1, 2, 5, 10, 20])
    def test_matches_ckdtree(self, dim):
        rng = np.random.default_rng(dim)
        points = rng.random((200, dim))
        queries = rng.random((40, dim))
        d_ours, i_ours = KDTree(points).query(queries, k=3)
        d_ref, i_ref = cKDTree(points).query(queries, k=3)
        assert np.allclose(d_ours, d_ref)

    def test_k_one(self):
        rng = np.random.default_rng(0)
        points = rng.random((100, 3))
        d, i = KDTree(points).query(points[:5], k=1)
        assert np.allclose(d[:, 0], 0.0)
        assert i[:, 0].tolist() == [0, 1, 2, 3, 4]

    def test_k_clipped_to_database_size(self):
        points = np.random.default_rng(0).random((4, 2))
        d, i = KDTree(points).query(points[:1], k=10)
        assert d.shape == (1, 4)

    def test_duplicate_points(self):
        points = np.zeros((10, 3))
        d, i = KDTree(points).query(np.zeros((1, 3)), k=5)
        assert np.allclose(d, 0.0)

    def test_high_dimensional_brute_force_path(self):
        rng = np.random.default_rng(1)
        points = rng.random((150, 64))  # above the kd-tree cutoff
        queries = rng.random((20, 64))
        d_ours, i_ours = KDTree(points).query(queries, k=2)
        d_ref, _ = cKDTree(points).query(queries, k=2)
        assert np.allclose(d_ours, d_ref)

    def test_distances_sorted(self):
        rng = np.random.default_rng(2)
        points = rng.random((100, 4))
        d, _ = KDTree(points).query(rng.random((10, 4)), k=5)
        assert np.all(np.diff(d, axis=1) >= -1e-12)


class TestValidation:
    def test_dimension_mismatch_rejected(self):
        tree = KDTree(np.random.default_rng(0).random((10, 3)))
        with pytest.raises(AssignmentError):
            tree.query(np.zeros((1, 2)))

    def test_non_finite_points_rejected(self):
        with pytest.raises(AssignmentError):
            KDTree(np.array([[np.nan, 1.0]]))

    def test_empty_database_query_rejected(self):
        tree = KDTree(np.empty((0, 3)))
        with pytest.raises(AssignmentError):
            tree.query(np.zeros((1, 3)))

    def test_non_2d_rejected(self):
        with pytest.raises(AssignmentError):
            KDTree(np.zeros(5))

    def test_len(self):
        assert len(KDTree(np.zeros((7, 2)))) == 7
