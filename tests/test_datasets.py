"""Tests for the dataset registry, stand-ins, and temporal versions."""

import numpy as np
import pytest

from repro.datasets import (
    DATASETS,
    dataset_info,
    list_datasets,
    load_dataset,
    temporal_pair,
    temporal_versions,
)
from repro.exceptions import DatasetError
from repro.graphs import largest_connected_component, number_of_components


class TestRegistry:
    def test_sixteen_datasets(self):
        assert len(list_datasets()) == 16

    def test_table2_statistics_recorded(self):
        arenas = dataset_info("arenas")
        assert arenas.nodes == 1133
        assert arenas.edges == 5451
        assert arenas.kind == "communication"

    def test_case_insensitive(self):
        assert dataset_info("ARENAS").name == "arenas"

    def test_unknown_rejected(self):
        with pytest.raises(DatasetError):
            dataset_info("imaginary-net")

    def test_average_degree(self):
        assert dataset_info("facebook").average_degree == pytest.approx(43.7, abs=0.1)


class TestStandIns:
    @pytest.mark.parametrize("name", ["arenas", "inf-power", "ca-netscience",
                                      "highschool", "bio-celegans"])
    def test_degree_matched(self, name):
        spec = dataset_info(name)
        g = load_dataset(name, scale=0.3, seed=0)
        assert abs(g.average_degree - spec.average_degree) < max(
            0.35 * spec.average_degree, 1.5
        )

    @pytest.mark.parametrize("name", list_datasets())
    def test_degree_within_table2_bench_tolerance_at_quick_scale(self, name):
        # The tolerance of benchmarks/bench_table2_datasets.py at the quick
        # profile's scale, where only the Holme–Kim node floor lets a dense
        # spec reach it (highschool: m = 18 on 0.1 · 327 ≈ 33 nodes).
        spec = dataset_info(name)
        g = load_dataset(name, scale=0.1, seed=0)
        assert abs(g.average_degree - spec.average_degree) < max(
            0.35 * spec.average_degree, 2.0
        )

    def test_scale_shrinks(self):
        big = load_dataset("arenas", scale=0.5, seed=0)
        small = load_dataset("arenas", scale=0.1, seed=0)
        assert small.num_nodes < big.num_nodes

    def test_full_scale_node_count(self):
        g = load_dataset("arenas", scale=1.0, seed=0)
        assert g.num_nodes == 1133

    def test_invalid_scale(self):
        with pytest.raises(DatasetError):
            load_dataset("arenas", scale=0.0)
        with pytest.raises(DatasetError):
            load_dataset("arenas", scale=2.0)

    def test_left_out_nodes_disconnected(self):
        """Datasets with ℓ > 0 must come with satellite components (they
        drive GRASP's documented failures)."""
        g = load_dataset("inf-euroroad", scale=0.5, seed=0)
        assert number_of_components(g) > 1
        _lcc, nodes = largest_connected_component(g)
        spec = dataset_info("inf-euroroad")
        expected_out = int(round(spec.left_out * 0.5))
        assert g.num_nodes - nodes.size == pytest.approx(expected_out, abs=3)

    def test_connected_when_no_left_out(self):
        g = load_dataset("arenas", scale=0.2, seed=0)
        assert number_of_components(g) == 1

    def test_reproducible(self):
        assert load_dataset("voles", scale=0.3, seed=5) == load_dataset(
            "voles", scale=0.3, seed=5
        )


class TestTemporal:
    def test_versions_shrink(self):
        base, versions = temporal_versions(
            "voles", (0.8, 0.9, 0.99), scale=0.4, seed=0
        )
        sizes = [v.num_edges for v in versions]
        assert sizes[0] < sizes[1] < sizes[2] <= base.num_edges
        assert all(v.num_nodes == base.num_nodes for v in versions)

    def test_versions_are_subsets_for_proximity(self):
        base, versions = temporal_versions("highschool", (0.85,), scale=0.5, seed=0)
        assert versions[0].edge_set() <= base.edge_set()

    def test_multimagna_gains_and_losses(self):
        base, (variant,) = temporal_versions("multimagna", (0.85,), scale=0.4, seed=0)
        gained = variant.edge_set() - base.edge_set()
        lost = base.edge_set() - variant.edge_set()
        assert gained and lost

    def test_correlated_noise(self):
        """Persistent edges must survive in (almost) every snapshot."""
        base, versions = temporal_versions(
            "voles", (0.8, 0.8, 0.8), scale=0.4, seed=0
        )
        surviving = set.intersection(*(v.edge_set() for v in versions))
        # With independent uniform sampling the triple intersection would be
        # ~51% of edges; persistence-weighted sampling keeps notably more.
        assert len(surviving) > 0.55 * base.num_edges

    def test_pair_construction(self):
        pair = temporal_pair("voles", 0.85, scale=0.4, seed=1)
        assert pair.noise_type == "real"
        assert pair.noise_level == pytest.approx(0.15)
        assert pair.source.num_nodes == pair.target.num_nodes

    def test_non_temporal_rejected(self):
        with pytest.raises(DatasetError):
            temporal_versions("arenas")

    def test_bad_fraction_rejected(self):
        with pytest.raises(DatasetError):
            temporal_versions("voles", (1.5,))
