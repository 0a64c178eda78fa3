"""Property-based tests (hypothesis) for the statistics layer.

The statistical layer's contract is behavioral, not numeric: p-values
live in [0, 1] and are roughly uniform under the null, confidence
intervals bracket their point estimate, results are invariant to pair
order, and one integer seed pins every drawn value bit-for-bit — even
across interpreter processes with different ``PYTHONHASHSEED``.  These
properties are exactly what the journaled/parallel harness leans on, so
they are tested directly rather than through the sweep.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ExperimentError
from repro.stats import (
    RESAMPLE_CHUNK,
    StatsConfig,
    bootstrap_ci,
    chunk_rng,
    comparison_seed,
    group_seed,
    holm_correction,
    permutation_test,
    resample_chunks,
)

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
samples = st.lists(finite, min_size=2, max_size=40)
seeds = st.integers(0, 2 ** 31 - 1)


# ----------------------------------------------------------------------
# Permutation test
# ----------------------------------------------------------------------

class TestPermutationProperties:
    @given(samples, seeds)
    @settings(max_examples=60, deadline=None)
    def test_p_value_in_unit_interval(self, diffs, seed):
        result = permutation_test(diffs, resamples=200, seed=seed)
        assert 0.0 <= result.p_value <= 1.0
        assert result.statistic == pytest.approx(np.mean(diffs))

    @given(samples, seeds)
    @settings(max_examples=40, deadline=None)
    def test_pair_order_invariance(self, diffs, seed):
        shuffled = list(diffs)
        np.random.default_rng(0).shuffle(shuffled)
        assert (permutation_test(diffs, resamples=300, seed=seed)
                == permutation_test(shuffled, resamples=300, seed=seed))

    @given(samples)
    @settings(max_examples=40, deadline=None)
    def test_exact_path_ignores_seed(self, diffs):
        # With the budget covering all 2^n assignments there is no RNG:
        # any two seeds give the same (exact) answer.
        n = min(len(diffs), 8)
        diffs = diffs[:n]
        first = permutation_test(diffs, resamples=2 ** n, seed=1)
        second = permutation_test(diffs, resamples=2 ** n, seed=999)
        assert first.exact and first == second
        assert first.resamples == 2 ** n

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_monte_carlo_add_one_floor(self, seed):
        # 20 pairs forces the MC path; the add-one estimator can never
        # report an impossible p = 0.
        diffs = list(np.linspace(1.0, 2.0, 20))
        result = permutation_test(diffs, resamples=500, seed=seed)
        assert not result.exact
        assert result.p_value >= 1.0 / 501

    def test_null_distribution_roughly_uniform(self):
        # Symmetric null: each dataset's diffs are sign-symmetric noise,
        # so p-values should be ~Uniform(0, 1).  Checked loosely (mean
        # near 1/2, small-p mass near its nominal share) over a fixed
        # seeded batch — no flakiness.
        rng = np.random.default_rng(42)
        p_values = [
            permutation_test(rng.standard_normal(24),
                             resamples=400, seed=i).p_value
            for i in range(200)
        ]
        assert 0.4 < np.mean(p_values) < 0.6
        assert np.mean(np.asarray(p_values) <= 0.1) < 0.25

    def test_signal_detected(self):
        # A consistent 1-sigma shift across 24 pairs is overwhelming
        # evidence; the permutation test must say so.
        rng = np.random.default_rng(7)
        diffs = rng.standard_normal(24) + 1.0
        assert permutation_test(diffs, resamples=2000, seed=3).p_value < 0.01


# ----------------------------------------------------------------------
# Bootstrap CIs
# ----------------------------------------------------------------------

class TestBootstrapProperties:
    @given(samples, seeds, st.sampled_from(["percentile", "bca"]))
    @settings(max_examples=60, deadline=None)
    def test_ci_brackets_estimate(self, values, seed, method):
        result = bootstrap_ci(values, resamples=300, seed=seed,
                              method=method)
        assert result.low <= result.estimate <= result.high
        assert result.estimate == pytest.approx(np.mean(values))

    @given(samples, seeds, st.sampled_from(["percentile", "bca"]))
    @settings(max_examples=40, deadline=None)
    def test_order_invariance(self, values, seed, method):
        shuffled = list(values)
        np.random.default_rng(1).shuffle(shuffled)
        assert (bootstrap_ci(values, resamples=300, seed=seed,
                             method=method)
                == bootstrap_ci(shuffled, resamples=300, seed=seed,
                                method=method))

    @given(finite, seeds)
    @settings(max_examples=30, deadline=None)
    def test_degenerate_samples_collapse(self, value, seed):
        single = bootstrap_ci([value], resamples=100, seed=seed)
        constant = bootstrap_ci([value] * 5, resamples=100, seed=seed)
        for result in (single, constant):
            assert result.low == result.estimate == result.high

    @given(samples, seeds)
    @settings(max_examples=30, deadline=None)
    def test_wider_confidence_is_wider(self, values, seed):
        narrow = bootstrap_ci(values, confidence=0.80, resamples=400,
                              seed=seed, method="percentile")
        wide = bootstrap_ci(values, confidence=0.99, resamples=400,
                            seed=seed, method="percentile")
        assert wide.low <= narrow.low and narrow.high <= wide.high

    def test_percentile_coverage_near_nominal(self):
        # 90% CIs over repeated N(0,1) samples should cover the true
        # mean (0) close to 90% of the time.  Fixed seeds, loose band.
        rng = np.random.default_rng(11)
        covered = 0
        trials = 120
        for i in range(trials):
            result = bootstrap_ci(rng.standard_normal(30),
                                  confidence=0.90, resamples=400,
                                  seed=i, method="percentile")
            covered += result.low <= 0.0 <= result.high
        assert 0.78 <= covered / trials <= 0.98


# ----------------------------------------------------------------------
# Holm correction
# ----------------------------------------------------------------------

class TestHolmProperties:
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_adjusted_dominates_raw_and_caps_at_one(self, p_values):
        adjusted = holm_correction(p_values)
        assert len(adjusted) == len(p_values)
        for raw, adj in zip(p_values, adjusted):
            assert raw <= adj <= 1.0

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_raw_order(self, p_values):
        adjusted = holm_correction(p_values)
        pairs = sorted(zip(p_values, adjusted))
        for (_, first), (_, second) in zip(pairs, pairs[1:]):
            assert first <= second

    @given(st.floats(0.0, 1.0), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_bonferroni_at_the_smallest(self, p, m):
        # The smallest raw p is scaled by the full family size (capped).
        family = [p] + [1.0] * (m - 1)
        assert holm_correction(family)[0] == pytest.approx(min(1.0, m * p))

    def test_empty_family(self):
        assert holm_correction([]) == []

    def test_matches_sequential_procedure(self):
        # adjusted < alpha must reproduce the classical step-down walk.
        p_values = [0.001, 0.008, 0.039, 0.041, 0.27]
        alpha = 0.05
        adjusted = holm_correction(p_values)
        sequential = []
        for rank, p in enumerate(sorted(p_values)):
            if p > alpha / (len(p_values) - rank):
                break
            sequential.append(p)
        rejected = sorted(p for p, a in zip(p_values, adjusted)
                          if a < alpha)
        assert rejected == sequential


# ----------------------------------------------------------------------
# Chunked seeding
# ----------------------------------------------------------------------

class TestChunking:
    @given(st.integers(1, 10_000), st.integers(1, 512))
    @settings(max_examples=60, deadline=None)
    def test_chunks_partition_the_budget(self, resamples, chunk):
        pieces = resample_chunks(resamples, chunk)
        assert [index for index, _ in pieces] == list(range(len(pieces)))
        assert sum(count for _, count in pieces) == resamples
        assert all(1 <= count <= chunk for _, count in pieces)

    @given(seeds, st.integers(0, 64))
    @settings(max_examples=40, deadline=None)
    def test_chunk_rng_is_reproducible_and_distinct(self, seed, index):
        first = chunk_rng(seed, index).integers(0, 2 ** 30, size=8)
        second = chunk_rng(seed, index).integers(0, 2 ** 30, size=8)
        np.testing.assert_array_equal(first, second)
        other = chunk_rng(seed, index + 1).integers(0, 2 ** 30, size=8)
        assert not np.array_equal(first, other)

    def test_default_chunk_constant(self):
        assert RESAMPLE_CHUNK >= 1


class TestCrossProcessDeterminism:
    def test_bit_identical_across_interpreters(self):
        # Two fresh interpreters with different PYTHONHASHSEED must
        # reproduce the exact same p-values, CI endpoints, and derived
        # unit seeds — the property the journal leans on.
        script = (
            "from repro.stats import (permutation_test, bootstrap_ci, "
            "group_seed, comparison_seed)\n"
            "diffs = [0.11, -0.02, 0.07, 0.05, -0.01] * 5\n"
            "p = permutation_test(diffs, resamples=999, seed=123)\n"
            "b = bootstrap_ci(diffs, resamples=999, seed=123)\n"
            "print(repr((p.p_value, b.low, b.high, "
            "group_seed(3, 'one-way', 0.05, 's3', 'isorank'), "
            "comparison_seed(3, 'one-way', 0.05, 's3', 'nsd', 'cone'))))\n"
        )
        outputs = []
        for hash_seed in ("0", "31337"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(ROOT / "src") + (
                os.pathsep + env["PYTHONPATH"]
                if env.get("PYTHONPATH") else ""
            )
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# Validation errors
# ----------------------------------------------------------------------

class TestValidation:
    def test_empty_and_non_finite_samples_rejected(self):
        with pytest.raises(ExperimentError, match="non-empty"):
            permutation_test([])
        with pytest.raises(ExperimentError, match="finite"):
            permutation_test([0.1, float("nan")])
        with pytest.raises(ExperimentError, match="non-empty"):
            bootstrap_ci([])
        with pytest.raises(ExperimentError, match="finite"):
            bootstrap_ci([0.1, float("inf")])

    def test_bad_budgets_rejected(self):
        with pytest.raises(ExperimentError, match="resamples"):
            permutation_test([0.1, 0.2], resamples=0)
        with pytest.raises(ExperimentError, match="chunk"):
            permutation_test([0.1, 0.2], resamples=10, chunk=0)
        with pytest.raises(ExperimentError, match="resamples"):
            resample_chunks(-3)

    def test_bad_bootstrap_parameters_rejected(self):
        with pytest.raises(ExperimentError, match="confidence"):
            bootstrap_ci([0.1, 0.2], confidence=1.0)
        with pytest.raises(ExperimentError, match="method"):
            bootstrap_ci([0.1, 0.2], method="studentized")

    def test_bad_p_values_rejected(self):
        with pytest.raises(ExperimentError, match=r"\[0, 1\]"):
            holm_correction([0.5, 1.5])

    @pytest.mark.parametrize("kwargs", [
        dict(resamples=0),
        dict(confidence=0.0),
        dict(confidence=1.0),
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(bootstrap_method="jackknife"),
        dict(min_pairs=0),
    ])
    def test_stats_config_validation(self, kwargs):
        with pytest.raises(ExperimentError):
            StatsConfig(**kwargs)

    def test_stats_config_defaults_valid(self):
        config = StatsConfig()
        assert config.resamples == 2000
        assert config.bootstrap_method == "bca"
