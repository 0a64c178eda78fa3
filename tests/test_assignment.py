"""Tests for the assignment back-ends (paper §3 / §6.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from repro.assignment.jv import (
    _EPS_RATIO,
    _EPS_STEPS,
    _SWEEPS_PER_EPS,
    _augmenting_path_solve,
    _dual_reduced,
)
from repro.context import RunContext
from repro.exceptions import AssignmentError
from repro.observability import capture_trace, counter_totals


@st.composite
def tied_similarities(draw):
    """Dense n x k similarities (1 <= n, k <= 8) full of exact zeros,
    negatives and ties: small integers, GRASP-like -d^2 (maximum -0.0),
    rounded normals and 0/1 masks."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("integers", "grasp", "normal", "mask")))
    if kind == "grasp":
        rows = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        cols = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        return -(np.subtract.outer(rows, cols).astype(float) ** 2)
    if kind == "normal":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return np.round(rng.normal(size=(n, k)), 1)
    low = -3 if kind == "integers" else 0
    high = 3 if kind == "integers" else 1
    values = draw(st.lists(st.integers(low, high), min_size=n * k,
                           max_size=n * k))
    return np.array(values, dtype=float).reshape(n, k)


def degenerate_similarity(kind, n, m, seed):
    """An n x m similarity of the low-rank, near-tied kinds whose row
    maxima pile up in few columns: rank-1, -2 and -8 products, LREA-like
    flat (entries within 3% of each other), GRASP-like -d^2 between 2-D
    points, a rounded (tied) rank-2 product, and uniform noise (full
    rank, row maxima spread over most columns)."""
    rng = np.random.default_rng(seed)
    if kind.startswith("rank"):
        k = int(kind[4:])
        return rng.random((n, k)) @ rng.random((k, m))
    if kind == "flat":
        product = rng.random((n, 2)) @ rng.random((2, m))
        return 1.0 + 0.03 * product / product.max()
    if kind == "grasp":
        x, y = rng.normal(size=(n, 2)), 8.0 * rng.normal(size=(m, 2))
        return -((x[:, np.newaxis, :] - y[np.newaxis, :, :]) ** 2).sum(axis=2)
    if kind == "tied":
        return np.round(rng.random((n, 2)) @ rng.random((2, m)), 2)
    assert kind == "noise"
    return rng.random((n, m))


def exact_exp_dual_reduced(cost):
    """``(reduced, tiny)``: the dual-reduced cost with every kernel built
    by plain ``np.exp``, the reference the flushed kernels must reproduce
    bit for bit, and the number of kernel entries in (0, 1e-307), which
    the flush zeroes."""
    m = cost.shape[1]
    tiny = 0
    with np.errstate(divide="ignore", over="ignore", under="ignore",
                     invalid="ignore"):
        spread = cost.max() - cost.min()
        g = np.zeros(m)
        buf = np.empty_like(cost)
        eps = spread / _EPS_RATIO
        for _ in range(_EPS_STEPS):
            np.subtract(cost, g, out=buf)
            buf -= buf.min(axis=1)[:, np.newaxis]
            buf *= -1.0 / eps
            np.exp(buf, out=buf)
            tiny += int(np.count_nonzero((buf > 0) & (buf < 1e-307)))
            col_scale = np.ones(m)
            for _ in range(_SWEEPS_PER_EPS):
                row_scale = 1.0 / (buf @ col_scale)
                col_scale = 1.0 / (row_scale @ buf)
            g += eps * np.log(col_scale)
            eps /= _EPS_RATIO
        np.subtract(cost, g, out=buf)
        buf -= buf.min(axis=1)[:, np.newaxis]
        assert np.isfinite(buf.max())
    return buf, tiny


def reference_mapping(sim):
    """scipy's LAP on the unreduced similarity, as a mapping array."""
    rows, cols = linear_sum_assignment(sim, maximize=True)
    mapping = np.full(sim.shape[0], -1, dtype=np.int64)
    mapping[rows] = cols
    return mapping


def matching_value(sim, mapping):
    matched = np.flatnonzero(mapping >= 0)
    return sim[matched, mapping[matched]].sum()


def unique_by_margin(sim, mapping, margin):
    """Whether every other full matching scores below ``mapping`` by more
    than ``margin`` (relative).  Any other matching misses one of
    ``mapping``'s pairs, so the best one is the best of the problems with
    one pair banned at a time."""
    best = matching_value(sim, mapping)
    banned = sim.min() - 1.0 - abs(sim).max() * sim.size
    for row in np.flatnonzero(mapping >= 0):
        trial = sim.copy()
        trial[row, mapping[row]] = banned
        if best - matching_value(trial, reference_mapping(trial)) \
                <= margin * abs(best):
            return False
    return True


def traced(function, *args):
    """``function(*args)`` and the trace counters it emitted."""
    with RunContext(trace=True).enter(), capture_trace() as trace:
        result = function(*args)
    return result, counter_totals(trace.to_payload())


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

    def test_non_matrix_rejected(self):
        with pytest.raises(AssignmentError):
            solve_lap(np.ones(3))
        with pytest.raises(AssignmentError):
            jonker_volgenant(np.ones((2, 2, 2)))

    def test_python_engine_reports_an_infeasible_row(self):
        # solve_lap rejects non-finite costs before either engine runs;
        # the engine's own guard fires on a row with no finite entry.
        with pytest.raises(AssignmentError, match="infeasible"):
            _augmenting_path_solve(np.array([[0.0, 1.0], [np.inf, np.inf]]))


class TestDualWarmStart:
    """The scipy engine's dual-reduced cost against scipy on the
    unreduced cost, the reference."""

    KINDS = ("rank1", "rank2", "rank8", "flat", "grasp", "tied")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", [(128, 128), (150, 150),
                                       (150, 170), (170, 150)],
                             ids="{0[0]}x{0[1]}".format)
    def test_matches_the_unreduced_reference(self, kind, shape):
        sim = degenerate_similarity(kind, *shape, seed=sum(shape))
        reference = reference_mapping(sim)
        mapping, counters = traced(jonker_volgenant, sim)
        if shape[0] == shape[1]:
            assert counters["lap_dual_sweeps"] > 0
        best = matching_value(sim, reference)
        assert np.sum(mapping >= 0) == min(shape)
        assert len(set(mapping[mapping >= 0].tolist())) == min(shape)
        assert matching_value(sim, mapping) == pytest.approx(
            best, rel=1e-12, abs=0)
        if not np.array_equal(mapping, reference):
            # Only a co-optimal tie may change: the reference optimum
            # must not be unique by a margin.
            assert not unique_by_margin(sim, reference, 1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [128, 150, 300])
    def test_flushed_kernels_give_the_exact_reduced_cost(self, kind, n):
        cost = -degenerate_similarity(kind, n, n, seed=n + 1)
        reduced = _dual_reduced(cost)
        reference, tiny = exact_exp_dual_reduced(cost)
        # The flush has entries to zero, and zeroing them changes nothing.
        assert tiny > 0
        assert np.array_equal(reduced, reference)

    @pytest.mark.parametrize("method", ASSIGNMENT_METHODS)
    @pytest.mark.parametrize("n", [40, 150])
    def test_relabeling_permutes_the_mapping(self, method, n):
        sim = degenerate_similarity("rank2", n, n, seed=n)
        rng = np.random.default_rng(n + 1)
        rows, cols = rng.permutation(n), rng.permutation(n)
        mapping = extract_alignment(sim, method)
        relabeled = extract_alignment(sim[np.ix_(rows, cols)], method)
        # Row k of the relabeled problem is source rows[k]; its column c
        # is target cols[c].
        assert np.array_equal(cols[relabeled], mapping[rows])

    @pytest.mark.parametrize("kind, shape", [
        ("rank1", (127, 127)),
        ("rank1", (40, 40)),
        ("rank1", (150, 170)),
        ("rank1", (170, 150)),
        ("flat", (200, 201)),
        ("noise", (200, 200)),
    ], ids=lambda value: value if isinstance(value, str)
        else "{0[0]}x{0[1]}".format(value))
    def test_rectangular_small_and_spread_inputs_stay_plain(self, kind,
                                                            shape):
        sim = degenerate_similarity(kind, *shape, seed=3)
        mapping, counters = traced(jonker_volgenant, sim)
        assert "lap_dual_sweeps" not in counters
        assert matching_value(sim, mapping) == pytest.approx(
            matching_value(sim, reference_mapping(sim)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["zero spread", "infinite spread",
                                      "subnormal spread"])
    def test_degenerate_spread_falls_back_to_the_plain_call(self, case):
        n = 150
        pattern = np.round(
            8 * degenerate_similarity("rank1", n, n, seed=5))
        if case == "zero spread":
            cost = np.full((n, n), 0.5)
        elif case == "infinite spread":
            cost = pattern.copy()
            cost[0, 0], cost[1, 1] = -1e308, 1e308
        else:
            # Exact multiples of the smallest subnormal: every gate
            # passes, but 1/ε overflows and the potentials turn NaN.
            cost = pattern * 5e-324
            assert 0 < cost.max() - cost.min() < np.inf
            assert np.unique(cost.argmin(axis=1)).size <= n // 4
        mapping, counters = traced(solve_lap, cost)
        assert "lap_dual_sweeps" not in counters
        assert np.array_equal(mapping, linear_sum_assignment(cost)[1])


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
        # No targets at all: every source is unmatched.
        assert extract_alignment(np.empty((3, 0)), method).tolist() \
            == [-1, -1, -1]

    def test_unknown_method_rejected(self, sim_3x3):
        with pytest.raises(AssignmentError):
            extract_alignment(sim_3x3, "hungarian-deluxe")

    def test_sparse_input_densified_for_jv(self):
        sim = sparse.csr_matrix(np.eye(4))
        assert extract_alignment(sim, "jv").tolist() == [0, 1, 2, 3]

    @given(tied_similarities())
    @settings(max_examples=200, deadline=None)
    def test_objective_order_jv_equals_mwm_at_least_greedy(self, sim):
        # The similarity-sum objective orders the back-ends JV = MWM
        # (dense) >= SG, NN-1to1 on every dense input, zeros included.
        rows, cols = linear_sum_assignment(sim, maximize=True)
        best = sim[rows, cols].sum()
        for method in ("jv", "mwm", "sg", "nn-1to1"):
            mapping = extract_alignment(sim, method)
            matched = np.flatnonzero(mapping >= 0)
            assert len(set(mapping[matched].tolist())) == matched.size
            value = sim[matched, mapping[matched]].sum()
            if method in ("jv", "mwm"):
                assert matched.size == min(sim.shape), method
                assert value == pytest.approx(best, abs=1e-9), method
            else:
                assert value <= best + 1e-9, method

    def test_oracle_similarity_recovers_permutation(self):
        rng = np.random.default_rng(3)
        perm = rng.permutation(30)
        sim = np.zeros((30, 30))
        sim[np.arange(30), perm] = 1.0
        for method in ("sg", "jv", "nn", "nn-1to1"):
            assert np.array_equal(extract_alignment(sim, method), perm), method
