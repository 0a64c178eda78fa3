"""Tests for the optimal-transport substrate (Sinkhorn, GW, Procrustes)."""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.context import RunContext
from repro.diagnostics import capture_diagnostics, record_diagnostic
from repro.exceptions import AlgorithmError, ConvergenceError
from repro.graphs import erdos_renyi_graph, powerlaw_cluster_graph
from repro.noise import make_pair
from repro.observability import add_counter, capture_trace, counter_totals
from repro.ot import (
    gromov_wasserstein,
    gw_discrepancy,
    gw_gradient,
    orthogonal_procrustes,
    sinkhorn,
)
from repro.ot.gromov import gw_barycenter_costs


# ----------------------------------------------------------------------
# Reference: the log-domain Sinkhorn loop, two log-sum-exp passes per
# sweep.  ``sinkhorn`` must compute what it computes.
# ----------------------------------------------------------------------

def _reference_check_marginal(weights: Optional[np.ndarray], size: int) -> np.ndarray:
    if weights is None:
        return np.full(size, 1.0 / size)
    arr = np.asarray(weights, dtype=np.float64)
    if arr.shape != (size,):
        raise AlgorithmError(f"marginal must have shape ({size},), got {arr.shape}")
    if np.any(arr < 0) or arr.sum() <= 0:
        raise AlgorithmError("marginals must be non-negative and sum to > 0")
    return arr / arr.sum()


def reference_sinkhorn(
    cost: np.ndarray,
    mu: Optional[np.ndarray] = None,
    nu: Optional[np.ndarray] = None,
    epsilon: float = 0.01,
    max_iter: int = 500,
    tol: float = 1e-9,
    raise_on_failure: bool = False,
) -> np.ndarray:
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise AlgorithmError(f"cost must be 2-D, got ndim={c.ndim}")
    if not np.all(np.isfinite(c)):
        # Match the finite checks of the assignment solvers: NaN/Inf in
        # the cost would silently poison the returned plan.
        bad = c.size - int(np.isfinite(c).sum())
        raise AlgorithmError(
            f"Sinkhorn cost matrix contains {bad} non-finite entries "
            f"(of {c.size})"
        )
    if epsilon <= 0:
        raise AlgorithmError(f"epsilon must be positive, got {epsilon}")
    n, m = c.shape
    mu = _reference_check_marginal(mu, n)
    nu = _reference_check_marginal(nu, m)

    log_mu = np.log(np.maximum(mu, 1e-300))
    log_nu = np.log(np.maximum(nu, 1e-300))
    f = np.zeros(n)
    g = np.zeros(m)
    scaled = -c / epsilon

    def _logsumexp(mat: np.ndarray, axis: int) -> np.ndarray:
        peak = mat.max(axis=axis, keepdims=True)
        peak = np.where(np.isfinite(peak), peak, 0.0)
        return (peak + np.log(np.exp(mat - peak).sum(axis=axis, keepdims=True))).squeeze(axis)

    converged = False
    shift = np.inf
    iterations = 0
    for _ in range(max_iter):
        f_new = epsilon * (log_mu - _logsumexp(scaled + g[np.newaxis, :] / epsilon, axis=1))
        g_new = epsilon * (
            log_nu - _logsumexp(scaled + f_new[:, np.newaxis] / epsilon, axis=0)
        )
        shift = max(np.abs(f_new - f).max(), np.abs(g_new - g).max())
        f, g = f_new, g_new
        iterations += 1
        if shift < tol:
            converged = True
            break
    add_counter("sinkhorn_iterations", iterations)
    if not converged:
        if raise_on_failure:
            raise ConvergenceError(
                f"Sinkhorn did not converge in {max_iter} iterations"
            )
        # Returning the current plan is the documented fallback (the
        # iterative GW solvers only need an approximate inner solve) —
        # make it observable instead of silent.
        record_diagnostic(
            "sinkhorn", "nonconvergence",
            f"no convergence in {max_iter} iterations "
            f"(last potential shift {shift:.3e}, tol {tol:.1e}); "
            "returning the current plan",
            fallback_used="current_plan",
        )
    plan = np.exp(scaled + f[:, np.newaxis] / epsilon + g[np.newaxis, :] / epsilon)
    # One exact row rescale keeps the mu-marginal tight.
    row = plan.sum(axis=1)
    row[row == 0] = 1.0
    return plan * (mu / row)[:, np.newaxis]


# ----------------------------------------------------------------------
# Reference: the scaling-domain loop with plain ``np.exp`` kernels (no
# flush below 1e-307) and the full check of every half-step (scaling and
# denominator against both bounds).  ``sinkhorn`` must reproduce it bit
# for bit.
# ----------------------------------------------------------------------

def _unflushed_logsumexp(mat: np.ndarray, axis: int) -> np.ndarray:
    peak = mat.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return (peak + np.log(np.exp(mat - peak).sum(axis=axis, keepdims=True))).squeeze(axis)


def _outside(scaling: np.ndarray, bound: float) -> bool:
    # Written so that a NaN scaling fails both comparisons.
    return not (scaling.min() >= 1.0 / bound and scaling.max() <= bound)


def unflushed_sinkhorn(
    cost: np.ndarray,
    mu: Optional[np.ndarray] = None,
    nu: Optional[np.ndarray] = None,
    epsilon: float = 0.01,
    max_iter: int = 500,
    tol: float = 1e-9,
    raise_on_failure: bool = False,
) -> np.ndarray:
    _ABSORB, _GUARD = 1e50, 1e100
    c = np.asarray(cost, dtype=np.float64)
    n, m = c.shape
    mu = _reference_check_marginal(mu, n)
    nu = _reference_check_marginal(nu, m)

    mass_mu = np.maximum(mu, 1e-300)
    mass_nu = np.maximum(nu, 1e-300)
    log_mu = np.log(mass_mu)
    log_nu = np.log(mass_nu)
    scaled = -c / epsilon
    a = -scaled.max(axis=1)
    b = np.zeros(m)
    kernel = np.exp(scaled + a[:, np.newaxis])
    f = np.zeros(n)
    g = np.zeros(m)
    ones_n, ones_m = np.ones(n), np.ones(m)
    v = ones_m

    def absorbed_kernel() -> np.ndarray:
        return np.exp(scaled + a[:, np.newaxis] + b[np.newaxis, :])

    converged = False
    shift = np.inf
    iterations = 0
    with np.errstate(divide="ignore", over="ignore", under="ignore",
                     invalid="ignore"):
        for _ in range(max_iter):
            kv = kernel @ v
            u = mass_mu / kv
            if _outside(u, _GUARD) or _outside(kv, _GUARD):
                b = b + np.log(v)
                a = log_mu - _unflushed_logsumexp(scaled + b[np.newaxis, :], axis=1)
                u, v = ones_n, ones_m
                kernel = absorbed_kernel()
            elif _outside(u, _ABSORB):
                a, b = a + np.log(u), b + np.log(v)
                u, v = ones_n, ones_m
                kernel = absorbed_kernel()
            ku = kernel.T @ u
            v = mass_nu / ku
            if _outside(v, _GUARD) or _outside(ku, _GUARD):
                a = a + np.log(u)
                b = log_nu - _unflushed_logsumexp(scaled + a[:, np.newaxis], axis=0)
                u, v = ones_n, ones_m
                kernel = absorbed_kernel()
            elif _outside(v, _ABSORB):
                a, b = a + np.log(u), b + np.log(v)
                u, v = ones_n, ones_m
                kernel = absorbed_kernel()
            f_new = a + np.log(u)
            g_new = b + np.log(v)
            shift = epsilon * max(np.abs(f_new - f).max(), np.abs(g_new - g).max())
            f, g = f_new, g_new
            iterations += 1
            if shift < tol:
                converged = True
                break
    add_counter("sinkhorn_iterations", iterations)
    if not converged:
        if raise_on_failure:
            raise ConvergenceError(
                f"Sinkhorn did not converge in {max_iter} iterations"
            )
        record_diagnostic(
            "sinkhorn", "nonconvergence",
            f"no convergence in {max_iter} iterations "
            f"(last potential shift {shift:.3e}, tol {tol:.1e}); "
            "returning the current plan",
            fallback_used="current_plan",
        )
    plan = np.exp(scaled + f[:, np.newaxis] + g[np.newaxis, :])
    row = plan.sum(axis=1)
    row[row == 0] = 1.0
    return plan * (mu / row)[:, np.newaxis]


def _traced(solver, *args, **kwargs):
    """``(plan, sinkhorn_iterations, diagnostics)`` of one solver call."""
    with RunContext(trace=True).enter(), capture_trace() as trace, \
            capture_diagnostics() as events:
        plan = solver(*args, **kwargs)
    counters = counter_totals(trace.to_payload())
    return (plan, counters.get("sinkhorn_iterations", 0),
            [(e.stage, e.kind, e.fallback_used) for e in events])


@st.composite
def sinkhorn_problems(draw):
    """``(cost, mu, nu, epsilon, max_iter)``: n x m costs (1 <= n, m <= 14)
    uniform times 1, 4 or 100, a fifth of them rounded to integers for
    ties; marginals uniform (None) or random with about 20% zero mass."""
    n, m = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cost = rng.random((n, m)) * draw(st.sampled_from((1.0, 4.0, 100.0)))
    if draw(st.integers(0, 4)) == 0:
        cost = np.round(cost)

    def marginal(size):
        if draw(st.booleans()):
            return None
        weights = rng.random(size)
        weights[rng.random(size) < 0.2] = 0.0
        if not weights.any():
            weights[rng.integers(size)] = 1.0
        return weights

    mu, nu = marginal(n), marginal(m)
    epsilon = draw(st.sampled_from((1e-4, 1e-3, 1e-2, 0.1, 1.0)))
    max_iter = draw(st.sampled_from((1, 5, 50, 500)))
    return cost, mu, nu, epsilon, max_iter


class TestSinkhorn:
    def test_marginals_satisfied(self):
        rng = np.random.default_rng(0)
        cost = rng.random((6, 8))
        mu = rng.random(6); mu /= mu.sum()
        nu = rng.random(8); nu /= nu.sum()
        plan = sinkhorn(cost, mu, nu, epsilon=0.05)
        assert np.allclose(plan.sum(axis=1), mu, atol=1e-6)
        assert np.allclose(plan.sum(axis=0), nu, atol=1e-4)

    def test_uniform_default_marginals(self):
        plan = sinkhorn(np.zeros((4, 4)), epsilon=0.1)
        assert np.allclose(plan, 0.0625)

    def test_small_epsilon_sharpens_toward_permutation(self):
        cost = 1.0 - np.eye(5)
        plan = sinkhorn(cost, epsilon=0.005, max_iter=2000)
        assert np.allclose(np.argmax(plan, axis=1), np.arange(5))
        assert plan.max() > 0.19  # close to the 1/5 permutation mass

    def test_invalid_epsilon(self):
        with pytest.raises(AlgorithmError):
            sinkhorn(np.zeros((2, 2)), epsilon=0.0)

    def test_bad_marginal_shape(self):
        with pytest.raises(AlgorithmError):
            sinkhorn(np.zeros((2, 2)), mu=np.ones(3))

    def test_negative_marginal_rejected(self):
        with pytest.raises(AlgorithmError):
            sinkhorn(np.zeros((2, 2)), mu=np.array([-1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_marginal_rejected(self, bad):
        # NaN fails every comparison, so the sign check alone let it
        # through and the plan came back all-NaN.
        with pytest.raises(AlgorithmError, match="finite"):
            sinkhorn(np.ones((2, 2)), mu=np.array([bad, 1.0]))
        with pytest.raises(AlgorithmError, match="finite"):
            sinkhorn(np.ones((2, 2)), nu=np.array([bad, 1.0]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_cost_rejected(self, shape):
        with pytest.raises(AlgorithmError, match="non-empty"):
            sinkhorn(np.ones(shape))

    def test_non_matrix_cost_rejected(self):
        with pytest.raises(AlgorithmError, match="2-D"):
            sinkhorn(np.ones(3))

    def test_raise_on_failure(self):
        rng = np.random.default_rng(1)
        cost = rng.random((10, 10)) * 100
        with pytest.raises(ConvergenceError):
            sinkhorn(cost, epsilon=0.001, max_iter=1,
                     raise_on_failure=True)


class TestSinkhornOracle:
    """``sinkhorn`` (scaling domain) against the log-domain reference."""

    @given(sinkhorn_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_log_domain_reference(self, problem):
        cost, mu, nu, epsilon, max_iter = problem
        plan, sweeps, events = _traced(sinkhorn, cost, mu, nu,
                                       epsilon=epsilon, max_iter=max_iter)
        ref_plan, ref_sweeps, ref_events = _traced(
            reference_sinkhorn, cost, mu, nu, epsilon=epsilon,
            max_iter=max_iter)
        assert np.abs(plan - ref_plan).max() <= 1e-9
        assert sweeps == ref_sweeps
        assert events == ref_events

    @pytest.mark.parametrize("transpose, mu, nu", [
        (False, [0.0, 1.0], None),
        (True, None, [0.0, 1.0]),
        (False, [0.0, 1.0], [0.0, 1.0]),
    ])
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
    def test_zero_mass_entries_match_reference(self, transpose, mu, nu,
                                               epsilon):
        # A zero-mass entry (clamped to 1e-300) puts its kernel row or
        # column next to the subnormal range: here the row's second
        # entry is e^-50 below its first.  Scaling it there would lose
        # the digits its potential, and so the convergence test, needs.
        cost = np.array([[0.5, 1.0], [0.0, 0.5]])
        if transpose:
            cost = cost.T
        mu = None if mu is None else np.array(mu)
        nu = None if nu is None else np.array(nu)
        plan, sweeps, _ = _traced(sinkhorn, cost, mu, nu, epsilon=epsilon)
        ref_plan, ref_sweeps, _ = _traced(reference_sinkhorn, cost, mu, nu,
                                          epsilon=epsilon)
        assert np.abs(plan - ref_plan).max() <= 1e-9
        assert sweeps == ref_sweeps
        if mu is not None:
            assert np.all(plan[mu == 0] == 0.0)

    def test_absorbed_scalings_match_reference(self):
        # More columns than rows at a small epsilon: potentials move by
        # hundreds of epsilon in a half-step, so both u and v leave
        # [1e-50, 1e50] and are folded into the kernel.
        cost = np.array([[2.5, 1.1, 0.2], [0.1, 3.3, 3.7]])
        plan, sweeps, _ = _traced(sinkhorn, cost, epsilon=0.005)
        ref_plan, ref_sweeps, _ = _traced(reference_sinkhorn, cost,
                                          epsilon=0.005)
        assert np.abs(plan - ref_plan).max() <= 1e-9
        assert sweeps == ref_sweeps

    @given(sinkhorn_problems(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_permuting_the_problem_permutes_the_plan(self, problem, seed):
        cost, mu, nu, epsilon, max_iter = problem
        n, m = cost.shape
        rng = np.random.default_rng(seed)
        rows, cols = rng.permutation(n), rng.permutation(m)
        plan = sinkhorn(cost, mu, nu, epsilon=epsilon, max_iter=max_iter)
        permuted = sinkhorn(
            cost[np.ix_(rows, cols)],
            None if mu is None else mu[rows],
            None if nu is None else nu[cols],
            epsilon=epsilon, max_iter=max_iter)
        assert np.abs(permuted - plan[np.ix_(rows, cols)]).max() <= 1e-10


class TestSinkhornBitIdentity:
    """``sinkhorn`` (flushed kernels, one min/max per half-step) against
    the unflushed loop that checks every denominator: the same plan bit
    for bit, the same sweep count and the same diagnostics."""

    @given(sinkhorn_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_unflushed_loop(self, problem):
        cost, mu, nu, epsilon, max_iter = problem
        plan, sweeps, events = _traced(sinkhorn, cost, mu, nu,
                                       epsilon=epsilon, max_iter=max_iter)
        ref_plan, ref_sweeps, ref_events = _traced(
            unflushed_sinkhorn, cost, mu, nu, epsilon=epsilon,
            max_iter=max_iter)
        assert np.array_equal(plan, ref_plan)
        assert sweeps == ref_sweeps
        assert events == ref_events

    @pytest.mark.parametrize("tiny", [1e-60, 1e-50, 1e-49, 0.0])
    @pytest.mark.parametrize("epsilon", [1e-3, 1e-2, 0.1])
    def test_marginals_below_the_floor(self, tiny, epsilon):
        # A marginal entry below 1e-49 keeps the full denominator check:
        # a scaling inside [1e-50, 1e50] no longer bounds K v.
        rng = np.random.default_rng(5)
        cost = rng.random((9, 7)) * 4.0
        mu = rng.random(9)
        mu[[2, 5]] = tiny
        nu = rng.random(7)
        nu[3] = tiny
        plan, sweeps, events = _traced(sinkhorn, cost, mu, nu,
                                       epsilon=epsilon)
        ref_plan, ref_sweeps, ref_events = _traced(
            unflushed_sinkhorn, cost, mu, nu, epsilon=epsilon)
        assert np.array_equal(plan, ref_plan)
        assert (sweeps, events) == (ref_sweeps, ref_events)

    def test_flushes_on_a_cone_sized_problem(self):
        # Large costs at a small epsilon: a quarter of the first kernel's
        # exponents fall below -707, many of them where np.exp would
        # still return a (subnormal) non-zero, and the plan is still the
        # unflushed loop's.
        rng = np.random.default_rng(11)
        cost = rng.random((120, 120)) * 50.0
        exponent = (cost.min(axis=1, keepdims=True) - cost) / 0.05
        assert (exponent < -707).mean() > 0.25
        assert np.count_nonzero((exponent < -707) & (exponent > -745)) > 100
        plan, sweeps, events = _traced(sinkhorn, cost, epsilon=0.05,
                                       max_iter=300)
        ref = _traced(unflushed_sinkhorn, cost, epsilon=0.05, max_iter=300)
        assert np.array_equal(plan, ref[0])
        assert (sweeps, events) == ref[1:]


class TestGromovWasserstein:
    def test_identity_cost_recovers_identity(self):
        rng = np.random.default_rng(2)
        c = rng.random((8, 8))
        c = (c + c.T) / 2
        plan = gromov_wasserstein(c, c, beta=0.01, outer_iter=50)
        assert np.allclose(np.argmax(plan, axis=1), np.arange(8))

    def test_permuted_cost_recovered(self):
        rng = np.random.default_rng(3)
        c1 = rng.random((10, 10)); c1 = (c1 + c1.T) / 2
        perm = rng.permutation(10)
        c2 = c1[np.ix_(perm, perm)]
        # plan should map i -> position of i in c2, i.e. argsort(perm)?
        plan = gromov_wasserstein(c1, c2, beta=0.01, outer_iter=60)
        mapping = np.argmax(plan, axis=1)
        inverse = np.argsort(perm)
        assert np.mean(mapping == inverse) > 0.8

    def test_discrepancy_zero_for_perfect_coupling(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = np.eye(2) / 2.0
        assert gw_discrepancy(c, c, plan) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_shape(self):
        c1 = np.zeros((3, 3)); c2 = np.zeros((5, 5))
        plan = np.full((3, 5), 1 / 15)
        grad = gw_gradient(c1, c2, plan, np.full(3, 1 / 3), np.full(5, 1 / 5))
        assert grad.shape == (3, 5)

    def test_rectangular(self):
        rng = np.random.default_rng(4)
        c1 = rng.random((6, 6)); c1 = (c1 + c1.T) / 2
        c2 = rng.random((9, 9)); c2 = (c2 + c2.T) / 2
        plan = gromov_wasserstein(c1, c2, beta=0.05, outer_iter=10)
        assert plan.shape == (6, 9)
        assert plan.sum() == pytest.approx(1.0, abs=1e-6)

    def test_nonsquare_cost_rejected(self):
        with pytest.raises(AlgorithmError):
            gromov_wasserstein(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_fused_term_steers_plan(self):
        # Identical structure, but the extra cost forbids the identity.
        c = np.zeros((3, 3))
        extra = 1.0 - np.roll(np.eye(3), 1, axis=1)  # prefer i -> i+1
        plan = gromov_wasserstein(c, c, beta=0.02, outer_iter=20,
                                  extra_cost=extra, alpha=1.0)
        assert np.allclose(np.argmax(plan, axis=1), (np.arange(3) + 1) % 3)

    @pytest.mark.parametrize("kwargs, match", [
        ({"extra_cost": np.ones(4), "alpha": 1.0},
         r"extra_cost must have shape \(3, 4\)"),
        ({"extra_cost": np.ones((3, 1)), "alpha": 1.0},
         r"extra_cost must have shape \(3, 4\)"),
        ({"init_plan": np.full((3, 4), 1 / 12) - np.eye(3, 4) / 6},
         "init_plan must be non-negative"),
        ({"init_plan": np.full((4, 3), 1 / 12)},
         r"init_plan must have shape \(3, 4\)"),
        ({"mu": np.full(4, 0.25)}, r"mu must have shape \(3,\)"),
        ({"nu": np.full(3, 1 / 3)}, r"nu must have shape \(4,\)"),
    ], ids=["extra-row", "extra-column", "negative-init", "init-shape",
            "mu-length", "nu-length"])
    def test_bad_input_rejected(self, kwargs, match):
        with pytest.raises(AlgorithmError, match=match):
            gromov_wasserstein(np.ones((3, 3)), np.ones((4, 4)), **kwargs)


def _gw_every_step(c1, c2, mu, nu, beta, outer_iter, inner_iter=100,
                   tol=1e-7, extra_cost=None, alpha=0.0, init_plan=None):
    """The proximal GW loop pricing each step with ``gw_gradient`` and
    scoring it with ``gw_discrepancy``: ``(plan, outer iterations)``."""
    mu = mu / mu.sum()
    nu = nu / nu.sum()
    plan = np.outer(mu, nu) if init_plan is None else init_plan
    prev_obj = np.inf
    outer_done = 0
    for _ in range(outer_iter):
        cost = gw_gradient(c1, c2, plan, mu, nu)
        if extra_cost is not None and alpha > 0:
            cost = cost + alpha * extra_cost
        prox_cost = cost - beta * np.log(np.maximum(plan, 1e-300))
        plan = sinkhorn(prox_cost, mu, nu, epsilon=beta, max_iter=inner_iter)
        outer_done += 1
        obj = gw_discrepancy(c1, c2, plan, mu, nu)
        if abs(prev_obj - obj) < tol * max(abs(prev_obj), 1.0):
            break
        prev_obj = obj
    return plan, outer_done


class TestGromovWassersteinOneGradientPerStep:
    """Reusing a step's gradient as the next step's cost changes nothing."""

    @pytest.mark.parametrize("costs", ["dense", "csr"])
    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("beta, outer_iter", [(0.05, 40), (0.01, 8)])
    def test_bit_identical_to_gradient_every_step(self, fused, warm, beta,
                                                   outer_iter, costs):
        rng = np.random.default_rng(11)
        c1 = rng.random((7, 7)); c1 = (c1 + c1.T) / 2
        c2 = rng.random((9, 9)); c2 = (c2 + c2.T) / 2
        if costs == "csr":
            # Half the entries zero, stored as a graph's adjacency is.
            c1 = sparse.csr_matrix(np.where(c1 < 0.5, 0.0, c1))
            c2 = sparse.csr_matrix(np.where(c2 < 0.5, 0.0, c2))
        mu, nu = rng.random(7) + 0.5, rng.random(9) + 0.5
        extra = rng.random((7, 9)) if fused else None
        alpha = 0.5 if fused else 0.0
        init = None
        if warm:
            init = rng.random((7, 9))
            init /= init.sum()
        with RunContext(trace=True).enter(), capture_trace() as trace:
            plan = gromov_wasserstein(c1, c2, mu, nu, beta=beta,
                                      outer_iter=outer_iter,
                                      extra_cost=extra, alpha=alpha,
                                      init_plan=init)
        ref_plan, ref_outer = _gw_every_step(
            c1, c2, mu, nu, beta, outer_iter, extra_cost=extra, alpha=alpha,
            init_plan=init)
        assert np.array_equal(plan, ref_plan)
        assert counter_totals(trace.to_payload())["gw_outer_iterations"] \
            == ref_outer


def _gw_cost_forms(model):
    """A noisy pair's adjacency matrices (ER or PL, n=90 and 120) as
    ``csr_matrix``, ``csr_array`` and dense arrays, plus node masses."""
    graph = (erdos_renyi_graph(90, 0.08, seed=2) if model == "er"
             else powerlaw_cluster_graph(120, 3, 0.3, seed=2))
    pair = make_pair(graph, "one-way", 0.05, seed=4)
    c1, c2 = pair.source.adjacency(), pair.target.adjacency()
    forms = {
        "csr_matrix": (c1, c2),
        "csr_array": (sparse.csr_array(c1), sparse.csr_array(c2)),
        "dense": (c1.toarray(), c2.toarray()),
    }
    mu = pair.source.degrees + 1.0
    nu = pair.target.degrees + 1.0
    return forms, mu / mu.sum(), nu / nu.sum()


class TestSparseCostsMatchDense:
    """Sparse costs run the dense costs' algorithm: same numbers, to
    rounding, and the same number of proximal steps."""

    @pytest.mark.parametrize("form", ["csr_matrix", "csr_array", "dense"])
    @pytest.mark.parametrize("model", ["er", "pl"])
    def test_constant_term_is_elementwise_square(self, model, form):
        forms, mu, nu = _gw_cost_forms(model)
        # Edge weights other than 1, so that C∘C differs from C.
        c1, c2 = (3.0 * c for c in forms[form])
        d1, d2 = (3.0 * c for c in forms["dense"])
        n1, n2 = d1.shape[0], d2.shape[0]
        expected = ((d1 ** 2) @ mu[:, np.newaxis] @ np.ones((1, n2))
                    + np.ones((n1, 1)) @ nu[np.newaxis, :] @ (d2 ** 2).T)
        # The cross term vanishes at the zero plan.
        const = gw_gradient(c1, c2, np.zeros((n1, n2)), mu, nu)
        assert np.allclose(const, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("form", ["csr_matrix", "csr_array"])
    @pytest.mark.parametrize("model", ["er", "pl"])
    def test_gradient_and_discrepancy(self, model, form):
        forms, mu, nu = _gw_cost_forms(model)
        rng = np.random.default_rng(7)
        plan = rng.random((mu.size, nu.size))
        plan /= plan.sum()
        grad = gw_gradient(*forms[form], plan, mu, nu)
        assert isinstance(grad, np.ndarray)
        assert np.allclose(grad, gw_gradient(*forms["dense"], plan, mu, nu),
                           rtol=0, atol=1e-12)
        assert gw_discrepancy(*forms[form], plan) == pytest.approx(
            gw_discrepancy(*forms["dense"], plan), rel=0, abs=1e-12)

    @pytest.mark.parametrize("form", ["csr_matrix", "csr_array"])
    @pytest.mark.parametrize("model", ["er", "pl"])
    def test_solver(self, model, form):
        forms, mu, nu = _gw_cost_forms(model)

        def solve(costs):
            with RunContext(trace=True).enter(), capture_trace() as trace:
                plan = gromov_wasserstein(*costs, mu, nu, beta=0.02,
                                          outer_iter=100)
            return plan, counter_totals(trace.to_payload())

        plan, counters = solve(forms[form])
        dense_plan, dense_counters = solve(forms["dense"])
        assert np.allclose(plan, dense_plan, rtol=0, atol=1e-12)
        # Convergence, not the step cap, ends both runs.
        assert counters["gw_outer_iterations"] \
            == dense_counters["gw_outer_iterations"] < 100

    @pytest.mark.parametrize("form", ["csr_matrix", "csr_array"])
    @pytest.mark.parametrize("model", ["er", "pl"])
    def test_barycenter(self, model, form):
        forms, _mu, _nu = _gw_cost_forms(model)
        bary, plans = gw_barycenter_costs(
            list(forms[form]), seed=np.random.default_rng(0), restarts=2)
        dense_bary, dense_plans = gw_barycenter_costs(
            list(forms["dense"]), seed=np.random.default_rng(0), restarts=2)
        assert np.allclose(bary, dense_bary, rtol=0, atol=1e-12)
        for plan, dense_plan in zip(plans, dense_plans):
            assert np.allclose(plan, dense_plan, rtol=0, atol=1e-12)


class TestBarycenter:
    def test_partitions_two_blocks(self):
        # Two disjoint cliques: barycenter couplings should split them.
        block = np.ones((4, 4)) - np.eye(4)
        c = np.block([[block, np.zeros((4, 4))],
                      [np.zeros((4, 4)), block]])
        _bary, (plan,) = gw_barycenter_costs([c], size=2, beta=0.05,
                                             seed=np.random.default_rng(0))
        labels = np.argmax(plan, axis=1)
        assert len(set(labels[:4].tolist())) == 1
        assert len(set(labels[4:].tolist())) == 1
        assert labels[0] != labels[4]

    def test_empty_list_rejected(self):
        with pytest.raises(AlgorithmError):
            gw_barycenter_costs([])


class TestProcrustes:
    def test_recovers_rotation(self):
        rng = np.random.default_rng(5)
        x = rng.random((20, 4))
        q_true, _ = np.linalg.qr(rng.random((4, 4)))
        y = x @ q_true
        q = orthogonal_procrustes(x, y)
        assert np.allclose(q, q_true, atol=1e-8)

    def test_result_orthogonal(self):
        rng = np.random.default_rng(6)
        q = orthogonal_procrustes(rng.random((10, 3)), rng.random((10, 3)))
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AlgorithmError):
            orthogonal_procrustes(np.zeros((3, 2)), np.zeros((4, 2)))


class TestSinkhornInputValidation:
    def test_nan_cost_rejected(self):
        cost = np.ones((3, 3))
        cost[1, 1] = np.nan
        with pytest.raises(AlgorithmError, match="non-finite"):
            sinkhorn(cost)

    def test_inf_cost_rejected(self):
        cost = np.ones((3, 3))
        cost[0, 2] = np.inf
        with pytest.raises(AlgorithmError, match="non-finite"):
            sinkhorn(cost)

    def test_nonconvergence_records_diagnostic(self):
        from repro.diagnostics import capture_diagnostics

        rng = np.random.default_rng(3)
        cost = rng.random((8, 8))
        with capture_diagnostics() as events:
            plan = sinkhorn(cost, epsilon=1e-4, max_iter=1, tol=1e-15)
        assert np.all(np.isfinite(plan))
        assert any(e.kind == "nonconvergence"
                   and e.fallback_used == "current_plan" for e in events)

    def test_convergence_records_nothing(self):
        from repro.diagnostics import capture_diagnostics

        rng = np.random.default_rng(3)
        cost = rng.random((4, 4))
        with capture_diagnostics() as events:
            sinkhorn(cost, epsilon=1.0, max_iter=2000)
        assert events == []
