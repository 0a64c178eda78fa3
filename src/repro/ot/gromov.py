"""Gromov–Wasserstein machinery: discrepancy, gradient, proximal solver.

GWL (paper §3.6) matches graphs by transporting mass between their node
sets so that pairwise intra-graph costs agree.  With the square loss
``L(a, b) = (a - b)^2``, Peyré's tensor decomposition (Peyré, Cuturi &
Solomon, ICML 2016) lets the GW gradient be evaluated without the
four-way tensor:

    grad(T) = f1(C1) mu 1^T + 1 nu^T f2(C2)^T - h1(C1) T h2(C2)^T
            = (C1∘C1) mu ⊕ (C2∘C2) nu - 2 C1 T C2^T.

The constant term is the outer sum of two vectors, and the cross term is
two products, ``C1 @ T`` and then ``C2`` applied to its transpose.  Costs
may be dense arrays or SciPy sparse matrices; a sparse cost is converted
once to ``csr_array``, so for a graph's adjacency each product costs
about ``2 nnz n`` flops instead of ``2 n^3``.  Both kinds run through the
same code.

The non-convex GW problem is solved with the proximal point method of
Xu et al. (2019): each outer step solves an entropic OT problem whose cost
is the current gradient and whose prior is the previous plan.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.exceptions import AlgorithmError
from repro.observability import add_counter
from repro.ot.sinkhorn import sinkhorn

__all__ = ["gw_gradient", "gw_discrepancy", "gromov_wasserstein"]

# A cost is a dense array or a csr_array; on both, ``*`` is elementwise.
Cost = Union[np.ndarray, sparse.csr_array]


def _as_cost(mat, name: str) -> Cost:
    """``mat`` as a float64 ``csr_array`` (if sparse) or ndarray, square."""
    if sparse.issparse(mat):
        # csr_array, not csr_matrix: a matrix's ``*`` and ``**`` are
        # matrix products.
        mat = sparse.csr_array(mat, dtype=np.float64)
    else:
        mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise AlgorithmError(f"{name} must be square, got shape {mat.shape}")
    return mat


def _validate_costs(c1, c2) -> Tuple[Cost, Cost]:
    return _as_cost(c1, "C1"), _as_cost(c2, "C2")


def _gw_constant(c1: Cost, c2: Cost, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The plan-independent gradient term ``(C1∘C1) mu ⊕ (C2∘C2) nu``."""
    rows = (c1 * c1) @ mu
    cols = (c2 * c2) @ nu
    return rows[:, np.newaxis] + cols[np.newaxis, :]


def _gw_cross(c1: Cost, c2: Cost, plan: np.ndarray) -> np.ndarray:
    """The cross term ``C1 T C2^T`` as two (sparse) products."""
    return (c2 @ (c1 @ plan).T).T


def gw_gradient(
    c1: Cost, c2: Cost, plan: np.ndarray,
    mu: np.ndarray, nu: np.ndarray,
) -> np.ndarray:
    """Gradient of the square-loss GW objective at coupling ``plan``."""
    c1, c2 = _validate_costs(c1, c2)
    return _gw_constant(c1, c2, mu, nu) - 2.0 * _gw_cross(c1, c2, plan)


def gw_discrepancy(
    c1: Cost, c2: Cost, plan: np.ndarray,
    mu: Optional[np.ndarray] = None, nu: Optional[np.ndarray] = None,
) -> float:
    """Square-loss GW discrepancy ``<L(C1, C2, T), T>`` of a coupling."""
    c1, c2 = _validate_costs(c1, c2)
    if mu is None:
        mu = plan.sum(axis=1)
    if nu is None:
        nu = plan.sum(axis=0)
    grad = gw_gradient(c1, c2, plan, np.asarray(mu), np.asarray(nu))
    # <grad, T> double-counts the cross term: objective = <const,T> - <2 C1 T C2, T>
    # and grad = const - 2 C1 T C2, so <L, T> = <grad, T> exactly.
    return float((grad * plan).sum())


def _checked(name: str, value, shape: Tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise AlgorithmError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def gromov_wasserstein(
    c1: Cost,
    c2: Cost,
    mu: Optional[np.ndarray] = None,
    nu: Optional[np.ndarray] = None,
    beta: float = 0.1,
    outer_iter: int = 30,
    inner_iter: int = 100,
    tol: float = 1e-7,
    extra_cost: Optional[np.ndarray] = None,
    alpha: float = 0.0,
    init_plan: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Proximal-point solver for (fused) Gromov–Wasserstein matching.

    Parameters
    ----------
    c1, c2:
        Square intra-graph cost matrices, dense or SciPy sparse (a sparse
        cost is converted once to ``csr_array``).
    mu, nu:
        Node marginals of shapes ``(n1,)`` and ``(n2,)`` (uniform by
        default).
    beta:
        Proximal/entropic weight; smaller values sharpen the coupling but
        converge more slowly (the paper tunes ``beta`` per dataset for
        S-GWL).
    extra_cost, alpha:
        Optional Wasserstein term ``alpha * <K, T>`` fusing node-level
        dissimilarity ``K`` of shape ``(n1, n2)`` (GWL's embedding term,
        Eq. 11).
    init_plan:
        Non-negative ``(n1, n2)`` warm start; defaults to the product
        coupling ``mu nu^T``.

    A wrongly shaped marginal, ``extra_cost`` or ``init_plan``, or a
    negative ``init_plan``, raises :class:`AlgorithmError`.  Returns the
    final coupling of shape ``(n1, n2)``.
    """
    c1, c2 = _validate_costs(c1, c2)
    n1, n2 = c1.shape[0], c2.shape[0]
    mu = np.full(n1, 1.0 / n1) if mu is None else _checked("mu", mu, (n1,))
    nu = np.full(n2, 1.0 / n2) if nu is None else _checked("nu", nu, (n2,))
    mu = mu / mu.sum()
    nu = nu / nu.sum()
    if extra_cost is not None:
        extra_cost = _checked("extra_cost", extra_cost, (n1, n2))
    if init_plan is None:
        plan = np.outer(mu, nu)
    else:
        plan = _checked("init_plan", init_plan, (n1, n2))
        if not np.all(plan >= 0):
            raise AlgorithmError("init_plan must be non-negative")

    const = _gw_constant(c1, c2, mu, nu)
    # The gradient at a step's plan prices both that plan's objective and
    # the next step's transport, so each step computes it once.
    grad = const - 2.0 * _gw_cross(c1, c2, plan)
    prev_obj = np.inf
    outer_done = 0
    for _ in range(outer_iter):
        cost = grad
        if extra_cost is not None and alpha > 0:
            cost = cost + alpha * extra_cost
        # Proximal step: entropic OT with KL prior on the previous plan,
        # i.e. Sinkhorn on cost - beta * log(T_prev).
        prox_cost = cost - beta * np.log(np.maximum(plan, 1e-300))
        plan = sinkhorn(prox_cost, mu, nu, epsilon=beta, max_iter=inner_iter)
        outer_done += 1
        grad = const - 2.0 * _gw_cross(c1, c2, plan)
        # <grad, T> is the discrepancy (see gw_discrepancy).
        obj = float((grad * plan).sum())
        if abs(prev_obj - obj) < tol * max(abs(prev_obj), 1.0):
            break
        prev_obj = obj
    add_counter("gw_outer_iterations", outer_done)
    return plan


_ANNEAL_BETAS = (0.2, 0.1, 0.05, 0.02, 0.01)


def _normalized_cut(cost: Cost, labels: np.ndarray, size: int) -> float:
    """Sum of per-cluster cut/volume ratios; inf for degenerate partitions."""
    total = 0.0
    for k in range(size):
        mask = labels == k
        if not mask.any() or mask.all():
            return np.inf
        volume = cost[mask].sum()
        if volume == 0:
            return np.inf
        total += cost[np.ix_(mask, ~mask)].sum() / volume
    return total


def gw_barycenter_costs(
    costs: list,
    weights: Optional[np.ndarray] = None,
    size: int = 2,
    beta: float = 0.1,
    outer_iter: int = 10,
    seed: Optional[np.random.Generator] = None,
    restarts: int = 4,
) -> Tuple[np.ndarray, list]:
    """GW barycenter of several cost matrices and the couplings to it.

    Used by S-GWL's divide-and-conquer: the ``size``-node barycenter acts as
    a common reference whose couplings partition each input graph.  Costs
    may be dense or SciPy sparse, as in :func:`gromov_wasserstein`.
    Returns ``(barycenter_cost, [coupling_i])``.

    The product coupling is a symmetric saddle point of the GW objective, so
    each restart perturbs the initial plans randomly and anneals the
    proximal weight coarse-to-fine; the restart with the best (lowest)
    summed normalized cut across all inputs wins.  ``beta`` sets the *final*
    (sharpest) annealing stage.
    """
    if not costs:
        raise AlgorithmError("barycenter requires at least one cost matrix")
    costs = [_as_cost(c, f"costs[{i}]") for i, c in enumerate(costs)]
    if weights is None:
        weights = np.full(len(costs), 1.0 / len(costs))
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    nu = np.full(size, 1.0 / size)
    betas = [b for b in _ANNEAL_BETAS if b > beta] + [beta]

    best_plans, best_bary, best_obj = None, None, np.inf
    for _restart in range(max(restarts, 1)):
        bary = rng.random((size, size))
        bary = (bary + bary.T) / 2.0
        plans = []
        for c in costs:
            n = c.shape[0]
            noisy = np.full((n, size), 1.0 / (n * size)) * (
                1.0 + 0.3 * rng.random((n, size))
            )
            plans.append(noisy / noisy.sum())
        schedule = betas if len(betas) >= outer_iter else (
            betas + [beta] * (outer_iter - len(betas))
        )
        for stage_beta in schedule[:max(outer_iter, len(betas))]:
            plans = [
                gromov_wasserstein(c, bary, beta=stage_beta, outer_iter=10,
                                   init_plan=plans[i])
                for i, c in enumerate(costs)
            ]
            # Closed-form barycenter update for the square loss.
            acc = np.zeros((size, size))
            for w, c, t in zip(weights, costs, plans):
                acc += w * (t.T @ c @ t)
            bary = acc / np.outer(nu, nu)
        objective = sum(
            _normalized_cut(c, np.argmax(t, axis=1), size)
            for c, t in zip(costs, plans)
        )
        if objective < best_obj:
            best_obj, best_plans, best_bary = objective, plans, bary
    return best_bary, best_plans
