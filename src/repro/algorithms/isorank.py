"""IsoRank (Singh, Xu & Berger 2008) — PageRank-style alignment (paper §3.1).

The pairwise similarity matrix ``R`` satisfies the recursion of Eq. 1,

    R_ij = sum_{u in N(i)} sum_{v in N(j)} R_uv / (deg(u) deg(v)),

which in matrix form is ``R <- M(R) = (A D_A^{-1}) R (B D_B^{-1})^T``.  With
prior information ``E`` the update is the damped power iteration

    R <- alpha * M(R) + (1 - alpha) * E.

The paper replaces IsoRank's Blast prior with the degree-similarity prior
of §6.1 (our :func:`repro.util.degree_prior`), which is this module's
default; a uniform prior reproduces the "binary weights" baseline the paper
found inferior (exercised by the ablation bench).

**Factored iteration.**  Both priors depend on a node only through its
degree class (a single class under the uniform prior), so the prior is
exactly ``E = L C R^T``: ``L`` and ``R`` are one-hot class indicators and
``C`` is ``E`` read at one representative node per class.  Then
``X_j = M^j(E) = (A'^j L) C (B'^j R)^T`` with ``A' = A D_A^{-1}``, the
iterate is ``R_t = (1 - alpha) sum_{j<t} alpha^j X_j + alpha^t X_t``, and
one sweep's change is ``D_t = alpha^(t+1) (X_{t+1} - X_t)``.  A sweep
therefore multiplies the thin factors by the sparse operators and forms
``D_t`` with a single GEMM of inner width ``2 |classes of B|`` — in place
of two sparse-by-dense n x m products and five n x m passes.

The identity needs every normalization total of the dense iteration to be
1.  ``M`` zeroes an isolated node's row and column, so that holds exactly
when the prior puts no mass there (:func:`_mass_preserving`): under the
degree prior unless *both* graphs have an isolated node, under the uniform
prior unless *either* has one.  Inputs that leak mass run the dense loop,
which renormalizes after every sweep.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.algorithms.base import AlgorithmInfo, AlignmentAlgorithm, register_algorithm
from repro.exceptions import AlgorithmError
from repro.graphs.graph import Graph
from repro.graphs.matrices import column_stochastic
from repro.observability import add_counter
from repro.util import degree_prior_pair

__all__ = ["IsoRank"]


def _mass_preserving(prior: str, deg_a: np.ndarray, deg_b: np.ndarray) -> bool:
    """Whether the prior keeps every total of the power iteration at 1.

    ``M(R)`` is zero on an isolated node's row and column, so prior mass
    there leaks at every sweep.  The degree prior is zero between an
    isolated and a connected node, so it has such mass only when both
    graphs have an isolated node; the uniform prior whenever either does.
    """
    isolated_a = bool(np.any(deg_a == 0))
    isolated_b = bool(np.any(deg_b == 0))
    if prior == "degree":
        return not (isolated_a and isolated_b)
    return not (isolated_a or isolated_b)


def _classes(degrees: np.ndarray, by_degree: bool) -> Tuple[np.ndarray, np.ndarray]:
    """One-hot ``(n, k)`` class indicator and one representative per class."""
    n = degrees.shape[0]
    if not by_degree:
        return np.ones((n, 1)), np.zeros(1, dtype=np.int64)
    _values, first, label = np.unique(degrees, return_index=True,
                                      return_inverse=True)
    indicator = np.zeros((n, first.size))
    indicator[np.arange(n), label.reshape(-1)] = 1.0
    return indicator, first


@register_algorithm
class IsoRank(AlignmentAlgorithm):
    """IsoRank with a configurable prior.

    Parameters
    ----------
    alpha:
        Weight of topological similarity vs. the prior (paper default 0.9).
    iterations:
        Power-iteration budget; the paper caps IsoRank at 100 iterations and
        uses whatever matrix it has then.
    tol:
        Early-exit threshold on the iterate change (L1).
    prior:
        ``"degree"`` (paper §6.1, default) or ``"uniform"``.
    """

    info = AlgorithmInfo(
        name="isorank",
        year=2008,
        preprocessing="yes",
        biological=True,
        default_assignment="sg",
        optimizes="any",
        time_complexity="O(n^4)",
        parameters={"alpha": 0.9},
    )

    def __init__(self, alpha: float = 0.9, iterations: int = 100,
                 tol: float = 1e-6, prior: str = "degree"):
        if not 0.0 <= alpha <= 1.0:
            raise AlgorithmError(f"alpha must be in [0, 1], got {alpha}")
        if prior not in ("degree", "uniform"):
            raise AlgorithmError(f"prior must be 'degree' or 'uniform', got {prior!r}")
        self.alpha = float(alpha)
        self.iterations = int(iterations)
        self.tol = float(tol)
        self.prior = prior

    def _prior_matrix(self, source: Graph, target: Graph) -> np.ndarray:
        if self.prior == "degree":
            e = degree_prior_pair(source, target)
        else:
            e = np.ones((source.num_nodes, target.num_nodes))
        total = e.sum()
        if total == 0:
            raise AlgorithmError("prior matrix sums to zero")
        return e / total

    def _similarity(self, source: Graph, target: Graph,
                    rng: np.random.Generator) -> np.ndarray:
        e = self._prior_matrix(source, target)
        # M(R) = (A D_A^{-1}) R (B D_B^{-1})^T; column-stochastic operators.
        op_a = column_stochastic(source)
        op_b = column_stochastic(target)
        if _mass_preserving(self.prior, source.degrees, target.degrees):
            r, sweeps = self._factored_iteration(e, op_a, op_b, source, target)
        else:
            r, sweeps = self._dense_iteration(e, op_a, op_b)
        add_counter("power_iterations", sweeps)
        return r

    def _factored_iteration(self, e, op_a, op_b, source: Graph,
                            target: Graph) -> Tuple[np.ndarray, int]:
        """The power iteration on ``E = L C R^T`` (module docstring)."""
        by_degree = self.prior == "degree"
        left, rep_a = _classes(source.degrees, by_degree)
        right, rep_b = _classes(target.degrees, by_degree)
        core = e[np.ix_(rep_a, rep_b)]
        r = e.copy()
        change = np.empty_like(r)
        scale = 1.0
        sweeps = 0
        for _ in range(self.iterations):
            left_next = op_a @ left
            right_next = op_b @ right
            scale *= self.alpha
            weighted = core * scale
            # D_t = [L_{t+1} L_t] diag(C, -C) [R_{t+1} R_t]^T, times alpha^(t+1).
            lhs = np.hstack([left_next @ weighted, left @ -weighted])
            np.matmul(lhs, np.hstack([right_next, right]).T, out=change)
            r += change
            delta = np.abs(change, out=change).sum()
            left, right = left_next, right_next
            sweeps += 1
            if delta < self.tol:
                break
        return r, sweeps

    def _dense_iteration(self, e, op_a, op_b) -> Tuple[np.ndarray, int]:
        """The renormalized power iteration, for priors that leak mass."""
        r = e.copy()
        sweeps = 0
        for _ in range(self.iterations):
            updated = self.alpha * (op_a @ r @ op_b.T) + (1.0 - self.alpha) * e
            total = updated.sum()
            if total > 0:
                updated /= total
            delta = np.abs(updated - r).sum()
            r = updated
            sweeps += 1
            if delta < self.tol:
                break
        return r, sweeps
