"""Exact linear assignment: Jonker–Volgenant shortest augmenting paths.

``solve_lap`` solves the rectangular linear assignment problem
(min-cost perfect matching on the smaller side).  Two engines are provided:

* ``"python"`` — a from-scratch NumPy implementation of the shortest
  augmenting path algorithm (the JV family), kept readable and used to
  validate the fast path;
* ``"scipy"`` — :func:`scipy.optimize.linear_sum_assignment`, a C++
  implementation of the same algorithm family and the default engine
  (the paper likewise uses a compiled multi-threaded JV).

On a square cost whose row minima pile up in few columns — the low-rank,
near-tied similarities of IsoRank, NSD, LREA and GRASP — every row's
shortest augmenting path scans hundreds of matched columns.  There the
scipy engine first computes near-optimal column duals ``g`` with a few
ε-scaled entropic (Sinkhorn) sweeps and solves the reduced cost
``C - u 1ᵀ - 1 gᵀ`` instead (``u`` the row minima of ``C - 1 gᵀ``).  On a
square problem that shifts every perfect matching's cost by the same
constant, so the optimum is unchanged; only the paths get short.  A
rectangular problem never takes this path: a column shift changes which
columns stay unmatched.

``jonker_volgenant`` is the similarity-oriented wrapper used by the
benchmark: it *maximizes* total similarity and returns a mapping array.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.exceptions import AssignmentError
from repro.numerics import flushed_exp
from repro.observability import add_counter

__all__ = ["solve_lap", "jonker_volgenant"]

# The dual warm start engages on square costs of at least _WARM_MIN_ROWS
# rows whose row minima fall in at most n // _WARM_HUB_SHARE distinct
# columns.  Measured on IsoRank, NSD, LREA and GRASP similarities, it
# breaks even near n = 96; on REGAL's full-rank similarity (547-712
# distinct columns of 1000) the plain call is 2-6 times faster.
_WARM_MIN_ROWS = 128
_WARM_HUB_SHARE = 4
# ε runs spread/4, spread/16, ..., spread/4**7 (about 6e-5 of the
# spread), with a fixed number of scaling sweeps at each value.
_EPS_STEPS = 7
_EPS_RATIO = 4.0
_SWEEPS_PER_EPS = 5


def _augmenting_path_solve(cost: np.ndarray):
    """Shortest-augmenting-path LAP on a dense cost matrix (nr <= nc).

    Returns ``col4row`` with the assigned column per row.  This mirrors the
    classic JV/Dijkstra formulation: one augmenting path per row, with dual
    potentials ``u`` (rows) and ``v`` (columns) maintaining reduced costs.
    """
    nr, nc = cost.shape
    u = np.zeros(nr)
    v = np.zeros(nc)
    col4row = np.full(nr, -1, dtype=np.int64)
    row4col = np.full(nc, -1, dtype=np.int64)

    for cur_row in range(nr):
        path = np.full(nc, -1, dtype=np.int64)
        shortest = np.full(nc, np.inf)
        scanned_rows = np.zeros(nr, dtype=bool)
        scanned_cols = np.zeros(nc, dtype=bool)
        remaining = np.arange(nc)
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            scanned_rows[i] = True
            reduced = min_val + cost[i, remaining] - u[i] - v[remaining]
            better = reduced < shortest[remaining]
            cols = remaining[better]
            path[cols] = i
            shortest[cols] = reduced[better]

            vals = shortest[remaining]
            lowest = vals.min()
            if not np.isfinite(lowest):
                raise AssignmentError("infeasible assignment problem")
            ties = remaining[vals == lowest]
            free = ties[row4col[ties] == -1]
            j = int(free[0] if free.size else ties[0])
            min_val = lowest
            scanned_cols[j] = True
            remaining = remaining[remaining != j]
            if row4col[j] == -1:
                sink = j
            else:
                i = int(row4col[j])

        # Dual updates keep reduced costs non-negative for the next row.
        u[cur_row] += min_val
        other = scanned_rows.copy()
        other[cur_row] = False
        idx = np.flatnonzero(other)
        if idx.size:
            u[idx] += min_val - shortest[col4row[idx]]
        v[scanned_cols] -= min_val - shortest[scanned_cols]

        # Augment: flip the alternating path back from the sink.
        j = sink
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def _dual_reduced(cost: np.ndarray) -> Optional[np.ndarray]:
    """The cost reduced by near-optimal duals, or ``None`` to solve ``cost``.

    Only a square cost of at least ``_WARM_MIN_ROWS`` rows, with a finite
    non-zero spread and row minima in at most ``n // _WARM_HUB_SHARE``
    distinct columns, is reduced.  Each ε step builds the absorbed
    kernel ``exp((u ⊕ g - C) / ε)``, with ``u`` the row minima of
    ``C - 1 gᵀ`` so every row holds a 1, runs ``_SWEEPS_PER_EPS``
    scaling sweeps at uniform marginals and folds the column scaling
    into ``g``.  Kernel entries below 1e-307 are flushed to 0
    (:func:`~repro.numerics.flushed_exp`), so the last ε steps do not
    pay for numpy's underflow path and subnormal products; a flushed
    entry sits some 290 orders of magnitude below the 1 in its row, and
    the reduced cost is bit-identical to the unflushed one on every
    tested input.  One n x n buffer holds each kernel and then the
    returned ``C - u 1ᵀ - 1 gᵀ``, which is non-negative with a zero in
    every row.  Non-finite potentials or reduced entries (a spread so
    small that ``1/ε`` overflows) return ``None``.
    """
    n, m = cost.shape
    if n != m or n < _WARM_MIN_ROWS:
        return None
    with np.errstate(divide="ignore", over="ignore", under="ignore",
                     invalid="ignore"):
        spread = cost.max() - cost.min()
        if not (np.isfinite(spread) and spread > 0):
            return None
        if np.unique(cost.argmin(axis=1)).size > n // _WARM_HUB_SHARE:
            return None
        g = np.zeros(m)
        buf = np.empty_like(cost)
        eps = spread / _EPS_RATIO
        for _ in range(_EPS_STEPS):
            np.subtract(cost, g, out=buf)
            buf -= buf.min(axis=1)[:, np.newaxis]
            buf *= -1.0 / eps
            flushed_exp(buf, out=buf)
            col_scale = np.ones(m)
            for _ in range(_SWEEPS_PER_EPS):
                row_scale = 1.0 / (buf @ col_scale)
                col_scale = 1.0 / (row_scale @ buf)
            g += eps * np.log(col_scale)
            eps /= _EPS_RATIO
        np.subtract(cost, g, out=buf)
        buf -= buf.min(axis=1)[:, np.newaxis]
        # Non-negative by construction, so a NaN or an infinity shows in
        # the maximum.
        if not np.isfinite(buf.max()):
            return None
    add_counter("lap_dual_sweeps", _EPS_STEPS * _SWEEPS_PER_EPS)
    return buf


def solve_lap(cost, maximize: bool = False, engine: str = "auto") -> np.ndarray:
    """Solve the (rectangular) LAP; returns the assigned column per row.

    Rows exceeding the column count are infeasible; the matrix must satisfy
    ``nr <= nc`` (callers with more sources than targets should transpose
    and post-process).  ``engine`` is ``"auto"``, ``"python"`` or ``"scipy"``;
    ``"auto"`` is ``"scipy"``.  The scipy engine solves a degenerate square
    cost on its dual-reduced form (module docstring); the optimum is the
    same, and the ``lap_dual_sweeps`` counter records the sweeps behind it.
    """
    mat = np.asarray(cost, dtype=np.float64)
    if mat.ndim != 2:
        raise AssignmentError(f"cost must be a 2-D matrix, got ndim={mat.ndim}")
    if not np.all(np.isfinite(mat)):
        raise AssignmentError("cost matrix contains non-finite entries")
    nr, nc = mat.shape
    if nr > nc:
        raise AssignmentError(
            f"LAP requires rows <= columns, got {nr}x{nc}; transpose the input"
        )
    if nr == 0:
        return np.empty(0, dtype=np.int64)
    if maximize:
        mat = -mat

    if engine == "auto":
        engine = "scipy"
    # Both engines are shortest-augmenting-path solvers growing exactly
    # one augmenting path per row.
    if engine == "scipy":
        reduced = _dual_reduced(mat)
        _rows, cols = linear_sum_assignment(mat if reduced is None
                                            else reduced)
        add_counter("jv_augmenting_steps", nr)
        return cols.astype(np.int64)
    if engine == "python":
        result = _augmenting_path_solve(mat)
        add_counter("jv_augmenting_steps", nr)
        return result
    raise AssignmentError(f"unknown LAP engine {engine!r}")


def jonker_volgenant(similarity, engine: str = "auto") -> np.ndarray:
    """One-to-one alignment maximizing total similarity (JV assignment).

    Accepts any rectangular similarity matrix.  When there are more source
    rows than target columns, the surplus rows are unmatched (-1).
    """
    sim = np.asarray(similarity, dtype=np.float64)
    if sim.ndim != 2:
        raise AssignmentError(f"similarity must be 2-D, got ndim={sim.ndim}")
    n_a, n_b = sim.shape
    if n_a <= n_b:
        return solve_lap(sim, maximize=True, engine=engine)
    # More sources than targets: assign targets to their best sources and
    # leave the remaining sources unmatched.
    rows = solve_lap(sim.T, maximize=True, engine=engine)
    mapping = np.full(n_a, -1, dtype=np.int64)
    mapping[rows] = np.arange(n_b)
    return mapping
