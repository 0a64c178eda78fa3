"""Entropic optimal transport via Sinkhorn–Knopp matrix scaling.

Solves ``min_T <C, T> - eps * H(T)`` over couplings with marginals
``(mu, nu)``.  The iterations run in the scaling domain on an absorbed
kernel (the stabilized scaling algorithm of Schmitzer, arXiv 1610.06519):

    K = exp(-C/eps + f/eps ⊕ g/eps),   u = mu / (K v),   v = nu / (K^T u),

so one sweep costs two BLAS matrix–vector products.  The dual potentials
are ``f + eps log u`` and ``g + eps log v``.  Every row of the first
kernel holds an entry equal to 1 (each row's largest ``-C/eps`` starts in
``f``).  Whenever a scaling leaves ``[1e-50, 1e50]`` it is absorbed: ``u``
and ``v`` fold into ``f`` and ``g``, reset to 1, and ``K`` is rebuilt.  A
half-step whose scaling or denominator (``K v``, ``K^T u``) leaves
``[1e-100, 1e100]`` or is not finite is redone in the log domain: that
catches kernel rows and columns that underflowed, where subnormal entries
would cost precision, and zero-mass marginal entries (clamped to 1e-300),
which always take this path.  Kernels and log-sum-exp terms below
1e-307 are flushed to 0 (:func:`~repro.numerics.flushed_exp`): a
flushed term is under 1e-307 · 1e50 while the guard keeps every sum on
the scaling path at or above 1e-100, so no sum changes.  With every
marginal entry at least 1e-49, a scaling inside ``[1e-50, 1e50]`` bounds
its denominator (``mu / u``) inside ``[1e-99, 1e50]``, so a common
half-step is decided by one min and one max of its scaling.  The
returned plan is built from the potentials in one exact exponent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.diagnostics import record_diagnostic
from repro.exceptions import AlgorithmError, ConvergenceError
from repro.numerics import flushed_exp
from repro.observability import add_counter

__all__ = ["sinkhorn"]

# A scaling outside [1/_ABSORB, _ABSORB] is folded into the potentials.
# A scaling or denominator outside [1/_GUARD, _GUARD] (or non-finite)
# came from a kernel too far under- or overflowed to trust, so its
# half-step is redone in the log domain.
_ABSORB = 1e50
_GUARD = 1e100
# A marginal whose every entry is at least _MASS_FLOOR keeps the
# denominator of a scaling inside [1/_ABSORB, _ABSORB] inside
# [1/_GUARD, _GUARD] (ten times _ABSORB / _GUARD, for rounding).
_MASS_FLOOR = 1e-49


def _check_marginal(weights: Optional[np.ndarray], size: int) -> np.ndarray:
    if weights is None:
        return np.full(size, 1.0 / size)
    arr = np.asarray(weights, dtype=np.float64)
    if arr.shape != (size,):
        raise AlgorithmError(f"marginal must have shape ({size},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise AlgorithmError("marginals must be finite")
    if np.any(arr < 0) or arr.sum() <= 0:
        raise AlgorithmError("marginals must be non-negative and sum to > 0")
    return arr / arr.sum()


def _logsumexp(mat: np.ndarray, axis: int) -> np.ndarray:
    peak = mat.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    # Every sum holds exp(0) = 1, so flushed terms cannot change it.
    terms = mat - peak
    flushed_exp(terms, out=terms)
    return (peak + np.log(terms.sum(axis=axis, keepdims=True))).squeeze(axis)


def _outside(scaling: np.ndarray, bound: float) -> bool:
    # Written so that a NaN scaling fails both comparisons.
    return not (scaling.min() >= 1.0 / bound and scaling.max() <= bound)


def _half_step(scaling: np.ndarray, denominator: np.ndarray,
               floored: bool) -> Optional[str]:
    """``"redo"`` (log domain), ``"absorb"`` or ``None`` (keep) for a
    half-step's new scaling; ``floored`` says every marginal entry is at
    least ``_MASS_FLOOR``, which makes a scaling inside the absorption
    bounds imply a trusted denominator."""
    lo, hi = scaling.min(), scaling.max()
    # Written so that a NaN scaling fails every comparison.
    absorb = not (lo >= 1.0 / _ABSORB and hi <= _ABSORB)
    if absorb or not floored:
        if not (lo >= 1.0 / _GUARD and hi <= _GUARD) \
                or _outside(denominator, _GUARD):
            return "redo"
    return "absorb" if absorb else None


def sinkhorn(
    cost: np.ndarray,
    mu: Optional[np.ndarray] = None,
    nu: Optional[np.ndarray] = None,
    epsilon: float = 0.01,
    max_iter: int = 500,
    tol: float = 1e-9,
    raise_on_failure: bool = False,
) -> np.ndarray:
    """Entropically regularized transport plan between ``mu`` and ``nu``.

    Iterates in the scaling domain, absorbing extreme scalings into the
    potentials and redoing untrustworthy half-steps in the log domain
    (module docstring), and stops after the first sweep in which no
    potential moved by ``tol`` or more.  Returns the ``(n, m)``
    coupling; by default non-convergence returns the current plan (the
    iterative GW solvers only need an approximate inner solve), while
    ``raise_on_failure=True`` raises :class:`ConvergenceError`.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise AlgorithmError(f"cost must be 2-D, got ndim={c.ndim}")
    if c.size == 0:
        raise AlgorithmError(f"cost matrix must be non-empty, got shape {c.shape}")
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
    mu = _check_marginal(mu, n)
    nu = _check_marginal(nu, m)

    mass_mu = np.maximum(mu, 1e-300)
    mass_nu = np.maximum(nu, 1e-300)
    log_mu = np.log(mass_mu)
    log_nu = np.log(mass_nu)
    scaled = -c / epsilon
    # Potentials in units of epsilon: the plan is diag(u) K diag(v) with
    # K = exp(scaled + a ⊕ b); the full potentials are a + log u and
    # b + log v.
    a = -scaled.max(axis=1)
    b = np.zeros(m)
    f = np.zeros(n)
    g = np.zeros(m)
    ones_n, ones_m = np.ones(n), np.ones(m)
    v = ones_m
    mu_floored = mass_mu.min() >= _MASS_FLOOR
    nu_floored = mass_nu.min() >= _MASS_FLOOR

    def absorbed_kernel() -> np.ndarray:
        exponent = scaled + a[:, np.newaxis]
        exponent += b[np.newaxis, :]
        return flushed_exp(exponent, out=exponent)

    kernel = absorbed_kernel()

    converged = False
    shift = np.inf
    iterations = 0
    with np.errstate(divide="ignore", over="ignore", under="ignore",
                     invalid="ignore"):
        for _ in range(max_iter):
            kv = kernel @ v
            u = mass_mu / kv
            step = _half_step(u, kv, mu_floored)
            if step == "redo":
                b = b + np.log(v)
                a = log_mu - _logsumexp(scaled + b[np.newaxis, :], axis=1)
                u, v = ones_n, ones_m
                kernel = absorbed_kernel()
            elif step == "absorb":
                a, b = a + np.log(u), b + np.log(v)
                u, v = ones_n, ones_m
                kernel = absorbed_kernel()
            ku = kernel.T @ u
            v = mass_nu / ku
            step = _half_step(v, ku, nu_floored)
            if step == "redo":
                a = a + np.log(u)
                b = log_nu - _logsumexp(scaled + a[:, np.newaxis], axis=0)
                u, v = ones_n, ones_m
                kernel = absorbed_kernel()
            elif step == "absorb":
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
    # One exponent from the potentials, never u * K * v: separately tiny
    # factors would underflow where their product does not.
    plan = np.exp(scaled + f[:, np.newaxis] + g[np.newaxis, :])
    # One exact row rescale keeps the mu-marginal tight.
    row = plan.sum(axis=1)
    row[row == 0] = 1.0
    return plan * (mu / row)[:, np.newaxis]
