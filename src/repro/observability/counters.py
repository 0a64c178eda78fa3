"""Named performance counters riding on the tracing layer.

Counters answer the *why* behind a stage's cost: a slow CONE refinement
stage is explained by its Sinkhorn iteration count, a slow JV assignment
by its augmenting-step count.  Call sites increment once per solve with
the total (never per iteration), so the disabled-path cost is a single
extra function call per solver invocation.

:func:`add_counter` attributes the increment to the innermost open span;
with no span open (a solver called outside any traced stage) it falls
back to the active capture scopes' orphan-counter maps, so nothing is
ever silently dropped while tracing.  When tracing is disabled it is a
no-op.

``KNOWN_COUNTERS`` is the registry of names the instrumented code emits,
with a one-line meaning each — the docs and the golden-trace suite key
off it.  Ad hoc names are allowed (the registry documents, it does not
gate), but instrumented library code should register here.
"""

from __future__ import annotations

from repro.context import current_context
from repro.observability import trace as _trace

__all__ = ["KNOWN_COUNTERS", "add_counter"]

# Counter name -> what one unit means.
KNOWN_COUNTERS = {
    "sinkhorn_iterations": "Sinkhorn update sweeps (one u and one v update each)",
    "gw_outer_iterations": "proximal-point outer iterations in the GW solver",
    "gw_leaf_solves": "leaf-level GW solves in the S-GWL recursion",
    "gw_partitions": "recursive partition steps taken by S-GWL",
    "eigensolver_calls": "Laplacian eigendecompositions performed",
    "power_iterations": "power/fixed-point iteration sweeps performed",
    "jv_augmenting_steps": "augmenting paths grown by the JV LAP solver",
    "lap_dual_sweeps":
        "entropic dual sweeps behind JV LAPs solved on a dual-reduced cost",
    "bp_rounds": "belief-propagation message rounds in NetAlign",
    "factor_iterations": "low-rank factor update sweeps in LREA",
    "refine_rounds": "matched-neighborhood refinement passes applied",
    "fallback_activations": "graceful-degradation fallbacks that fired",
    "cache_hits": "artifact-cache lookups served without recomputing",
    "cache_misses": "artifact-cache lookups that ran the producer",
    "cache_evictions": "artifacts dropped to keep the cache under its byte bound",
    "cache_bytes": "payload bytes inserted into the artifact cache",
    "disk_cache_hits": "disk-cache loads whose checksum verified",
    "disk_cache_misses": "disk-cache lookups with no (valid) entry on disk",
    "disk_cache_stores": "artifacts durably published to the disk cache",
    "disk_cache_bytes": "payload bytes published to the disk cache",
    "disk_cache_quarantined":
        "corrupt/truncated/unreadable disk-cache entries moved aside",
    "permutation_resamples":
        "sign-flip assignments evaluated by paired permutation tests",
    "bootstrap_resamples":
        "bootstrap resamples drawn for confidence intervals",
    "similarity_topk": "per-row candidate budget of sparse top-k similarity",
    "assignment_densified":
        "sparse similarity matrices densified by an assignment back-end",
    "dense_bypass":
        "dense n x n similarities materialized above the sketch threshold",
}


def add_counter(name: str, value: int = 1) -> None:
    """Increment counter ``name`` on the innermost open span.

    No-op when tracing is disabled or no capture scope is active.
    ``value`` must be non-negative — counters only ever count up.
    """
    if not current_context().trace:
        return
    state = _trace._STATE
    if not state.scopes:
        return
    value = int(value)
    if value < 0:
        raise ValueError(f"counter {name!r} increment must be >= 0, "
                         f"got {value}")
    name = str(name)
    if state.stack:
        counters = state.stack[-1].span.counters
        counters[name] = counters.get(name, 0) + value
    else:
        for scope in state.scopes:
            scope.counters[name] = scope.counters.get(name, 0) + value
