"""Experiment harness: the unified benchmark framework of the paper.

This is the study's actual contribution — a common protocol under which all
nine algorithms are run: same noise generators, same assignment back-end,
averaged repetitions, runtime measured excluding assignment, and peak
memory tracked.  (The original uses the Sacred framework; this package is
a self-contained stand-in.)

* :mod:`repro.harness.config` — experiment configuration and size profiles,
* :mod:`repro.harness.runner` — executing (algorithm × instance) cells,
* :mod:`repro.harness.results` — the record table, aggregation, reports,
* :mod:`repro.harness.journal` — crash-tolerant write-ahead journal/resume,
* :mod:`repro.harness.budget` — per-cell time+memory budgets (child procs),
* :mod:`repro.harness.retry` — retry policy for transient cell failures,
* :mod:`repro.harness.scheduler` — multi-process sweeps over worker
  pipes, with orphan recovery (``ExperimentConfig(workers=N)``).
"""

from repro.harness.config import (
    PROFILES,
    ExperimentConfig,
    Profile,
    active_profile,
)
from repro.harness.budget import CellBudget, run_cell_with_budget
from repro.harness.journal import (
    RunJournal,
    canonical_noise_level,
    cell_key,
    config_fingerprint,
)
from repro.harness.retry import RetryPolicy, run_with_retry
from repro.harness.runner import (
    cell_seed,
    run_cell,
    run_experiment,
    run_on_pair,
)
from repro.harness.results import ResultTable, RunRecord
from repro.harness.scheduler import (
    load_recovery_events,
    run_sharded_experiment,
)
from repro.harness.asciiplot import line_plot
from repro.harness.tuning import GridSearchResult, grid_search
from repro.harness.report import markdown_report

__all__ = [
    "ExperimentConfig",
    "Profile",
    "PROFILES",
    "active_profile",
    "run_on_pair",
    "run_cell",
    "run_experiment",
    "cell_seed",
    "cell_key",
    "canonical_noise_level",
    "config_fingerprint",
    "RunJournal",
    "CellBudget",
    "run_cell_with_budget",
    "RetryPolicy",
    "run_with_retry",
    "run_sharded_experiment",
    "load_recovery_events",
    "RunRecord",
    "ResultTable",
    "line_plot",
    "grid_search",
    "GridSearchResult",
    "markdown_report",
]
