"""Shared pytest-benchmark configuration for the experiment suite.

Every bench regenerates one table or figure of the paper (see DESIGN.md's
experiment index), prints the same series the paper plots, and saves the
text table under ``benchmarks/results/``.  Benches run once per invocation
(``pedantic`` mode) — the experiment itself already averages repetitions.

Select the size profile with ``REPRO_PROFILE`` (quick | medium | full).

BLAS/OpenMP thread counts default to one, as in ``perfbench/run.py``, so
the timing tables do not depend on the host's core count; a variable the
caller already set is kept, and Figs. 11-14 print the values in force.
"""

import os
from pathlib import Path

import pytest

from perfbench.run import THREAD_VARS

# Before anything imports numpy: OpenBLAS sizes its thread pool on load.
for _variable in THREAD_VARS:
    os.environ.setdefault(_variable, "1")

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def profile():
    from repro.harness import active_profile
    return active_profile()
