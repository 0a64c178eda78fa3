"""The measured process's environment: stamp, drift reference, memory.

Every result is stamped with what it was measured on — git sha (or the
source digest when the checkout is not a git repository), core count,
interpreter and library versions, BLAS build, thread settings and the
seed — and carries a host-drift reference: a fixed pure-Python loop and
a fixed numpy loop timed before and after the run.  The reference is a
diagnostic, not a metric: when a run lands outside its bounds it tells
a slower host from a slower program.

The probes are short, fixed tasks that the workloads time around every
op to calibrate the op's time for host speed; see :func:`calibrate`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np
import scipy

def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root: Path) -> str:
    """HEAD's sha read from ``.git`` directly, or ``"unavailable"``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest(root: Path) -> str:
    """SHA-256 over the program's Python sources, in path order."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> Dict[str, str]:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": str(info.get("name")), "version": str(info.get("version"))}


def stamp(root: Path, seed: int,
          thread_vars: Sequence[str]) -> Dict[str, object]:
    """What a result was measured on."""
    return {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var, "") for var in thread_vars},
        "seed": seed,
    }


def drift_reference() -> Dict[str, float]:
    """Seconds for a fixed pure-Python loop and a fixed numpy loop."""
    start = time.perf_counter()
    total = 0
    for i in range(4_000_000):
        total += i * i % 7
    python_s = time.perf_counter() - start
    matrix = np.random.default_rng(0).standard_normal((512, 512))
    start = time.perf_counter()
    for _ in range(40):
        matrix = np.tanh(matrix @ matrix.T / 512.0)
    numpy_s = time.perf_counter() - start
    return {"python_loop_s": python_s, "numpy_loop_s": numpy_s}


@dataclasses.dataclass(frozen=True)
class _ProbeEntry:
    key: str
    state: str
    seq: int
    time: float


_PROBE_LINES = [json.dumps({"key": f"{i:064x}", "state": "pending",
                            "seq": i, "time": 1.5 * i, "algorithm": "nsd",
                            "pid": 7, "host": "probe", "attempts": 0})
                for i in range(40)]
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((256, 256))


def python_probe() -> float:
    """Seconds for a fixed ~0.2 ms task of the service's kind of work.

    It decodes 40 JSON lines into frozen dataclasses and copies each
    with one field changed, as a ticket-journal refresh does.
    """
    start = time.perf_counter()
    for line in _PROBE_LINES:
        entry = json.loads(line)
        dataclasses.replace(
            _ProbeEntry(entry["key"], entry["state"], entry["seq"],
                        entry["time"]), state="leased")
    return time.perf_counter() - start


def numpy_probe() -> float:
    """Seconds for a fixed ~2.5 ms task of the sweeps' kind of work.

    A dense product, an elementwise exponential and a row normalization
    of a 256 x 256 matrix, three times: the BLAS, elementwise and
    reduction kernels that similarity, Sinkhorn and assignment run.
    """
    start = time.perf_counter()
    for _ in range(3):
        kernel = np.exp(-np.abs(_PROBE_MATRIX @ _PROBE_MATRIX.T) / 256.0)
        kernel /= kernel.sum(axis=1, keepdims=True)
    return time.perf_counter() - start


def mixed_probe() -> float:
    """Seconds for both tasks above, the pure-Python one ten times, so
    each takes about half of the ~4.7 ms.

    For work split between scipy's dense LAP, branchy scalar code, and
    numpy kernels.
    """
    return sum(python_probe() for _ in range(10)) + numpy_probe()


PROBES: Dict[str, Callable[[], float]] = {"python": python_probe,
                                          "numpy": numpy_probe,
                                          "mixed": mixed_probe}


def calibrate(times: Sequence[float], probes: Sequence[float],
              nominal_s: float) -> List[float]:
    """``times`` at the probe's nominal speed.

    Op ``i`` ran between probes ``i`` and ``i + 1``; its time is scaled
    by the nominal probe time over the mean of those two.  A shared host
    slows a workload by up to 70% from one second to the next, and a
    probe of the same kind of work taken right beside an op sees the
    same slowdown, while the probes use only the standard library and
    numpy, so a program change leaves their work unchanged.
    """
    return [2 * nominal_s * t / (before + after)
            for t, before, after in zip(times, probes, probes[1:])]
