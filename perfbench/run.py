"""Run one perfbench workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-jv --seed 1 --seconds 25 --trace 0

The workloads are defined in ``perfbench/workloads.json``.  A run pins
BLAS/OpenMP threads to one, makes its inputs from ``--seed``, sets up
several times (``setup_s`` is the median), then measures a fixed number
of units: ``--seconds`` divided by the workload's nominal unit time on
the reference host, so every run of a seed does the same work.  It
checks the outputs, aborting with exit code 3 and the check's name when
one fails, prints a report with units and sample counts, and prints as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced units and reports
the per-layer metrics, with the gap between the two as
``observability.trace_overhead``.  ``--tiny`` shrinks every input, for
the benchmark's self-test.  Op times are calibrated for host speed by a
probe of the workload's kind of work timed around every op (see
``perfbench/hostenv.py``); the raw wall-clock figures are printed beside
them.

Temporary journals and service directories, the full report and the
spans of traced runs go under ``.bench_out/`` at the checkout root.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def load_spec(workload: str, tiny: bool):
    """The workload's entry of workloads.json, shrunk under ``tiny``."""
    spec = json.loads((HERE / "workloads.json").read_text())
    workloads = spec["workloads"]
    if workload not in workloads:
        raise SystemExit(f"unknown workload {workload!r}; choose from "
                         f"{sorted(workloads)}")
    entry = dict(workloads[workload])
    entry["inputs"] = dict(entry["inputs"])
    if tiny:
        overrides = dict(entry["tiny"])
        entry["warmup_graph"] = overrides.pop("warmup_graph")
        entry["inputs"].update(overrides)
    return entry


def declared_metrics(section: str):
    """``(name, unit)`` of BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` metrics, in its order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in bench[section]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (self-test mode)")
    return parser.parse_args(argv)


def p90(values) -> float:
    """90th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def timing(workload, raw: bool = False):
    """``(ops_per_s, p50 s, p90 s)`` over the untraced units.

    Rates and latency percentiles are taken per unit and the median
    across units is reported, so one unit caught by a host stall moves
    them less.  Calibrated times unless ``raw``.
    """
    units = [u for u in workload.units if not u["traced"]]
    groups = workload.latency_groups(raw)
    return (statistics.median(len(u["records"])
                              / sum(workload.op_times(u, raw))
                              for u in units),
            statistics.median(statistics.median(g) for g in groups),
            statistics.median(p90(g) for g in groups))


def end_to_end(workload, setup_times, peak_mb: float):
    """``{name: (value, samples)}`` over the untraced units."""
    units = [u for u in workload.units if not u["traced"]]
    records = [r for u in units for r in u["records"]]
    ops = len(records)
    failed = sum(1 for r in records if r.failed)
    accuracies = [r.measures["accuracy"] for r in records
                  if not r.failed and "accuracy" in r.measures]
    rate, p50_s, p90_s = timing(workload)
    count = sum(len(g) for g in workload.latency_groups())
    latency = (f"{count} {workload.latency_what} in {len(units)} group(s),"
               " calibrated")
    return {
        "setup_s": (statistics.median(setup_times),
                    f"median of {len(setup_times)} set-ups, calibrated"),
        "ops_per_s": (rate, f"{ops} ops, median rate of {len(units)} units,"
                      " calibrated"),
        "latency_ms.p50": (1e3 * p50_s, latency),
        "latency_ms.p90": (1e3 * p90_s,
                           latency + ("" if count >= 100 else
                                      " (under 100: fewer than 10 beyond"
                                      " p90)")),
        "peak_rss_mb": (peak_mb, "1 process"),
        "accuracy.mean": (statistics.fmean(accuracies) if accuracies
                          else 0.0, f"{len(accuracies)} completed ops"),
        "success_rate": ((ops - failed) / ops if ops else 0.0,
                         f"{ops - failed} of {ops} ops"),
    }


def measure(workload, setups: int, units: int, traced: bool):
    """Set up ``setups`` times, then run ``units`` units; returns the
    set-up times, the probes around them and the host-drift reference
    taken around it all."""
    from perfbench import hostenv
    before = hostenv.drift_reference()
    setup_times, probes = [], [workload.probe()]
    for _ in range(setups):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        probes.append(workload.probe())
    for index in range(units):
        workload.run_unit(index, traced=False)
        if traced:
            workload.run_unit(index, traced=True)
    return setup_times, probes, {"before": before,
                                 "after": hostenv.drift_reference()}


def layer_metrics(workload, import_s: float):
    """Per-layer metrics of a traced run, in BENCHMARK.json's order.

    A layer the workload never reaches reads 0; the second value lists
    those names.
    """
    layer = workload.layer_metrics()
    per_op = {}
    for traced in (False, True):
        group = [u for u in workload.units if u["traced"] == traced]
        per_op[traced] = (sum(u["wall_s"] for u in group)
                          / sum(len(u["records"]) for u in group))
    layer["observability.trace_overhead"] = per_op[True] / per_op[False] - 1
    layer["startup.import_s"] = import_s
    names = declared_metrics("per_layer")
    metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
               for name, unit in names}
    return metrics, [name for name, _ in names if name not in layer]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    spec = load_spec(args.workload, args.tiny)

    from perfbench import hostenv
    from perfbench.checks import CheckFailed
    from perfbench.service_load import ServiceWorkload
    from perfbench.spans import SpanRecorder
    from perfbench.sweeps import SweepWorkload
    import_s = time.perf_counter() - _STARTED

    kind = spec["kind"]
    units = max(1, round(args.seconds / float(spec["unit_nominal_seconds"])))
    setups = SETUP_REPEATS
    if args.tiny:
        units, setups = 2, 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    recorder = SpanRecorder()
    factory = ServiceWorkload if kind == "service" else SweepWorkload
    workload = factory(spec, args.seed, units, scratch, recorder)
    try:
        setup_times, setup_probes, drift = measure(workload, setups, units,
                                                   bool(args.trace))
    except CheckFailed as failure:
        print(f"check failed: {failure.check}: {failure.detail}",
              file=sys.stderr)
        return 3
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    all_records = [r for u in workload.units for r in u["records"]]
    e2e = end_to_end(workload,
                     hostenv.calibrate(setup_times, setup_probes,
                                       workload.probe_nominal_s),
                     hostenv.peak_rss_mb())
    units_of = dict(declared_metrics("end_to_end"))
    stamp = hostenv.stamp(ROOT, args.seed, THREAD_VARS)
    stamp.update(workload=args.workload, seconds=args.seconds,
                 trace=args.trace, tiny=args.tiny, units=units,
                 setups=setups)
    report = {"stamp": stamp, "drift_reference": drift,
              "end_to_end": {name: {"value": value, "unit": units_of[name],
                                    "samples": samples}
                             for name, (value, samples) in e2e.items()},
              "startup.import_s": import_s}
    rate, p50_s, p90_s = timing(workload, raw=True)
    report["uncalibrated"] = {"setup_s": statistics.median(setup_times),
                              "ops_per_s": rate,
                              "latency_ms.p50": 1e3 * p50_s,
                              "latency_ms.p90": 1e3 * p90_s}
    probes = [p for u in workload.units if not u["traced"]
              for p in u["probes"]]
    report["probe"] = {"kind": spec["calibration"]["probe"],
                       "count": len(probes),
                       "nominal_us": 1e6 * workload.probe_nominal_s,
                       "median_us": 1e6 * statistics.median(probes),
                       "min_us": 1e6 * min(probes),
                       "max_us": 1e6 * max(probes)}
    if args.trace:
        metrics, absent = layer_metrics(workload, import_s)
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        recorder.write(spans)
        loads = dict(spec["loads"])
        loads["value"] = metrics[loads["metric"]]["value"]
        loads["holds"] = loads["value"] >= loads["at_least"]
        report.update(per_layer=metrics, per_layer_not_reached=absent,
                      spans=spans.name, loads=loads)
    else:
        metrics = {name: {"value": float(e2e[name][0]), "unit": unit}
                   for name, unit in units_of.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=2, default=str))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={units} ({spec['unit']})")
    print("stamp " + json.dumps(stamp, sort_keys=True, default=str))
    print("drift reference (diagnostic, not gated) "
          + json.dumps(drift, sort_keys=True))
    for name, (value, samples) in e2e.items():
        print(f"  {name:<16} {value:>14.6g} {units_of[name]:<9} {samples}")
    probe = report["probe"]
    print("uncalibrated wall clock (not gated): "
          + ", ".join(f"{name} {value:.6g}"
                      for name, value in report["uncalibrated"].items())
          + f"; {probe['kind']} probe median {probe['median_us']:.1f} us "
          f"over {probe['count']} probes (nominal {probe['nominal_us']:g} us)")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
        print(f"layer check (not gated): {loads['metric']} = "
              f"{loads['value']:.3f}, chosen for >= {loads['at_least']}: "
              + ("holds" if loads["holds"] else "does not hold"))
    print(json.dumps({"correct": True, "attempted": len(all_records),
                      "failed": sum(1 for r in all_records if r.failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # Pinned before numpy is first imported: OpenBLAS otherwise starts
    # one thread per core.
    for variable in THREAD_VARS:
        os.environ[variable] = "1"
    sys.exit(main())
