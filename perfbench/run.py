"""Benchmark of oclust's trimming run: time, CPU, memory and quality end to end,
plus a traced run that splits the time over the package's layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trim-refit-n500 --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  End-to-end times
are calibrated to a reference host speed by ``speed.py``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread in every workload process (the CLI subprocess inherits it),
# so the workloads' own worker threads are the only parallelism.  This has to
# happen before NumPy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SECONDS = 1.0

# End-to-end metrics and their units.  ``failed_frac`` and ``misclass_rate``
# are printed too, but are not part of the result line: the first is the
# result line's ``failed``/``attempted``, the second is 1 - ``accuracy``.
# The three times are at reference speed (speed.py); the measured ones are
# printed beside them.
END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "accuracy": "ratio",
}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def summarize(values: list) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    k = len(values)
    text = f"median={statistics.median(values)!r}"
    if k >= 11:
        # exactly ten samples lie above the (k-10)-th smallest one
        text += f" p{int(100 * (k - 10) / k)}={sorted(values)[k - 11]!r}"
    else:
        text += " p_high=none (needs >= 11 samples)"
    return text + f" samples={k}"


def main(argv=None) -> int:
    started = time.perf_counter()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    from oclust import cli, error_rates, trim
    from speed import REF_UNIT_S, unit
    from tracing import LAYER_METRICS, Tracer
    from workloads import check, make_inputs, run_cli, run_library

    if Path(trim.__file__).resolve().parent != SRC / "oclust":
        print(f"error: imported oclust from {trim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    work_dir = OUT / wl.name
    work_dir.mkdir(parents=True, exist_ok=True)
    setup_times = []
    setup_units = []
    setup_start = time.perf_counter()
    # Making the inputs takes milliseconds, and the speed of a shared machine
    # drifts: repeat it over a window, each time after one unit of the speed
    # kernel, and scale the median by the kernel's median.
    while len(setup_times) < 5 or (
            not args.trace and time.perf_counter() - setup_start < SETUP_SECONDS):
        setup_units.append(unit())
        t0 = time.perf_counter()
        inputs = make_inputs(wl, args.seed, work_dir)
        setup_times.append(time.perf_counter() - t0)
    n = inputs.data.shape[0]
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    tracer = Tracer()

    def sample(traced: bool):
        if wl.cli:
            # The traced CLI run calls cli.main in-process; so does the
            # untraced run it is compared with in trace mode.
            main_fn = tracer.wrap("cli.main", cli.main) if traced else (
                cli.main if args.trace else None)
            timeout = max(10.0, 170.0 - (time.perf_counter() - started))
            return run_cli(wl, args.seed, inputs, work_dir / "run", main=main_fn,
                           env=child_env, timeout=timeout)
        run = tracer.wrap("trim.oclust_run", trim.oclust_run) if traced else trim.oclust_run
        # the untraced run of trace mode is only compared with traced ones
        return run_library(wl, args.seed, inputs, run, calibrate=not args.trace)

    attempted = 0
    untraced = []
    traced_runs = []  # (run id, outcome)
    failures = []
    first = None
    last_s = 0.0
    start = time.perf_counter()
    # Trace mode: one untraced run for the overhead, then traced runs.
    # Every mode makes at least two runs, so each run is checked against the
    # first one of its seed; after that, a run starts only if one as long as
    # the last fits before the deadline.
    while attempted < 2 or time.perf_counter() - start + last_s <= args.seconds:
        t_run = time.perf_counter()
        traced = bool(args.trace) and attempted > 0
        tracer.run_id = attempted
        attempted += 1
        try:
            with tracer.patched() if traced else contextlib.nullcontext():
                outcome = sample(traced)
        except Exception:  # a raising run is a failed run, not a crashed benchmark
            failures.append(traceback.format_exc(limit=3))
        else:
            problem = check(wl, args.seed, n, outcome, first)
            if problem:
                failures.append(problem)
            elif first is None:
                first = outcome
            if traced:
                traced_runs.append((tracer.run_id, outcome))
            else:
                untraced.append(outcome)
        last_s = time.perf_counter() - t_run
    for problem in failures:
        print(f"FAILED: {problem}")
    print("runs measured_run_s=" + json.dumps(
        [o.run_s for o in untraced + [o for _, o in traced_runs]]))

    if args.trace:
        # All layer metrics come from one traced run, the one with the median
        # run time, so that they add up within it.
        metrics = dict.fromkeys(LAYER_METRICS, 0.0)
        if traced_runs:
            traced_runs.sort(key=lambda item: item[1].run_s)
            run_id, median_run = traced_runs[(len(traced_runs) - 1) // 2]
            untraced_s = untraced[0].run_s if untraced else median_run.run_s
            metrics = tracer.layer_metrics(run_id, median_run.run_s, untraced_s)
        for name, unit in LAYER_METRICS.items():
            print(f"layer {name} value={metrics[name]!r} unit={unit} "
                  f"traced_runs={len(traced_runs)}")
        tracer.write_csv(work_dir / "spans.csv")
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in LAYER_METRICS.items()}
    else:
        # a CLI run that failed has no probe figures
        timed = [o for o in untraced if o.probe]
        run_s = [o.cal_run_s for o in timed]
        cpu_s = [o.cal_cpu_s for o in timed]
        setup_s = [t * REF_UNIT_S / statistics.median(setup_units) for t in setup_times]
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.cli else resource.RUSAGE_SELF)
        # every correct run matches the first one, so its error rate is the run's
        misclass = error_rates(first.predicted, inputs.outlier_mask)[2] if first else 1.0
        values = {
            "run_s": statistics.median(run_s) if run_s else 0.0,
            "cpu_s": statistics.median(cpu_s) if cpu_s else 0.0,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_s),
            "accuracy": 1.0 - misclass,
        }
        measured = {
            "run_s": [o.run_s - o.probe["wall_s"] for o in timed],
            "cpu_s": [o.cpu_s - o.probe["cpu_s"] for o in timed],
            "setup_s": setup_times,
        }
        for name, series in (("run_s", run_s), ("cpu_s", cpu_s), ("setup_s", setup_s)):
            if series:
                print(f"metric {name} {summarize(series)} unit=s "
                      f"measured_median={statistics.median(measured[name])!r}")
        if timed:
            print("speed factors=" + json.dumps([o.factor for o in timed], separators=(",", ":"))
                  + f" setup={REF_UNIT_S / statistics.median(setup_units)!r}")
        print(f"metric peak_rss_mb value={values['peak_rss_mb']!r} unit=MB")
        print(f"metric accuracy value={values['accuracy']!r} unit=ratio "
              f"misclass_rate={misclass!r}")
        print(f"metric failed_frac value={len(failures) / attempted!r} unit=ratio "
              f"failed={len(failures)} attempted={attempted}")
        if first is not None:
            print(f"chosen={first.chosen} outliers={list(first.outliers)}")
        result_metrics = {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END.items()}

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "oclust" / "__init__.py").is_file():
        print(f"error: no oclust sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
