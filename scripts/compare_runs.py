#!/usr/bin/env python3
"""Compare two checkouts' trimming runs on one benchmark workload, seed by seed.

For each seed, runs each checkout's own ``oclust_run`` in a subprocess, on the
data and with the configuration that the checkout's ``perfbench/workloads.py``
gives the workload (the CLI workload runs the library with the CLI's
settings).  Every subprocess pins BLAS to one thread before NumPy loads, as
``perfbench`` does.  Per seed it prints whether the removal order, the chosen
count, the KL trace and the per-iteration clamped counts (the CLI's
``trace.csv`` ``clamped`` column) are equal, the largest relative drift of the
per-iteration log-likelihood and of the final model (written to
``summary.json`` at full precision), and whether the final labels are equal
(``em_fit`` numbers components by the first row each one owns, so equal
partitions have equal labels).  A delta that crosses a support edge changes
the clamped count but can leave the KL value as it was, so equal KL traces
alone do not make equal CLI outputs.  The final model's
drift is judged field by field (the weights, each mean, each covariance),
each entry's move against the largest magnitude in its field, so that a
near-zero off-diagonal is not judged against itself.  The exit code is 1
when any seed differs in one of those or either drift exceeds
``LOGLIK_DRIFT_BOUND``, else 0.

Example:
    python3 scripts/compare_runs.py ../parent . --workload trim-refit-n500 \\
        --seeds 0 1 2 3 4 5 6 7 8 9 --out results/compare-trim-refit-n500.json
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LOGLIK_DRIFT_BOUND = 1e-12  # largest relative log-likelihood or final-model drift that passes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, help="JSON file for the per-seed comparisons")
    return parser.parse_args(argv)


def emit(checkout: Path, workload: str, seed: int) -> None:
    """Run ``checkout``'s trimming on the workload and print its outputs as JSON."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from oclust import DeltaMode, FitConfig, OclustConfig, oclust_run
    from workloads import N_CLUSTERS, WORKLOADS, make_inputs

    wl = WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as work_dir:
        data = make_inputs(wl, seed, Path(work_dir)).data
    config = OclustConfig(n_clusters=N_CLUSTERS, max_outliers=wl.budget,
                          fit=FitConfig(seed=wl.fit_seed + seed),
                          delta_mode=DeltaMode(wl.mode), n_threads=wl.threads)
    result = oclust_run(data, config)
    model = result.final_model
    print(json.dumps({
        "removed": [r.removed_point for r in result.trace[1:]],
        "chosen": result.chosen_num_outliers,
        "kl": [r.kl.value for r in result.trace],
        "clamped": [r.kl.clamped_count for r in result.trace],
        "loglik": [r.loglik for r in result.trace],
        "labels": result.final_labels.tolist(),
        "final_model": [model.weights.tolist(), *model.means.tolist(),
                        *(cov.ravel().tolist() for cov in model.covariances)],
    }))


def run(checkout: Path, workload: str, seed: int) -> dict:
    """One ``emit`` in a fresh interpreter, so that it imports ``checkout``'s code."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit", str(checkout.resolve()),
           workload, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: seed {seed} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def drift(parent: list, change: list) -> float | None:
    """Largest relative difference of two number lists; None when their lengths differ."""
    if len(parent) != len(change):
        return None
    return max((abs(c - p) / max(abs(p), 1e-300) for p, c in zip(parent, change)), default=0.0)


def field_drift(parent: list, change: list) -> float | None:
    """Largest difference of two lists of fields (number lists), each relative
    to the largest magnitude in the parent's field; None when their shapes differ."""
    if [len(field) for field in parent] != [len(field) for field in change]:
        return None
    return max((max(abs(c - p) for p, c in zip(old, new)) / max(max(map(abs, old)), 1e-300)
                for old, new in zip(parent, change)), default=0.0)


def show(value: float | None, missing: str) -> str:
    return missing if value is None else f"{value:.3g}"


def compare(parent: dict, change: dict) -> dict:
    return {
        "removed_equal": parent["removed"] == change["removed"],
        "chosen": [parent["chosen"], change["chosen"]],
        "chosen_equal": parent["chosen"] == change["chosen"],
        "kl_equal": parent["kl"] == change["kl"],
        "clamped_equal": parent["clamped"] == change["clamped"],
        "loglik_drift": drift(parent["loglik"], change["loglik"]),
        "final_model_drift": field_drift(parent["final_model"], change["final_model"]),
        "labels_equal": parent["labels"] == change["labels"],
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--emit"]:  # the child side of ``run``
        emit(Path(argv[1]), argv[2], int(argv[3]))
        return 0
    args = parse_args(argv)
    rows, ok = [], True
    for seed in args.seeds:
        row = {"seed": seed, **compare(run(args.parent, args.workload, seed),
                                       run(args.change, args.workload, seed))}
        loglik_drift, model_drift = row["loglik_drift"], row["final_model_drift"]
        passed = (row["removed_equal"] and row["chosen_equal"] and row["kl_equal"]
                  and row["clamped_equal"] and row["labels_equal"]
                  and all(d is not None and d <= LOGLIK_DRIFT_BOUND
                          for d in (loglik_drift, model_drift)))
        ok &= passed
        rows.append(row)
        print(f"seed {seed}: removal order {'equal' if row['removed_equal'] else 'DIFFERS'}, "
              f"chosen {row['chosen'][0]} -> {row['chosen'][1]}, "
              f"KL trace {'equal' if row['kl_equal'] else 'DIFFERS'}, "
              f"clamped counts {'equal' if row['clamped_equal'] else 'DIFFER'}, "
              f"loglik drift {show(loglik_drift, 'trace lengths differ')}, "
              f"final model drift {show(model_drift, 'shapes differ')}, "
              f"final labels {'equal' if row['labels_equal'] else 'DIFFER'}"
              f"{'' if passed else '  FAIL'}", flush=True)
    print(f"{args.workload}: {'all seeds pass' if ok else 'some seeds FAIL'} "
          f"(drift bound {LOGLIK_DRIFT_BOUND:g})")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        record = {"workload": args.workload, "seeds": args.seeds,
                  "pass": ok, "per_seed": rows}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
