#!/usr/bin/env python3
"""Run a benchmark workload's trimming on transforms of its data and compare.

For each seed, runs ``oclust_run`` with the configuration that
``perfbench/workloads.py`` gives the workload (the CLI workload runs the
library with the CLI's settings) on the workload's data and on four
transforms of it:

- ``permuted``: the rows in a fixed random order;
- ``scaled``: every value times 2, which is exact in floating point;
- ``shifted``: every value plus 1e3;
- ``rotated``: the rows times a fixed orthogonal matrix.

The paper's statistic is invariant under all four, so each run should choose
the same rows.  For each transform it prints the chosen count, the number of
rows in only one of the two outlier sets and for how many removals the two
removal orders agree, all in the original row numbers.  A permutation only
reorders the rows, whose seeding draws are keyed by their content, so the
permuted run must repeat the removal order in full: the exit code is 1 when it
does not, else 0.  The other transforms are reported, not checked.  Like
``perfbench``, the script pins BLAS to one thread before NumPy loads.

Example:
    python3 scripts/invariance.py --workload trim-frozen-p6 --seeds 0 1 2 \\
        --out results/invariance-trim-frozen-p6.json
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from oclust import DegenerateFitError, DeltaMode, FitConfig, OclustConfig, oclust_run  # noqa: E402
from workloads import N_CLUSTERS, WORKLOADS, make_inputs  # noqa: E402

SHIFT = 1e3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, help="JSON file for the per-seed comparisons")
    return parser.parse_args(argv)


def transforms(data: np.ndarray):
    """(name, transformed data, original row of each transformed row) for each transform."""
    n, p = data.shape
    rows = np.arange(n)
    perm = np.random.default_rng(7).permutation(n)
    rotation, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((p, p)))
    return [
        ("permuted", data[perm], perm),
        ("scaled", data * 2.0, rows),
        ("shifted", data + SHIFT, rows),
        ("rotated", data @ rotation, rows),
    ]


def trimmed(data: np.ndarray, config: OclustConfig, original: np.ndarray) -> dict:
    """The chosen count and removal order of one run, in original row numbers;
    an aborted run has no chosen count and the removals of its partial trace."""
    try:
        result = oclust_run(data, config)
    except DegenerateFitError as exc:
        chosen, trace = None, exc.partial_trace or []
    else:
        chosen, trace = result.chosen_num_outliers, result.trace
    return {"chosen": chosen, "removed": [int(original[r.removed_point]) for r in trace[1:]]}


def agreement(base: dict, run: dict) -> dict:
    """How far a transformed run agrees with the base run."""
    prefix = 0
    for a, b in zip(base["removed"], run["removed"]):
        if a != b:
            break
        prefix += 1
    differ = None
    if base["chosen"] is not None and run["chosen"] is not None:
        differ = len(set(base["removed"][:base["chosen"]]) ^ set(run["removed"][:run["chosen"]]))
    return {"chosen": run["chosen"], "outliers_differ": differ,
            "removals_agree": prefix, "removals": len(base["removed"])}


def chosen(count) -> str:
    return "aborted" if count is None else f"chosen {count}"


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    records, ok = [], True
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as work_dir:
            data = make_inputs(wl, seed, Path(work_dir)).data
        config = OclustConfig(n_clusters=N_CLUSTERS, max_outliers=wl.budget,
                              fit=FitConfig(seed=wl.fit_seed + seed),
                              delta_mode=DeltaMode(wl.mode), n_threads=wl.threads)
        base = trimmed(data, config, np.arange(data.shape[0]))
        print(f"{args.workload} seed {seed} base: {chosen(base['chosen'])}", flush=True)
        record = {"seed": seed, "chosen": base["chosen"]}
        for name, moved, original in transforms(data):
            row = record[name] = agreement(base, trimmed(moved, config, original))
            failed = name == "permuted" and (row["chosen"] != base["chosen"]
                                             or row["removals_agree"] < row["removals"])
            ok &= not failed
            print(f"{args.workload} seed {seed} {name}: {chosen(row['chosen'])}, "
                  f"outlier sets differ by {row['outliers_differ']} rows, removal orders "
                  f"agree on {row['removals_agree']} of {row['removals']}"
                  f"{'  FAIL' if failed else ''}", flush=True)
        records.append(record)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "shift": SHIFT, "pass": ok, "per_seed": records},
                                       indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
