#!/usr/bin/env python3
"""Benchmark study: trimming accuracy across cluster shape settings.

For each requested shape setting this script generates seeded datasets from
the three-cluster benchmark family (good points plus uniform-box gross
outliers), runs the full trimming loop in either delta mode, and reports the
estimated outlier proportion and the outlier classification error rates,
aggregated over seeds.

Example:
    python3 scripts/run_simulation_study.py --models I II --n-good 450 \
        --n-out 50 --seeds 5 --mode frozen --out results/simulation_study.csv
"""

import argparse
import csv
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oclust import (  # noqa: E402
    DegenerateFitError,
    DeltaMode,
    FitConfig,
    OclustConfig,
    SimModelSpec,
    classify_errors,
    gen_dataset,
    oclust_run,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", nargs="+", default=["I", "II", "III", "IV", "V"],
                        choices=["I", "II", "III", "IV", "V"],
                        help="shape settings to run")
    parser.add_argument("--proportions", nargs="+", default=["equal"],
                        choices=["equal", "unequal"])
    parser.add_argument("--n-good", type=int, default=450)
    parser.add_argument("--n-out", type=int, default=50)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--max-outliers", type=int, default=None,
                        help="trimming budget (default: ceil(0.125 n))")
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of replicate datasets per cell")
    parser.add_argument("--base-seed", type=int, default=1000)
    parser.add_argument("--mode", choices=[m.value for m in DeltaMode],
                        default=OclustConfig.delta_mode.value,
                        help="subset delta mode (default: the library's)")
    parser.add_argument("--threads", type=int, default=min(4, os.cpu_count() or 1))
    parser.add_argument("--out", default="results/simulation_study.csv")
    return parser.parse_args(argv)


def run_cell(model, proportions, args):
    alphas, good_as_out, out_as_good, mis = [], [], [], []
    failures = 0
    for i in range(args.seeds):
        spec = SimModelSpec(
            model=model,
            n_good=args.n_good,
            n_outliers=args.n_out,
            p=args.dim,
            proportions=proportions,
            seed=args.base_seed + i,
        )
        dataset = gen_dataset(spec)
        config = OclustConfig(
            n_clusters=3,
            max_outliers=args.max_outliers,
            fit=FitConfig(seed=i),
            delta_mode=DeltaMode(args.mode),
            n_threads=args.threads,
        )
        try:
            result = oclust_run(dataset.data, config)
        except DegenerateFitError as err:
            print(f"  seed {i}: degenerate run skipped ({err})", file=sys.stderr)
            failures += 1
            continue
        g, o, m = classify_errors(result, dataset.outlier_mask)
        alphas.append(result.alpha_hat)
        good_as_out.append(g)
        out_as_good.append(o)
        mis.append(m)
    return alphas, good_as_out, out_as_good, mis, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    true_alpha = args.n_out / (args.n_good + args.n_out)
    rows = []
    for model in args.models:
        for proportions in args.proportions:
            t0 = time.time()
            print(f"model {model} / {proportions} / {args.mode}: {args.seeds} seeds ...",
                  flush=True)
            alphas, g, o, m, failures = run_cell(model, proportions, args)
            if not alphas:
                print(f"  all {args.seeds} seeds failed; cell skipped", file=sys.stderr)
                continue
            rows.append({
                "model": model,
                "proportions": proportions,
                "mode": args.mode,
                "n_good": args.n_good,
                "n_out": args.n_out,
                "true_alpha": round(true_alpha, 6),
                "seeds_done": len(alphas),
                "seeds_failed": failures,
                "mean_alpha_hat": round(float(np.mean(alphas)), 6),
                "sd_alpha_hat": round(float(np.std(alphas, ddof=1)) if len(alphas) > 1 else 0.0, 6),
                "mean_good_as_outlier": round(float(np.mean(g)), 6),
                "mean_outlier_as_good": round(float(np.mean(o)), 6),
                "mean_misclassification": round(float(np.mean(m)), 6),
            })
            print(
                f"  mean alpha_hat={rows[-1]['mean_alpha_hat']:.4f} "
                f"mis={rows[-1]['mean_misclassification']:.4f} "
                f"({time.time() - t0:.0f}s)",
                flush=True,
            )
    if not rows:
        print("no cell produced results", file=sys.stderr)
        return 1
    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
