"""Command line interface.

Subcommands:
    oclust            trim outliers from a dataset and report the chosen count
    simulate          generate a benchmark dataset with planted outliers
    separation-study  measure the hard-assignment likelihood gap vs separation
    score             compare predicted outlier labels against ground truth

Exit codes: 0 success, 2 bad input, 3 numerical degeneracy, 4 generation
stall.  All numeric CSV output uses 17 significant digits so values
round-trip exactly, and every run is a pure function of its flags and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .divergence import BinMethod
from .errors import (
    BinningError,
    DegenerateFitError,
    GenerationStallError,
    InputFormatError,
    InsufficientPointsError,
    OclustError,
    SingularCovarianceError,
)
from .gmm import FitConfig
from .simulate import SimModelSpec, gen_dataset, separation_experiment
from .subset import DeltaMode
from .trim import OclustConfig, constant_column, default_max_outliers, error_rates, oclust_run

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_STALL = 4


def _fmt(value: float) -> str:
    """Format a float with 17 significant digits (exact round-trip)."""
    return format(float(value), ".17g")


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(path: Path, command: str, config: dict, seed: int,
                    input_digest: str | None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "input_digest": input_digest,
        "seed": seed,
        "version": __version__,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_numeric_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Read a comma-separated numeric table with a header row.

    Raises ``InputFormatError`` carrying the offending line and column when a
    field does not parse or is not finite (``nan``, ``inf``).
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise InputFormatError(f"{path}: empty file", line=1)
    header = [h.strip() for h in lines[0].split(",")]
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise InputFormatError(
                f"{path}: line {lineno} has {len(fields)} fields, expected {len(header)}",
                line=lineno,
            )
        row = []
        for colno, field in enumerate(fields, start=1):
            try:
                row.append(float(field))
            except ValueError as exc:
                raise InputFormatError(
                    f"{path}: line {lineno}, column {colno} ({header[colno - 1]!r}): "
                    f"cannot parse {field.strip()!r} as a number",
                    line=lineno,
                    column=header[colno - 1],
                ) from exc
        rows.append(row)
    if not rows:
        raise InputFormatError(f"{path}: no data rows", line=1)
    table = np.asarray(rows)
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row_idx, col_idx = (int(k) for k in bad[0])
        lineno = row_idx + 2
        field = lines[lineno - 1].split(",")[col_idx]
        raise InputFormatError(
            f"{path}: line {lineno}, column {col_idx + 1} ({header[col_idx]!r}): "
            f"{field.strip()!r} is not a finite number",
            line=lineno,
            column=header[col_idx],
        )
    return header, table


def _default_threads(value: int | None) -> int:
    if value is not None:
        return max(1, value)
    # results are independent of thread count, so defaulting to the CPUs this
    # process may run on changes speed only
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


#: Ground-truth columns written by the simulate subcommand; never clustered on.
_TRUTH_COLUMNS = ("true_label", "is_outlier")


def _cmd_oclust(args) -> int:
    in_path = Path(args.input)
    header, table = _read_numeric_csv(in_path)
    feature_idx = [k for k, name in enumerate(header) if name not in _TRUTH_COLUMNS]
    if not feature_idx:
        raise InputFormatError(f"{in_path}: no feature columns")
    table = table[:, feature_idx]
    flat = constant_column(table)
    if flat is not None:
        name = header[feature_idx[flat]]
        raise InputFormatError(
            f"{in_path}: column {feature_idx[flat] + 1} ({name!r}) is constant "
            f"(every value is {float(table[0, flat])!r}); "
            "it makes every cluster covariance singular",
            column=name,
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    threads = _default_threads(args.threads)
    config = OclustConfig(
        n_clusters=args.clusters,
        max_outliers=args.max_outliers,
        fit=FitConfig(seed=args.seed),
        delta_mode=DeltaMode(args.mode),
        num_bins=args.bins,
        bin_method=BinMethod.EQUAL_PROBABILITY,
        n_threads=threads,
    )
    result = oclust_run(table, config)

    with open(out_dir / "trace.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("iteration,removed_row,kl,loglik,n_remaining,clamped\n")
        n = table.shape[0]
        for record in result.trace:
            removed = "" if record.removed_point is None else str(record.removed_point)
            handle.write(
                f"{record.iteration},{removed},{_fmt(record.kl.value)},"
                f"{_fmt(record.loglik)},{n - record.iteration},{record.kl.clamped_count}\n"
            )

    with open(out_dir / "labels.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("row,label\n")
        labels = {}
        for pos, row in enumerate(result.retained_indices):
            labels[int(row)] = str(int(result.final_labels[pos]) + 1)
        for row in result.outlier_indices:
            labels[int(row)] = "outlier"
        for row in range(table.shape[0]):
            handle.write(f"{row},{labels[row]}\n")

    summary = {
        "alpha_hat": result.alpha_hat,
        "chosen_num_outliers": result.chosen_num_outliers,
        "clusters": args.clusters,
        "final_model": {
            "covariances": result.final_model.covariances.tolist(),
            "means": result.final_model.means.tolist(),
            "weights": result.final_model.weights.tolist(),
        },
        "manifest": "manifest.json",
        "max_outliers": args.max_outliers
        if args.max_outliers is not None
        else default_max_outliers(table.shape[0]),
        "min_kl": min(r.kl.value for r in result.trace),
        "mode": args.mode,
        "n_points": table.shape[0],
        "outlier_rows": [int(i) for i in result.outlier_indices],
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_manifest(
        out_dir / "manifest.json",
        "oclust",
        {
            "bins": args.bins,
            "clusters": args.clusters,
            "input": str(in_path),
            "max_outliers": args.max_outliers,
            "mode": args.mode,
            "threads": threads,
        },
        args.seed,
        _sha256_file(in_path),
    )
    print(
        f"chose {result.chosen_num_outliers} outliers out of {table.shape[0]} points "
        f"(alpha_hat={result.alpha_hat:.4f}); outputs in {out_dir}"
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = SimModelSpec(
        model=args.model,
        n_good=args.n_good,
        n_outliers=args.n_out,
        p=args.dim,
        proportions=args.proportions,
        seed=args.seed,
    )
    dataset = gen_dataset(spec)
    out_path = Path(args.out)
    if out_path.parent and not out_path.parent.exists():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    feature_names = [f"x{k + 1}" for k in range(args.dim)]
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(feature_names + ["true_label", "is_outlier"]) + "\n")
        for i in range(dataset.data.shape[0]):
            fields = [_fmt(v) for v in dataset.data[i]]
            fields.append(str(int(dataset.true_labels[i])))
            fields.append(str(int(dataset.outlier_mask[i])))
            handle.write(",".join(fields) + "\n")
    _write_manifest(
        out_path.with_name(out_path.name + ".manifest.json"),
        "simulate",
        {
            "dim": args.dim,
            "model": args.model,
            "n_good": args.n_good,
            "n_out": args.n_out,
            "out": str(out_path),
            "proportions": args.proportions,
        },
        args.seed,
        None,
    )
    print(f"wrote {dataset.data.shape[0]} rows ({args.n_out} outliers) to {out_path}")
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputFormatError(f"grid {text!r} must be start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise InputFormatError(f"grid {text!r} has non-numeric parts") from exc
        if step <= 0:
            raise InputFormatError("grid step must be positive")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        return [round(start + k * step, 10) for k in range(count)]
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise InputFormatError(f"grid {text!r} has non-numeric parts") from exc


def _cmd_separation_study(args) -> int:
    try:
        dims = [int(d) for d in args.dims.split(",") if d.strip()]
    except ValueError as exc:
        raise InputFormatError(f"dims {args.dims!r} must be a comma list of integers") from exc
    grid = _parse_grid(args.grid)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    warnings = 0
    lines = ["separation,p,mean_relative_gap,achieved_separation,replicates"]
    for p_dim in dims:
        for target in grid:
            try:
                report = separation_experiment(
                    p_dim, target, args.replicates, args.seed
                )
                lines.append(
                    f"{_fmt(target)},{p_dim},{_fmt(report.relative_gap)},"
                    f"{_fmt(report.achieved)},{report.replicates}"
                )
            except (ValueError, OclustError) as exc:
                warnings += 1
                print(
                    f"warning: separation {target} at p={p_dim} failed: {exc}",
                    file=sys.stderr,
                )
                lines.append(f"{_fmt(target)},{p_dim},,,0")
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(
        out_path.with_name(out_path.name + ".manifest.json"),
        "separation-study",
        {
            "dims": args.dims,
            "grid": args.grid,
            "out": str(out_path),
            "replicates": args.replicates,
        },
        args.seed,
        None,
    )
    if warnings:
        print(f"finished with {warnings} failed cells", file=sys.stderr)
    print(f"wrote separation study to {out_path}")
    return EXIT_OK


def _cmd_score(args) -> int:
    pred_path = Path(args.pred)
    truth_path = Path(args.truth)
    try:
        pred_lines = [
            line for line in pred_path.read_text(encoding="utf-8").splitlines() if line.strip()
        ]
    except OSError as exc:
        raise InputFormatError(f"cannot read {pred_path}: {exc}") from exc
    if not pred_lines or pred_lines[0].split(",")[0].strip() != "row":
        raise InputFormatError(f"{pred_path}: expected a header starting with 'row'", line=1)
    pred_flags = []
    for lineno, line in enumerate(pred_lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 2:
            raise InputFormatError(
                f"{pred_path}: line {lineno} must be 'row,label'", line=lineno
            )
        pred_flags.append(fields[1].strip() == "outlier")
    header, table = _read_numeric_csv(truth_path)
    if "is_outlier" not in header:
        raise InputFormatError(f"{truth_path}: missing 'is_outlier' column")
    truth_flags = table[:, header.index("is_outlier")] != 0.0
    if len(pred_flags) != truth_flags.shape[0]:
        raise InputFormatError(
            f"{pred_path} has {len(pred_flags)} rows but {truth_path} has "
            f"{truth_flags.shape[0]}"
        )
    good_as_outlier, outlier_as_good, overall = error_rates(pred_flags, truth_flags)
    print(
        json.dumps(
            {
                "misclassification_rate": overall,
                "prop_good_as_outlier": good_as_outlier,
                "prop_outlier_as_good": outlier_as_good,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oclust",
        description="Outlier trimming for Gaussian mixture clustering.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("oclust", help="trim outliers from a CSV dataset")
    run.add_argument("input", help="CSV file of numeric features with a header row")
    run.add_argument("--clusters", type=int, required=True, help="number of mixture components")
    run.add_argument("--max-outliers", type=int, default=None,
                     help="trimming budget (default: ceil(0.125 n))")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--bins", type=int, default=None,
                     help="KL histogram bins (default: max(10, ceil(sqrt(n))))")
    run.add_argument("--mode", choices=[m.value for m in DeltaMode], default=DeltaMode.REFIT.value,
                     help="subset delta mode")
    run.add_argument("--threads", type=int, default=None,
                     help="worker threads for the subset refits "
                          "(default: the cores this process may run on)")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=_cmd_oclust)

    sim = sub.add_parser("simulate", help="generate a benchmark dataset")
    sim.add_argument("--model", choices=["I", "II", "III", "IV", "V"], required=True)
    sim.add_argument("--dim", type=int, default=2)
    sim.add_argument("--proportions", choices=["equal", "unequal"], default="equal")
    sim.add_argument("--n-good", type=int, required=True)
    sim.add_argument("--n-out", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=_cmd_simulate)

    study = sub.add_parser("separation-study",
                           help="hard-assignment likelihood gap vs cluster separation")
    study.add_argument("--dims", default="2", help="comma list of dimensions")
    study.add_argument("--grid", default="-0.9:0.9:0.1",
                       help="separation targets, start:stop:step or comma list")
    study.add_argument("--replicates", type=int, default=20)
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--out", required=True, help="output CSV path")
    study.set_defaults(func=_cmd_separation_study)

    score = sub.add_parser("score", help="score predicted outlier labels against truth")
    score.add_argument("--pred", required=True, help="labels.csv from the oclust subcommand")
    score.add_argument("--truth", required=True, help="dataset CSV with an is_outlier column")
    score.set_defaults(func=_cmd_score)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegenerateFitError, SingularCovarianceError, InsufficientPointsError,
            BinningError) as exc:
        print(f"error: numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except GenerationStallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALL


if __name__ == "__main__":
    sys.exit(main())
