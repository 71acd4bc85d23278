"""Command line interface.

Subcommands:
    oclust            trim outliers from a dataset and report the chosen count
    simulate          generate a benchmark dataset with planted outliers
    separation-study  measure the hard-assignment likelihood gap vs separation
    score             compare predicted outlier labels against ground truth

Exit codes: 0 success, 2 bad input or a path that cannot be read or
written, 3 numerical degeneracy, 4 generation stall.  All numeric CSV
output uses 17 significant digits so values round-trip exactly, and every
run is a pure function of its flags and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DegenerateFitError, GenerationStallError, InputFormatError, OclustError
from .gmm import FitConfig
from .rng import check_seed
from .simulate import SimModelSpec, gen_dataset, separation_experiment
from .subset import DeltaMode
from .trim import OclustConfig, error_rates, oclust_run, unusable_columns

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


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(path: Path, command: str, config: dict, seed: int,
                    input_digest: str | None) -> None:
    _write_json(path, {
        "command": command,
        "config": config,
        "input_digest": input_digest,
        "seed": seed,
        "version": __version__,
    })


def _write_trace(path: Path, records, n: int) -> None:
    """Write one ``trace.csv`` row per trimming iteration; ``n`` is the input row count."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("iteration,removed_row,kl,loglik,n_remaining,clamped\n")
        for record in records:
            removed = "" if record.removed_point is None else str(record.removed_point)
            handle.write(
                f"{record.iteration},{removed},{_fmt(record.kl.value)},"
                f"{_fmt(record.loglik)},{n - record.iteration},{record.kl.clamped_count}\n"
            )


def _numbered_lines(path: Path) -> list[tuple[int, str]]:
    """The non-blank lines of a text file, each with its number in the file (from 1).

    A leading UTF-8 byte-order mark is dropped.  A file that is not UTF-8
    raises ``InputFormatError`` naming the line of its first bad byte and
    that byte's offset in the file.
    """
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the input after any byte-order mark, and exc.start counts from there
        offset = exc.start + len(raw) - len(exc.object)
        lineno = len((exc.object[:exc.start].decode("utf-8") + "x").splitlines())
        raise InputFormatError(
            f"{path}: line {lineno} is not UTF-8 text: byte {exc.object[exc.start]:#04x} at "
            f"offset {offset}: {exc.reason}") from exc
    return [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
            if line.strip()]


def _read_numeric_csv(path: Path) -> tuple[list[str], np.ndarray, list[int]]:
    """Read a comma-separated numeric table with a header row: the header, the
    table and each table row's line number in the file.

    Blank lines are skipped.  Raises ``InputFormatError`` naming the first
    offending line (numbered by its position in the file) and column when a
    field does not parse or is not finite (``nan``, ``inf``).
    """
    lines = _numbered_lines(path)
    if not lines:
        raise InputFormatError(f"{path}: empty file")
    header = [h.strip() for h in lines[0][1].split(",")]
    rows = []
    for lineno, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise InputFormatError(
                f"{path}: line {lineno} has {len(fields)} fields, expected {len(header)}")
        row = []
        for colno, field in enumerate(fields, start=1):
            try:
                row.append(float(field))
            except ValueError as exc:
                raise InputFormatError(
                    f"{path}: line {lineno}, column {colno} ({header[colno - 1]!r}): "
                    f"cannot parse {field.strip()!r} as a number") from exc
            if not math.isfinite(row[-1]):
                raise InputFormatError(
                    f"{path}: line {lineno}, column {colno} ({header[colno - 1]!r}): "
                    f"{field.strip()!r} is not a finite number")
        rows.append(row)
    if not rows:
        raise InputFormatError(f"{path}: no data rows")
    return header, np.asarray(rows), [lineno for lineno, _ in lines[1:]]


def _seed(text: str) -> int:
    """The type of every ``--seed`` flag: an integer >= 0, refused by argparse
    (exit 2) with a message that names the value otherwise."""
    try:
        return check_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}") from exc


def _default_threads(value: int | None) -> int:
    if value is not None:
        return value
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
    header, table, _ = _read_numeric_csv(in_path)
    feature_idx = [k for k, name in enumerate(header) if name not in _TRUTH_COLUMNS]
    if not feature_idx:
        raise InputFormatError(f"{in_path}: no feature columns")
    table = table[:, feature_idx]
    problem = unusable_columns(table, [f"column {k + 1} ({header[k]!r})" for k in feature_idx])
    if problem is not None:
        raise InputFormatError(f"{in_path}: {problem}")
    threads = _default_threads(args.threads)
    config = OclustConfig(
        n_clusters=args.clusters,
        max_outliers=args.max_outliers,
        fit=FitConfig(seed=args.seed),
        delta_mode=DeltaMode(args.mode),
        n_threads=threads,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # an aborted or refused run writes only some of these, so none of an
    # earlier run's may stay beside its manifest
    for name in ("labels.csv", "trace.csv", "summary.json"):
        (out_dir / name).unlink(missing_ok=True)
    _write_manifest(
        out_dir / "manifest.json",
        "oclust",
        {
            "clusters": args.clusters,
            "input": str(in_path),
            "max_outliers": args.max_outliers,
            "mode": args.mode,
            "threads": threads,
        },
        args.seed,
        _sha256_file(in_path),
    )
    try:
        result = oclust_run(table, config)
    except DegenerateFitError as exc:
        # an aborted run still leaves the iterations it completed
        if exc.partial_trace is not None:
            _write_trace(out_dir / "trace.csv", exc.partial_trace, table.shape[0])
            _write_json(out_dir / "summary.json", {
                "aborted": True,
                "completed_iterations": len(exc.partial_trace),
                "error": str(exc),
            })
        raise
    _write_trace(out_dir / "trace.csv", result.trace, table.shape[0])

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
        "max_outliers": len(result.trace) - 1,
        "min_kl": min(r.kl.value for r in result.trace),
        "mode": args.mode,
        "n_points": table.shape[0],
        "outlier_rows": [int(i) for i in result.outlier_indices],
    }
    _write_json(out_dir / "summary.json", summary)
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
    out_path.parent.mkdir(parents=True, exist_ok=True)
    feature_names = [f"x{k + 1}" for k in range(args.dim)]
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(feature_names + list(_TRUTH_COLUMNS)) + "\n")
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


#: Most separation targets one study may ask for: each costs at least one
#: calibration and one fit on 1,800 points.
_MAX_GRID_TARGETS = 10_000


def _parse_grid(text: str) -> list[float]:
    """Separation targets from ``start:stop:step`` (both ends included, to
    within 1e-9 steps) or a comma list: at most ``_MAX_GRID_TARGETS`` finite
    floats, or ``InputFormatError`` naming the problem."""
    ranged = ":" in text
    parts = text.split(":") if ranged else [part for part in text.split(",") if part.strip()]
    if ranged and len(parts) != 3:
        raise InputFormatError(f"grid {text!r} must be start:stop:step")
    values = []
    for part in parts:
        try:
            values.append(float(part))
        except ValueError as exc:
            raise InputFormatError(f"grid {text!r} has non-numeric parts") from exc
        if not math.isfinite(values[-1]):
            raise InputFormatError(f"grid {text!r}: {part.strip()!r} is not a finite number")
    count = len(values)
    if ranged:
        start, stop, step = values
        if step <= 0:
            raise InputFormatError(f"grid {text!r}: step must be positive")
        # +-inf past the largest float; a stop below start asks for no targets
        count = max(np.floor((stop - start) / step + 1e-9) + 1, 0)
    if count > _MAX_GRID_TARGETS:
        many = f"{count:.6g}" if math.isfinite(count) else "more than 1e308"
        raise InputFormatError(
            f"grid {text!r} asks for {many} targets; at most {_MAX_GRID_TARGETS} are allowed")
    grid = [round(start + k * step, 10) for k in range(int(count))] if ranged else values
    if grid and not math.isfinite(grid[-1]):  # a last step, within 1e-9, past the largest float
        raise InputFormatError(f"grid {text!r}: its last target overflows a float")
    return grid


def _cmd_separation_study(args) -> int:
    try:
        dims = [int(d) for d in args.dims.split(",") if d.strip()]
    except ValueError as exc:
        raise InputFormatError(f"dims {args.dims!r} must be a comma list of integers") from exc
    if not dims:
        raise InputFormatError(f"dims {args.dims!r} is an empty list")
    if any(p_dim < 2 for p_dim in dims):
        raise InputFormatError(f"dims {args.dims!r}: benchmark clusters need dimension >= 2")
    grid = _parse_grid(args.grid)
    if not grid:
        raise InputFormatError(f"grid {args.grid!r} holds no values")
    outside = [target for target in grid if not -1.0 < target < 1.0]
    if outside:
        raise InputFormatError(
            f"grid {args.grid!r}: separation target {outside[0]} lies outside (-1, 1)"
        )
    if args.replicates < 1:
        raise InputFormatError(f"replicates {args.replicates}: need at least 1")
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
    pred_lines = _numbered_lines(pred_path)
    if not pred_lines or pred_lines[0][1].split(",")[0].strip() != "row":
        raise InputFormatError(f"{pred_path}: expected a header starting with 'row'")
    pred_flags = []
    for row, (lineno, line) in enumerate(pred_lines[1:]):
        fields = [field.strip() for field in line.split(",")]
        if len(fields) != 2:
            raise InputFormatError(f"{pred_path}: line {lineno} must be 'row,label'")
        if fields[0] != str(row):
            raise InputFormatError(
                f"{pred_path}: line {lineno} is for row {fields[0]!r}; rows must read 0, 1, 2, ... "
                f"in order, so expected {row}")
        label = fields[1]
        if label != "outlier" and not (label.isascii() and label.isdigit() and int(label) >= 1):
            raise InputFormatError(
                f"{pred_path}: line {lineno} has label {label!r}; "
                "expected a positive cluster number or 'outlier'")
        pred_flags.append(label == "outlier")
    flag_column = _TRUTH_COLUMNS[-1]
    header, table, linenos = _read_numeric_csv(truth_path)
    if flag_column not in header:
        raise InputFormatError(f"{truth_path}: missing {flag_column!r} column")
    col = header.index(flag_column)
    truth_flags = table[:, col] == 1.0
    bad = ~truth_flags & (table[:, col] != 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise InputFormatError(
            f"{truth_path}: line {linenos[i]}, column {col + 1} ({flag_column!r}): "
            f"{float(table[i, col])!r} is not an outlier flag; expected 0 or 1")
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
    run.add_argument("--seed", type=_seed, default=0)
    run.add_argument("--mode", choices=[m.value for m in DeltaMode],
                     default=OclustConfig.delta_mode.value,
                     help="subset delta mode (default: %(default)s, the library's)")
    run.add_argument("--threads", type=int, default=None,
                     help="threads that run the leave-one-out refits, the calling thread "
                          "included; frozen mode starts none "
                          "(default: the cores this process may run on)")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=_cmd_oclust)

    sim = sub.add_parser("simulate", help="generate a benchmark dataset")
    sim.add_argument("--model", choices=["I", "II", "III", "IV", "V"], required=True)
    sim.add_argument("--dim", type=int, default=2)
    sim.add_argument("--proportions", choices=["equal", "unequal"], default="equal")
    sim.add_argument("--n-good", type=int, required=True)
    sim.add_argument("--n-out", type=int, required=True)
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=_cmd_simulate)

    study = sub.add_parser("separation-study",
                           help="hard-assignment likelihood gap vs cluster separation")
    study.add_argument("--dims", default="2", help="comma list of dimensions")
    study.add_argument("--grid", default="-0.9:0.9:0.1",
                       help="separation targets, start:stop:step or comma list, "
                            "e.g. -0.9:0.9:0.1 or -0.5,0,0.5")
    study.add_argument("--replicates", type=int, default=20)
    study.add_argument("--seed", type=_seed, default=0)
    study.add_argument("--out", required=True, help="output CSV path")
    study.set_defaults(func=_cmd_separation_study)

    score = sub.add_parser("score", help="score predicted outlier labels against truth")
    score.add_argument("--pred", required=True, help="labels.csv from the oclust subcommand")
    score.add_argument("--truth", required=True, help="dataset CSV with an is_outlier column")
    score.set_defaults(func=_cmd_score)
    return parser


def _join_negative_grid(argv: list[str]) -> list[str]:
    """``argv`` with ``--grid VALUE`` joined into ``--grid=VALUE`` when VALUE
    starts with a minus sign and a digit or point: argparse takes such a
    value for an unknown option unless it is one plain number."""
    joined = []
    for arg in argv:
        if joined and joined[-1] == "--grid" and re.match(r"-\.?\d", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_grid(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (InputFormatError, ValueError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateFitError as exc:
        print(f"error: numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except GenerationStallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALL


if __name__ == "__main__":
    sys.exit(main())
