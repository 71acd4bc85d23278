"""Workload definitions: seeded inputs, one timed trimming run, output checks.

Each workload puts a different layer in front (see README.md).  The benchmark
seed ``s`` shifts both the data seed and the fit seed, so seed 0 reproduces
the pinned scenario and any other seed gives fresh inputs of the same shape.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oclust import (
    DeltaMode,
    FitConfig,
    OclustConfig,
    SimModelSpec,
    gen_dataset,
    outlier_mask,
    trim,
)
from speed import HOOK_SITE, REF_UNIT_S, SpeedProbe

HERE = Path(__file__).resolve().parent

N_CLUSTERS = 3
CLI_OUTPUTS = ("trace.csv", "labels.csv", "summary.json", "manifest.json")


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    n_good: int
    n_outliers: int
    p: int
    budget: int
    mode: str
    threads: int
    data_seed: int
    fit_seed: int
    cli: bool
    # (chosen count, outlier rows in removal order) on seed 0, recorded from
    # the commit that introduced the benchmark.
    pinned: tuple | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trim-refit-n500", "I", 450, 50, 2, 63, "refit", 2, 1000, 0, False,
                 (42, (479, 487, 471, 452, 472, 488, 466, 492, 486, 454, 489, 467, 453, 485,
                       484, 455, 483, 499, 456, 462, 459, 469, 494, 477, 458, 470, 495, 463,
                       476, 460, 473, 496, 468, 465, 481, 461, 464, 482, 450, 480, 475, 493))),
        Workload("trim-frozen-p6", "III", 900, 100, 6, 125, "frozen", 1, 1000, 0, False,
                 (101, (979, 966, 901, 949, 977, 930, 912, 996, 922, 997, 953, 921, 950, 976,
                       995, 923, 909, 984, 911, 927, 981, 955, 932, 929, 935, 960, 916, 967,
                       902, 941, 913, 999, 987, 947, 952, 954, 964, 998, 959, 990, 928, 969,
                       980, 942, 993, 933, 905, 988, 986, 974, 992, 914, 919, 939, 946, 944,
                       989, 937, 951, 936, 970, 931, 915, 900, 904, 917, 926, 968, 956, 991,
                       963, 924, 934, 973, 985, 945, 957, 962, 906, 920, 975, 948, 943, 907,
                       961, 982, 190, 908, 755, 983, 972, 958, 925, 971, 965, 880, 317, 910,
                       994, 938, 903))),
        Workload("cli-refit-n2000", "I", 1995, 5, 2, 8, "refit", 2, 7, 1, True,
                 (8, (1996, 1998, 1995, 1999, 1997, 1538, 456, 1263))),
        # Tiny variants of each kind, for the benchmark's own smoke test.
        Workload("smoke-refit", "I", 57, 3, 2, 3, "refit", 2, 1, 0, False),
        Workload("smoke-frozen", "III", 57, 3, 2, 3, "frozen", 1, 1, 0, False),
        Workload("smoke-cli", "I", 57, 3, 2, 3, "refit", 2, 1, 0, True),
    )
}


@dataclass(frozen=True)
class Inputs:
    data: np.ndarray
    outlier_mask: np.ndarray
    csv: Path | None


@dataclass
class Outcome:
    """One timed trimming run and what its outputs say.

    ``run_s`` and ``cpu_s`` are as measured.  When a speed probe ran inside
    the run, ``probe`` holds its kernel time (``wall_s``, ``cpu_s``, ``units``)
    and ``cal_run_s``/``cal_cpu_s`` give the program's own time at reference
    speed.
    """

    run_s: float
    cpu_s: float
    probe: dict | None = None
    removed: tuple = ()
    kl: tuple = ()
    chosen: int = -1
    outliers: tuple = ()
    predicted: np.ndarray | None = None
    fingerprint: object = None
    error: str = ""

    @property
    def factor(self) -> float:
        return REF_UNIT_S * self.probe["units"] / self.probe["wall_s"]

    @property
    def cal_run_s(self) -> float:
        return (self.run_s - self.probe["wall_s"]) * self.factor

    @property
    def cal_cpu_s(self) -> float:
        return (self.cpu_s - self.probe["cpu_s"]) * self.factor


def make_inputs(wl: Workload, seed: int, work_dir: Path) -> Inputs:
    """Generate the workload's data; the CLI workload also gets it as a CSV.

    The program receives only the features: no ground-truth columns.
    """
    ds = gen_dataset(SimModelSpec(model=wl.model, n_good=wl.n_good, n_outliers=wl.n_outliers,
                                  p=wl.p, seed=wl.data_seed + seed))
    csv = None
    if wl.cli:
        csv = work_dir / "input.csv"
        with open(csv, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(f"x{k + 1}" for k in range(wl.p)) + "\n")
            for row in ds.data:
                handle.write(",".join(format(v, ".17g") for v in row) + "\n")
    return Inputs(data=ds.data, outlier_mask=ds.outlier_mask, csv=csv)


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_library(wl: Workload, seed: int, inputs: Inputs, oclust_run, *,
                calibrate: bool = False) -> Outcome:
    """One library trimming run; with ``calibrate``, a speed probe ticks inside it."""
    config = OclustConfig(
        n_clusters=N_CLUSTERS, max_outliers=wl.budget, fit=FitConfig(seed=wl.fit_seed + seed),
        delta_mode=DeltaMode(wl.mode), n_threads=wl.threads,
    )
    probe = SpeedProbe() if calibrate else None
    original = probe.hook(trim, HOOK_SITE) if probe else None
    try:
        cpu0 = _cpu_s(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        if probe:
            probe.start()
        result = oclust_run(inputs.data, config)
        if probe:
            probe.stop()
        run_s = time.perf_counter() - t0
        cpu_s = _cpu_s(resource.RUSAGE_SELF) - cpu0
    finally:
        if probe:
            setattr(trim, HOOK_SITE, original)
    removed = tuple(r.removed_point for r in result.trace[1:])
    kl = tuple(r.kl.value for r in result.trace)
    return Outcome(
        run_s=run_s, cpu_s=cpu_s, probe=probe.report() if probe else None,
        removed=removed, kl=kl,
        chosen=result.chosen_num_outliers, outliers=tuple(result.outlier_indices),
        predicted=outlier_mask(result), fingerprint=(removed, kl, result.chosen_num_outliers),
    )


def run_cli(wl: Workload, seed: int, inputs: Inputs, out_dir: Path, *,
            main=None, env=None, timeout: float) -> Outcome:
    """One ``oclust oclust`` run: a subprocess, or ``main`` called in-process.

    The subprocess is ``cli_child.py``, which runs ``python3 -m oclust`` with a
    speed probe and writes the probe's figures to ``probe.json`` beside the
    output directory.
    """
    argv = [
        "oclust", str(inputs.csv), "--clusters", str(N_CLUSTERS),
        "--max-outliers", str(wl.budget), "--seed", str(wl.fit_seed + seed),
        "--threads", str(wl.threads), "--mode", wl.mode, "--out", str(out_dir),
    ]
    shutil.rmtree(out_dir, ignore_errors=True)
    probe_file = out_dir.parent / "probe.json"
    probe_file.unlink(missing_ok=True)
    who = resource.RUSAGE_SELF if main is not None else resource.RUSAGE_CHILDREN
    cpu0 = _cpu_s(who)
    t0 = time.perf_counter()
    if main is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        stderr = ""
    else:
        proc = subprocess.run([sys.executable, str(HERE / "cli_child.py"), str(probe_file), *argv],
                              env=env, capture_output=True, text=True, timeout=timeout)
        code, stderr = proc.returncode, proc.stderr
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_s(who) - cpu0
    outcome = Outcome(run_s=run_s, cpu_s=cpu_s)
    if main is None and code == 0:
        outcome.probe = json.loads(probe_file.read_text(encoding="utf-8"))
    if code != 0:
        outcome.error = f"exit code {code}: {stderr.strip()[-500:]}"
        return outcome
    missing = [name for name in CLI_OUTPUTS if not (out_dir / name).is_file()]
    if missing:
        outcome.error = f"missing outputs: {missing}"
        return outcome
    digest = hashlib.sha256()
    for name in CLI_OUTPUTS:
        digest.update((out_dir / name).read_bytes())
    rows = (out_dir / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    fields = [row.split(",") for row in rows]
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    labels = (out_dir / "labels.csv").read_text(encoding="utf-8").splitlines()[1:]
    outcome.removed = tuple(int(f[1]) for f in fields[1:])
    outcome.kl = tuple(float(f[2]) for f in fields)
    outcome.chosen = int(summary["chosen_num_outliers"])
    outcome.outliers = tuple(summary["outlier_rows"])
    outcome.predicted = np.array([line.split(",")[1] == "outlier" for line in labels])
    outcome.fingerprint = digest.hexdigest()
    return outcome


def check(wl: Workload, seed: int, n: int, outcome: Outcome, first: Outcome | None) -> str:
    """Why ``outcome`` is wrong, or "" when it passes every check."""
    if outcome.error:
        return outcome.error
    if len(outcome.removed) != wl.budget or len(outcome.kl) != wl.budget + 1:
        return f"trace has {len(outcome.kl)} entries for a budget of {wl.budget}"
    if len(set(outcome.removed)) != wl.budget or not all(0 <= r < n for r in outcome.removed):
        return "removal sequence repeats a row or names a row outside the data"
    if outcome.chosen != int(np.argmin(outcome.kl)):
        return f"chose {outcome.chosen} but the divergence trace is lowest at {np.argmin(outcome.kl)}"
    if outcome.outliers != outcome.removed[:outcome.chosen]:
        return "outlier rows are not the first removals"
    if outcome.predicted is None or outcome.predicted.shape != (n,) or set(
            np.flatnonzero(outcome.predicted)) != set(outcome.outliers):
        return "per-row labels disagree with the outlier rows"
    if seed == 0 and wl.pinned is not None and (outcome.chosen, outcome.outliers) != wl.pinned:
        return f"chose {outcome.chosen} rows {outcome.outliers}; pinned {wl.pinned}"
    if first is not None and outcome.fingerprint != first.fingerprint:
        return "output differs from the first run with the same seed"
    return ""
