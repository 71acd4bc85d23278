"""Smoke tests for the measurement scripts under ``scripts/``."""

import csv
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from oclust import (FitConfig, OclustConfig, SimModelSpec, em_fit, gen_dataset,
                    loo_refit_logliks)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_loo_pass_prints_one_line_per_pass_with_the_in_process_values():
    # 300 rows in chunks of at most 291 make two groups, one per thread, of
    # one 150-row batch each; two threads must hash like one thread
    # in-process, pass after pass
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "loo_pass.py"), "--n-good", "297", "--n-out", "3",
         "--threads", "2", "--repeats", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [record["repeat"] for record in records] == [0, 1]
    data = gen_dataset(SimModelSpec(model="I", n_good=297, n_outliers=3, p=2, seed=1000)).data
    model, _, _ = em_fit(data, 3, FitConfig(seed=0))
    values = loo_refit_logliks(data, model, n_threads=1)
    for record in records:
        assert (record["n"], record["threads"], record["chunk"]) == (300, 2, 291)
        assert record["batches"] == [[150], [150]]
        assert isinstance(record["minflt"], int) and record["minflt"] >= 0
        assert record["sha256"] == hashlib.sha256(values.tobytes()).hexdigest()


def test_compare_runs_finds_a_checkout_equal_to_itself(tmp_path):
    root = SCRIPTS.parent
    for workload, chosen in (("smoke-refit", 2), ("smoke-frozen", 3)):
        out = tmp_path / f"compare-{workload}.json"
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "compare_runs.py"), str(root), str(root),
             "--workload", workload, "--seeds", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == (
            f"seed 1: removal order equal, chosen {chosen} -> {chosen}, KL trace equal, "
            "clamped counts equal, loglik drift 0, final model drift 0, final labels equal")
        record = json.loads(out.read_text())
        assert record["pass"] and record["per_seed"][0]["labels_equal"]


def test_compare_runs_judges_final_model_drift_against_each_fields_scale():
    spec = importlib.util.spec_from_file_location("compare_runs", SCRIPTS / "compare_runs.py")
    compare_runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_runs)
    # weights, two means and two covariances; the first covariance's
    # off-diagonal 0.0149 moves by 3.1e-11 (2.1e-9 of itself) and the second
    # one's 0.0 by 1e-20, each judged against its covariance's largest entry
    parent = [[0.5, 0.5], [1.0, -2.0], [0.0, 3.0],
              [2.0, 0.0149, 0.0149, 1.5], [4.0, 0.0, 0.0, 1.0]]
    change = [[0.5, 0.5], [1.0, -2.0], [0.0, 3.0],
              [2.0, 0.0149 + 3.1e-11, 0.0149 + 3.1e-11, 1.5], [4.0, 1e-20, 1e-20, 1.0]]
    assert compare_runs.field_drift(parent, change) == pytest.approx(3.1e-11 / 2.0, rel=1e-4)
    assert compare_runs.field_drift(parent, parent) == 0.0
    assert compare_runs.field_drift(parent, change[:-1]) is None
    assert compare_runs.field_drift(parent, change[:-1] + [[4.0, 0.0, 1.0]]) is None


@pytest.mark.parametrize("workload", ["smoke-refit", "smoke-frozen", "smoke-cli"])
def test_invariance_finds_the_permuted_run_equal(tmp_path, workload):
    out = tmp_path / f"invariance-{workload}.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "invariance.py"), "--workload", workload, "--seeds", "0",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    (seed,) = record["per_seed"]
    assert record["pass"] and set(seed) == {"seed", "chosen", "permuted", "scaled", "shifted",
                                            "rotated"}
    assert seed["permuted"] == {"chosen": seed["chosen"], "outliers_differ": 0,
                                "removals_agree": 3, "removals": 3}
    assert proc.stdout.splitlines()[1] == (
        f"{workload} seed 0 permuted: chosen {seed['chosen']}, outlier sets differ by 0 rows, "
        "removal orders agree on 3 of 3")


def test_simulation_study_writes_one_row_for_a_tiny_cell(tmp_path):
    # without --mode the study runs the library's default
    for flags, mode in (([], OclustConfig.delta_mode.value), (["--mode", "frozen"], "frozen")):
        out = tmp_path / f"study-{mode}.csv"
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "run_simulation_study.py"), "--models", "I",
             "--n-good", "57", "--n-out", "3", "--seeds", "1", "--threads", "1",
             "--out", str(out), *flags],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        with open(out, newline="", encoding="utf-8") as handle:
            (row,) = csv.DictReader(handle)
        assert (row["model"], row["proportions"], row["mode"], row["seeds_done"],
                row["seeds_failed"]) == ("I", "equal", mode, "1", "0")
