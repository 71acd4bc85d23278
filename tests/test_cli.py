import json
import subprocess
import sys

import numpy as np
import pytest

from oclust.cli import main


def run_cli(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bench.csv"
    code = main(
        ["simulate", "--model", "I", "--n-good", "150", "--n-out", "10",
         "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    return path


def test_simulate_writes_expected_csv(dataset_csv):
    lines = dataset_csv.read_text().splitlines()
    assert lines[0] == "x1,x2,true_label,is_outlier"
    assert len(lines) == 161
    last = lines[-1].split(",")
    assert last[2] == "0" and last[3] == "1"
    manifest = json.loads(
        dataset_csv.with_name(dataset_csv.name + ".manifest.json").read_text()
    )
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3
    assert manifest["config"]["model"] == "I"


def test_simulate_reruns_byte_identical(dataset_csv, tmp_path, capsys):
    other = tmp_path / "again.csv"
    code, _, _ = run_cli(
        ["simulate", "--model", "I", "--n-good", "150", "--n-out", "10",
         "--seed", "3", "--out", str(other)],
        capsys,
    )
    assert code == 0
    assert other.read_bytes() == dataset_csv.read_bytes()


def test_oclust_end_to_end(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(
        ["oclust", str(dataset_csv), "--clusters", "3", "--max-outliers", "15",
         "--seed", "1", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert "outputs in" in out

    trace_lines = (out_dir / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,removed_row,kl,loglik,n_remaining,clamped"
    assert len(trace_lines) == 17  # header + budget + 1 iterations
    first = trace_lines[1].split(",")
    assert first[0] == "0" and first[1] == ""  # nothing removed before iteration 0
    assert int(trace_lines[-1].split(",")[4]) == 160 - 15

    label_lines = (out_dir / "labels.csv").read_text().splitlines()
    assert label_lines[0] == "row,label"
    assert len(label_lines) == 161
    values = {line.split(",")[1] for line in label_lines[1:]}
    assert values <= {"1", "2", "3", "outlier"}

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_points"] == 160
    assert summary["chosen_num_outliers"] == len(summary["outlier_rows"])
    assert 0.0 <= summary["alpha_hat"] <= 15 / 160
    assert len(summary["final_model"]["weights"]) == 3

    # a clear majority of the ten planted outliers (rows 150..159) is flagged;
    # box-sampled outliers can sit just past the acceptance threshold, so
    # perfect recovery is not expected at this sample size
    flagged = {
        int(line.split(",")[0])
        for line in label_lines[1:]
        if line.split(",")[1] == "outlier"
    }
    assert len(flagged & set(range(150, 160))) >= 6

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "oclust"
    assert len(manifest["input_digest"]) == 64  # sha256 hex of the input file


def test_trace_clamped_column_sums_to_run_total(tmp_path, capsys, monkeypatch):
    from oclust import cli

    # on this dataset refit mode clamps a delta at 3 of the 16 iterations
    data = tmp_path / "data.csv"
    assert main(["simulate", "--model", "I", "--n-good", "150", "--n-out", "10",
                 "--seed", "1", "--out", str(data)]) == 0
    results = []
    run = cli.oclust_run

    def recording_run(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "oclust_run", recording_run)
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(
        ["oclust", str(data), "--clusters", "3", "--max-outliers", "15",
         "--seed", "1", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    rows = (out_dir / "trace.csv").read_text().splitlines()[1:]
    column = [int(row.split(",")[5]) for row in rows]
    (result,) = results
    assert sum(column) == sum(record.kl.clamped_count for record in result.trace) == 3


def test_oclust_rerun_is_byte_identical(dataset_csv, tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run_cli(
            ["oclust", str(dataset_csv), "--clusters", "3", "--max-outliers", "8",
             "--seed", "5", "--out", str(d)],
            capsys,
        )
        assert code == 0
    for name in ["trace.csv", "labels.csv", "summary.json"]:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_oclust_frozen_mode_runs(dataset_csv, tmp_path, capsys):
    code, _, _ = run_cli(
        ["oclust", str(dataset_csv), "--clusters", "3", "--max-outliers", "5",
         "--mode", "frozen", "--out", str(tmp_path / "frozen")],
        capsys,
    )
    assert code == 0
    summary = json.loads((tmp_path / "frozen" / "summary.json").read_text())
    assert summary["mode"] == "frozen"


def test_score_command(dataset_csv, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(
        ["oclust", str(dataset_csv), "--clusters", "3", "--max-outliers", "15",
         "--seed", "1", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["score", "--pred", str(out_dir / "labels.csv"), "--truth", str(dataset_csv)],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {
        "misclassification_rate",
        "prop_good_as_outlier",
        "prop_outlier_as_good",
    }
    assert report["misclassification_rate"] <= 0.05


def test_separation_study_small_grid(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code, _, err = run_cli(
        ["separation-study", "--dims", "2", "--grid", "0.0", "--replicates", "2",
         "--seed", "0", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "separation,p,mean_relative_gap,achieved_separation,replicates"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.0
    assert int(fields[1]) == 2
    gap = float(fields[2])
    assert 0.0 < gap < 0.1


def test_clean_gaussian_csv_reports_few_outliers(tmp_path, capsys):
    # null case through the full CLI: clean data should rarely yield more
    # than a handful of "outliers"
    hits = 0
    for i in range(20):
        data = np.random.default_rng(100 + i).standard_normal((100, 2))
        csv_path = tmp_path / f"clean_{i}.csv"
        csv_path.write_text(
            "x1,x2\n"
            + "\n".join(f"{a:.17g},{b:.17g}" for a, b in data)
            + "\n"
        )
        out_dir = tmp_path / f"run_{i}"
        code, _, _ = run_cli(
            ["oclust", str(csv_path), "--clusters", "1", "--max-outliers", "10",
             "--seed", str(i), "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        hits += summary["chosen_num_outliers"] <= 4
    assert hits >= 16


def test_simulate_no_outliers_flag_all_false(tmp_path, capsys):
    path = tmp_path / "pure.csv"
    code, _, _ = run_cli(
        ["simulate", "--model", "I", "--n-good", "30", "--n-out", "0",
         "--out", str(path)],
        capsys,
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 31
    assert all(line.split(",")[3] == "0" for line in lines[1:])


def test_missing_input_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["oclust", str(tmp_path / "nope.csv"), "--clusters", "2",
         "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 2
    assert "error" in err.lower()


def test_malformed_csv_exits_2_and_names_location(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2\n1.0,2.0\n3.0,not-a-number\n")
    code, _, err = run_cli(
        ["oclust", str(bad), "--clusters", "2", "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_csv_cell_exits_2_and_names_location(tmp_path, capsys, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"x1,x2\n1.0,2.0\n3.0,{cell}\n")
    code, _, err = run_cli(
        ["oclust", str(bad), "--clusters", "2", "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 2
    assert f"line 3, column 2 ('x2'): {cell!r} is not a finite number" in err


def test_degenerate_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "flat.csv"
    rows = "\n".join("1.0,1.0" for _ in range(40))
    bad.write_text("x1,x2\n" + rows + "\n")
    code, _, err = run_cli(
        ["oclust", str(bad), "--clusters", "2", "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 3


def test_constant_feature_column_exits_2_and_names_it(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = "\n".join(
        f"{float(x)!r},5.0,{float(y)!r},0" for x, y in rng.standard_normal((60, 2))
    )
    bad = tmp_path / "flat_column.csv"
    bad.write_text("x1,x2,x3,is_outlier\n" + rows + "\n")
    code, _, err = run_cli(
        ["oclust", str(bad), "--clusters", "2", "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 2
    assert "column 2 ('x2') is constant (every value is 5.0)" in err


def test_invalid_mode_rejected(dataset_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["oclust", str(dataset_csv), "--clusters", "3", "--mode", "banana",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "oclust", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "oclust" in proc.stdout
    for sub in ["simulate", "separation-study", "score"]:
        assert sub in proc.stdout


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
