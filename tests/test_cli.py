import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oclust import DeltaMode, FitConfig, OclustConfig, cli, oclust_run
from oclust.cli import _default_threads, _parse_grid, main
from oclust.errors import DegenerateFitError, GenerationStallError, InputFormatError


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
    assert summary["max_outliers"] == 15
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


def test_oclust_outputs_do_not_depend_on_threads(tmp_path, capsys):
    # 312 rows: each leave-one-out pass makes two chunks, which two threads share
    data = tmp_path / "big.csv"
    assert main(["simulate", "--model", "I", "--n-good", "300", "--n-out", "12",
                 "--seed", "4", "--out", str(data)]) == 0
    dirs = {threads: tmp_path / f"threads-{threads}" for threads in ("1", "2")}
    for threads, out_dir in dirs.items():
        code, _, _ = run_cli(
            ["oclust", str(data), "--clusters", "3", "--max-outliers", "3", "--seed", "2",
             "--threads", threads, "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
    for name in ["trace.csv", "labels.csv", "summary.json"]:
        assert (dirs["1"] / name).read_bytes() == (dirs["2"] / name).read_bytes()
    manifests = [json.loads((out_dir / "manifest.json").read_text()) for out_dir in dirs.values()]
    assert [manifest["config"].pop("threads") for manifest in manifests] == [1, 2]
    assert manifests[0] == manifests[1]
    # no --mode: the run records the one default, OclustConfig's
    assert manifests[0]["config"]["mode"] == OclustConfig.delta_mode.value
    assert json.loads((dirs["1"] / "summary.json").read_text())["mode"] == \
        OclustConfig.delta_mode.value


def test_oclust_frozen_mode_runs(dataset_csv, tmp_path, capsys):
    # no --max-outliers: the default budget ceil(0.125 n) is run and recorded
    code, _, _ = run_cli(
        ["oclust", str(dataset_csv), "--clusters", "3",
         "--mode", "frozen", "--out", str(tmp_path / "frozen")],
        capsys,
    )
    assert code == 0
    summary = json.loads((tmp_path / "frozen" / "summary.json").read_text())
    assert summary["mode"] == "frozen"
    assert summary["max_outliers"] == 20  # ceil(0.125 * 160)
    assert len((tmp_path / "frozen" / "trace.csv").read_text().splitlines()) == 22


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


def test_score_names_file_line_after_blank_lines(dataset_csv, tmp_path, capsys):
    pred = tmp_path / "labels.csv"
    pred.write_text("row,label\n0,1\n\n1\n")
    code, _, err = run_cli(["score", "--pred", str(pred), "--truth", str(dataset_csv)], capsys)
    assert code == 2
    assert "line 4 must be 'row,label'" in err


@pytest.mark.parametrize("lines, message", [
    # row 1 flagged correctly, but the lines are out of order
    (["1,outlier", "0,1"], "line 2 is for row '1'; rows must read 0, 1, 2, ... in order, so expected 0"),
    (["0,1", "0,outlier"], "line 3 is for row '0'; rows must read 0, 1, 2, ... in order, so expected 1"),
    (["0,1", "1,outlir"], "line 3 has label 'outlir'; expected a positive cluster number or 'outlier'"),
    (["0,0"], "line 2 has label '0'; expected a positive cluster number or 'outlier'"),
    (["0,-2"], "line 2 has label '-2'; expected a positive cluster number or 'outlier'"),
    (["0,"], "line 2 has label ''; expected a positive cluster number or 'outlier'"),
])
def test_score_rejects_misordered_rows_and_unknown_labels(tmp_path, capsys, lines, message):
    truth = tmp_path / "truth.csv"
    truth.write_text("x1,is_outlier\n0.5,0\n2.5,1\n")
    pred = tmp_path / "labels.csv"
    pred.write_text("row,label\n" + "\n".join(lines) + "\n")
    code, out, err = run_cli(["score", "--pred", str(pred), "--truth", str(truth)], capsys)
    assert code == 2 and out == ""
    assert f"{pred}: {message}" in err
    pred.write_text("row,label\n0,2\n1,outlier\n")
    code, out, _ = run_cli(["score", "--pred", str(pred), "--truth", str(truth)], capsys)
    assert code == 0 and json.loads(out)["misclassification_rate"] == 0.0


@pytest.mark.parametrize("pred_text, truth_text, message", [
    ("index,label\n0,1\n", "x1,is_outlier\n0.5,0\n",
     "{pred}: expected a header starting with 'row'"),
    ("row,label\n0,1\n", "x1,is_outlier\n0.5,0\n2.5,1\n", "{pred} has 1 rows but {truth} has 2"),
    ("row,label\n0,1\n", "x1,x2\n0.5,0\n", "{truth}: missing 'is_outlier' column"),
], ids=["header", "fewer rows", "no is_outlier"])
def test_score_rejects_bad_headers_and_row_counts(tmp_path, capsys, pred_text, truth_text,
                                                  message):
    pred, truth = tmp_path / "labels.csv", tmp_path / "truth.csv"
    pred.write_text(pred_text)
    truth.write_text(truth_text)
    code, out, err = run_cli(["score", "--pred", str(pred), "--truth", str(truth)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message.format(pred=pred, truth=truth)}\n"


@pytest.mark.parametrize("flag", ["2", "0.5", "-1"])
def test_score_refuses_outlier_flags_other_than_0_and_1(tmp_path, capsys, flag):
    pred, truth = tmp_path / "labels.csv", tmp_path / "truth.csv"
    pred.write_text("row,label\n0,1\n1,outlier\n2,outlier\n")
    truth.write_text(f"x1,is_outlier\n0.5,0\n\n2.5,1\n3.5,{flag}\n")
    code, out, err = run_cli(["score", "--pred", str(pred), "--truth", str(truth)], capsys)
    assert code == 2 and out == ""
    assert err == (f"error: {truth}: line 5, column 2 ('is_outlier'): {float(flag)!r} is not an "
                   "outlier flag; expected 0 or 1\n")
    truth.write_text("x1,is_outlier\n0.5,-0\n\n2.5,1.0\n3.5,1\n")
    code, out, _ = run_cli(["score", "--pred", str(pred), "--truth", str(truth)], capsys)
    assert code == 0 and json.loads(out)["misclassification_rate"] == 0.0


_GRID_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-5e-324", "0", "-0.9",
                     "0.9", "1e-12", "", " ", "x", "1e", "--1", "0x10"]),
    st.text(max_size=3),
)


@given(tokens=st.lists(_GRID_TOKENS, min_size=1, max_size=3), sep=st.sampled_from([":", ","]))
@example(tokens=["0", repr(sys.float_info.max), repr(sys.float_info.max / 2 * (1 + 1e-12))],
         sep=":")  # its last target, within 1e-9 steps of stop, overflows
@example(tokens=["1e50", "0", "1e-260"], sep=":")  # (stop - start) / step overflows to -inf
def test_parse_grid_returns_few_finite_floats_or_refuses(tokens, sep):
    try:
        grid = _parse_grid(sep.join(tokens))
    except InputFormatError:
        return
    assert isinstance(grid, list) and len(grid) <= 10_000
    assert all(isinstance(value, float) and math.isfinite(value) for value in grid)


def test_separation_study_rejects_dimension_below_two(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code, _, err = run_cli(
        ["separation-study", "--dims", "2,1", "--grid", "0.0", "--replicates", "1",
         "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "error: dims '2,1': benchmark clusters need dimension >= 2" in err
    assert "warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("dims, problem", [
    ("", "is an empty list"),
    (",", "is an empty list"),
    (" , ,", "is an empty list"),
    ("2,x", "must be a comma list of integers"),
], ids=["", ",", " , ,", "2,x"])
def test_separation_study_rejects_empty_dims(tmp_path, capsys, dims, problem):
    out = tmp_path / "study.csv"
    code, _, err = run_cli(
        ["separation-study", "--dims", dims, "--grid", "0.0", "--replicates", "1",
         "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert f"error: dims {dims!r} {problem}" in err
    assert not out.exists()


@pytest.mark.parametrize("grid, replicates, message", [
    ("", "1", "grid '' holds no values"),
    (",", "1", "grid ',' holds no values"),
    ("1:0:0.5", "1", "grid '1:0:0.5' holds no values"),
    # each cell of these would fail, so the whole study is refused up front
    ("1.5,-2", "1", "grid '1.5,-2': separation target 1.5 lies outside (-1, 1)"),
    ("0.5", "0", "replicates 0: need at least 1"),
    ("0:1", "1", "grid '0:1' must be start:stop:step"),
    ("a:1:0.1", "1", "grid 'a:1:0.1' has non-numeric parts"),
    ("0,x", "1", "grid '0,x' has non-numeric parts"),
    ("0:0.5:0", "1", "grid '0:0.5:0': step must be positive"),
    ("0:inf:0.1", "1", "grid '0:inf:0.1': 'inf' is not a finite number"),
    ("nan:0.5:0.1", "1", "grid 'nan:0.5:0.1': 'nan' is not a finite number"),
    ("0:0.5:inf", "1", "grid '0:0.5:inf': 'inf' is not a finite number"),
    ("0.5,-inf", "1", "grid '0.5,-inf': '-inf' is not a finite number"),
    # the target count is checked before any target is made
    ("-1e308:1e308:1", "1", "grid '-1e308:1e308:1' asks for more than 1e308 targets; "
                            "at most 10000 are allowed"),
    ("-0.9:0.9:1e-12", "1", "grid '-0.9:0.9:1e-12' asks for 1.8e+12 targets; "
                            "at most 10000 are allowed"),
    ("0:1e-3:1e-7", "1", "grid '0:1e-3:1e-7' asks for 10001 targets; at most 10000 are allowed"),
    ("0," * 10_001, "1",
     f"grid {'0,' * 10_001!r} asks for 10001 targets; at most 10000 are allowed"),
], ids=["", ",", "1:0:0.5", "1.5,-2", "replicates 0", "0:1", "a:1:0.1", "0,x", "0:0.5:0",
        "0:inf:0.1", "nan:0.5:0.1", "0:0.5:inf", "0.5,-inf", "-1e308:1e308:1",
        "-0.9:0.9:1e-12", "0:1e-3:1e-7", "10001 commas"])
def test_separation_study_rejects_empty_grid(tmp_path, capsys, grid, replicates, message):
    out = tmp_path / "study.csv"
    code, _, err = run_cli(
        ["separation-study", "--dims", "2", f"--grid={grid}", "--replicates", replicates,
         "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert f"error: {message}" in err
    assert "warning" not in err
    assert not out.exists()


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


def test_separation_study_takes_a_negative_grid_in_either_form(tmp_path, capsys):
    # argparse alone reads "--grid -0.5:-0.4:0.1" as an unknown option
    outputs = []
    for form in (["--grid", "-0.5:-0.4:0.1"], ["--grid=-0.5:-0.4:0.1"]):
        out = tmp_path / f"study-{len(outputs)}.csv"
        code, _, err = run_cli(["separation-study", *form, "--replicates", "1", "--out", str(out)],
                               capsys)
        assert code == 0, err
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    assert [float(line.split(",")[0]) for line in outputs[0].splitlines()[1:]] == [-0.5, -0.4]
    with pytest.raises(SystemExit):
        main(["separation-study", "--help"])
    assert "e.g. -0.9:0.9:0.1" in " ".join(capsys.readouterr().out.split())


def test_separation_study_records_a_failed_cell_and_completes(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code, stdout, err = run_cli(
        ["separation-study", "--dims", "2", "--grid", "0.9999", "--replicates", "1",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "warning: separation 0.9999 at p=2 failed: " in err
    assert "no replicate achieved separation target 0.9999" in err
    assert "finished with 1 failed cells" in err
    assert out.read_text().splitlines()[1:] == ["0.99990000000000001,2,,,0"]
    assert f"wrote separation study to {out}" in stdout


@pytest.mark.parametrize("argv", [
    ["oclust", "{data}", "--clusters", "3", "--out", "{file}"],
    ["simulate", "--model", "I", "--n-good", "30", "--n-out", "0", "--out", "{file}/x.csv"],
    ["separation-study", "--grid", "0.0", "--replicates", "1", "--out", "{file}/s.csv"],
], ids=["oclust", "simulate", "separation-study"])
def test_out_blocked_by_a_file_exits_2_and_names_it(dataset_csv, tmp_path, capsys, argv):
    blocker = tmp_path / "afile"
    blocker.write_text("in the way\n")
    code, out, err = run_cli([arg.format(data=dataset_csv, file=blocker) for arg in argv],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == "in the way\n"


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
    # blank lines are skipped but still counted in the reported line number
    for text, message in [
        ("x1,x2\n1.0,2.0\n3.0,not-a-number\n", "line 3, column 2 ('x2'): cannot parse"),
        ("x1,x2\n1,2\n\n\n3,abc\n", "line 5, column 2 ('x2'): cannot parse 'abc'"),
        ("x1,x2\n1,2\n\n3\n", "line 4 has 1 fields, expected 2"),
        ("", "bad.csv: empty file"),
        ("x1,x2\n\n", "bad.csv: no data rows"),
        ("true_label,is_outlier\n1,0\n", "bad.csv: no feature columns"),
    ]:
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code, _, err = run_cli(
            ["oclust", str(bad), "--clusters", "2", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert message in err


@pytest.mark.parametrize("command", ["oclust", "score --pred", "score --truth"])
def test_non_utf8_input_exits_2_and_names_file_and_line(tmp_path, capsys, command):
    # the line of the first bad byte, counted as the reader counts lines
    # (blank and CRLF lines included)
    truth, pred = tmp_path / "truth.csv", tmp_path / "labels.csv"
    truth.write_text("x1,is_outlier\n0.5,0\n2.5,1\n")
    pred.write_text("row,label\n0,1\n1,outlier\n")
    for raw, line in [(b"x1,x2\n1,2\n\xff,3\n", 3), (b"x1,x2\r\n\r\n1,2\r\n3,4\xc3", 4)]:
        if command == "oclust":
            bad = tmp_path / "bad.csv"
            argv = ["oclust", str(bad), "--clusters", "1", "--out", str(tmp_path / "o")]
        else:
            bad = pred if command == "score --pred" else truth
            argv = ["score", "--pred", str(pred), "--truth", str(truth)]
        bad.write_bytes(raw)
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: line {line} is not UTF-8 text: byte 0x")


def test_byte_order_mark_is_not_part_of_the_first_header_name(dataset_csv, tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    truth = tmp_path / "truth.csv"
    truth.write_bytes(bom + b"is_outlier,x1\n0,1.5\n1,2.5\n")
    pred = tmp_path / "labels.csv"
    pred.write_text("row,label\n0,1\n1,outlier\n")
    code, out, err = run_cli(["score", "--pred", str(pred), "--truth", str(truth)], capsys)
    assert code == 0, err
    assert json.loads(out)["misclassification_rate"] == 0.0
    # a leading true_label column is dropped, as it is from the same file without the mark
    rows = [line.split(",") for line in dataset_csv.read_text().splitlines()]
    text = "".join(",".join([row[2], row[0], row[1], row[3]]) + "\n" for row in rows)
    for name, raw in [("plain", text.encode()), ("bom", bom + text.encode())]:
        (tmp_path / f"{name}.csv").write_bytes(raw)
        code, _, err = run_cli(["oclust", str(tmp_path / f"{name}.csv"), "--clusters", "3",
                                "--max-outliers", "4", "--mode", "frozen",
                                "--out", str(tmp_path / name)], capsys)
        assert code == 0, err
    summary = json.loads((tmp_path / "bom" / "summary.json").read_text())
    assert len(summary["final_model"]["means"][0]) == 2
    for name in ["trace.csv", "labels.csv", "summary.json"]:
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_non_utf8_input_after_a_byte_order_mark_names_line_and_file_offset(tmp_path, capsys):
    # the offset counts the mark's three bytes: \xff is byte 13 of the file
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xef\xbb\xbfx1,x2\n1,2\n\xff,3\n")
    code, out, err = run_cli(["oclust", str(bad), "--clusters", "1", "--out", str(tmp_path / "o")],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: line 3 is not UTF-8 text: byte 0xff at offset 13: ")


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_csv_cell_exits_2_and_names_location(tmp_path, capsys, cell):
    # the first bad cell in file order is named, even when a later one does not parse
    for text, line in [(f"x1,x2\n1.0,2.0\n3.0,{cell}\n", 3), (f"x1,x2\n1,2\n\n3,{cell}\n", 4),
                       (f"x1,x2\n1,{cell}\n2,abc\n", 2)]:
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code, _, err = run_cli(
            ["oclust", str(bad), "--clusters", "2", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert f"line {line}, column 2 ('x2'): {cell!r} is not a finite number" in err


def test_degenerate_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "flat.csv"
    rows = "\n".join("1.0,1.0" for _ in range(40))
    bad.write_text("x1,x2\n" + rows + "\n")
    code, _, err = run_cli(
        ["oclust", str(bad), "--clusters", "2", "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 3
    trace = (tmp_path / "o" / "trace.csv").read_text()
    assert trace == "iteration,removed_row,kl,loglik,n_remaining,clamped\n"
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["aborted"] is True
    assert summary["completed_iterations"] == 0
    assert err == f"error: numerical degeneracy: {summary['error']}\n"


def test_generation_stall_exits_4(tmp_path, capsys, monkeypatch):
    def stall(spec):
        raise GenerationStallError("outlier 0 drew 1000 candidates without one far enough")

    monkeypatch.setattr(cli, "gen_dataset", stall)
    out = tmp_path / "d.csv"
    code, _, err = run_cli(["simulate", "--model", "I", "--n-good", "30", "--n-out", "1",
                            "--out", str(out)], capsys)
    assert code == 4
    assert err == "error: outlier 0 drew 1000 candidates without one far enough\n"
    assert not out.exists()


def test_aborted_run_keeps_completed_iterations(tmp_path, capsys):
    # a 4-point cluster: trimming one of its points leaves 3 = p + 1, too few
    # for the beta reference, so every restart of the second iteration's fit
    # is discarded and the run aborts
    rng = np.random.default_rng(0)
    data = np.vstack([rng.standard_normal((60, 2)), 20.0 + 0.5 * rng.standard_normal((4, 2))])
    path = tmp_path / "tiny_cluster.csv"
    path.write_text("x1,x2\n" + "".join(f"{x!r},{y!r}\n" for x, y in data.tolist()))
    out_dir = tmp_path / "o"
    code, _, err = run_cli(
        ["oclust", str(path), "--clusters", "2", "--max-outliers", "5", "--threads", "1",
         "--out", str(out_dir)],
        capsys,
    )
    assert code == 3
    assert ("trimming aborted after 1 of 6 iterations, in the fit of iteration 1 on 63 rows: "
            "all 3 restarts degenerated; first failure (restart 0): hard cluster 1 "
            "retained 3 points; at least 4 are needed") in err
    trace = (out_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,removed_row,kl,loglik,n_remaining,clamped"
    assert len(trace) == 2
    iteration, removed, kl, loglik, remaining, clamped = trace[1].split(",")
    assert (iteration, removed, remaining) == ("0", "", "64")
    assert np.isfinite(float(kl)) and np.isfinite(float(loglik)) and int(clamped) >= 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary == {
        "aborted": True,
        "completed_iterations": 1,
        "error": err.removeprefix("error: numerical degeneracy: ").rstrip("\n"),
    }
    assert not (out_dir / "labels.csv").exists()


def test_aborted_run_leaves_no_outputs_of_an_earlier_run(dataset_csv, tmp_path, capsys):
    # a good run, then a one-column input that exits 3 at iteration 0 (every
    # restart leaves a hard cluster below 3 points), into the same --out
    out_dir = tmp_path / "o"
    code, _, _ = run_cli(["oclust", str(dataset_csv), "--clusters", "3", "--max-outliers", "4",
                          "--threads", "1", "--out", str(out_dir)], capsys)
    assert code == 0 and (out_dir / "labels.csv").exists()
    rng = np.random.default_rng(0)
    column = np.concatenate([rng.normal(0.0, 1.0, 60), rng.normal(10.0, 1.0, 60), [30.0, -25.0]])
    bad = tmp_path / "one_column.csv"
    bad.write_text("x1\n" + "".join(f"{x!r}\n" for x in column.tolist()))
    code, _, err = run_cli(["oclust", str(bad), "--clusters", "2", "--threads", "1",
                            "--out", str(out_dir)], capsys)
    assert code == 3
    assert "trimming aborted after 0 of 17 iterations" in err
    assert not (out_dir / "labels.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["input"] == str(bad)
    assert manifest["input_digest"] == hashlib.sha256(bad.read_bytes()).hexdigest()
    assert json.loads((out_dir / "summary.json").read_text())["aborted"] is True
    assert (out_dir / "trace.csv").read_text().count("\n") == 1


def test_refused_run_leaves_no_outputs_of_an_earlier_run(tmp_path, capsys):
    # a good run on 63 rows, then a budget that oclust_run refuses, into the
    # same --out: the refused run's manifest must not sit beside the earlier
    # run's trace and summary
    data, out_dir = tmp_path / "d.csv", tmp_path / "o"
    assert main(["simulate", "--model", "I", "--n-good", "60", "--n-out", "3",
                 "--out", str(data)]) == 0
    argv = ["oclust", str(data), "--clusters", "2", "--threads", "1", "--out", str(out_dir)]
    code, _, _ = run_cli(argv + ["--max-outliers", "3"], capsys)
    assert code == 0
    assert {path.name for path in out_dir.iterdir()} == {
        "manifest.json", "trace.csv", "summary.json", "labels.csv"}
    code, _, err = run_cli(argv + ["--max-outliers", "500"], capsys)
    assert code == 2
    assert "max_outliers=500 is outside [1, 54]" in err
    assert [path.name for path in out_dir.iterdir()] == ["manifest.json"]
    assert json.loads((out_dir / "manifest.json").read_text())["config"]["max_outliers"] == 500


def test_too_few_rows_for_any_budget_exit_2_naming_the_minimum(tmp_path, capsys):
    data = tmp_path / "d.csv"
    rows = np.random.default_rng(0).standard_normal((30, 2))
    data.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows.tolist()))
    code, _, err = run_cli(["oclust", str(data), "--clusters", "8", "--threads", "1",
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "n=30 rows are too few for n_clusters=8 at p=2; trimming needs at least 34 rows" in err


@pytest.mark.parametrize("command", [
    ["oclust", "{data}", "--clusters", "3", "--max-outliers", "3"],
    ["simulate", "--model", "I", "--n-good", "60", "--n-out", "3"],
    ["separation-study", "--grid", "0.5", "--replicates", "1"],
])
def test_negative_seed_exits_2_naming_it_and_writes_nothing(dataset_csv, tmp_path, capsys,
                                                           command):
    out = tmp_path / "out"
    argv = [arg.format(data=dataset_csv) for arg in command] + ["--seed", "-3", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --seed: seed must be an integer >= 0, got '-3'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("scale, reason", [(1e160, "too wide"), (1e-160, "too narrow")])
def test_column_of_extreme_scale_exits_2_and_names_it(tmp_path, capsys, scale, reason):
    rng = np.random.default_rng(0)
    data = scale * np.vstack([rng.standard_normal((40, 2)) + centre
                              for centre in ([0.0, 0.0], [6.0, 0.0], [0.0, 6.0])])
    path = tmp_path / "scaled.csv"
    path.write_text("a,b\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning comes before the message
        code, _, err = run_cli(["oclust", str(path), "--clusters", "3", "--max-outliers", "5",
                                "--threads", "1", "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert f"column 1 ('a') is {reason} (range " in err


def test_affinely_dependent_columns_exit_2_and_name_them(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a, c = np.vstack([rng.standard_normal((40, 2)) + centre
                      for centre in ([0.0, 0.0], [6.0, 0.0], [0.0, 6.0])]).T
    b = 2.0 * a + 1e-10 * rng.standard_normal(a.shape)
    path = tmp_path / "dependent.csv"
    rows = np.column_stack([a, b, c]).tolist()
    path.write_text("is_outlier,a,b,c\n" + "".join(f"0,{x!r},{y!r},{z!r}\n" for x, y, z in rows))
    code, _, err = run_cli(["oclust", str(path), "--clusters", "3", "--max-outliers", "5",
                            "--threads", "1", "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "column 2 ('a') and column 3 ('b') are affinely dependent (" in err


@st.composite
def _awkward_inputs(draw):
    """Small data of one awkward family, then scaled and shifted: rounded to
    a grid, with duplicated rows, with a near-collinear extra column, or with
    one very tight cluster."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n, p, n_clusters = draw(st.integers(24, 40)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    labels = rng.integers(0, n_clusters, n)
    data = rng.normal(0.0, 6.0, (n_clusters, p))[labels] + rng.standard_normal((n, p))
    family = draw(st.sampled_from(["grid", "duplicates", "collinear", "tight"]))
    if family == "grid":
        step = draw(st.sampled_from([0.25, 1.0, 2.0, 4.0, 8.0]))
        data = np.round(data / step) * step
    elif family == "duplicates":
        copies = draw(st.integers(2, n // 2))
        data[1:copies] = data[0]
    elif family == "collinear":
        slope, noise = draw(st.floats(-3.0, 3.0)), 10.0 ** draw(st.integers(-12, -2))
        data = np.column_stack([data, slope * data[:, 0] + noise * rng.standard_normal(n)])
    else:
        size, spread = draw(st.integers(p + 2, 10)), 10.0 ** draw(st.integers(-12, -3))
        data[:size] = data[0] + spread * rng.standard_normal((size, p))
    scale = 10.0 ** draw(st.integers(-150, 150))
    offset = draw(st.sampled_from([0.0, -1.0, 1e6, -1e9, 1e12]))
    return data * scale + offset, n_clusters


@given(case=_awkward_inputs(), seed=st.integers(0, 3), mode=st.sampled_from(["refit", "frozen"]))
def test_awkward_inputs_end_in_a_documented_outcome(case, seed, mode):
    # the library returns or raises ValueError or DegenerateFitError, the CLI
    # exits 0, 2 or 3 to match, neither warns, and an exit-3 message names
    # the iteration and the stage that failed
    data, n_clusters = case
    config = OclustConfig(n_clusters=n_clusters, max_outliers=2, fit=FitConfig(seed=seed),
                          delta_mode=DeltaMode(mode), n_threads=1)
    with warnings.catch_warnings(record=True) as caught, tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("always")
        try:
            oclust_run(data, config)
            expected = 0
        except ValueError:
            expected = 2
        except DegenerateFitError:
            expected = 3
        path = Path(tmp) / "data.csv"
        path.write_text(",".join(f"x{j}" for j in range(data.shape[1])) + "\n"
                        + "".join(",".join(repr(float(x)) for x in row) + "\n" for row in data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["oclust", str(path), "--clusters", str(n_clusters), "--max-outliers", "2",
                         "--seed", str(seed), "--mode", mode, "--threads", "1",
                         "--out", str(Path(tmp) / "out")])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == expected, err.getvalue()
    if code == 3:
        assert re.search(r"in the (fit|leave-one-out deltas|reference) of iteration \d+ on \d+ "
                         r"rows: ", err.getvalue()), err.getvalue()


@pytest.mark.parametrize("seed", range(6))
def test_data_rounded_to_a_coarse_grid_complete(tmp_path, capsys, seed):
    # rounded to a grid of step 2, a restart can put 30 rows on 3 collinear
    # grid points; such a fit is singular and is discarded
    rng = np.random.default_rng(0)
    data = 2.0 * np.round(np.vstack([rng.standard_normal((40, 2)) + centre
                                     for centre in ([0.0, 0.0], [8.0, 0.0], [0.0, 8.0])]) / 2.0)
    path = tmp_path / "grid.csv"
    path.write_text("a,b\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in data))
    out_dir = tmp_path / "o"
    code, _, err = run_cli(["oclust", str(path), "--clusters", "3", "--max-outliers", "5",
                            "--threads", "1", "--seed", str(seed), "--out", str(out_dir)], capsys)
    assert code == 0, err
    assert json.loads((out_dir / "summary.json").read_text())["chosen_num_outliers"] == 0


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_nonpositive_threads_exit_2(dataset_csv, tmp_path, capsys, threads):
    out_dir = tmp_path / "o"
    code, _, err = run_cli(
        ["oclust", str(dataset_csv), "--clusters", "3", "--max-outliers", "3",
         "--threads", threads, "--out", str(out_dir)],
        capsys,
    )
    assert code == 2
    assert f"n_threads must be >= 1, got {threads}" in err
    assert not out_dir.exists()


def test_default_threads_fall_back_to_the_cpu_count(monkeypatch):
    assert _default_threads(3) == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # a platform without it
    assert _default_threads(None) == (os.cpu_count() or 1)


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


def test_import_loads_neither_scipy_stats_nor_linalg():
    # importing scipy.stats more than doubles the start-up time of the CLI
    code = (
        "import sys, oclust, oclust.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'linalg'])))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
