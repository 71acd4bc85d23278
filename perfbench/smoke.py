"""Smoke test of the benchmark itself; takes a few seconds.

    python3 perfbench/smoke.py

Runs each tiny ``smoke-*`` workload untraced and traced and checks that:

* every metric BENCHMARK.json names is in the result line, with its unit;
* the speed probe ran in every untraced run and gave a positive factor;
* the traced layer self times sum to no more than the traced run time;
* frozen mode does no leave-one-out refit, and refit mode does;
* without the package sources the benchmark exits non-zero with no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELF_TIMES = ("gmm.self_s", "subset.self_s", "divergence.self_s", "trim.self_s", "cli.io_s")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    for workload in ("smoke-refit", "smoke-frozen", "smoke-cli"):
        for trace in (0, 1):
            proc = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                   f"{where}: {result['attempted']} attempted, {result['failed']} failed")
            units = {name: m["unit"] for name, m in metrics.items()}
            expect(units == expected[trace], f"{where}: metrics {units} != {expected[trace]}")
            expect(any(line.startswith("env ") for line in lines), f"{where}: no env line")
            if trace == 0:
                for name in ("run_s", "cpu_s", "setup_s", "failed_frac", "accuracy"):
                    expect(any(line.startswith(f"metric {name} ") for line in lines),
                           f"{where}: no line for {name}")
                speed = [line for line in lines if line.startswith("speed factors=")]
                factors = json.loads(speed[0].split()[1].split("=", 1)[1]) if speed else []
                expect(len(factors) == result["attempted"] and all(f > 0 for f in factors),
                       f"{where}: speed factors {factors} for {result['attempted']} runs")
                continue
            value = {name: m["value"] for name, m in metrics.items()}
            self_sum = sum(value[name] for name in SELF_TIMES)
            expect(0 < self_sum <= value["trace.run_s"],
                   f"{where}: layer self times sum to {self_sum}, traced run_s "
                   f"{value['trace.run_s']}")
            expect(value["trim.iterations"] == 4, f"{where}: {value['trim.iterations']} iterations")
            if workload == "smoke-frozen":
                expect(value["subset.loo_refit_s"] == 0 and value["subset.loo_rows"] == 0,
                       f"{where}: frozen mode refit {value['subset.loo_rows']} rows")
            else:
                expect(value["subset.loo_refit_s"] > 0 and value["subset.loo_rows"] > 0,
                       f"{where}: refit mode timed no leave-one-out refit")
            expect((value["cli.io_s"] > 0) == (workload == "smoke-cli"),
                   f"{where}: cli.io_s = {value['cli.io_s']}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("smoke-refit", 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
