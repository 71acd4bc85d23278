#!/usr/bin/env python3
"""Paired benchmark of two checkouts: alternating untraced perfbench runs.

Runs each checkout's own ``perfbench/run.py --trace 0`` as a subprocess, for
the run length ``BENCHMARK.json`` sets, in alternating order (odd pairs parent
first, even pairs change first), one pair per listed seed (list a seed twice
for two pairs).  For every end-to-end metric in ``BENCHMARK.json`` it prints
each side's median and quartiles over invocations, the number of pairs the
change wins (ties count for neither side) and whether the gain rule holds: at
least ten pairs, the change wins at least nine in ten, and the medians differ,
in the change's favour, by more than the parent's quartile spread.  The pairs, each
side's ``env`` line and the summary go to a JSON file laid out for a
``BENCH_<pr>.json`` record.

Example:
    python3 scripts/bench_pairs.py ../parent . --workload trim-frozen-p6 \\
        --seeds 0 1 2 3 4 5 6 7 8 9 --out results/pairs-trim-frozen-p6.json
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, help="JSON file for the pairs and summary")
    return parser.parse_args(argv)


def invoke(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` invocation: its result line and its env line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = next((json.loads(line) for line in reversed(lines) if line.startswith("{")), None)
    if proc.returncode != 0 or result is None:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "env": env,
    }


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    pairs = []
    envs = {}
    for number, seed in enumerate(args.seeds, start=1):
        order = SIDES if number % 2 == 1 else SIDES[::-1]
        pair = {"pair": number, "seed": seed, "first": order[0]}
        for side in order:
            run = invoke(getattr(args, side), args.workload, seed, seconds)
            envs.setdefault(side, run.pop("env"))
            pair[side] = run
        pairs.append(pair)
        print(f"pair {number} seed {seed} ({order[0]} first): " + "  ".join(
            f"{name} {pair['parent']['metrics'][name]:.6g} -> {pair['change']['metrics'][name]:.6g}"
            for name in better), flush=True)

    summary = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        series = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        wins = sum(sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) < 0
                   for p in pairs)
        stats = {side: quartiles(series[side]) for side in SIDES}
        gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
        spread = stats["parent"]["q3"] - stats["parent"]["q1"]
        summary[name] = {
            "better": direction, **stats, "change_wins": wins,
            "median_ratio": (stats["change"]["median"] / stats["parent"]["median"]
                             if stats["parent"]["median"] else math.nan),
            "gain_rule": (len(pairs) >= 10 and wins >= math.ceil(0.9 * len(pairs))
                          and gap > spread),
        }
        print(f"{name}: parent median {stats['parent']['median']:.6g} "
              f"[{stats['parent']['q1']:.6g}, {stats['parent']['q3']:.6g}]  "
              f"change median {stats['change']['median']:.6g} "
              f"[{stats['change']['q1']:.6g}, {stats['change']['q3']:.6g}]  "
              f"change wins {wins}/{len(pairs)}  gain rule "
              f"{'holds' if summary[name]['gain_rule'] else 'does not hold'}")
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    incorrect = {side: sum(not p[side]["correct"] for p in pairs) for side in SIDES}
    print(f"failed runs: parent {failed['parent']}, change {failed['change']}; "
          f"incorrect invocations: parent {incorrect['parent']}, change {incorrect['change']}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload,
            "seeds": args.seeds,
            "command": (f"python3 perfbench/run.py --workload {args.workload} --seed S "
                        f"--seconds {seconds:g} --trace 0"),
            "method": "alternating parent/change invocations (odd pairs parent first); "
                      "each invocation reports the median of its runs; quartiles are "
                      "over invocations",
            "env": envs,
            "pairs": pairs,
            "summary": summary,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
