#!/usr/bin/env python3
"""Start-up cost of the command line: fresh interpreters that import ``oclust.cli``.

Runs ``--repeats`` fresh Python processes, one after another, each with the
given checkout's ``src`` first on ``PYTHONPATH`` and BLAS pinned to one
thread (as ``perfbench`` runs it).  Each child times ``import oclust.cli``
with ``perf_counter`` and reports its own peak RSS (``ru_maxrss``) and the
``scipy`` subpackages it ended up loading; the parent times the whole child
process, interpreter start-up included.  The script prints one line per
child, then one JSON line with the series, their medians, the largest child
peak RSS and the subpackages.

Example:
    python3 scripts/startup.py . --repeats 9
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHILD = """\
import json, resource, sys, time
t0 = time.perf_counter()
import oclust.cli
import_s = time.perf_counter() - t0
print(json.dumps({
    "import_s": import_s,
    "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "scipy": sorted({".".join(m.split(".")[:2]) for m in sys.modules
                     if m.startswith("scipy.") and not m.split(".")[1].startswith("_")}),
}))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="checkout whose src/ is imported")
    parser.add_argument("--repeats", type=int, default=7, help="fresh processes to run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.repeats < 1:
        raise SystemExit(f"--repeats must be >= 1, got {args.repeats}")
    src = (args.checkout / "src").resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    runs = []
    for k in range(args.repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                              text=True)
        wall_s = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"child {k} exited {proc.returncode}\n{proc.stderr[-2000:]}")
        run = {"wall_s": wall_s, **json.loads(proc.stdout.splitlines()[-1])}
        runs.append(run)
        print(f"run {k + 1}: process {wall_s:.3f} s, import {run['import_s']:.3f} s, "
              f"max RSS {run['max_rss_mb']:.1f} MB", flush=True)
    print(json.dumps({
        "checkout": str(args.checkout),
        "repeats": args.repeats,
        "wall_s": [r["wall_s"] for r in runs],
        "import_s": [r["import_s"] for r in runs],
        "median_wall_s": statistics.median(r["wall_s"] for r in runs),
        "median_import_s": statistics.median(r["import_s"] for r in runs),
        "max_rss_mb": max(r["max_rss_mb"] for r in runs),
        "scipy_subpackages": runs[-1]["scipy"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
