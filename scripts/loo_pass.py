#!/usr/bin/env python3
"""Time one exact leave-one-out refit pass: wall time, CPU time and page faults.

Generates a seeded dataset of the three-cluster benchmark family, fits it with
``em_fit`` (untimed; this also loads every library the pass needs) and then
runs ``loo_refit_logliks`` on the fit ``--repeats`` times.  Each call makes
and ends its own thread pool and one workspace per group, as every pass of a
trimming run does.  Each pass prints one JSON line with its wall time, its
CPU time (user + system, all threads of the process) and its minor page
faults, all from ``getrusage`` and ``perf_counter`` around the call, plus a
SHA-256 of the returned values so that two runs can be checked for equal
outputs.

Each line also gives the chunk, the most refits per batch, from the library's
one budget (``gmm._refit_cells`` over n), and the pass plan that ran: per
thread, the calling thread's first, the sizes of its batches
(``gmm._refit_plan``).  To try another budget, edit ``_refit_cells`` in a
scratch copy of the source and run one process per copy.
Like ``perfbench``, the script pins BLAS to one thread before NumPy loads.
Every pass times what each trimming iteration pays, thread start-up included.
The first one or two passes also fault in their workspaces' pages, which the
later passes reuse from the heap.  Run one process per setting to compare
settings.

Example:
    python3 scripts/loo_pass.py --n-good 1995 --n-out 5 --threads 2 --repeats 3
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oclust import FitConfig, SimModelSpec, em_fit, gen_dataset, loo_refit_logliks  # noqa: E402
from oclust.gmm import _refit_cells, _refit_plan  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="I", choices=["I", "II", "III", "IV", "V"])
    parser.add_argument("--n-good", type=int, default=450)
    parser.add_argument("--n-out", type=int, default=50)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--clusters", type=int, default=3)
    parser.add_argument("--data-seed", type=int, default=1000)
    parser.add_argument("--fit-seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=1)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    data = gen_dataset(SimModelSpec(model=args.model, n_good=args.n_good,
                                    n_outliers=args.n_out, p=args.dim,
                                    seed=args.data_seed)).data
    model, _, _ = em_fit(data, args.clusters, FitConfig(seed=args.fit_seed))
    n = data.shape[0]
    batches = [[rows.shape[0] for rows in group]
               for group in _refit_plan(args.clusters, n, args.threads)]
    for repeat in range(args.repeats):
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        values = loo_refit_logliks(data, model, n_threads=args.threads)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        print(json.dumps({
            "repeat": repeat, "n": n, "p": args.dim, "clusters": args.clusters,
            "threads": args.threads, "chunk": _refit_cells(args.clusters, n) // n,
            "batches": batches,
            "wall_s": round(wall, 6),
            "cpu_s": round(after.ru_utime + after.ru_stime
                           - before.ru_utime - before.ru_stime, 6),
            "minflt": after.ru_minflt - before.ru_minflt,
            "sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
