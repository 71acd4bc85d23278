"""Speed probe: calibrates timings against a fixed reference kernel.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
over seconds to minutes, which no run length averages out.  The probe runs a
small fixed kernel (EM sweeps on a fixed 2-D sample and a bisection over a
beta-mixture CDF, the same kinds of work the program does) at regular points
during a timed run, so that the kernel sees the same host speed as the run.
A timing is then reported at reference speed:

    calibrated = (measured - time spent in the kernel) * REF_UNIT_S / mean unit time

The kernel does not import ``oclust``, so a change to the program moves the
measured time and not the yardstick.  A run's time in the kernel is taken out
of its measured time before scaling.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.special import betainc

# Seconds one kernel unit takes at reference speed, about the median unit
# time on a 2-vCPU x86-64 host with scipy-openblas 0.3.31 and one BLAS
# thread.  Only ratios between commits matter; the constant keeps calibrated
# figures close to wall seconds on that host.
REF_UNIT_S = 0.025
# Program seconds between two kernel units, about 5 % overhead.
INTERVAL_S = 0.5

_RNG = np.random.default_rng(12345)
_X = np.concatenate([_RNG.normal(c, 1.0, size=(170, 2)) for c in (-4.0, 0.0, 4.0)])
_BETA_A = np.array([1.0, 1.5, 2.5])
_BETA_B = np.array([30.0, 40.0, 60.0])
_BETA_W = np.array([0.3, 0.3, 0.4])


def _em_sweeps(x: np.ndarray, sweeps: int) -> float:
    n, p = x.shape
    g = 3
    means = x[[0, 200, 400]].copy()
    covs = np.stack([np.eye(p)] * g)
    w = np.full(g, 1.0 / g)
    logd = np.empty((n, g))
    for _ in range(sweeps):
        for k in range(g):
            chol = np.linalg.cholesky(covs[k])
            z = np.linalg.solve(chol, (x - means[k]).T)
            logd[:, k] = (math.log(w[k]) - np.log(np.diag(chol)).sum()
                          - 0.5 * np.einsum("ij,ij->j", z, z))
        resp = np.exp(logd - logd.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        nk = resp.sum(axis=0)
        w = nk / n
        means = (resp.T @ x) / nk[:, None]
        for k in range(g):
            d = x - means[k]
            covs[k] = (resp[:, k, None] * d).T @ d / nk[k] + 1e-6 * np.eye(p)
    return float(w.sum())


def _bisections(count: int) -> float:
    out = 0.0
    for i in range(count):
        q = (i % 31 + 1) / 32.0
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if float(_BETA_W @ betainc(_BETA_A, _BETA_B, mid)) < q:
                lo = mid
            else:
                hi = mid
        out += lo
    return out


def unit() -> float:
    """Run one kernel unit; return its wall seconds."""
    t0 = time.perf_counter()
    _em_sweeps(_X, 60)
    _bisections(20)
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs kernel units in proportion to the program time between ``tick`` calls.

    ``tick`` is called at points in the program where nothing else runs (see
    ``hook``); it runs one unit per ``INTERVAL_S`` of program time since the
    last unit.  ``start`` and ``stop`` each run one unit, so every timed run
    has at least two.
    """

    def __init__(self):
        self.wall_s = 0.0   # wall seconds spent in the kernel
        self.cpu_s = 0.0    # process CPU seconds spent in the kernel
        self.units = 0
        self._owed = 0.0
        self._mark = 0.0

    def _run(self, count: int) -> None:
        c0 = time.process_time()
        for _ in range(count):
            self.wall_s += unit()
        self.cpu_s += time.process_time() - c0
        self.units += count

    def start(self) -> None:
        self._run(1)
        self._mark = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        self._owed += now - self._mark
        due = int(self._owed / INTERVAL_S)
        if due:
            self._owed -= due * INTERVAL_S
            self._run(due)
        self._mark = time.perf_counter()

    def stop(self) -> None:
        self._run(1)

    def hook(self, module, name: str):
        """Wrap ``module.name`` so that each call ends with a ``tick``.

        Returns the original, for the caller to put back.
        """
        original = getattr(module, name)

        def ticking(*args, **kwargs):
            out = original(*args, **kwargs)
            self.tick()
            return out

        setattr(module, name, ticking)
        return original

    def report(self) -> dict:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s, "units": self.units}


# The probe ticks after each trimming iteration's divergence, which ``trim``
# binds by from-import and calls once per iteration from the thread that runs
# the loop, when no worker thread is busy.
HOOK_SITE = "kl_divergence"
