"""The names the benchmark in ``perfbench/`` patches and hooks still exist.

A traced benchmark run wraps the functions listed in ``tracing.PATCH_SITES``
and the speed probe hooks ``trim.<speed.HOOK_SITE>``; a rename under ``src/``
would silently drop their spans or break calibration.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from oclust import MixtureModel, em_refine, trim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("speed")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_patch_sites_resolve_to_callables(bench):
    tracing, _ = bench
    for layer, module, attr in tracing.PATCH_SITES:
        assert callable(getattr(module, attr, None)), f"{layer}.{attr}"


def test_speed_hook_site_exists(bench):
    _, speed = bench
    assert callable(getattr(trim, speed.HOOK_SITE, None))


def test_em_refine_reports_history():
    data = np.random.default_rng(0).standard_normal((40, 2))
    start = MixtureModel(weights=[1.0], means=[[0.0, 0.0]], covariances=[np.eye(2)])
    run = em_refine(data, start)
    assert len(run.history) >= 2
