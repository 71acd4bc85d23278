"""The names the benchmark in ``perfbench/`` patches and hooks still exist,
and its tiny workloads still run and pass their output checks.

A traced benchmark run wraps the functions listed in ``tracing.PATCH_SITES``
and the speed probe hooks ``trim.<speed.HOOK_SITE>``; a rename under ``src/``
would silently drop their spans or break calibration.  The workloads pass
config fields and CLI flags; deleting one that they still use fails here.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import oclust
from oclust import (DeltaMode, FitConfig, MixtureModel, OclustConfig, cli, em_fit, em_refine, gmm,
                    oclust_run, subset, subset_deltas, trim)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield (importlib.import_module("tracing"), importlib.import_module("speed"),
               importlib.import_module("workloads"))
    finally:
        sys.path.remove(str(PERFBENCH))


def test_patch_sites_resolve_to_callables(bench):
    tracing, _, _ = bench
    for layer, module, attr in tracing.PATCH_SITES:
        assert callable(getattr(module, attr, None)), f"{layer}.{attr}"


def test_speed_hook_site_exists(bench):
    _, speed, _ = bench
    assert callable(getattr(trim, speed.HOOK_SITE, None))


def test_refit_passes_go_through_the_traced_name(monkeypatch):
    # the tracer's loo_refit span wraps subset.loo_refit_logliks; if refit
    # deltas stopped looking it up there, subset.loo_refit_s and
    # subset.loo_rows would read 0 without any error
    assert oclust.loo_refit_logliks is gmm.loo_refit_logliks is subset.loo_refit_logliks
    calls, passes = [], subset.loo_refit_logliks

    def counting(data, *args, **kwargs):
        calls.append(len(data))
        return passes(data, *args, **kwargs)

    monkeypatch.setattr(subset, "loo_refit_logliks", counting)
    rng = np.random.default_rng(0)
    data = np.vstack([rng.standard_normal((30, 2)), rng.standard_normal((30, 2)) + 8.0])
    model, labels, loglik = em_fit(data, 2, FitConfig(seed=0))
    subset_deltas(data, model, labels, loglik, mode=DeltaMode.REFIT)
    assert calls == [60]
    result = oclust_run(data, OclustConfig(n_clusters=2, max_outliers=2))
    assert calls == [60, 60, 59, 58] and len(result.trace) == 3


def test_frozen_deltas_go_through_the_traced_name(monkeypatch):
    # the tracer's frozen span wraps subset.frozen_subset_deltas; an inline
    # frozen delta would make subset.frozen_deltas_s read 0 without any error
    assert oclust.frozen_subset_deltas is subset.frozen_subset_deltas
    calls, deltas = [], subset.frozen_subset_deltas

    def counting(data, *args, **kwargs):
        calls.append(len(data))
        return deltas(data, *args, **kwargs)

    monkeypatch.setattr(subset, "frozen_subset_deltas", counting)
    rng = np.random.default_rng(0)
    data = np.vstack([rng.standard_normal((30, 2)), rng.standard_normal((30, 2)) + 8.0])
    model, labels, loglik = em_fit(data, 2, FitConfig(seed=0))
    subset_deltas(data, model, labels, loglik, mode=DeltaMode.FROZEN)
    assert calls == [60]
    result = oclust_run(data, OclustConfig(n_clusters=2, max_outliers=2,
                                           delta_mode=DeltaMode.FROZEN))
    assert calls == [60, 60, 59, 58] and len(result.trace) == 3


def test_em_refine_reports_history():
    data = np.random.default_rng(0).standard_normal((40, 2))
    start = MixtureModel(weights=[1.0], means=[[0.0, 0.0]], covariances=[np.eye(2)])
    run = em_refine(data, start)
    assert len(run.history) >= 2


@pytest.mark.parametrize("name", ["smoke-refit", "smoke-frozen", "smoke-cli"])
def test_smoke_workloads_pass_their_checks(bench, tmp_path, name):
    _, _, workloads = bench
    wl = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(wl, 0, tmp_path)
    if wl.cli:
        outcome = workloads.run_cli(wl, 0, inputs, tmp_path / "out", main=cli.main, timeout=60)
    else:
        outcome = workloads.run_library(wl, 0, inputs, oclust_run)
    assert workloads.check(wl, 0, inputs.data.shape[0], outcome, None) == ""
