"""Per-layer spans recorded from outside the program.

A traced run replaces public functions of the ``oclust`` modules, at the names
their callers look them up under, with wrappers that record one span per call.
Nothing under ``src/`` changes.  Spans are kept in memory and written out once
the run ends; each layer's self time is derived from the span tree.

The patched functions are all called from the thread that runs the trimming
loop (the leave-one-out thread pool runs unpatched internals), so one stack of
open spans per tracer is enough.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from oclust import cli, divergence, gmm, subset, trim

# (layer, module, attribute): the attribute is the name the caller looks up.
#   trim binds em_fit, cluster_stats, subset_deltas, beta_mixture_reference,
#   build_bins and kl_divergence by from-import; em_fit finds em_refine and
#   hard_labels in gmm; subset_deltas finds the delta kernels in subset;
#   build_bins finds the ppf in divergence; the ppf finds the cdf in subset;
#   cli binds oclust_run.
PATCH_SITES = (
    ("trim", cli, "oclust_run"),
    ("gmm", trim, "em_fit"),
    ("gmm", trim, "cluster_stats"),
    ("subset", trim, "subset_deltas"),
    ("subset", trim, "beta_mixture_reference"),
    ("divergence", trim, "build_bins"),
    ("divergence", trim, "kl_divergence"),
    ("gmm", gmm, "em_refine"),
    ("gmm", gmm, "hard_labels"),
    ("subset", subset, "loo_refit_logliks"),
    ("subset", subset, "frozen_subset_deltas"),
    ("divergence", divergence, "reference_mixture_ppf"),
    ("subset", subset, "reference_mixture_cdf"),
)

# Counts read from a call's arguments or result, at the boundary where the
# work happens.
COUNTERS = {
    "trim.oclust_run": lambda args, out: {"iterations": len(out.trace)},
    "gmm.em_refine": lambda args, out: {"em_sweeps": len(out.history) - 1},
    "subset.loo_refit_logliks": lambda args, out: {"loo_rows": len(args[0])},
    "divergence.kl_divergence": lambda args, out: {
        "clamped": out.clamped_count,
        "deltas": len(getattr(args[0], "values", args[0])),
    },
}

# Per-layer metrics and their units, in the order they are printed.
LAYER_METRICS = {
    "gmm.em_fit_s": "s",
    "gmm.em_fit_calls": "count",
    "gmm.em_refine_s": "s",
    "gmm.em_sweeps": "count",
    "gmm.seeding_s": "s",
    "gmm.self_s": "s",
    "subset.loo_refit_s": "s",
    "subset.loo_rows": "count",
    "subset.frozen_deltas_s": "s",
    "subset.reference_s": "s",
    "subset.cdf_calls": "count",
    "subset.self_s": "s",
    "divergence.build_bins_s": "s",
    "divergence.ppf_calls": "count",
    "divergence.cdf_calls_per_edge": "ratio",
    "divergence.kl_s": "s",
    "divergence.clamped_frac": "ratio",
    "divergence.self_s": "s",
    "trim.iterations": "count",
    "trim.self_s": "s",
    "cli.io_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans ``[name, start, end, parent, run_id]`` and counts per run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), 0.0, parent, self.run_id]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                self.counts[self.run_id].update(count(args, out))
            return out

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers at every patch site; restore the originals on exit."""
        saved = []
        try:
            for layer, module, attr in PATCH_SITES:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(f"{layer}.{attr}", original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,run_id,name,parent,start,end\n")
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                handle.write(f"{index},{run_id},{name},{parent},{start!r},{end!r}\n")

    def layer_metrics(self, run_id: int, run_s: float, untraced_run_s: float) -> dict:
        """Per-layer metrics of one traced run, from its spans and counts."""
        total = Counter()
        calls = Counter()
        own = Counter()
        child_time = Counter()
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        for _, (_, start, end, parent, _) in mine:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in mine:
            total[name] += end - start
            calls[name] += 1
            own[name] += (end - start) - child_time[i]
        layer_self = Counter()
        for name, value in own.items():
            layer_self[name.split(".", 1)[0]] += value
        counts = self.counts[run_id]
        ppf_calls = calls["divergence.reference_mixture_ppf"]
        cdf_calls = calls["subset.reference_mixture_cdf"]
        return {
            "gmm.em_fit_s": total["gmm.em_fit"],
            "gmm.em_fit_calls": calls["gmm.em_fit"],
            "gmm.em_refine_s": total["gmm.em_refine"],
            "gmm.em_sweeps": counts["em_sweeps"],
            "gmm.seeding_s": own["gmm.em_fit"],
            "gmm.self_s": layer_self["gmm"],
            "subset.loo_refit_s": total["subset.loo_refit_logliks"],
            "subset.loo_rows": counts["loo_rows"],
            "subset.frozen_deltas_s": total["subset.frozen_subset_deltas"],
            "subset.reference_s": total["subset.beta_mixture_reference"],
            "subset.cdf_calls": cdf_calls,
            "subset.self_s": layer_self["subset"],
            "divergence.build_bins_s": total["divergence.build_bins"],
            "divergence.ppf_calls": ppf_calls,
            "divergence.cdf_calls_per_edge": cdf_calls / ppf_calls if ppf_calls else 0.0,
            "divergence.kl_s": total["divergence.kl_divergence"],
            "divergence.clamped_frac": (
                counts["clamped"] / counts["deltas"] if counts["deltas"] else 0.0
            ),
            "divergence.self_s": layer_self["divergence"],
            "trim.iterations": counts["iterations"],
            "trim.self_s": layer_self["trim"],
            "cli.io_s": layer_self["cli"],
            "trace.run_s": run_s,
            "trace.overhead_s": run_s - untraced_run_s,
        }
