"""Binned Kullback-Leibler divergence of samples against a reference mixture.

The divergence is estimated from relative frequencies: partition the
reference's support into B equal-probability bins, whose inner edges are the
reference's b/B quantiles, count the samples per bin, and accumulate
``sum_b p_hat_b * log(p_hat_b / q_b)`` with ``q_b = 1/B`` and
``0 * log 0 := 0``.  The estimate is therefore ``log B`` minus the empirical
entropy of the bin counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BinningError
from .subset import ReferenceMixture, reference_mixture_ppf


@dataclass(frozen=True)
class BinningScheme:
    """Bin edges (length B + 1, strictly increasing)."""

    edges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=float))
        if self.edges.ndim != 1 or self.edges.shape[0] < 2:
            raise BinningError("need at least two bin edges")
        flat = np.flatnonzero(~(np.diff(self.edges) > 0))
        if flat.size:
            k = int(flat[0])
            raise BinningError(
                f"bin edges must be strictly increasing; with B = {self.num_bins} bins, "
                f"edge {k} is {float(self.edges[k])!r} and edge {k + 1} is "
                f"{float(self.edges[k + 1])!r}"
            )

    @property
    def num_bins(self) -> int:
        return self.edges.shape[0] - 1


@dataclass(frozen=True)
class KlEstimate:
    """A divergence value plus bookkeeping about how it was computed."""

    value: float
    clamped_count: int


def default_num_bins(n: int) -> int:
    """Default bin count for n samples: max(10, ceil(sqrt(n)))."""
    if n < 1:
        raise ValueError("need at least one sample")
    return max(10, math.ceil(math.sqrt(n)))


def build_bins(ref: ReferenceMixture, num_bins: int) -> BinningScheme:
    """Partition the reference support into ``num_bins`` bins of reference
    mass 1/B each: the inner edges are reference quantiles."""
    if num_bins < 2:
        raise BinningError("num_bins must be >= 2")
    edges = np.empty(num_bins + 1)
    edges[0] = ref.support_lo
    edges[num_bins] = ref.support_hi
    edges[1:num_bins] = reference_mixture_ppf(np.arange(1, num_bins) / num_bins, ref)
    return BinningScheme(edges=edges)


def kl_divergence(samples, bins: BinningScheme) -> KlEstimate:
    """Relative-frequency KL divergence of samples against the reference
    whose equal-probability bins are ``bins``.

    Samples outside the reference support are clamped into the nearest end
    bin and reported via ``clamped_count``.  A non-finite sample raises
    ``ValueError``.
    """
    values = np.asarray(samples, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("need at least one sample")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"sample {int(bad[0])} is not finite ({float(values[bad[0]])!r})")
    edges = bins.edges
    num_bins = bins.num_bins
    clamped = int((values < edges[0]).sum() + (values > edges[-1]).sum())
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, num_bins - 1)
    counts = np.bincount(idx, minlength=num_bins)
    p_hat = counts / values.size
    occupied = p_hat > 0.0
    value = float((p_hat[occupied] * np.log(p_hat[occupied] / (1.0 / num_bins))).sum())
    return KlEstimate(value=value, clamped_count=clamped)
