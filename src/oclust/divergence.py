"""Binned Kullback-Leibler divergence of samples against a reference mixture.

The divergence is estimated from relative frequencies: partition the
reference's support into bins, count the samples per bin, and accumulate
``sum_b p_hat_b * log(p_hat_b / q_b)`` where ``q_b`` is the reference mass of
bin b and ``0 * log 0 := 0``.  With equal-probability bins ``q_b`` is exactly
``1/B``, so the estimate reduces to ``log B`` minus the empirical entropy of
the bin counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BinningError
from .subset import ReferenceMixture, reference_mixture_cdf, reference_mixture_ppf


class BinMethod(str, Enum):
    EQUAL_PROBABILITY = "equal-probability"
    EQUAL_WIDTH = "equal-width"


@dataclass(frozen=True)
class BinningScheme:
    """Bin edges (length B + 1, strictly increasing) plus the rule that built them."""

    edges: np.ndarray
    method: BinMethod

    def __post_init__(self):
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=float))
        if self.edges.ndim != 1 or self.edges.shape[0] < 2:
            raise BinningError("need at least two bin edges")
        if not np.all(np.diff(self.edges) > 0):
            raise BinningError("bin edges must be strictly increasing")

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


def build_bins(ref: ReferenceMixture, num_bins: int,
               method: BinMethod = BinMethod.EQUAL_PROBABILITY) -> BinningScheme:
    """Partition the reference support into ``num_bins`` bins.

    Equal-probability bins put reference mass 1/B in every bin (edges are
    reference quantiles); equal-width bins split the support uniformly.
    """
    method = BinMethod(method)
    if num_bins < 2:
        raise BinningError("num_bins must be >= 2")
    lo, hi = ref.support_lo, ref.support_hi
    if method is BinMethod.EQUAL_WIDTH:
        edges = np.linspace(lo, hi, num_bins + 1)
    else:
        edges = np.empty(num_bins + 1)
        edges[0] = lo
        edges[num_bins] = hi
        edges[1:num_bins] = reference_mixture_ppf(np.arange(1, num_bins) / num_bins, ref)
    if not np.all(np.diff(edges) > 0):
        raise BinningError(
            "could not build strictly increasing bin edges; "
            "reduce num_bins or check the reference"
        )
    return BinningScheme(edges=edges, method=method)


def kl_divergence(samples, ref: ReferenceMixture, bins: BinningScheme) -> KlEstimate:
    """Relative-frequency KL divergence of samples against the reference.

    Samples outside the reference support are clamped into the nearest end
    bin and reported via ``clamped_count``.
    """
    values = np.asarray(samples, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("need at least one sample")
    edges = bins.edges
    num_bins = bins.num_bins
    clamped = int((values < edges[0]).sum() + (values > edges[-1]).sum())
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, num_bins - 1)
    counts = np.bincount(idx, minlength=num_bins)
    p_hat = counts / values.size
    if bins.method is BinMethod.EQUAL_PROBABILITY:
        q = np.full(num_bins, 1.0 / num_bins)
    else:
        cdf = np.asarray(reference_mixture_cdf(edges, ref))
        q = np.diff(cdf)
        empty_ref = (q <= 0.0) & (p_hat > 0.0)
        if empty_ref.any():
            b = int(np.flatnonzero(empty_ref)[0])
            raise BinningError(
                f"bin {b} holds samples but zero reference mass; "
                "equal-width bins are incompatible with this reference"
            )
    occupied = p_hat > 0.0
    value = float((p_hat[occupied] * np.log(p_hat[occupied] / q[occupied])).sum())
    return KlEstimate(value=value, clamped_count=clamped)
