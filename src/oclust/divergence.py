"""Binned Kullback-Leibler divergence of samples against a reference mixture.

The divergence is estimated from relative frequencies: partition the
reference's support into B equal-probability bins, count the samples per bin,
and accumulate ``sum_b p_hat_b * log(p_hat_b / q_b)`` with ``q_b = 1/B`` and
``0 * log 0 := 0``.  The estimate is therefore ``log B`` minus the empirical
entropy of the bin counts.

Bins come from the reference CDF F (the probability integral transform): a
sample y goes in bin min(floor(B F(y)), B - 1), so binning takes one CDF pass
over the samples and no quantile search.  The bins' edges, the support ends
and the reference's b/B quantiles in between, are bisected only when
``BinningScheme.edges`` is read; they are the slow oracle the CDF bins are
tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BinningError
from .subset import ReferenceMixture, reference_mixture_cdf, reference_mixture_ppf


@dataclass(frozen=True)
class BinningScheme:
    """``num_bins`` (B >= 2) bins of reference mass 1/B each."""

    reference: ReferenceMixture
    num_bins: int

    def __post_init__(self):
        if self.num_bins < 2:
            raise BinningError("num_bins must be >= 2")

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """Bin edges (length B + 1, strictly increasing, read-only), bisected on
        first read: the support ends and the reference's b/B quantiles."""
        ref, num_bins = self.reference, self.num_bins
        edges = np.empty(num_bins + 1)
        edges[0] = ref.support_lo
        edges[num_bins] = ref.support_hi
        edges[1:num_bins] = reference_mixture_ppf(np.arange(1, num_bins) / num_bins, ref)
        flat = np.flatnonzero(~(np.diff(edges) > 0))
        if flat.size:
            k = int(flat[0])
            raise BinningError(
                f"bin edges must be strictly increasing; with B = {num_bins} bins, "
                f"edge {k} is {float(edges[k])!r} and edge {k + 1} is {float(edges[k + 1])!r}"
            )
        edges.flags.writeable = False
        return edges


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
    mass 1/B each.  Nothing is bisected here; see ``BinningScheme.edges``."""
    return BinningScheme(reference=ref, num_bins=num_bins)


def _bin_index(values: np.ndarray, bins: BinningScheme) -> np.ndarray:
    """Bin of each value, min(floor(B F(y)), B - 1) with F the reference CDF;
    a value below the support goes in bin 0, one above it in bin B - 1."""
    num_bins = bins.num_bins
    scaled = num_bins * reference_mixture_cdf(values, bins.reference)
    return np.minimum(scaled.astype(np.intp), num_bins - 1)


def kl_divergence(samples, bins: BinningScheme) -> KlEstimate:
    """Relative-frequency KL divergence of samples against the reference
    whose equal-probability bins are ``bins``, binned by the reference CDF.

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
    ref, num_bins = bins.reference, bins.num_bins
    clamped = int((values < ref.support_lo).sum() + (values > ref.support_hi).sum())
    counts = np.bincount(_bin_index(values, bins), minlength=num_bins)
    p_hat = counts / values.size
    occupied = p_hat > 0.0
    value = float((p_hat[occupied] * np.log(p_hat[occupied] / (1.0 / num_bins))).sum())
    return KlEstimate(value=value, clamped_count=clamped)
