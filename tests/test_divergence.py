import numpy as np
import pytest
from hypothesis import given, strategies as st

from oclust import (
    BinMethod,
    BinningError,
    BinningScheme,
    beta_mixture_reference,
    build_bins,
    cluster_stats,
    default_num_bins,
    kl_divergence,
    reference_mixture_cdf,
    sample_reference,
)


@pytest.fixture(scope="module")
def reference():
    rng = np.random.default_rng(17)
    data = np.vstack(
        [rng.standard_normal((150, 2)), rng.standard_normal((100, 2)) + 7.0]
    )
    labels = np.repeat([0, 1], [150, 100])
    return beta_mixture_reference(cluster_stats(data, labels, 2))


def test_default_num_bins():
    assert default_num_bins(5) == 10
    assert default_num_bins(100) == 10
    assert default_num_bins(101) == 11
    assert default_num_bins(1000) == 32
    with pytest.raises(ValueError):
        default_num_bins(0)


def test_equal_probability_bins_have_uniform_reference_mass(reference):
    bins = build_bins(reference, 16)
    assert bins.num_bins == 16
    assert bins.edges[0] == reference.support_lo
    assert bins.edges[-1] == reference.support_hi
    cdf = np.asarray(reference_mixture_cdf(bins.edges, reference))
    assert np.allclose(np.diff(cdf), 1.0 / 16.0, atol=1e-9)


def test_equal_width_bins_are_uniformly_spaced(reference):
    bins = build_bins(reference, 12, BinMethod.EQUAL_WIDTH)
    widths = np.diff(bins.edges)
    assert np.allclose(widths, widths[0], atol=1e-9)


def test_bins_reject_bad_requests(reference):
    with pytest.raises(BinningError):
        build_bins(reference, 1)
    with pytest.raises(BinningError):
        BinningScheme(edges=np.array([0.0, 1.0, 1.0]), method=BinMethod.EQUAL_WIDTH)


def test_kl_of_reference_samples_is_small(reference):
    rng = np.random.default_rng(4)
    draws = sample_reference(reference, 4000, rng)
    bins = build_bins(reference, default_num_bins(4000))
    est = kl_divergence(draws, reference, bins)
    assert 0.0 <= est.value < 0.01
    assert est.clamped_count == 0


def test_kl_detects_shifted_samples(reference):
    rng = np.random.default_rng(4)
    good = sample_reference(reference, 2000, rng)
    bins = build_bins(reference, 20)
    shifted = good + 0.5 * (reference.support_hi - reference.support_lo)
    assert kl_divergence(shifted, reference, bins).value > kl_divergence(
        good, reference, bins
    ).value + 0.5


def test_kl_point_mass_equals_log_num_bins(reference):
    # all samples in one equal-probability bin: KL is exactly log(B)
    bins = build_bins(reference, 10)
    mid = 0.5 * (bins.edges[3] + bins.edges[4])
    est = kl_divergence(np.full(57, mid), reference, bins)
    assert est.value == np.log(10.0)


def test_kl_clamps_and_counts_out_of_support(reference):
    bins = build_bins(reference, 10)
    inside = np.linspace(bins.edges[1], bins.edges[-2], 20)
    outside = np.array([reference.support_lo - 5.0, reference.support_hi + 5.0])
    est = kl_divergence(np.concatenate([inside, outside]), reference, bins)
    assert est.clamped_count == 2
    assert np.isfinite(est.value)


@given(seed=st.integers(0, 2_000), num_bins=st.integers(2, 40))
def test_kl_nonnegative_for_arbitrary_samples(reference, seed, num_bins):
    rng = np.random.default_rng(seed)
    bins = build_bins(reference, num_bins)
    lo, hi = reference.support_lo, reference.support_hi
    values = rng.uniform(lo - 1.0, hi + 1.0, size=rng.integers(1, 200))
    est = kl_divergence(values, reference, bins)
    assert est.value >= -1e-12


def test_equal_width_empty_reference_bin_raises(reference):
    # far tail bins of the beta mixture can carry (numerically) zero reference
    # mass; samples there must raise rather than divide by zero
    bins = build_bins(reference, 400, BinMethod.EQUAL_WIDTH)
    cdf = np.asarray(reference_mixture_cdf(bins.edges, reference))
    q = np.diff(cdf)
    empty = np.flatnonzero(q <= 0.0)
    if empty.size == 0:
        pytest.skip("no numerically empty bin for this reference")
    target = int(empty[0])
    sample = np.full(5, 0.5 * (bins.edges[target] + bins.edges[target + 1]))
    with pytest.raises(BinningError):
        kl_divergence(sample, reference, bins)

