import numpy as np
import pytest
from hypothesis import given, strategies as st

from oclust import (
    BinningError,
    ReferenceMixture,
    beta_mixture_reference,
    build_bins,
    cluster_stats,
    default_num_bins,
    kl_divergence,
    reference_mixture_cdf,
    sample_reference,
)
from oclust import divergence


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


def test_bins_reject_bad_requests(reference):
    with pytest.raises(BinningError, match="^num_bins must be >= 2$"):
        build_bins(reference, 1)
    # a support 1e-8 wide at 1e6 is narrower than the bisection tolerance
    # (1e-13 relative), so two inner edges coincide: the CDF still bins, and
    # the edges fail when they are read
    narrow = ReferenceMixture(shift=[1e6], scale=[1e8], alpha=[1.0], beta=[1.0], weight=[1.0])
    bins = build_bins(narrow, 4)
    est = kl_divergence(1e6 + np.array([0.1, 0.4, 0.6, 0.9]) * 1e-8, bins)
    assert est.value == 0.0 and est.clamped_count == 0
    with pytest.raises(BinningError, match=r"^bin edges must be strictly increasing; with B = 4 "
                                           r"bins, edge 1 is 1000000\.0000000026 and edge 2 is "
                                           r"1000000\.0000000026$"):
        bins.edges


def test_binning_reads_no_quantile_until_the_edges_are_read(reference, monkeypatch):
    calls = []
    ppf = divergence.reference_mixture_ppf

    def counting(*args):
        calls.append(args)
        return ppf(*args)

    monkeypatch.setattr(divergence, "reference_mixture_ppf", counting)
    bins = build_bins(reference, 16)
    kl_divergence(sample_reference(reference, 500, np.random.default_rng(1)), bins)
    assert calls == []
    edges = bins.edges
    assert len(calls) == 1 and bins.edges is edges and not edges.flags.writeable


def test_kl_of_reference_samples_is_small(reference):
    rng = np.random.default_rng(4)
    draws = sample_reference(reference, 4000, rng)
    bins = build_bins(reference, default_num_bins(4000))
    est = kl_divergence(draws, bins)
    assert 0.0 <= est.value < 0.01
    assert est.clamped_count == 0


def test_kl_detects_shifted_samples(reference):
    rng = np.random.default_rng(4)
    good = sample_reference(reference, 2000, rng)
    bins = build_bins(reference, 20)
    shifted = good + 0.5 * (reference.support_hi - reference.support_lo)
    assert kl_divergence(shifted, bins).value > kl_divergence(good, bins).value + 0.5


def test_kl_point_mass_equals_log_num_bins(reference):
    # all samples in one equal-probability bin: KL is exactly log(B)
    bins = build_bins(reference, 10)
    mid = 0.5 * (bins.edges[3] + bins.edges[4])
    est = kl_divergence(np.full(57, mid), bins)
    assert est.value == np.log(10.0)


def test_kl_clamps_and_counts_out_of_support(reference):
    bins = build_bins(reference, 10)
    inside = np.linspace(bins.edges[1], bins.edges[-2], 20)
    outside = np.array([reference.support_lo - 5.0, reference.support_hi + 5.0])
    est = kl_divergence(np.concatenate([inside, outside]), bins)
    assert est.clamped_count == 2
    assert np.isfinite(est.value)


@given(seed=st.integers(0, 2_000), num_bins=st.integers(2, 40))
def test_kl_nonnegative_for_arbitrary_samples(reference, seed, num_bins):
    rng = np.random.default_rng(seed)
    bins = build_bins(reference, num_bins)
    lo, hi = reference.support_lo, reference.support_hi
    values = rng.uniform(lo - 1.0, hi + 1.0, size=rng.integers(1, 200))
    est = kl_divergence(values, bins)
    assert est.value >= -1e-12


def test_kl_rejects_non_finite_samples(reference):
    bins = build_bins(reference, 10)
    x = 0.5 * (bins.edges[3] + bins.edges[4])
    with pytest.raises(ValueError, match="sample 0 is not finite"):
        kl_divergence([np.nan] * 5 + [x] * 5, bins)
    with pytest.raises(ValueError, match="sample 2 is not finite"):
        kl_divergence([x, x, -np.inf, np.nan], bins)


@given(seed=st.integers(0, 2_000), num_bins=st.integers(2, 200))
def test_kl_matches_reference_mass_oracle(reference, seed, num_bins):
    # slow path: bin masses q_b from reference CDF differences at the edges,
    # samples binned by np.histogram after clamping into the support
    rng = np.random.default_rng(seed)
    bins = build_bins(reference, num_bins)
    lo, hi = reference.support_lo, reference.support_hi
    values = np.concatenate([
        sample_reference(reference, int(rng.integers(0, 300)), rng),
        rng.uniform(lo - 1.0, hi + 1.0, size=rng.integers(1, 50)),
    ])
    q = np.diff(np.asarray(reference_mixture_cdf(bins.edges, reference)))
    p_hat = np.histogram(np.clip(values, lo, hi), bins=bins.edges)[0] / values.size
    occupied = p_hat > 0.0
    expected = float((p_hat[occupied] * np.log(p_hat[occupied] / q[occupied])).sum())
    est = kl_divergence(values, bins)
    assert est.value == pytest.approx(expected, rel=0.0, abs=1e-10)
    assert est.clamped_count == int(((values < lo) | (values > hi)).sum())
