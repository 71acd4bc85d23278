import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from oclust import (
    BetaComponent,
    DegenerateFitError,
    ReferenceMixture,
    SimModelSpec,
    DeltaMode,
    DowndateVariant,
    FitConfig,
    beta_component_density,
    InsufficientPointsError,
    MixtureModel,
    approx_log_likelihood,
    beta_mixture_reference,
    build_bins,
    cluster_stats,
    delta_formula,
    downdate_stats,
    em_fit,
    em_refine,
    frozen_subset_deltas,
    gamma_reference,
    gen_dataset,
    gamma_reference_density,
    loo_refit_logliks,
    mahalanobis_sq,
    mixture_log_likelihood,
    reference_mixture_cdf,
    reference_mixture_density,
    reference_mixture_ppf,
    sample_reference,
    subset_deltas,
    subset_loglik_set,
)
from oclust import gmm


# ---------------------------------------------------------------------------
# independent EM oracle (plain scipy/numpy; shares no code with the library)
# ---------------------------------------------------------------------------


def oracle_loo_loglik(data, model, excluded, rel_tol, max_iter):
    """Leave-one-out warm-started EM, written from scratch for cross-checking."""
    subset = np.delete(np.asarray(data, float), excluded, axis=0)
    weights = np.asarray(model.weights, float).copy()
    means = np.asarray(model.means, float).copy()
    covs = np.asarray(model.covariances, float).copy()
    n_comp = weights.size

    def e_step(w, m, c):
        log_dens = np.column_stack(
            [np.log(w[g]) + multivariate_normal(mean=m[g], cov=c[g]).logpdf(subset)
             for g in range(n_comp)]
        )
        row_ll = logsumexp(log_dens, axis=1)
        return float(row_ll.sum()), np.exp(log_dens - row_ll[:, None])

    ll_prev, resp = e_step(weights, means, covs)
    ll = ll_prev
    for _ in range(max_iter):
        nk = resp.sum(axis=0)
        weights = nk / nk.sum()
        means = (resp.T @ subset) / nk[:, None]
        covs = np.stack(
            [((subset - means[g]).T * resp[:, g]) @ (subset - means[g]) / nk[g]
             for g in range(n_comp)]
        )
        covs = 0.5 * (covs + covs.transpose(0, 2, 1))
        ll, resp = e_step(weights, means, covs)
        if abs(ll - ll_prev) < rel_tol * max(1.0, abs(ll), abs(ll_prev)):
            break
        ll_prev = ll
    return ll


@pytest.fixture(scope="module")
def fitted_blobs():
    rng = np.random.default_rng(21)
    data = np.vstack(
        [
            rng.standard_normal((30, 2)) + [0.0, 0.0],
            rng.standard_normal((30, 2)) @ np.array([[1.5, 0.3], [0.3, 0.8]]) + [8.0, 1.0],
        ]
    )
    model, labels, loglik = em_fit(data, 2, FitConfig(seed=5))
    return data, model, labels, loglik


def test_refit_subset_logliks_match_independent_oracle(fitted_blobs):
    data, model, _, _ = fitted_blobs
    ours = loo_refit_logliks(data, model, rel_tol=1e-10, max_iter=200)
    expected = np.array(
        [oracle_loo_loglik(data, model, j, rel_tol=1e-10, max_iter=200)
         for j in range(data.shape[0])]
    )
    assert np.max(np.abs(ours - expected)) < 1e-6


def test_refit_subset_logliks_match_serial_library_refits(fitted_blobs):
    data, model, _, _ = fitted_blobs
    ours = loo_refit_logliks(data, model, rel_tol=1e-8, max_iter=100)
    for j in [0, 17, 59]:
        run = em_refine(np.delete(data, j, axis=0), model, rel_tol=1e-8, max_iter=100)
        assert ours[j] == pytest.approx(run.loglik, abs=1e-10)


def test_refit_logliks_invariant_to_chunking_and_threads(fitted_blobs):
    data, model, _, _ = fitted_blobs
    base = loo_refit_logliks(data, model, chunk_size=7)
    assert np.array_equal(base, loo_refit_logliks(data, model, chunk_size=60))
    assert np.array_equal(base, loo_refit_logliks(data, model, chunk_size=13, n_threads=4))


@pytest.fixture(scope="module")
def fitted_blobs_300():
    rng = np.random.default_rng(34)
    data = np.vstack(
        [rng.standard_normal((100, 2)) * scale + center
         for scale, center in [(1.0, [0.0, 0.0]), (0.7, [7.0, 1.0]), (1.3, [2.0, 8.0])]]
        + [rng.uniform(-8.0, 15.0, (12, 2))]
    )
    model, _, _ = em_fit(data, 3, FitConfig(seed=2))
    return data, model


def test_refit_logliks_invariant_to_uneven_chunks_at_larger_n(fitted_blobs_300):
    data, model = fitted_blobs_300
    n = data.shape[0]
    base = loo_refit_logliks(data, model)
    for chunk_size in [7, 64, n - 1]:
        got = loo_refit_logliks(data, model, chunk_size=chunk_size, n_threads=2)
        assert np.array_equal(base, got), chunk_size


def test_refit_logliks_pinned_on_acceptance_scenario():
    # model I, 450 + 50 points, data seed 1000, fit seed 0: the values are
    # rounding-exact (recorded with OpenBLAS 0.3.31 on x86-64), so this fails
    # if anything in the shared EM loop changes a refit's arithmetic
    data = gen_dataset(SimModelSpec(model="I", n_good=450, n_outliers=50, p=2, seed=1000)).data
    model, _, _ = em_fit(data, 3, FitConfig(seed=0))
    values = loo_refit_logliks(data, model)
    assert hashlib.sha256(values.tobytes()).hexdigest() == (
        "5ef49af8d40c7f274e5cb2803137f2138dff905e9c01324388b4060dbc97cb68"
    )


def test_refit_logliks_invariant_to_translation(fitted_blobs_300):
    data, model = fitted_blobs_300
    offset = 1e7
    moved = MixtureModel(
        weights=model.weights, means=model.means + offset, covariances=model.covariances
    )
    base = loo_refit_logliks(data, model) - mixture_log_likelihood(data, model)
    far = loo_refit_logliks(data + offset, moved) - mixture_log_likelihood(data + offset, moved)
    assert np.argmax(far) == np.argmax(base)
    assert np.max(np.abs(far - base)) < 1e-6


@given(
    seed=st.integers(0, 10_000),
    n_comp=st.integers(1, 3),
    p=st.integers(1, 3),
    per_cluster=st.integers(8, 16),
)
@settings(max_examples=15)
def test_refit_logliks_match_explicit_deletion_refits(seed, n_comp, p, per_cluster):
    rng = np.random.default_rng(seed)
    data = np.vstack(
        [rng.standard_normal((per_cluster, p)) * rng.uniform(0.5, 2.0) + 9.0 * g
         for g in range(n_comp)]
    )
    model, labels, _ = em_fit(data, n_comp, FitConfig(seed=seed))
    # a fit with a component on a handful of points is degenerate: its refits
    # chase likelihood spikes and depend on rounding, so no oracle applies
    assume(np.array_equal(np.bincount(labels, minlength=n_comp), [per_cluster] * n_comp))
    ours = loo_refit_logliks(data, model, rel_tol=1e-12, max_iter=500)
    for j in range(data.shape[0]):
        run = em_refine(np.delete(data, j, axis=0), model, rel_tol=1e-12, max_iter=500)
        assert abs(ours[j] - run.loglik) <= 1e-9 * max(1.0, abs(run.loglik)), j


@given(
    seed=st.integers(0, 10_000),
    n_comp=st.integers(1, 3),
    p=st.integers(1, 3),
    per_cluster=st.integers(8, 16),
)
@settings(max_examples=15)
def test_refit_logliks_match_independent_oracle_property(seed, n_comp, p, per_cluster):
    # em_refine shares the refit's EM loop, so this checks against scipy instead
    rng = np.random.default_rng(seed)
    data = np.vstack(
        [rng.standard_normal((per_cluster, p)) * rng.uniform(0.5, 2.0) + 9.0 * g
         for g in range(n_comp)]
    )
    model, labels, _ = em_fit(data, n_comp, FitConfig(seed=seed))
    assume(np.array_equal(np.bincount(labels, minlength=n_comp), [per_cluster] * n_comp))
    ours = loo_refit_logliks(data, model, rel_tol=1e-12, max_iter=500)
    expected = np.array(
        [oracle_loo_loglik(data, model, j, rel_tol=1e-12, max_iter=500)
         for j in range(data.shape[0])]
    )
    assert np.max(np.abs(ours - expected)) < 1e-6


def test_degenerate_refit_raises_on_a_decrease():
    # one component sits on 3 points with a near-singular covariance; the
    # refits chase likelihood spikes, and a sweep that lowers the
    # log-likelihood must be reported whatever the chunking
    rng = np.random.default_rng(2)
    data = np.vstack(
        [rng.standard_normal((8, 3)) * rng.uniform(0.5, 2.0) + 9.0 * g for g in range(3)]
    )
    model, _, _ = em_fit(data, 3, FitConfig(seed=2))
    for kwargs in [{}, dict(chunk_size=7, n_threads=2)]:
        with pytest.raises(DegenerateFitError, match="leave-one-out refit for row") as info:
            loo_refit_logliks(data, model, rel_tol=1e-12, max_iter=500, **kwargs)
        assert info.value.subset_index is not None


def test_refit_decrease_is_checked_per_problem(fitted_blobs, monkeypatch):
    # in the same sweep, problem 17's mean is moved off the EM update and
    # problem 3's covariances come back ridged: only problem 3 is exempt from
    # the decrease rule, whatever the chunking
    data, model, _, _ = fitted_blobs
    update, factor = gmm._params_from_moments, gmm._factor_covariances

    def misplaced_mean(moments, p, row_ids=None):
        weights, shifts, covs = update(moments, p, row_ids)
        shifts = shifts.copy()
        shifts[row_ids == 17, 0] += 3.0
        return weights, shifts, covs

    def ridged_row_3(covs, reg_eps=0.0, row_ids=None):
        if row_ids is not None:
            covs = covs + 1e-12 * (row_ids == 3)[:, None, None, None] * np.eye(covs.shape[-1])
        return factor(covs, reg_eps, row_ids)

    monkeypatch.setattr(gmm, "_params_from_moments", misplaced_mean)
    monkeypatch.setattr(gmm, "_factor_covariances", ridged_row_3)
    for kwargs in [{}, dict(chunk_size=7, n_threads=2)]:
        with pytest.raises(DegenerateFitError, match="row 17: log-likelihood decreased") as info:
            loo_refit_logliks(data, model, max_iter=1, **kwargs)
        assert info.value.subset_index == 17


def test_refit_deltas_are_subset_minus_full(fitted_blobs):
    data, model, labels, loglik = fitted_blobs
    deltas = subset_deltas(data, model, labels, loglik, mode=DeltaMode.REFIT)
    lls = loo_refit_logliks(data, model)
    assert np.array_equal(deltas.values, lls - loglik)
    assert deltas.mode is DeltaMode.REFIT
    # removing a point can only help the remaining fit
    assert deltas.values.min() > 0.0


# ---------------------------------------------------------------------------
# frozen (closed-form) deltas
# ---------------------------------------------------------------------------


def test_frozen_deltas_match_two_evaluation_oracle(fitted_blobs):
    data, _, labels, _ = fitted_blobs
    stats = cluster_stats(data, labels, 2)
    values = frozen_subset_deltas(data, labels, stats)
    frozen_model = MixtureModel(
        weights=stats.weights, means=stats.means, covariances=stats.covariances
    )
    q_full = approx_log_likelihood(data, frozen_model, labels)
    for j in range(data.shape[0]):
        q_minus = approx_log_likelihood(
            np.delete(data, j, axis=0), frozen_model, np.delete(labels, j)
        )
        assert values[j] == pytest.approx(q_minus - q_full, abs=1e-9)


def test_delta_formula_pieces():
    mean = np.array([1.0, -1.0])
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    x = np.array([2.0, 0.0])
    t = float((x - mean) @ np.linalg.solve(cov, x - mean))
    assert mahalanobis_sq(x, mean, cov) == pytest.approx(t, abs=1e-12)
    expected = (
        -np.log(0.4)
        + np.log(2 * np.pi)
        + 0.5 * np.log(np.linalg.det(cov))
        + 0.5 * t
    )
    assert delta_formula(x, mean, cov, 0.4) == pytest.approx(expected, abs=1e-12)


def test_subset_loglik_set_end_to_end(three_blob_data):
    data, _ = three_blob_data
    frozen = subset_loglik_set(data, 3, FitConfig(seed=1), mode="frozen")
    refit = subset_loglik_set(data, 3, FitConfig(seed=1), mode="refit")
    assert frozen.values.shape == (data.shape[0],)
    assert np.array_equal(frozen.source_labels, refit.source_labels)
    # the two routes agree closely for well-separated clusters
    assert np.corrcoef(frozen.values, refit.values)[0, 1] > 0.99


# ---------------------------------------------------------------------------
# statistic downdates
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 5_000), n=st.integers(4, 40), p=st.integers(1, 4))
def test_exact_downdate_matches_recomputation(seed, n, p):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((n, p))
    mean = block.mean(axis=0)
    cov = np.cov(block, rowvar=False, ddof=1).reshape(p, p)
    new_mean, new_cov = downdate_stats(n, mean, cov, block[0], DowndateVariant.EXACT)
    rest = block[1:]
    assert np.allclose(new_mean, rest.mean(axis=0), atol=1e-10)
    assert np.allclose(new_cov, np.cov(rest, rowvar=False, ddof=1).reshape(p, p), atol=1e-10)


def test_asymptotic_downdate_error_vanishes_with_cluster_size():
    rng = np.random.default_rng(3)
    gaps = []
    for n in [10, 100, 1000]:
        block = rng.standard_normal((n, 3))
        mean = block.mean(axis=0)
        cov = np.cov(block, rowvar=False, ddof=1)
        _, exact = downdate_stats(n, mean, cov, block[0], DowndateVariant.EXACT)
        _, approx = downdate_stats(n, mean, cov, block[0], DowndateVariant.ASYMPTOTIC)
        gaps.append(np.abs(exact - approx).max())
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_downdate_needs_three_points():
    with pytest.raises(InsufficientPointsError):
        downdate_stats(2, [0.0], [[1.0]], [0.5])


# ---------------------------------------------------------------------------
# beta / gamma reference distributions
# ---------------------------------------------------------------------------


def reference_stats(n_per=(120, 80), seed=9):
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for g, n_g in enumerate(n_per):
        blocks.append(rng.standard_normal((n_g, 2)) + 6.0 * g)
        labels.extend([g] * n_g)
    data = np.vstack(blocks)
    labels = np.array(labels)
    return data, labels, cluster_stats(data, labels, len(n_per))


def test_beta_reference_component_parameters():
    data, labels, stats = reference_stats()
    ref = beta_mixture_reference(stats)
    assert len(ref.components) == 2
    for g, comp in enumerate(ref.components):
        n_g = stats.counts[g]
        p = data.shape[1]
        sign, logdet = np.linalg.slogdet(stats.covariances[g])
        assert sign > 0
        assert comp.alpha == pytest.approx(p / 2.0)
        assert comp.beta == pytest.approx((n_g - p - 1) / 2.0)
        assert comp.scale == pytest.approx(2.0 * n_g / (n_g - 1.0) ** 2)
        assert comp.shift == pytest.approx(
            -np.log(stats.weights[g]) + (p / 2.0) * np.log(2 * np.pi) + 0.5 * logdet
        )
        assert comp.weight == pytest.approx(stats.weights[g])


def test_beta_reference_needs_enough_points_per_cluster():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((7, 4))
    labels = np.array([0, 0, 0, 0, 0, 1, 1])
    with pytest.raises(InsufficientPointsError):
        # cluster 1 has n_g = 2 <= p + 1 = 5
        beta_mixture_reference(cluster_stats(data, labels, 2))


def test_reference_density_integrates_to_one():
    _, _, stats = reference_stats()
    ref = beta_mixture_reference(stats)
    total, err = quad(
        lambda y: reference_mixture_density(y, ref),
        ref.support_lo,
        ref.support_hi,
        limit=200,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_reference_cdf_ppf_roundtrip():
    _, _, stats = reference_stats()
    ref = beta_mixture_reference(stats)
    for q in [0.01, 0.1, 0.5, 0.9, 0.99]:
        y = reference_mixture_ppf(q, ref)
        assert reference_mixture_cdf(y, ref) == pytest.approx(q, abs=1e-9)
    assert reference_mixture_cdf(ref.support_lo - 1.0, ref) == 0.0
    assert reference_mixture_cdf(ref.support_hi + 1.0, ref) == 1.0


def scalar_bisection_ppf(q, ref):
    """One-level quantile by bisection of the CDF: the reference for the array form."""
    lo, hi = ref.support_lo, ref.support_hi
    if q <= 0.0:
        return lo
    if q >= 1.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if reference_mixture_cdf(mid, ref) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


@given(
    seed=st.integers(0, 10_000),
    n_comp=st.integers(1, 3),
    p=st.integers(1, 6),
    num_bins=st.integers(2, 40),
)
def test_array_ppf_equals_scalar_bisection(seed, n_comp, p, num_bins):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_comp))
    weights[-1] = 1.0 - weights[:-1].sum()
    ref = ReferenceMixture(components=tuple(
        BetaComponent(
            shift=float(rng.uniform(-5.0, 5.0)),
            scale=float(rng.uniform(0.01, 2.0)),
            alpha=0.5 * p,
            beta=0.5 * int(rng.integers(2, 400)),
            weight=float(w),
        )
        for w in weights
    ))
    levels = np.concatenate([[0.0], np.arange(1, num_bins) / num_bins, [1.0]])
    expected = np.array([scalar_bisection_ppf(q, ref) for q in levels])
    assert np.array_equal(reference_mixture_ppf(levels, ref), expected)
    if np.all(np.diff(expected) > 0):
        assert np.array_equal(build_bins(ref, num_bins).edges, expected)
    scalar = reference_mixture_ppf(float(levels[1]), ref)
    assert isinstance(scalar, float) and scalar == expected[1]


def test_reference_samples_stay_in_support():
    _, _, stats = reference_stats()
    ref = beta_mixture_reference(stats)
    draws = sample_reference(ref, 5000, np.random.default_rng(12))
    assert draws.shape == (5000,)
    assert draws.min() >= ref.support_lo
    assert draws.max() <= ref.support_hi


def test_frozen_deltas_lie_inside_reference_support():
    data, labels, stats = reference_stats()
    values = frozen_subset_deltas(data, labels, stats)
    ref = beta_mixture_reference(stats)
    assert values.min() >= ref.support_lo - 1e-9
    assert values.max() <= ref.support_hi + 1e-9


def test_scaled_deltas_have_exact_per_cluster_mean():
    # summing sample Mahalanobis distances over a cluster gives (n_g - 1) * p
    # identically, so the mean scaled delta is p / (n_g - 1) up to roundoff
    data, labels, stats = reference_stats()
    values = frozen_subset_deltas(data, labels, stats)
    ref = beta_mixture_reference(stats)
    p = data.shape[1]
    for g, comp in enumerate(ref.components):
        scaled = comp.scale * (values[labels == g] - comp.shift)
        assert scaled.mean() == pytest.approx(p / (stats.counts[g] - 1.0), rel=1e-12)


def test_beta_component_density_scalar_and_vector():
    comp = BetaComponent(shift=1.0, scale=0.5, alpha=1.0, beta=3.0, weight=1.0)
    assert comp.support == (1.0, 3.0)
    scalar = beta_component_density(2.0, comp)
    assert np.ndim(scalar) == 0
    vec = beta_component_density(np.array([0.0, 2.0, 4.0]), comp)
    assert vec.shape == (3,)
    assert vec[0] == 0.0 and vec[2] == 0.0
    # Beta(1, 3) density at u = scale * (y - shift) = 0.5 is 3 (1 - u)^2 = 0.75;
    # the change of variables multiplies by scale, giving 0.375
    assert vec[1] == pytest.approx(0.375, abs=1e-12)
    assert scalar == pytest.approx(0.375, abs=1e-12)


def test_gamma_reference_matches_population_parameters():
    model = MixtureModel(
        weights=[0.25, 0.75],
        means=[[0.0, 0.0], [5.0, 5.0]],
        covariances=[np.eye(2), 2.0 * np.eye(2)],
    )
    comps = gamma_reference(model)
    assert len(comps) == 2
    for g, comp in enumerate(comps):
        sign, logdet = np.linalg.slogdet(model.covariances[g])
        expected_shift = (
            -np.log(model.weights[g]) + np.log(2 * np.pi) + 0.5 * logdet
        )
        assert comp.shift == pytest.approx(expected_shift, abs=1e-12)
        assert comp.shape == pytest.approx(1.0)  # p / 2 with p = 2
        total, _ = quad(lambda y: gamma_reference_density(y, comp), comp.shift, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)
