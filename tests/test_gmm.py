import hashlib
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from oclust import gmm
from oclust import (
    DegenerateFitError,
    FitConfig,
    InsufficientPointsError,
    MixtureModel,
    SingularCovarianceError,
    approx_log_likelihood,
    cluster_stats,
    em_fit,
    em_refine,
    hard_labels,
    log_gaussian_density,
    mixture_log_likelihood,
    validate_data,
)


def random_spd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T + p * np.eye(p))


# ---------------------------------------------------------------------------
# densities and likelihoods
# ---------------------------------------------------------------------------


def test_log_density_standard_normal_origin():
    assert log_gaussian_density([0.0], [0.0], [[1.0]]) == pytest.approx(
        -0.5 * np.log(2 * np.pi), abs=1e-12
    )


@given(seed=st.integers(0, 10_000), p=st.integers(1, 4))
def test_log_density_matches_scipy(seed, p):
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(p)
    cov = random_spd(rng, p)
    x = rng.standard_normal(p)
    ours = log_gaussian_density(x, mean, cov)
    ref = multivariate_normal(mean=mean, cov=cov).logpdf(x)
    assert ours == pytest.approx(ref, abs=1e-9)


def test_log_density_rejects_bad_input():
    with pytest.raises(SingularCovarianceError):
        log_gaussian_density([0.0, 0.0], [0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        log_gaussian_density([0.0, 0.0], [0.0], [[1.0]])


def test_mixture_loglik_two_component_point():
    # equal-weight components at -1 and +1, unit variance, evaluated at 0:
    # both densities equal phi(1), so the mixture density is phi(1)
    model = MixtureModel(
        weights=[0.5, 0.5], means=[[-1.0], [1.0]], covariances=[[[1.0]], [[1.0]]]
    )
    expected = -0.5 * np.log(2 * np.pi) - 0.5
    assert mixture_log_likelihood([[0.0]], model) == pytest.approx(expected, abs=1e-12)


@given(seed=st.integers(0, 10_000))
def test_mixture_loglik_component_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n, p, g = 20, 2, 3
    data = rng.standard_normal((n, p))
    weights = rng.dirichlet(np.ones(g))
    means = rng.standard_normal((g, p))
    covs = np.stack([random_spd(rng, p) for _ in range(g)])
    model = MixtureModel(weights=weights, means=means, covariances=covs)
    perm = rng.permutation(g)
    permuted = MixtureModel(weights=weights[perm], means=means[perm], covariances=covs[perm])
    assert mixture_log_likelihood(data, model) == pytest.approx(
        mixture_log_likelihood(data, permuted), abs=1e-9
    )


def test_mixture_loglik_rejects_empty_and_mismatched():
    model = MixtureModel(weights=[1.0], means=[[0.0]], covariances=[[[1.0]]])
    with pytest.raises(ValueError):
        mixture_log_likelihood(np.empty((0, 1)), model)
    with pytest.raises(ValueError):
        mixture_log_likelihood(np.zeros((3, 2)), model)


def test_approx_loglik_matches_naive_sum():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((30, 2))
    model = MixtureModel(
        weights=[0.3, 0.7],
        means=[[0.0, 0.0], [2.0, 1.0]],
        covariances=[np.eye(2), random_spd(rng, 2)],
    )
    labels = rng.integers(0, 2, size=30)
    naive = sum(
        np.log(model.weights[labels[i]])
        + log_gaussian_density(data[i], model.means[labels[i]], model.covariances[labels[i]])
        for i in range(30)
    )
    assert approx_log_likelihood(data, model, labels) == pytest.approx(naive, abs=1e-9)


def test_approx_loglik_rejects_bad_labels():
    model = MixtureModel(weights=[1.0], means=[[0.0]], covariances=[[[1.0]]])
    with pytest.raises(ValueError):
        approx_log_likelihood([[0.0], [1.0]], model, [0, 1])


# ---------------------------------------------------------------------------
# model and data validation
# ---------------------------------------------------------------------------


def test_validate_data_shapes_and_finiteness():
    assert validate_data([1.0, 2.0]).shape == (2, 1)
    with pytest.raises(ValueError):
        validate_data(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        validate_data(np.empty((0, 2)))


def test_mixture_model_validation():
    with pytest.raises(ValueError):
        MixtureModel(weights=[0.5, 0.6], means=[[0.0], [1.0]], covariances=[[[1.0]], [[1.0]]])
    with pytest.raises(ValueError):
        MixtureModel(weights=[-0.5, 1.5], means=[[0.0], [1.0]], covariances=[[[1.0]], [[1.0]]])
    bad_cov = MixtureModel(weights=[1.0], means=[[0.0, 0.0]], covariances=[-np.eye(2)])
    with pytest.raises(SingularCovarianceError):
        bad_cov.validate()


# ---------------------------------------------------------------------------
# cluster statistics
# ---------------------------------------------------------------------------


def test_cluster_stats_matches_numpy(three_blob_data):
    data, labels = three_blob_data
    stats = cluster_stats(data, labels, 3)
    assert stats.counts.tolist() == [40, 35, 30]
    assert stats.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for g, count in enumerate([40, 35, 30]):
        block = data[labels == g]
        assert np.allclose(stats.means[g], block.mean(axis=0), atol=1e-12)
        assert np.allclose(stats.covariances[g], np.cov(block, rowvar=False, ddof=1), atol=1e-12)
        assert stats.weights[g] == pytest.approx(count / data.shape[0], abs=1e-15)


def test_cluster_stats_rejects_tiny_cluster():
    data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(InsufficientPointsError) as err:
        cluster_stats(data, [0, 0, 1], 2)
    assert err.value.cluster == 1


# ---------------------------------------------------------------------------
# EM fitting
# ---------------------------------------------------------------------------


def test_em_single_component_closed_form():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((50, 3)) * [1.0, 2.0, 0.5] + [1.0, -1.0, 0.0]
    model, labels, _ = em_fit(data, 1, FitConfig(seed=0))
    assert np.allclose(model.means[0], data.mean(axis=0), atol=1e-9)
    # single-component EM gives the maximum-likelihood covariance (divisor n)
    assert np.allclose(model.covariances[0], np.cov(data, rowvar=False, ddof=0), atol=1e-9)
    assert labels.tolist() == [0] * 50


def test_em_recovers_separated_blobs(three_blob_data):
    data, truth = three_blob_data
    model, labels, loglik = em_fit(data, 3, FitConfig(seed=7))
    # every true cluster is recovered as one fitted cluster
    for g in range(3):
        fitted = labels[truth == g]
        assert (fitted == fitted[0]).all()
    centers = sorted(np.round(model.means.sum(axis=1), 0).tolist())
    assert centers == [0.0, 9.0, 9.0] or centers == [-0.0, 9.0, 9.0]
    assert np.isfinite(loglik)


def test_em_history_monotone(three_blob_data):
    data, _ = three_blob_data
    model, _, _ = em_fit(data, 3, FitConfig(seed=3, max_iter=2))
    run = em_refine(data, model, max_iter=200, rel_tol=1e-10)
    history = np.array(run.history)
    assert np.all(np.diff(history) >= -1e-7 * np.maximum(1.0, np.abs(history[:-1])))


def test_em_deterministic_given_seed(three_blob_data):
    data, _ = three_blob_data
    first = em_fit(data, 3, FitConfig(seed=11))
    second = em_fit(data, 3, FitConfig(seed=11))
    assert first[2] == second[2]
    assert np.array_equal(first[0].means, second[0].means)
    assert np.array_equal(first[0].covariances, second[0].covariances)
    assert np.array_equal(first[1], second[1])


def test_em_labels_are_max_posterior(three_blob_data):
    data, _ = three_blob_data
    model, labels, _ = em_fit(data, 3, FitConfig(seed=5))
    assert np.array_equal(labels, hard_labels(data, model))


def test_em_row_permutation_equivariant(three_blob_data):
    # content-keyed seeding makes a single-restart fit independent of row order
    data, _ = three_blob_data
    config = FitConfig(seed=2, restarts=1)
    _, labels, loglik = em_fit(data, 3, config)
    perm = np.random.default_rng(0).permutation(data.shape[0])
    _, labels_perm, loglik_perm = em_fit(data[perm], 3, config)
    assert loglik_perm == pytest.approx(loglik, abs=1e-7)
    # same partition after mapping back through the permutation
    back = np.empty_like(labels_perm)
    back[perm] = labels_perm
    matches = sum(
        np.array_equal(back == g, labels == g_other)
        for g in range(3)
        for g_other in range(3)
    )
    assert matches == 3


def test_em_rejects_degenerate_input():
    data = np.zeros((10, 2))  # identical points: zero pooled covariance
    with pytest.raises(DegenerateFitError):
        em_fit(data, 2, FitConfig(seed=0))


def test_em_warns_when_ill_posed():
    rng = np.random.default_rng(0)
    with pytest.warns(UserWarning, match="ill-posed"):
        em_fit(rng.standard_normal((5, 2)), 2, FitConfig(seed=0))


def test_em_more_points_than_clusters_required():
    with pytest.raises(ValueError):
        em_fit(np.zeros((2, 2)), 3, FitConfig(seed=0))


def test_em_ill_posed_fit_returns_positive_definite_covariances():
    # the 5-point input of test_em_warns_when_ill_posed: a sweep that has to
    # ridge a covariance is exempt from the decrease check, and the ridged
    # covariance is the one returned
    data = np.random.default_rng(0).standard_normal((5, 2))
    with pytest.warns(UserWarning, match="ill-posed"):
        model, _, _ = em_fit(data, 2, FitConfig(seed=0))
    model.validate()
    em_refine(data, model).model.validate()


def test_em_decrease_on_unridged_sweep_raises(three_blob_data, monkeypatch):
    data, _ = three_blob_data
    model, _, _ = em_fit(data, 3, FitConfig(seed=5))
    update = gmm._params_from_moments

    def misplaced_mean(moments, p, row_ids=None):
        weights, shifts, covs = update(moments, p, row_ids)
        shifts = shifts.copy()
        shifts[0, 0] += 3.0
        return weights, shifts, covs

    monkeypatch.setattr(gmm, "_params_from_moments", misplaced_mean)
    with pytest.raises(DegenerateFitError, match="log-likelihood decreased"):
        em_refine(data, model)


# ---------------------------------------------------------------------------
# independent oracle for the shared Gaussian/EM kernel (scipy densities)
# ---------------------------------------------------------------------------


def far_mixture(seed, n_comp, p):
    """Separated clusters far from the origin, and a mixture whose means sit
    up to 10 units (5 to 20 cluster deviations) off the cluster centres."""
    rng = np.random.default_rng(seed)
    offset = rng.choice([-1.0, 1.0], p) * 10.0 ** rng.uniform(0.0, 6.0, p)
    direction = rng.standard_normal(p)
    direction /= np.linalg.norm(direction)
    centers = offset + 40.0 * np.arange(n_comp)[:, None] * direction
    data = np.vstack(
        [center + rng.uniform(0.5, 2.0) * rng.standard_normal((int(rng.integers(p + 5, 30)), p))
         for center in centers]
    )
    shifts = rng.standard_normal((n_comp, p))
    shifts *= rng.uniform(0.0, 10.0, (n_comp, 1)) / np.linalg.norm(shifts, axis=1, keepdims=True)
    model = MixtureModel(
        weights=rng.dirichlet(np.ones(n_comp)),
        means=centers + shifts,
        covariances=np.stack([random_spd(rng, p, rng.uniform(0.5, 3.0)) for _ in range(n_comp)]),
    )
    return data, model


def scipy_log_densities(data, weights, means, covs):
    return np.column_stack(
        [np.log(weights[g]) + multivariate_normal(mean=means[g], cov=covs[g]).logpdf(data)
         for g in range(len(weights))]
    )


@given(seed=st.integers(0, 10_000), n_comp=st.integers(1, 3), p=st.integers(1, 6))
def test_likelihood_and_labels_match_scipy(seed, n_comp, p):
    data, model = far_mixture(seed, n_comp, p)
    logp = scipy_log_densities(data, model.weights, model.means, model.covariances)
    expected = logsumexp(logp, axis=1).sum()
    assert mixture_log_likelihood(data, model) == pytest.approx(expected, rel=1e-12)
    # rows whose two best components are within rounding of each other may
    # go either way
    ordered = np.sort(logp, axis=1)
    gap = ordered[:, -1] - (ordered[:, -2] if n_comp > 1 else -np.inf)
    clear = gap > 1e-6 * np.maximum(1.0, np.abs(ordered[:, -1]))
    labels = hard_labels(data, model)
    assert np.array_equal(labels[clear], np.argmax(logp, axis=1)[clear])


@given(seed=st.integers(0, 10_000), n_comp=st.integers(1, 3), p=st.integers(1, 6))
def test_one_em_sweep_matches_two_pass_update(seed, n_comp, p):
    data, model = far_mixture(seed, n_comp, p)
    logp = scipy_log_densities(data, model.weights, model.means, model.covariances)
    row_ll = logsumexp(logp, axis=1)
    resp = np.exp(logp - row_ll[:, None])
    soft = resp.sum(axis=0)
    # a component left with the mass of a few points has no stable update
    assume(soft.min() > p + 1)
    weights = soft / soft.sum()
    means = (resp.T @ data) / soft[:, None]
    covs = np.stack(
        [((data - means[g]) * resp[:, [g]]).T @ (data - means[g]) / soft[g]
         for g in range(n_comp)]
    )
    run = em_refine(data, model, max_iter=1)
    scale = np.abs(covs).max()
    assert run.history[0] == pytest.approx(row_ll.sum(), rel=1e-11)
    assert np.allclose(run.model.weights, weights, rtol=0.0, atol=1e-12)
    assert np.allclose(run.model.means, means, rtol=1e-13, atol=1e-10 * np.sqrt(scale))
    assert np.allclose(run.model.covariances, covs, rtol=0.0, atol=1e-10 * scale)
    after = logsumexp(scipy_log_densities(data, weights, means, covs), axis=1).sum()
    assert run.history[1] == pytest.approx(after, rel=1e-11)


# ---------------------------------------------------------------------------
# k-means++ seeding uniforms (keyed row hashes)
# ---------------------------------------------------------------------------


def reference_uniforms(data, key_seed, draw):
    """The per-row hash loop: a fresh keyed BLAKE2b of every row's bytes."""
    key = int(key_seed).to_bytes(8, "little") + int(draw).to_bytes(8, "little")
    return np.array([
        (int.from_bytes(hashlib.blake2b(data[i].tobytes(), key=key, digest_size=8).digest(),
                        "little") + 1) / 18446744073709551616.0
        for i in range(data.shape[0])
    ])


@settings(max_examples=100)
@given(
    n=st.integers(1, 300),
    p=st.integers(1, 20),
    key_seed=st.one_of(st.just(0), st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
    draw=st.integers(0, 3),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_content_uniforms_match_per_row_hash(n, p, key_seed, draw, data_seed):
    # rows of 8p bytes span up to three 128-byte BLAKE2b blocks
    rng = np.random.default_rng(data_seed)
    data = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-300, 300, (n, 1))
    data[rng.random(n) < 0.2] = 0.0
    expected = reference_uniforms(data, key_seed, draw)
    assert np.array_equal(gmm._content_uniforms(data, key_seed, draw), expected)


class EchoHash:
    """Stands in for ``hashlib.blake2b``: the digest is the first 8 message bytes."""

    def __init__(self, data=b"", *, key=b"", digest_size=8):
        self.message = bytes(data)

    def copy(self):
        return EchoHash(self.message)

    def update(self, data):
        self.message += bytes(data)

    def digest(self):
        return self.message[:8]


def test_content_uniforms_round_digest_plus_one_once(monkeypatch):
    # digests chosen so that rounding the digest and then adding 1 would
    # differ from rounding digest + 1, plus the largest digest, which wraps
    # in uint64 and must give exactly 1.0
    digests = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**54 + 1, 2**63, 2**64 - 2049,
               2**64 - 1025, 2**64 - 2, 2**64 - 1]
    data = np.array(digests, dtype=np.uint64).view(np.float64).reshape(-1, 1)
    monkeypatch.setattr(gmm, "hashlib", types.SimpleNamespace(blake2b=EchoHash))
    uniforms = gmm._content_uniforms(data, 5, 1)
    assert np.array_equal(uniforms, [(d + 1) / 18446744073709551616.0 for d in digests])
    assert uniforms[-1] == 1.0


def test_content_uniforms_pinned_values():
    # recorded from the per-row hash loop; guards against the code and its
    # reference in this file drifting together
    data = np.array([[0.0, 1.0], [-0.0, 1.0], [2.5, -3.25], [1e300, 5e-324]])
    pinned = {
        (0, 0): ["0x1.ac020813eb3c8p-3", "0x1.84beb10dac5c6p-3",
                 "0x1.1da3a9428d0c6p-6", "0x1.a8571856317a1p-1"],
        (2**64 - 1, 3): ["0x1.7803d2473d530p-1", "0x1.7882874c38024p-3",
                         "0x1.b54ac114637bfp-4", "0x1.ff872a4c74c37p-1"],
        (123456789, 1): ["0x1.027a8126d214bp-3", "0x1.31a0e0e8795f9p-2",
                         "0x1.d1703024af24ep-2", "0x1.5dca042083cf3p-1"],
    }
    for (key_seed, draw), values in pinned.items():
        expected = [float.fromhex(v) for v in values]
        assert np.array_equal(gmm._content_uniforms(data, key_seed, draw), expected)


# ---------------------------------------------------------------------------
# hard labels of a fit, taken from its final E-step
# ---------------------------------------------------------------------------


def clear_rows(data, model, margin=1e-9):
    """Rows whose two best weighted log-densities differ by more than ``margin``."""
    logp = scipy_log_densities(data, model.weights, model.means, model.covariances)
    if logp.shape[1] == 1:
        return np.ones(data.shape[0], dtype=bool)
    ordered = np.sort(logp, axis=1)
    return ordered[:, -1] - ordered[:, -2] > margin


def overlapping_start(seed, n_comp, p):
    """Clusters about two deviations apart, and a start whose means are data
    rows: many rows change component during the first sweeps."""
    rng = np.random.default_rng(seed)
    centers = 2.0 * rng.standard_normal((n_comp, p))
    data = np.vstack(
        [center + rng.standard_normal((int(rng.integers(4 * p + 10, 60)), p)) for center in centers]
    )
    model = MixtureModel(
        weights=np.full(n_comp, 1.0 / n_comp),
        means=data[rng.choice(data.shape[0], n_comp, replace=False)],
        covariances=np.repeat(np.cov(data, rowvar=False).reshape(1, p, p), n_comp, axis=0),
    )
    return data, model


@settings(max_examples=100)
@given(seed=st.integers(0, 10_000), n_comp=st.integers(1, 3), p=st.integers(1, 6),
       max_iter=st.sampled_from([1, 2, 5, 1000]))
def test_em_refine_labels_match_hard_labels(seed, n_comp, p, max_iter):
    data, model = overlapping_start(seed, n_comp, p)
    try:
        run = em_refine(data, model, max_iter=max_iter)
    except (DegenerateFitError, SingularCovarianceError):
        assume(False)
    clear = clear_rows(data, run.model)
    assert np.array_equal(run.labels[clear], hard_labels(data, run.model)[clear])


def test_em_refine_labels_when_stopped_by_max_iter(three_blob_data):
    data, _ = three_blob_data
    start = gmm._initial_model(data, 3, 17, 1e-8)
    run = em_refine(data, start, max_iter=3, rel_tol=1e-14)
    assert len(run.history) == 4  # three sweeps, none of them converged
    assert abs(run.history[-1] - run.history[-2]) > 1e-14 * abs(run.history[-1])
    clear = clear_rows(data, run.model)
    assert clear.sum() > 100
    assert np.array_equal(run.labels[clear], hard_labels(data, run.model)[clear])


def test_em_refine_labels_after_ridged_last_sweep():
    # a component on four collinear points has a singular covariance at
    # every sweep, so the last E-step runs on a ridged covariance
    rng = np.random.default_rng(4)
    line = np.array([30.0, 30.0]) + np.outer(np.arange(4.0), [1.0, 2.0])
    data = np.vstack([rng.standard_normal((40, 2)), line])
    start = MixtureModel(weights=[0.5, 0.5], means=[[0.0, 0.0], line.mean(axis=0) + 1.0],
                         covariances=[np.eye(2), np.eye(2)])
    run = em_refine(data, start)
    cov = run.model.covariances[1]
    ridge = 1e-8 * np.trace(cov) / 2
    assert np.linalg.eigvalsh(cov).min() == pytest.approx(ridge, rel=1e-6)
    assert np.array_equal(run.labels, np.repeat([0, 1], [40, 4]))
    assert np.array_equal(run.labels, hard_labels(data, run.model))


def test_em_fit_labels_are_its_final_e_step(three_blob_data, monkeypatch):
    data, _ = three_blob_data
    expected = em_fit(data, 3, FitConfig(seed=5))
    monkeypatch.setattr(gmm, "hard_labels", None)  # em_fit must not recompute them
    model, labels, loglik = em_fit(data, 3, FitConfig(seed=5))
    assert np.array_equal(labels, expected[1]) and loglik == expected[2]
