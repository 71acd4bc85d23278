import hashlib
import types
import warnings

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
    with pytest.raises(ValueError, match="label of row 0 is not an integer: 0.5"):
        approx_log_likelihood([[0.0], [1.0]], model, np.zeros(2) + 0.5)


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
        mixture_log_likelihood(np.zeros((1, 2)), bad_cov)


def test_mixture_model_rejects_non_symmetric_covariance():
    # Cholesky reads only the lower triangle, so this would pass as the identity
    lopsided = np.array([[1.0, 5.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^covariance of component 1 is not symmetric$"):
        MixtureModel(weights=[0.5, 0.5], means=np.zeros((2, 2)),
                     covariances=[np.eye(2), lopsided])
    with pytest.raises(ValueError, match="^covariance is not symmetric$"):
        log_gaussian_density([1.0, 1.0], [0.0, 0.0], lopsided)
    # within the tolerance the model is kept as given
    nearly = np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]])
    model = MixtureModel(weights=[1.0], means=[[0.0, 0.0]], covariances=[nearly])
    assert (model.covariances[0] == nearly).all()


@pytest.mark.parametrize("field", ["weights", "means", "covariances"])
def test_mixture_model_rejects_non_finite_parameters(field):
    params = dict(weights=np.array([0.5, 0.5]), means=np.zeros((2, 2)),
                  covariances=np.array([np.eye(2), np.eye(2)]))
    params[field][(0,) * params[field].ndim] = np.nan
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        MixtureModel(**params)


# ---------------------------------------------------------------------------
# cluster statistics
# ---------------------------------------------------------------------------


def test_cluster_stats_matches_numpy(three_blob_data):
    data, labels = three_blob_data
    stats = cluster_stats(data, labels, 3)
    assert isinstance(stats, MixtureModel) and stats.dim == 2
    assert stats.counts.tolist() == [40, 35, 30]
    assert stats.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for g, count in enumerate([40, 35, 30]):
        block = data[labels == g]
        assert np.allclose(stats.means[g], block.mean(axis=0), atol=1e-12)
        assert np.allclose(stats.covariances[g], np.cov(block, rowvar=False, ddof=1), atol=1e-12)
        assert stats.weights[g] == pytest.approx(count / data.shape[0], abs=1e-15)


def test_cluster_stats_rejects_non_integral_labels(three_blob_data):
    # 0.7 and 1.9 must not be truncated to clusters 0 and 1
    data = three_blob_data[0][:40]
    labels = np.repeat([0.7, 1.9], 20)
    with pytest.raises(ValueError, match="label of row 0 is not an integer: 0.7"):
        cluster_stats(data, labels, 2)
    labels[0] = 0.0
    with pytest.raises(ValueError, match="label of row 1 is not an integer: 0.7"):
        cluster_stats(data, labels, 2)
    assert np.array_equal(cluster_stats(data, np.floor(labels), 2).counts, [20, 20])


def test_cluster_stats_rejects_tiny_cluster():
    data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(InsufficientPointsError) as err:
        cluster_stats(data, [0, 0, 1], 2)
    assert err.value.cluster == 1


def test_cluster_stats_checks_its_sample_mixture():
    # a covariance that overflows is refused where it is made, not later as
    # one that is "not positive definite"
    rng = np.random.default_rng(0)
    data = np.vstack([rng.standard_normal((20, 2)), 1e200 * rng.standard_normal((20, 2))])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^covariances must be finite$"):
        cluster_stats(data, np.repeat([0, 1], 20), 2)


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


def test_em_rejects_too_few_points_up_front(monkeypatch):
    # five points for two 2-d clusters: each needs p + 2 = 4, so every
    # restart must fail, and none runs; no warning is given
    rng = np.random.default_rng(0)
    monkeypatch.setattr(gmm, "em_refine", None)  # any restart would raise TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientPointsError,
                           match="^5 points are too few for 2 clusters; each cluster in "
                                 "dimension 2 needs at least 4$"):
            em_fit(rng.standard_normal((5, 2)), 2, FitConfig(seed=0))
    # eight points are enough to try
    with pytest.raises(TypeError):
        em_fit(rng.standard_normal((8, 2)), 2, FitConfig(seed=0))


def test_fit_config_refuses_a_negative_seed_naming_it():
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
        FitConfig(seed=-1)


def test_em_more_points_than_clusters_required():
    with pytest.raises(ValueError):
        em_fit(np.zeros((2, 2)), 3, FitConfig(seed=0))


def test_em_decrease_on_unridged_sweep_raises(three_blob_data, monkeypatch):
    data, _ = three_blob_data
    model, _, _ = em_fit(data, 3, FitConfig(seed=5))
    update = gmm._params_from_moments

    def misplaced_mean(moments, p):
        weights, shifts, covs = update(moments, p)
        shifts = shifts.copy()
        shifts[0, 0] += 3.0
        return weights, shifts, covs

    monkeypatch.setattr(gmm, "_params_from_moments", misplaced_mean)
    with pytest.raises(DegenerateFitError, match="log-likelihood decreased"):
        em_refine(data, model)


def _misplace_mean(params, i):
    weights, shifts, covs = params
    shifts = shifts.copy()
    shifts[i, 0] += 3.0
    return weights, shifts, covs


def _negate_covariance(params, i):
    weights, shifts, covs = params
    covs = covs.copy()
    covs[i, 1] = -np.eye(covs.shape[-1])
    return weights, shifts, covs


def _empty_component(moments, i):
    moments = moments.copy()
    moments[i, 2] = 0.0
    return moments


def _force_first_call(monkeypatch, site, force, i):
    original, calls = getattr(gmm, site), []

    def forced(*args):
        calls.append(args)
        return force(original(*args), i) if len(calls) == 1 else original(*args)

    monkeypatch.setattr(gmm, site, forced)


@pytest.mark.parametrize("site, force, error, message", [
    ("_params_from_moments", _misplace_mean, DegenerateFitError,
     "log-likelihood decreased from"),
    ("_params_from_moments", _negate_covariance, SingularCovarianceError,
     "component 1 covariance is not positive definite"),
    ("_moments", _empty_component, DegenerateFitError,
     "component 2 collapsed to zero responsibility mass"),
])
def test_em_sweeps_return_a_failed_problem_and_run_the_others_on(
        three_blob_data, monkeypatch, site, force, error, message):
    # the first call of ``site`` after the start is forced wrong for problem
    # 17 of the batch (every problem is still active then); problem 17 fails
    # with its own error, and every other problem ends with the same bits.
    # Forced for the one problem of em_refine (where the first ``_moments``
    # call is the start's), the same error is raised.
    data, _ = three_blob_data
    model = MixtureModel(weights=[0.2, 0.3, 0.5], means=[[2.0, 2.0], [7.0, 1.0], [1.0, 6.0]],
                         covariances=np.repeat(4.0 * np.eye(2)[None], 3, axis=0))
    start = gmm._em_start(data, model)
    rows = np.arange(data.shape[0])
    kwargs = dict(max_iter=200, rel_tol=1e-12)
    loglik, history, failures, fit = gmm._em_sweeps(start, rows, **kwargs)
    assert failures == {} and fit is None and history.shape[0] > 3
    _force_first_call(monkeypatch, site, force, 17)
    got, _, got_failures, _ = gmm._em_sweeps(start, rows, **kwargs)
    assert list(got_failures) == [17]
    assert type(got_failures[17]) is error
    assert str(got_failures[17]).startswith(message)
    others = rows != 17
    assert np.array_equal(got[others], loglik[others])
    monkeypatch.undo()
    _force_first_call(monkeypatch, site, force, 0)
    with pytest.raises(error, match=f"^{message}"):
        em_refine(data, model, **kwargs)


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
# the E-step in work buffers
# ---------------------------------------------------------------------------


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    n_comp=st.integers(1, 4),
    n=st.integers(1, 50),
    spread=st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 40.0, 1e3]),
    ties=st.booleans(),
)
def test_posterior_in_buffers_matches_one_exp_formula(seed, m, n_comp, n, spread, ties):
    rng = np.random.default_rng(seed)
    logp = rng.uniform(-spread, spread, (m, n_comp, n)) + rng.uniform(-1e3, 10.0, (m, 1, n))
    if ties:
        # exact ties between components, some of them at the row maximum
        logp[:, rng.integers(n_comp)] = logp[:, rng.integers(n_comp)]
    top = logp.max(axis=1)
    shifted = np.exp(logp - top[:, None, :])
    total = shifted.sum(axis=1)
    row_ll = top + np.log(total)
    resp = shifted / total[:, None, :]
    # the responsibilities overwrite the log-densities: in the caller's array,
    # and in the leading rows of views of a larger flat workspace filled with
    # junk, laid out as _em_sweeps lays out a batch of m + 3 problems
    own = logp.copy()
    flat = gmm._em_workspace((m + 3) * n, n_comp)
    assert flat.shape == ((m + 3) * n * (n_comp + 2),)
    flat.fill(np.nan)
    block = (m + 3) * n_comp * n
    work = flat[:block].reshape(m + 3, n_comp, n)[:m]
    top, ll = flat[block:block + 2 * (m + 3) * n].reshape(2, m + 3, n)[:, :m]
    work[...] = logp
    for buffer, got in ((own, gmm._posterior(own)), (work, gmm._posterior(work, top, ll))):
        assert np.shares_memory(got[1], buffer)
        assert np.array_equal(got[0], row_ll)
        assert np.array_equal(got[1], resp)
        assert np.array_equal(buffer, resp)
    # and both within rounding of log-sum-exp and exp(logp - log-sum-exp)
    expected = logsumexp(logp, axis=1)
    assert np.all(np.abs(row_ll - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))
    assert np.allclose(resp, np.exp(logp - expected[:, None, :]), rtol=1e-11, atol=1e-300)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6), n_comp=st.integers(1, 4),
       m=st.integers(1, 6), n=st.integers(1, 40))
def test_kernel_products_of_a_batch_match_single_problem_calls(seed, p, n_comp, m, n):
    # a faster product across problems (one GEMM) could change a problem's
    # values with the batch it runs in; each problem must get the bits of a
    # batch of one, also on the leading rows of a larger workspace
    rng = np.random.default_rng(seed)
    data = 1e3 * rng.standard_normal(p) + rng.standard_normal((n, p))
    model = MixtureModel(weights=rng.dirichlet(np.ones(n_comp)),
                         means=data[rng.integers(n, size=n_comp)],
                         covariances=np.repeat(np.eye(p)[None], n_comp, axis=0))
    feats = gmm._evaluate(data, model)[0]
    # the coefficients, on both sides of the closed-form choice (p <= 2 or not)
    weights = rng.dirichlet(np.ones(n_comp), m)
    shifts = rng.standard_normal((m, n_comp, p))
    covs = np.stack([[random_spd(rng, p) for _ in range(n_comp)] for _ in range(m)])
    stacked = gmm._log_density_coefs(weights, shifts, covs)
    for i in range(m):
        single = gmm._log_density_coefs(weights[i:i + 1], shifts[i:i + 1], covs[i:i + 1])
        assert np.array_equal(stacked[i], single[0])
    coefs = rng.standard_normal((m, n_comp, feats.shape[1]))
    flat = gmm._em_workspace((m + 3) * n, n_comp)
    flat.fill(np.nan)
    logp = gmm._log_densities(feats, coefs, out=flat[:m * n_comp * n].reshape(m, n_comp, n))
    for i in range(m):
        assert np.array_equal(logp[i], gmm._log_densities(feats, coefs[i:i + 1])[0])
    resp = logp  # the E-step's responsibilities take the log-densities' place
    resp[...] = rng.dirichlet(np.ones(n_comp), (m, n)).transpose(0, 2, 1)
    moments = gmm._moments(feats, resp)
    for i in range(m):
        assert np.array_equal(moments[i], gmm._moments(feats, resp[i:i + 1].copy())[0])


def _conditioned_covariance(p, scale, log_cond, angle):
    """A p x p covariance (p <= 2) with largest eigenvalue ``scale`` and
    condition number 10**log_cond, its axes turned by ``angle``."""
    if p == 1:
        return np.array([[scale]])
    c, s = np.cos(angle), np.sin(angle)
    rotation = np.array([[c, -s], [s, c]])
    cov = rotation @ np.diag([scale, scale * 10.0 ** -log_cond]) @ rotation.T
    return 0.5 * (cov + cov.T)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 2), n_comp=st.integers(1, 3),
       log_scale=st.floats(-6, 6), log_cond=st.floats(0, 8), angle=st.floats(0, np.pi))
def test_closed_form_log_densities_match_the_lapack_oracle(seed, p, n_comp, log_scale, log_cond,
                                                           angle):
    # for p <= 2 the kernel factors covariances in closed form; the oracle,
    # log_gaussian_density, factors them with LAPACK.  Stated tolerance: the
    # difference is within 1e-12 * cond * (1 + |log density|), a first-order
    # rounding bound for a quadratic form and log-determinant at condition
    # number cond
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    covs = np.stack([_conditioned_covariance(p, scale, log_cond, angle + k)
                     for k in range(n_comp)])
    cond = np.linalg.cond(covs).max()
    means = 10.0 * np.sqrt(scale) * rng.standard_normal((n_comp, p))
    model = MixtureModel(weights=rng.dirichlet(np.ones(n_comp)), means=means, covariances=covs)
    data = means[rng.integers(n_comp, size=12)] + 3.0 * np.sqrt(scale) * rng.standard_normal((12, p))
    logp = gmm._evaluate(data, model)[1][0]
    for g in range(n_comp):
        for i, x in enumerate(data):
            expected = np.log(model.weights[g]) + log_gaussian_density(x, means[g], covs[g])
            assert abs(logp[g, i] - expected) <= 1e-12 * cond * (1.0 + abs(expected))


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 2), n_comp=st.integers(1, 3),
       m=st.integers(1, 4), log_scale=st.floats(-6, 6), singular=st.booleans())
def test_closed_form_and_lapack_agree_on_clear_verdicts(seed, p, n_comp, m, log_scale, singular):
    # clearly positive definite blocks (condition number at most 1e6) pass
    # both; a stack with one clearly indefinite or zero-variance block fails
    # both
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    covs = np.stack([[_conditioned_covariance(p, scale, rng.uniform(0, 6), rng.uniform(0, np.pi))
                      for _ in range(n_comp)] for _ in range(m)])
    if singular:
        i, g = rng.integers(m), rng.integers(n_comp)
        if rng.integers(2) or p == 1:
            covs[i, g, p - 1, p - 1] = -rng.uniform(0.0, 1.0) * scale  # zero or below
        else:
            covs[i, g, 0, 1] = covs[i, g, 1, 0] = 2.0 * np.sqrt(covs[i, g, 0, 0] * covs[i, g, 1, 1])
    try:
        np.linalg.cholesky(covs)
        lapack_ok = True
    except np.linalg.LinAlgError:
        lapack_ok = False
    assert lapack_ok is not singular
    assert (gmm._inverse_factors(covs) is not None) is lapack_ok


@pytest.mark.parametrize("block", [
    [[1.0, 1.0], [1.0, 1.0 + 1e-16]],  # 1 + 1e-16 rounds to 1: the second pivot is 0
    [[0.0, 0.0], [0.0, 1.0]],  # a zero variance: the first pivot is 0
    [[1.0, 0.0], [0.0, 0.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, np.nan], [np.nan, 1.0]],
    [[0.0]],
    [[np.nan]],
])
@pytest.mark.parametrize("bad", [0, 2])
def test_singular_names_the_block_whose_factor_failed(block, bad):
    block = np.array(block)
    p = block.shape[0]
    covs = np.repeat(np.eye(p)[None], 3, axis=0)
    covs[bad] = block
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no pivot is divided by before it is tested
        assert gmm._inverse_factors(covs[bad]) is None
        assert all(gmm._inverse_factors(covs[g]) is not None for g in range(3) if g != bad)
        message = f"component {bad} covariance is not positive definite"
        assert str(gmm._singular(covs)) == message
        for call in (lambda: gmm._factor_covariances(covs),
                     lambda: gmm._log_density_coefs(np.full((1, 3), 1 / 3), np.zeros((1, 3, p)),
                                                    covs[None])):
            with pytest.raises(SingularCovarianceError, match=f"^{message}$"):
                call()


def test_em_sweeps_on_views_of_a_larger_workspace_match_a_fresh_one(three_blob_data):
    # problems converge after different numbers of sweeps, so later sweeps
    # run on ever shorter leading views of the workspace
    data, _ = three_blob_data
    model, _, _ = em_fit(data, 3, FitConfig(seed=5, max_iter=3))
    start = gmm._em_start(data, model)
    n = data.shape[0]
    for rows in [None, np.arange(0, n, 2)]:
        kwargs = dict(max_iter=200, rel_tol=1e-12)
        fresh = gmm._em_sweeps(start, rows, **kwargs)
        work = gmm._em_workspace((n + 4) * n, 3)
        work.fill(np.nan)
        reused = gmm._em_sweeps(start, rows, work=work, **kwargs)
        m = 1 if rows is None else rows.shape[0]
        assert np.isnan(work[m * n * (3 + 2):]).all()  # a batch writes only its own m n cells
        assert np.array_equal(fresh[0], reused[0])
        assert np.array_equal(fresh[1], reused[1])
        assert fresh[2] == reused[2] == {}
        if rows is None:
            (params, labels), (reused_params, reused_labels) = fresh[3], reused[3]
            for a, b in zip(params, reused_params):
                assert np.array_equal(a, b)
            assert np.array_equal(labels, reused_labels)
            assert np.array_equal(labels, em_refine(data, model, **kwargs).labels)
        else:
            assert fresh[3] is reused[3] is None
            sweeps = (np.diff(fresh[1], axis=0) != 0).sum(axis=0)
            assert len(set(sweeps.tolist())) > 1


def test_em_sweeps_history_of_a_batch_is_each_problems_own(three_blob_data):
    # problems stop after different numbers of sweeps, so the batch runs with
    # every problem active and then with some stopped; each column of the
    # batch's history must be the history of that problem run alone, held at
    # its last value once it stops
    data, _ = three_blob_data
    model = MixtureModel(weights=[0.2, 0.3, 0.5], means=[[2.0, 2.0], [7.0, 1.0], [1.0, 6.0]],
                         covariances=np.repeat(4.0 * np.eye(2)[None], 3, axis=0))
    start = gmm._em_start(data, model)
    rows = np.arange(0, data.shape[0], 3)
    kwargs = dict(max_iter=200, rel_tol=1e-12)
    loglik, history, failures, _ = gmm._em_sweeps(start, rows, **kwargs)
    assert failures == {}
    lengths = set()
    for i, row in enumerate(rows):
        one, one_history, _, _ = gmm._em_sweeps(start, [row], **kwargs)
        length = one_history.shape[0]
        lengths.add(length)
        assert np.array_equal(history[:length, i], one_history[:, 0])
        assert (history[length:, i] == one_history[-1, 0]).all()
        assert loglik[i] == one[0] == one_history[-1, 0]
    assert len(lengths) > 1 and max(lengths) == history.shape[0]


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
    assert np.array_equal(gmm._content_uniforms(gmm._row_bytes(data), key_seed, draw), expected)


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
    uniforms = gmm._content_uniforms(gmm._row_bytes(data), 5, 1)
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
    rows = gmm._row_bytes(data)
    for (key_seed, draw), values in pinned.items():
        expected = [float.fromhex(v) for v in values]
        assert np.array_equal(gmm._content_uniforms(rows, key_seed, draw), expected)


# ---------------------------------------------------------------------------
# hard labels of a fit, taken from its final E-step
# ---------------------------------------------------------------------------


def cholesky_log_densities(data, weights, means, covs):
    """log w_g + log N(x; mu_g, Sigma_g) by a triangular solve per component,
    shape (n, G).  Unlike scipy's, it takes every covariance that a Cholesky
    factorization accepts, as those of every model ``em_refine`` returns (a
    6-d component on a few points can have a condition number near 1e16)."""
    logp = np.empty((data.shape[0], len(weights)))
    for g, (weight, mean, cov) in enumerate(zip(weights, means, covs)):
        chol = np.linalg.cholesky(cov)
        z = np.linalg.solve(chol, (data - mean).T)
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        logp[:, g] = np.log(weight) - 0.5 * (data.shape[1] * np.log(2 * np.pi) + logdet
                                             + (z * z).sum(axis=0))
    return logp


def clear_rows(data, model, margin=1e-9):
    """Rows whose two best weighted log-densities differ by more than ``margin``."""
    logp = cholesky_log_densities(data, model.weights, model.means, model.covariances)
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
    except DegenerateFitError:
        assume(False)
    clear = clear_rows(data, run.model)
    assert np.array_equal(run.labels[clear], hard_labels(data, run.model)[clear])


def test_em_refine_labels_when_stopped_by_max_iter(three_blob_data):
    data, _ = three_blob_data
    start = gmm._initial_model(data, gmm._row_bytes(data), np.cov(data, rowvar=False), 3, 17)
    run = em_refine(data, start, max_iter=3, rel_tol=1e-14)
    assert len(run.history) == 4  # three sweeps, none of them converged
    assert abs(run.history[-1] - run.history[-2]) > 1e-14 * abs(run.history[-1])
    clear = clear_rows(data, run.model)
    assert clear.sum() > 100
    assert np.array_equal(run.labels[clear], hard_labels(data, run.model)[clear])


def test_em_fit_labels_are_its_final_e_step(three_blob_data, monkeypatch):
    data, _ = three_blob_data
    expected = em_fit(data, 3, FitConfig(seed=5))
    monkeypatch.setattr(gmm, "hard_labels", None)  # em_fit must not recompute them
    model, labels, loglik = em_fit(data, 3, FitConfig(seed=5))
    assert np.array_equal(labels, expected[1]) and loglik == expected[2]


@pytest.mark.parametrize("seed", range(4))
def test_em_fit_numbers_components_by_their_first_row(three_blob_data, seed):
    # the blobs are stacked in order, so the planted labels are already
    # numbered by each cluster's first row
    data, planted = three_blob_data
    model, labels, _ = em_fit(data, 3, FitConfig(seed=seed))
    assert np.array_equal(labels, planted)
    assert np.array_equal(hard_labels(data, model), planted)


def test_em_fit_labels_do_not_depend_on_the_component_order_of_its_starts(
        three_blob_data, monkeypatch):
    data, _ = three_blob_data
    model, labels, loglik = em_fit(data, 3, FitConfig(seed=5))
    initial = gmm._initial_model

    def reversed_start(*args):
        start = initial(*args)
        return MixtureModel(weights=start.weights[::-1], means=start.means[::-1],
                            covariances=start.covariances[::-1])

    monkeypatch.setattr(gmm, "_initial_model", reversed_start)
    flipped, flipped_labels, flipped_loglik = em_fit(data, 3, FitConfig(seed=5))
    assert np.array_equal(flipped_labels, labels)
    assert flipped_loglik == pytest.approx(loglik, rel=1e-12)
    assert np.allclose(flipped.means, model.means, rtol=0.0, atol=1e-9)
    assert np.allclose(flipped.weights, model.weights, rtol=0.0, atol=1e-12)
