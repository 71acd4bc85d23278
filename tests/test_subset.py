import hashlib
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st
from scipy.special import betainc, logsumexp
from scipy.stats import beta as beta_dist
from scipy.stats import multivariate_normal

from oclust import (
    BinningError,
    DegenerateFitError,
    ReferenceMixture,
    SimModelSpec,
    SingularCovarianceError,
    DeltaMode,
    DowndateVariant,
    FitConfig,
    GammaReference,
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
    kl_divergence,
    loo_refit_logliks,
    mahalanobis_sq,
    mixture_log_likelihood,
    reference_mixture_cdf,
    reference_mixture_ppf,
    sample_reference,
    subset_deltas,
)
from oclust import divergence, gmm


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


_budget = gmm._refit_cells


def _set_chunk(monkeypatch, chunk):
    """Run every leave-one-out pass in batches of ``chunk`` refits, with
    workspaces to match (None: the budget)."""
    monkeypatch.setattr(gmm, "_refit_cells",
                        _budget if chunk is None else lambda n_components, n: chunk * n)


def test_refit_logliks_invariant_to_chunking_and_threads(fitted_blobs, monkeypatch):
    data, model, _, _ = fitted_blobs
    _set_chunk(monkeypatch, 7)
    base = loo_refit_logliks(data, model)
    _set_chunk(monkeypatch, 60)
    assert np.array_equal(base, loo_refit_logliks(data, model))
    _set_chunk(monkeypatch, 13)
    assert np.array_equal(base, loo_refit_logliks(data, model, n_threads=4))


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


def test_refit_logliks_invariant_to_uneven_chunks_at_larger_n(fitted_blobs_300, monkeypatch):
    data, model = fitted_blobs_300
    n = data.shape[0]
    base = loo_refit_logliks(data, model)
    for chunk in [7, 64, n - 1]:
        _set_chunk(monkeypatch, chunk)
        assert np.array_equal(base, loo_refit_logliks(data, model, n_threads=2)), chunk


def test_refit_pool_runs_two_threads_at_default_chunking(fitted_blobs_300, monkeypatch):
    # 312 rows: the default chunk rule gives more than one chunk, so two
    # threads each take a group; every thread's first call waits at a
    # barrier, which times out unless a second thread is running
    data, model = fitted_blobs_300
    serial = loo_refit_logliks(data, model, n_threads=1)
    sweeps, seen, barrier = gmm._em_sweeps, set(), threading.Barrier(2, timeout=30)

    def recording(*args, **kwargs):
        if len(args) > 1 and threading.get_ident() not in seen:  # leave-one-out calls only
            seen.add(threading.get_ident())
            barrier.wait()
        return sweeps(*args, **kwargs)

    monkeypatch.setattr(gmm, "_em_sweeps", recording)
    before = threading.active_count()
    pooled = loo_refit_logliks(data, model, n_threads=2)
    assert len(seen) == 2
    assert np.array_equal(serial, pooled)
    assert threading.active_count() == before  # the call's own pool is shut down


@pytest.mark.parametrize("n_threads", [1, 2, 3, 4])
def test_refit_pass_runs_on_the_caller_and_n_threads_minus_one_pool_threads(
        fitted_blobs_300, monkeypatch, n_threads):
    # chunks of 7 make a pass with n_threads groups; every thread's first
    # call waits at a barrier, which times out unless all n_threads run, and
    # reads the live thread count while they all do
    data, model = fitted_blobs_300
    _set_chunk(monkeypatch, 7)
    assert len(gmm._refit_plan(model.n_components, data.shape[0], n_threads)) == n_threads
    serial = loo_refit_logliks(data, model, n_threads=1)
    sweeps, seen, live = gmm._em_sweeps, set(), []
    barrier = threading.Barrier(n_threads, timeout=30)

    def recording(*args, **kwargs):
        if len(args) > 1 and threading.get_ident() not in seen:  # leave-one-out calls only
            seen.add(threading.get_ident())
            barrier.wait()
            live.append(threading.active_count())
        return sweeps(*args, **kwargs)

    monkeypatch.setattr(gmm, "_em_sweeps", recording)
    before = threading.active_count()
    got = loo_refit_logliks(data, model, n_threads=n_threads)
    assert len(seen) == n_threads and threading.get_ident() in seen
    assert live == [before + n_threads - 1] * n_threads
    assert np.array_equal(got, serial)
    assert threading.active_count() == before


@pytest.mark.parametrize("chunk", [None, 7])
def test_refit_plan_splits_each_group_into_balanced_batches(monkeypatch, chunk):
    # every row once and in order, one group per thread up to the chunk
    # count, and per group the fewest batches of at most chunk rows, sizes
    # within one (with chunks of 7 and groups of 15 and 14 rows, the smaller
    # group has the larger batches)
    _set_chunk(monkeypatch, chunk)
    n_comp = 3
    for n_threads in (1, 2, 3):
        for n in range(10, 401):
            step = gmm._refit_cells(n_comp, n) // n
            plan = gmm._refit_plan(n_comp, n, n_threads)
            batches = [rows for group in plan for rows in group]
            assert np.array_equal(np.concatenate(batches), np.arange(n))
            assert len(plan) == min(n_threads, -(-n // step))
            for group in plan:
                sizes = [rows.shape[0] for rows in group]
                assert len(sizes) == -(-sum(sizes) // step)
                assert max(sizes) <= step and max(sizes) - min(sizes) <= 1


def test_refit_workers_of_the_n500_run_hold_two_balanced_batches():
    # a 500-row pass on two threads: 250 rows per thread make batches of
    # 125 + 125, not 174 + 76
    assert [[rows.shape[0] for rows in group] for group in gmm._refit_plan(3, 500, 2)] == [
        [125, 125], [125, 125]]


@pytest.mark.parametrize("n_comp", [1, 2, 3, 4])
def test_pass_workspace_holds_every_batch_of_the_shrinking_passes(n_comp):
    # the workspace sized for a pass on n rows holds every batch of the
    # passes on n down to n - n // 8 rows (every row count up to 320 rows,
    # about 40 of them spread evenly above), on both sides of G n = 2**15;
    # its size is one constant while G n <= 2**15, so that the passes of a
    # trimming run ask for blocks of one size
    small = [10, 11, 97, 1000, 2**15 // n_comp]
    large = [2**15 // n_comp + 1, 2**15 // n_comp + 300]
    for n in small + large:
        cells = gmm._refit_cells(n_comp, n)
        for rows_now in range(n, n - n // 8 - 1, -max(1, n // 320)):
            for n_threads in (1, 2, 3):
                for group in gmm._refit_plan(n_comp, rows_now, n_threads):
                    assert group[0].shape[0] * rows_now <= cells
    assert {gmm._refit_cells(n_comp, n) for n in small} == {2**18 // n_comp}
    assert all(gmm._refit_cells(n_comp, n) == 8 * n for n in large)


def test_refit_budget_gives_the_chunks_plans_and_buffers_of_the_earlier_rules(
        fitted_blobs_300, monkeypatch):
    # the budget replaced two rules, whose results it must keep: a chunk of
    # max(8, 2**18 // (G n)) refits and a buffer of max(8 n, 2**18 // G)
    # (G + 2) floats per group
    for n_comp in range(1, 130):
        for n in range(1, 20_001, 7):
            cells = gmm._refit_cells(n_comp, n)
            assert cells // n == max(8, 2**18 // (n_comp * n)), (n_comp, n)
            assert cells * (n_comp + 2) == max(8 * n, 2**18 // n_comp) * (n_comp + 2)
    for n_comp, n, n_threads in [(1, 9, 2), (3, 500, 2), (3, 2000, 2), (4, 2**13, 3),
                                 (128, 260, 2), (129, 20_000, 4)]:
        chunk = max(8, 2**18 // (n_comp * n))
        groups = np.array_split(np.arange(n), min(n_threads, -(-n // chunk)))
        expected = [np.array_split(group, -(-group.shape[0] // chunk)) for group in groups]
        got = gmm._refit_plan(n_comp, n, n_threads)
        assert [[rows.tolist() for rows in group] for group in got] == [
            [rows.tolist() for rows in group] for group in expected]
    # the workspaces a pass makes, one per group
    data, model = fitted_blobs_300
    made, allocate = [], gmm._em_workspace

    def recording(cells, n_components):
        made.append(allocate(cells, n_components))
        return made[-1]

    monkeypatch.setattr(gmm, "_em_workspace", recording)
    loo_refit_logliks(data, model, n_threads=2)
    n_comp, n = model.n_components, data.shape[0]
    assert [work.size for work in made] == [max(8 * n, 2**18 // n_comp) * (n_comp + 2)] * 2


@pytest.mark.parametrize("kwargs, message", [
    (dict(n_threads=0), "n_threads must be >= 1, got 0"),
    (dict(n_threads=-2), "n_threads must be >= 1, got -2"),
])
def test_refit_rejects_bad_thread_counts(fitted_blobs, kwargs, message):
    data, model, _, _ = fitted_blobs
    with pytest.raises(ValueError, match=message):
        loo_refit_logliks(data, model, **kwargs)


def test_refit_logliks_pinned_on_acceptance_scenario():
    # model I, 450 + 50 points, data seed 1000, fit seed 0: the values are
    # rounding-exact (recorded with OpenBLAS 0.3.31 on x86-64, feature-major
    # kernel, one-exp posterior, components in first-row order, closed-form
    # p <= 2 covariance factors), so this fails if anything in the shared EM
    # loop changes a refit's arithmetic
    data = gen_dataset(SimModelSpec(model="I", n_good=450, n_outliers=50, p=2, seed=1000)).data
    model, _, _ = em_fit(data, 3, FitConfig(seed=0))
    values = loo_refit_logliks(data, model)
    assert hashlib.sha256(values.tobytes()).hexdigest() == (
        "d12f8b463c2228c26e3e6212df9194e8255e8b31937ceafbac4df427a7355145"
    )


def _spread_model(n_comp, n, seed):
    """1-d data on n rows and a start of n_comp evenly spaced unit-variance
    components that all overlap it."""
    data = np.random.default_rng(seed).uniform(0.0, 10.0, (n, 1))
    model = MixtureModel(weights=np.full(n_comp, 1.0 / n_comp),
                         means=np.linspace(0.0, 10.0, n_comp)[:, None],
                         covariances=np.ones((n_comp, 1, 1)))
    return data, model


@pytest.mark.parametrize("case, n_threads, steps, kwargs", [
    ("rule", 3, 4, {}),  # 312 rows: two chunks, more threads than chunks
    ("one-batch", 2, 4, {}),  # G n = 60: a chunk of 4369 rows, so one batch
    ("clip-8", 2, 3, dict(max_iter=2)),  # G n > 2**15: chunks of 8
])
def test_run_state_over_shrinking_data_matches_fresh_calls(fitted_blobs_300, case, n_threads,
                                                             steps, kwargs):
    # the passes of a trimming run, on n, n - 1, ... rows, each removing the
    # row with the highest subset log-likelihood, give at n_threads the
    # values of one thread
    data, model = {"rule": fitted_blobs_300, "one-batch": _spread_model(2, 30, 1),
                   "clip-8": _spread_model(128, 260, 2)}[case]
    n, n_comp = data.shape[0], model.n_components
    expected_chunk = {"rule": 280, "one-batch": 4369, "clip-8": 8}[case]
    assert gmm._refit_cells(n_comp, n) // n == expected_chunk

    def passes(threads):
        values, current = [], data
        for _ in range(steps):
            values.append(loo_refit_logliks(current, model, n_threads=threads, **kwargs))
            current = np.delete(current, int(np.argmax(values[-1])), axis=0)
        return values

    for got, serial in zip(passes(n_threads), passes(1), strict=True):
        assert np.array_equal(got, serial)


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


def _blob_fit(seed, n_comp, p, per_cluster):
    """``n_comp`` blobs of ``per_cluster`` rows in dimension ``p`` and the
    ``em_fit`` model of them, for fits that recover the blobs.  A fit with a
    component on a handful of points is degenerate: its refits chase
    likelihood spikes and depend on rounding, so no oracle applies.  Such
    inputs are rejected, whether ``em_fit`` returns the fit or refuses it
    because every restart left a cluster below its minimum size."""
    rng = np.random.default_rng(seed)
    data = np.vstack(
        [rng.standard_normal((per_cluster, p)) * rng.uniform(0.5, 2.0) + 9.0 * g
         for g in range(n_comp)]
    )
    try:
        model, labels, _ = em_fit(data, n_comp, FitConfig(seed=seed))
    except DegenerateFitError:
        reject()
    assume(np.array_equal(np.bincount(labels, minlength=n_comp), [per_cluster] * n_comp))
    return data, model


@given(
    seed=st.integers(0, 10_000),
    n_comp=st.integers(1, 3),
    p=st.integers(1, 3),
    per_cluster=st.integers(8, 16),
)
@settings(max_examples=15)
def test_refit_logliks_match_explicit_deletion_refits(seed, n_comp, p, per_cluster):
    data, model = _blob_fit(seed, n_comp, p, per_cluster)
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
@example(seed=77, n_comp=3, p=3, per_cluster=8)  # em_fit refuses: every restart degenerates
@settings(max_examples=15)
def test_refit_logliks_match_independent_oracle_property(seed, n_comp, p, per_cluster):
    # em_refine shares the refit's EM loop, so this checks against scipy instead
    data, model = _blob_fit(seed, n_comp, p, per_cluster)
    ours = loo_refit_logliks(data, model, rel_tol=1e-12, max_iter=500)
    expected = np.array(
        [oracle_loo_loglik(data, model, j, rel_tol=1e-12, max_iter=500)
         for j in range(data.shape[0])]
    )
    assert np.max(np.abs(ours - expected)) < 1e-6


def _four_point_component_fit(start_rows):
    """24 rows in p = 3 and an EM fit from means at ``start_rows``, pooled
    covariances and equal weights, which puts one component on 4 points with
    a near-singular covariance: a fit that ``em_fit`` discards, as 4 < p + 2."""
    rng = np.random.default_rng(17)
    data = np.vstack(
        [rng.standard_normal((8, 3)) * rng.uniform(0.5, 2.0) + 9.0 * g for g in range(3)]
    )
    start = MixtureModel(weights=np.full(3, 1.0 / 3.0), means=data[start_rows],
                         covariances=np.repeat(np.cov(data, rowvar=False)[None], 3, axis=0))
    run = em_refine(data, start)
    assert sorted(np.bincount(run.labels)) == [4, 10, 10]
    return data, run.model


def test_degenerate_refit_raises_on_a_decrease(monkeypatch):
    # the refits chase likelihood spikes, and a sweep that lowers the
    # log-likelihood must be reported, for the lowest failing row (rows 0, 4
    # and 5 fall, and row 7's refit reaches a singular covariance), with the
    # same text whatever the chunking and thread count
    data, model = _four_point_component_fit([4, 16, 8])
    texts = set()
    for chunk in [None, 1, 3, 7, 12]:
        _set_chunk(monkeypatch, chunk)
        for n_threads in [1, 2]:
            with pytest.raises(DegenerateFitError) as info:
                loo_refit_logliks(data, model, rel_tol=1e-12, max_iter=500,
                                  n_threads=n_threads)
            assert info.value.subset_index == 0
            texts.add(str(info.value))
    assert len(texts) == 1
    assert texts.pop().startswith("leave-one-out refit for row 0: log-likelihood decreased from ")


def test_singular_refit_is_a_degenerate_fit_naming_its_row(monkeypatch):
    # from another start order the same fit differs in its last bits, and the
    # refit without row 0 reaches a singular covariance: the error keeps its
    # class, which is a DegenerateFitError, and names the row
    data, model = _four_point_component_fit([8, 16, 4])
    for chunk, n_threads in [(None, 1), (5, 2)]:
        _set_chunk(monkeypatch, chunk)
        with pytest.raises(SingularCovarianceError,
                           match="^leave-one-out refit for row 0: component 2 covariance is not "
                                 "positive definite$") as info:
            loo_refit_logliks(data, model, rel_tol=1e-12, max_iter=500, n_threads=n_threads)
        assert isinstance(info.value, DegenerateFitError)
        assert info.value.subset_index == 0
        assert isinstance(info.value.__cause__, SingularCovarianceError)


def test_refit_decrease_is_checked_per_problem(fitted_blobs, monkeypatch):
    # on their one sweep, the refits without rows 3 and 17 get their means
    # moved off the EM update, so both fall and the lower row, 3, is named,
    # whatever the chunking.  The kernel sees no row ids, so a refit is told
    # by its first-sweep moments.
    data, model, _, _ = fitted_blobs
    update = gmm._params_from_moments
    start = gmm._em_start(data, model)
    first = {j: start.moments - start.resp[:, j, None] * start.feats[:, :, j] for j in (3, 17)}

    def misplaced_means(moments, p):
        weights, shifts, covs = update(moments, p)
        shifts = shifts.copy()
        for j in (3, 17):
            shifts[(moments == first[j]).all(axis=(1, 2)), 0] += 3.0
        return weights, shifts, covs

    monkeypatch.setattr(gmm, "_params_from_moments", misplaced_means)
    for chunk, n_threads in [(None, 1), (7, 2)]:
        _set_chunk(monkeypatch, chunk)
        with pytest.raises(DegenerateFitError,
                           match="^leave-one-out refit for row 3: log-likelihood decrease") as info:
            loo_refit_logliks(data, model, max_iter=1, n_threads=n_threads)
        assert info.value.subset_index == 3


@pytest.mark.parametrize("kwargs, message", [
    (dict(max_iter=0), "max_iter must be >= 1"),
    (dict(max_iter=-1), "max_iter must be >= 1"),
    (dict(rel_tol=0.0), "rel_tol must be positive"),
    (dict(rel_tol=-1.0), "rel_tol must be positive"),
    (dict(rel_tol=float("nan")), "rel_tol must be positive"),
])
def test_em_limits_are_checked_with_fit_config_texts(fitted_blobs, kwargs, message):
    data, model, _, _ = fitted_blobs
    calls = [em_refine, loo_refit_logliks]
    if "max_iter" not in kwargs:  # FitConfig sets no sweep cap
        calls.append(lambda data, model, **kw: FitConfig(**kw))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(data, model, **kwargs)


def test_refit_deltas_are_subset_minus_full(fitted_blobs):
    data, model, labels, loglik = fitted_blobs
    deltas = subset_deltas(data, model, labels, loglik, mode=DeltaMode.REFIT)
    lls = loo_refit_logliks(data, model)
    assert np.array_equal(deltas, lls - loglik)
    # removing a point can only help the remaining fit
    assert deltas.min() > 0.0


# ---------------------------------------------------------------------------
# frozen (closed-form) deltas
# ---------------------------------------------------------------------------


def test_frozen_deltas_match_two_evaluation_oracle(fitted_blobs):
    data, _, labels, _ = fitted_blobs
    stats = cluster_stats(data, labels, 2)
    values = frozen_subset_deltas(data, labels, stats)
    q_full = approx_log_likelihood(data, stats, labels)
    for j in range(data.shape[0]):
        q_minus = approx_log_likelihood(np.delete(data, j, axis=0), stats, np.delete(labels, j))
        assert values[j] == pytest.approx(q_minus - q_full, abs=1e-9)


@pytest.mark.parametrize("p", [1, 2, 6])
def test_frozen_deltas_are_the_kernels_assigned_log_densities(p):
    # frozen deltas and the mixture kernel put a model on the data one way,
    # so they agree to the bit, in both closed forms and at p = 6
    rng = np.random.default_rng(p)
    labels = np.repeat([0, 1, 2], 100)
    data = 6.0 * (labels[:, None] - 1.0) + rng.standard_normal((300, p))
    stats = cluster_stats(data, labels, 3)
    logp = gmm._evaluate(data, stats)[1][0]
    assert np.array_equal(-frozen_subset_deltas(data, labels, stats),
                          logp[labels, np.arange(labels.size)])


def test_frozen_deltas_reject_bad_labels(fitted_blobs):
    # a label of -1 must not wrap round to the last cluster
    data, model, labels, loglik = fitted_blobs
    stats = cluster_stats(data, labels, 2)
    wrapped = labels.copy()
    wrapped[0] = -1
    with pytest.raises(ValueError, match="outside the model"):
        frozen_subset_deltas(data, wrapped, stats)
    with pytest.raises(ValueError, match="outside the model"):
        frozen_subset_deltas(data, np.full_like(labels, 2), stats)
    with pytest.raises(ValueError, match="one integer per data row"):
        frozen_subset_deltas(data, labels[:-1], stats)
    # a non-integral label is not truncated, here or on the way in from subset_deltas
    shifted = labels + 0.5
    with pytest.raises(ValueError, match="label of row 0 is not an integer"):
        frozen_subset_deltas(data, shifted, stats)
    with pytest.raises(ValueError, match="label of row 0 is not an integer"):
        subset_deltas(data, model, shifted, loglik, mode=DeltaMode.FROZEN)
    shifted[0] = labels[0]
    with pytest.raises(ValueError, match="label of row 1 is not an integer"):
        frozen_subset_deltas(data, shifted, stats)
    with pytest.raises(ValueError, match="label of row 0 is not an integer: nan"):
        frozen_subset_deltas(data, np.where(np.arange(len(labels)) == 0, np.nan, labels), stats)


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
    for weight in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"^cluster weight must lie in \(0, 1\]$"):
            delta_formula(x, mean, cov, weight)


def test_point_formulas_reject_non_symmetric_covariance():
    # Cholesky reads only the lower triangle, so this would pass as the identity
    lopsided = [[1.0, 5.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="^covariance is not symmetric$"):
        mahalanobis_sq([1.0, 1.0], [0.0, 0.0], lopsided)
    with pytest.raises(ValueError, match="^covariance is not symmetric$"):
        delta_formula([1.0, 1.0], [0.0, 0.0], lopsided, 1.0)


@pytest.mark.parametrize("formula", [
    gmm.log_gaussian_density,
    mahalanobis_sq,
    lambda x, mean, cov: delta_formula(x, mean, cov, 0.5),
], ids=["log_gaussian_density", "mahalanobis_sq", "delta_formula"])
@pytest.mark.parametrize("x, mean, cov, name", [
    ([np.nan], [0.0], [[1.0]], "point"),
    ([1.0, -np.inf], [0.0, 0.0], np.eye(2), "point"),
    ([1.0], [np.inf], [[1.0]], "mean"),
    ([1.0], [0.0], [[np.nan]], "covariance"),
    ([1.0, 0.0], [0.0, 0.0], [[1.0, np.inf], [np.inf, 1.0]], "covariance"),
], ids=["nan-point", "inf-point", "inf-mean", "nan-covariance", "inf-covariance"])
def test_point_formulas_name_a_non_finite_input(formula, x, mean, cov, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        formula(x, mean, cov)


def test_singular_start_is_not_ridged():
    data = np.random.default_rng(0).standard_normal((20, 2))
    start = MixtureModel(weights=[1.0], means=[[0.0, 0.0]], covariances=[[[1.0, 1.0], [1.0, 1.0]]])
    message = "^component 0 covariance is not positive definite$"
    with pytest.raises(SingularCovarianceError, match=message):
        em_refine(data, start)
    with pytest.raises(SingularCovarianceError, match=message):
        loo_refit_logliks(data, start)


def test_frozen_and_refit_deltas_agree_on_one_fit(three_blob_data):
    data, _ = three_blob_data
    model, labels, loglik = em_fit(data, 3, FitConfig(seed=1))
    frozen = subset_deltas(data, model, labels, loglik, mode="frozen")
    refit = subset_deltas(data, model, labels, loglik, mode="refit")
    assert frozen.shape == refit.shape == (data.shape[0],)
    # the two routes agree closely for well-separated clusters
    assert np.corrcoef(frozen, refit)[0, 1] > 0.99


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
    for field in (ref.shift, ref.scale, ref.alpha, ref.beta, ref.weight):
        assert field.shape == (2,) and not field.flags.writeable
    for g in range(2):
        n_g = stats.counts[g]
        p = data.shape[1]
        sign, logdet = np.linalg.slogdet(stats.covariances[g])
        assert sign > 0
        assert ref.alpha[g] == pytest.approx(p / 2.0)
        assert ref.beta[g] == pytest.approx((n_g - p - 1) / 2.0)
        assert ref.scale[g] == pytest.approx(2.0 * n_g / (n_g - 1.0) ** 2)
        assert ref.shift[g] == pytest.approx(
            -np.log(stats.weights[g]) + (p / 2.0) * np.log(2 * np.pi) + 0.5 * logdet
        )
        assert ref.weight[g] == pytest.approx(stats.weights[g])


def test_beta_reference_needs_enough_points_per_cluster():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((7, 4))
    labels = np.array([0, 0, 0, 0, 0, 1, 1])
    with pytest.raises(InsufficientPointsError,
                       match=r"^cluster 0 has 5 points; the beta reference needs more than 5$"):
        # both clusters have n_g <= p + 1 = 5; the first one is named
        beta_mixture_reference(cluster_stats(data, labels, 2))


VALID_FIELDS = dict(shift=[0.5, 2.0], scale=[0.1, 1.0], alpha=[1.0, 1.5],
                    beta=[30.0, 2.0], weight=[0.4, 0.6])


@pytest.mark.parametrize("changes, message", [
    ({"shift": [0.5, 2.0, 3.0]}, r"^reference fields must be 1-d and of one length, got shapes "
                                 r"shift \(3,\), scale \(2,\), alpha \(2,\), beta \(2,\), "
                                 r"weight \(2,\)$"),
    ({"alpha": [[1.0, 1.5]]}, r"^reference fields must be 1-d and of one length, .*alpha \(1, 2\)"),
    ({name: 1.0 for name in ("shift", "scale", "alpha", "beta", "weight")},
     r"^reference fields must be 1-d and of one length"),
    ({name: [] for name in ("shift", "scale", "alpha", "beta", "weight")},
     r"^reference mixture needs at least one component$"),
    ({"shift": [0.5, np.nan]}, r"^shift of component 1 is not finite \(nan\)$"),
    ({"shift": [-np.inf, 2.0]}, r"^shift of component 0 is not finite \(-inf\)$"),
    ({"scale": [np.inf, 1.0]}, r"^scale of component 0 is not finite \(inf\)$"),
    ({"beta": [30.0, np.nan]}, r"^beta of component 1 is not finite \(nan\)$"),
    ({"weight": [np.nan, 0.6]}, r"^weight of component 0 is not finite \(nan\)$"),
    ({"scale": [0.1, 0.0]}, r"^scale must be positive$"),
    ({"alpha": [-1.0, 1.5]}, r"^beta shape parameters must be positive$"),
    ({"beta": [30.0, 0.0]}, r"^beta shape parameters must be positive$"),
    ({"weight": [0.0, 1.0]}, r"^component weight must lie in \(0, 1\]$"),
    ({"weight": [1.5, -0.5]}, r"^component weight must lie in \(0, 1\]$"),
    ({"weight": [0.4, 0.5]}, r"^component weights must sum to 1 within 1e-12$"),
])
def test_reference_mixture_rejects_bad_fields(changes, message):
    with pytest.raises(ValueError, match=message):
        ReferenceMixture(**{**VALID_FIELDS, **changes})


def test_reference_fields_are_read_only_copies():
    fields = {name: np.array(values) for name, values in VALID_FIELDS.items()}
    ref = ReferenceMixture(**fields)
    fields["shift"][0] = np.nan
    assert ref.shift[0] == 0.5 and ref.support_lo == 0.5
    with pytest.raises(ValueError):
        ref.shift[0] = 7.0
    with pytest.raises(ValueError, match=r"^shift of component 0 is not finite \(nan\)$"):
        GammaReference(shift=[np.nan], shape=1.0)
    with pytest.raises(ValueError, match=r"^gamma shape must be positive$"):
        GammaReference(shift=[0.0], shape=0.0)


def test_reference_cdf_ppf_roundtrip():
    _, _, stats = reference_stats()
    ref = beta_mixture_reference(stats)
    for q in [0.01, 0.1, 0.5, 0.9, 0.99]:
        y = reference_mixture_ppf(q, ref)
        assert reference_mixture_cdf(y, ref) == pytest.approx(q, abs=1e-9)
    assert reference_mixture_cdf(ref.support_lo - 1.0, ref) == 0.0
    assert reference_mixture_cdf(ref.support_hi + 1.0, ref) == 1.0
    for q in (-0.1, 1.5, np.nan, [0.5, 2.0]):
        with pytest.raises(ValueError, match=r"^quantile level must lie in \[0, 1\]$"):
            reference_mixture_ppf(q, ref)


def random_reference(rng, weights, p):
    """A reference with the given weights and random shifts, scales and second shapes,
    drawn component by component."""
    shift, scale, beta = [], [], []
    for _ in weights:
        shift.append(float(rng.uniform(-5.0, 5.0)))
        scale.append(float(rng.uniform(0.01, 2.0)))
        beta.append(0.5 * int(rng.integers(2, 400)))
    return ReferenceMixture(shift=shift, scale=scale, alpha=np.full(len(weights), 0.5 * p),
                            beta=beta, weight=weights)


def sequential_cdf(y, ref):
    """The reference CDF as a running total over components, one at a time."""
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    for g in range(ref.weight.size):
        u = np.clip(ref.scale[g] * (y - ref.shift[g]), 0.0, 1.0)
        total = total + ref.weight[g] * betainc(ref.alpha[g], ref.beta[g], u)
    return total


@given(
    seed=st.integers(0, 10_000),
    n_comp=st.integers(1, 5),
    p=st.integers(1, 6),
    n_levels=st.integers(1, 40),
)
def test_cdf_equals_sequential_component_loop(seed, n_comp, p, n_levels):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_comp))
    weights[-1] = 1.0 - weights[:-1].sum()
    ref = random_reference(rng, weights, p)
    # levels inside the support, on either side of it and on its ends
    width = ref.support_hi - ref.support_lo
    y = np.concatenate([
        rng.uniform(ref.support_lo - 0.2 * width, ref.support_hi + 0.2 * width, n_levels),
        [ref.support_lo, ref.support_hi],
    ])
    assert np.array_equal(reference_mixture_cdf(y, ref), sequential_cdf(y, ref))
    assert np.array_equal(reference_mixture_cdf(y.reshape(-1, 1), ref),
                          sequential_cdf(y, ref).reshape(-1, 1))
    for level in y[:3]:
        one = reference_mixture_cdf(float(level), ref)
        assert isinstance(one, float) and one == sequential_cdf(level, ref)
        assert np.array_equal(reference_mixture_cdf([level], ref), [one])


def test_cdf_adds_many_components_in_order():
    # at 8 or more components a pairwise sum would reorder the additions
    rng = np.random.default_rng(5)
    for n_comp in (8, 9, 12):
        weights = rng.dirichlet(np.ones(n_comp))
        weights[-1] = 1.0 - weights[:-1].sum()
        ref = random_reference(rng, weights, 2)
        y = rng.uniform(ref.support_lo, ref.support_hi, 200)
        assert np.array_equal(reference_mixture_cdf(y, ref), sequential_cdf(y, ref))
        for level in y:
            assert reference_mixture_cdf(float(level), ref) == sequential_cdf(level, ref)
            assert reference_mixture_cdf([level], ref)[0] == sequential_cdf(level, ref)


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
    ref = random_reference(rng, weights, p)
    levels = np.concatenate([[0.0], np.arange(1, num_bins) / num_bins, [1.0]])
    expected = np.array([scalar_bisection_ppf(q, ref) for q in levels])
    assert np.array_equal(reference_mixture_ppf(levels, ref), expected)
    if np.all(np.diff(expected) > 0):
        assert np.array_equal(build_bins(ref, num_bins).edges, expected)
    scalar = reference_mixture_ppf(float(levels[1]), ref)
    assert isinstance(scalar, float) and scalar == expected[1]


@given(
    seed=st.integers(0, 10_000),
    n_comp=st.integers(1, 3),
    p=st.integers(1, 6),
    num_bins=st.integers(2, 40),
)
def test_cdf_bins_equal_bins_of_the_bisected_edges(seed, n_comp, p, num_bins):
    # oracle: searchsorted on the bisected edges, out-of-support values
    # clamped into the end bins; a value within the bisection tolerance of an
    # inner edge may land on either side of it and is exempt
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_comp))
    weights[-1] = 1.0 - weights[:-1].sum()
    ref = random_reference(rng, weights, p)
    bins = build_bins(ref, num_bins)
    try:
        edges = bins.edges
    except BinningError:
        assume(False)
    inner = edges[1:-1]
    tol = 1e-13 * np.maximum(1.0, np.abs(inner))
    values = np.concatenate([
        sample_reference(ref, 200, rng),
        rng.uniform(edges[0] - 1.0, edges[-1] + 1.0, size=50),
        edges, inner - 1e4 * tol, inner + 1e4 * tol,
    ])
    exempt = (np.abs(values[:, None] - inner) <= tol).any(axis=1)
    kept = values[~exempt]
    expected = np.clip(np.searchsorted(edges, kept, side="right") - 1, 0, num_bins - 1)
    assert np.array_equal(divergence._bin_index(kept, bins), expected)
    p_hat = np.bincount(expected, minlength=num_bins) / kept.size
    occupied = p_hat > 0.0
    est = kl_divergence(kept, bins)
    assert est.value == float((p_hat[occupied] * np.log(p_hat[occupied] / (1.0 / num_bins))).sum())
    assert est.clamped_count == int(((kept < edges[0]) | (kept > edges[-1])).sum())


def test_reference_samples_stay_in_support():
    _, _, stats = reference_stats()
    ref = beta_mixture_reference(stats)
    draws = sample_reference(ref, 5000, np.random.default_rng(12))
    assert draws.shape == (5000,)
    assert draws.min() >= ref.support_lo
    assert draws.max() <= ref.support_hi


def test_sample_reference_matches_scipy_stats_beta_ppf():
    # oracle: the same component picks and uniforms through scipy.stats.beta.ppf
    def stats_path(ref, size, rng):
        picks = rng.choice(ref.weight.size, size=size, p=ref.weight / ref.weight.sum())
        uniforms = rng.random(size)
        out = np.empty(size)
        for idx in range(ref.weight.size):
            mask = picks == idx
            if mask.any():
                u = beta_dist.ppf(uniforms[mask], ref.alpha[idx], ref.beta[idx])
                out[mask] = ref.shift[idx] + u / ref.scale[idx]
        return out

    _, _, stats = reference_stats()
    refs = [
        beta_mixture_reference(stats),
        ReferenceMixture(shift=[-1.0], scale=[0.01], alpha=[1.0], beta=[200.0], weight=[1.0]),
        ReferenceMixture(shift=[0.5, 2.0, 3.0], scale=[0.004, 0.1, 1.0], alpha=[1.5, 0.5, 1.0],
                         beta=[450.0, 30.0, 1.0], weight=[0.3, 0.5, 0.2]),
    ]
    for ref in refs:
        for seed in range(5):
            assert np.array_equal(
                sample_reference(ref, 4000, np.random.default_rng(seed)),
                stats_path(ref, 4000, np.random.default_rng(seed)),
            )


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
    for g in range(2):
        scaled = ref.scale[g] * (values[labels == g] - ref.shift[g])
        assert scaled.mean() == pytest.approx(p / (stats.counts[g] - 1.0), rel=1e-12)


def test_gamma_reference_matches_population_parameters():
    model = MixtureModel(
        weights=[0.25, 0.75],
        means=[[0.0, 0.0], [5.0, 5.0]],
        covariances=[np.eye(2), 2.0 * np.eye(2)],
    )
    ref = gamma_reference(model)
    assert ref.shift.shape == (2,) and not ref.shift.flags.writeable
    assert ref.shape == pytest.approx(1.0)  # p / 2 with p = 2
    for g in range(2):
        sign, logdet = np.linalg.slogdet(model.covariances[g])
        expected_shift = (
            -np.log(model.weights[g]) + np.log(2 * np.pi) + 0.5 * logdet
        )
        assert ref.shift[g] == pytest.approx(expected_shift, abs=1e-12)
