import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oclust import (
    DegenerateFitError,
    DeltaMode,
    FitConfig,
    KlEstimate,
    OclustConfig,
    SimModelSpec,
    classify_errors,
    em_fit,
    error_rates,
    gen_dataset,
    most_likely_outlier,
    oclust_run,
    outlier_mask,
)
from oclust import gmm, trim
from oclust.rng import derive_seed
from oclust.trim import default_max_outliers


@pytest.fixture(scope="module")
def contaminated_blobs():
    """Two unit-variance clusters plus five planted points well away from both."""
    rng = np.random.default_rng(42)
    good = np.vstack(
        [rng.standard_normal((60, 2)), rng.standard_normal((60, 2)) + [10.0, 0.0]]
    )
    planted = np.array(
        [[5.0, 8.0], [-6.0, -6.0], [16.0, 7.0], [5.0, -7.0], [-4.0, 6.0]]
    )
    data = np.vstack([good, planted])
    truth = np.zeros(data.shape[0], dtype=bool)
    truth[120:] = True
    return data, truth


def test_default_max_outliers():
    assert default_max_outliers(100) == 13
    assert default_max_outliers(8) == 1
    assert default_max_outliers(1000) == 125


def test_most_likely_outlier_argmax_and_ties():
    assert most_likely_outlier([1.0, 5.0, 3.0]) == 1
    assert most_likely_outlier([2.0, 7.0, 7.0]) == 1
    with pytest.raises(ValueError):
        most_likely_outlier([])


def test_most_likely_outlier_rejects_non_finite_values():
    with pytest.raises(ValueError, match="log-likelihood 1 is not finite"):
        most_likely_outlier([1.0, np.nan, 3.0])
    with pytest.raises(ValueError, match="log-likelihood 2 is not finite"):
        most_likely_outlier([1.0, 2.0, np.inf])


def test_trimming_recovers_planted_outliers(contaminated_blobs):
    data, truth = contaminated_blobs
    config = OclustConfig(n_clusters=2, max_outliers=12, fit=FitConfig(seed=1))
    result = oclust_run(data, config)
    # every planted point is flagged; at most one genuine tail point joins them
    assert set(result.outlier_indices) >= set(np.flatnonzero(truth))
    assert result.chosen_num_outliers <= truth.sum() + 1
    assert result.alpha_hat == pytest.approx(result.chosen_num_outliers / 125)
    good_as_out, out_as_good, mis = classify_errors(result, truth)
    assert out_as_good == 0.0
    assert mis <= 1 / 125


def test_trace_structure(contaminated_blobs):
    data, truth = contaminated_blobs
    config = OclustConfig(n_clusters=2, max_outliers=8, fit=FitConfig(seed=1))
    result = oclust_run(data, config)
    assert len(result.trace) == 9
    assert result.trace[0].removed_point is None
    for m, record in enumerate(result.trace):
        assert record.iteration == m
        assert np.isfinite(record.kl.value)
        assert np.isfinite(record.loglik)
    removed = [r.removed_point for r in result.trace[1:]]
    assert len(set(removed)) == len(removed)  # no row trimmed twice
    # the divergence at the chosen count is the global minimum of the trace
    kls = [r.kl.value for r in result.trace]
    assert kls[result.chosen_num_outliers] == min(kls)
    # planted outliers leave first
    assert set(removed[:5]) == set(np.flatnonzero(truth))


def test_retained_and_outliers_partition_rows(contaminated_blobs):
    data, _ = contaminated_blobs
    config = OclustConfig(n_clusters=2, max_outliers=8, fit=FitConfig(seed=1))
    result = oclust_run(data, config)
    together = np.sort(np.concatenate([result.retained_indices,
                                       np.array(result.outlier_indices, dtype=int)]))
    assert np.array_equal(together, np.arange(data.shape[0]))
    assert result.final_labels.shape == result.retained_indices.shape
    mask = outlier_mask(result)
    assert mask.sum() == result.chosen_num_outliers
    assert np.array_equal(np.flatnonzero(mask), np.sort(result.outlier_indices))


def _assert_is_iterations_fit(result, data, fit, iteration):
    """The result's model, labels and rows are a fresh fit of iteration
    ``iteration``'s rows with that iteration's seed, bit for bit."""
    retained = np.setdiff1d(np.arange(data.shape[0]), result.outlier_indices)
    model, labels, _ = em_fit(data[retained], result.final_model.n_components,
                              replace(fit, seed=derive_seed(fit.seed, 101, iteration)))
    assert result.chosen_num_outliers == iteration
    assert np.array_equal(result.retained_indices, retained)
    assert np.array_equal(result.final_labels, labels)
    for name in ("weights", "means", "covariances"):
        assert np.array_equal(getattr(result.final_model, name), getattr(model, name)), name
    assert result.final_model is result.trace[iteration].model


@pytest.mark.parametrize("mode", [DeltaMode.REFIT, DeltaMode.FROZEN])
def test_result_is_the_chosen_iterations_fit(contaminated_blobs, mode):
    data, _ = contaminated_blobs
    fit = FitConfig(seed=1)
    result = oclust_run(data, OclustConfig(n_clusters=2, max_outliers=8, fit=fit, delta_mode=mode))
    assert result.chosen_num_outliers >= 5
    _assert_is_iterations_fit(result, data, fit, result.chosen_num_outliers)


def test_tied_lowest_kl_keeps_the_earlier_iteration(contaminated_blobs, monkeypatch):
    # iterations 2 and 4 tie for the lowest KL; iteration 2's fit is the result
    values = iter([0.5, 0.3, 0.125, 0.25, 0.125, 0.4])

    def fixed_kl(deltas, bins):
        return KlEstimate(value=next(values), clamped_count=0)

    monkeypatch.setattr(trim, "kl_divergence", fixed_kl)
    data, _ = contaminated_blobs
    fit = FitConfig(seed=1)
    result = oclust_run(data, OclustConfig(n_clusters=2, max_outliers=5, fit=fit))
    assert [record.kl.value for record in result.trace] == [0.5, 0.3, 0.125, 0.25, 0.125, 0.4]
    _assert_is_iterations_fit(result, data, fit, 2)


def test_frozen_p6_run_survives_a_fit_with_a_small_cluster():
    # at iteration 71 of this run, the best of the plain fit's restarts holds
    # a 7-point cluster at p = 6, which the beta reference rejects; the
    # trimming fit discards such restarts, so the run completes
    ds = gen_dataset(SimModelSpec(model="III", n_good=900, n_outliers=100, p=6, seed=1068))
    config = OclustConfig(n_clusters=3, max_outliers=72, fit=FitConfig(seed=68),
                          delta_mode=DeltaMode.FROZEN)
    result = oclust_run(ds.data, config)
    assert len(result.trace) == 73
    assert np.bincount(result.final_labels).min() > 7


def test_run_is_deterministic(contaminated_blobs):
    data, _ = contaminated_blobs
    config = OclustConfig(n_clusters=2, max_outliers=6, fit=FitConfig(seed=9))
    a = oclust_run(data, config)
    b = oclust_run(data, config)
    assert a.outlier_indices == b.outlier_indices
    assert [r.kl.value for r in a.trace] == [r.kl.value for r in b.trace]
    assert np.array_equal(a.final_labels, b.final_labels)


def test_frozen_mode_agrees_on_obvious_outliers(contaminated_blobs):
    data, truth = contaminated_blobs
    config = OclustConfig(
        n_clusters=2, max_outliers=8, fit=FitConfig(seed=1), delta_mode=DeltaMode.FROZEN
    )
    result = oclust_run(data, config)
    assert set(result.outlier_indices) >= set(np.flatnonzero(truth)) or \
        set(result.outlier_indices) == set(np.flatnonzero(truth))
    assert result.chosen_num_outliers >= 5


def test_budget_validation(contaminated_blobs):
    data, _ = contaminated_blobs
    with pytest.raises(ValueError):
        oclust_run(data, OclustConfig(n_clusters=2, max_outliers=0))
    with pytest.raises(ValueError):
        # removing this many rows cannot leave an identifiable two-component fit
        oclust_run(data, OclustConfig(n_clusters=2, max_outliers=data.shape[0] - 8))


@pytest.mark.parametrize("max_outliers", [None, 1])
def test_too_few_rows_for_any_budget_name_the_minimum_row_count(max_outliers):
    # 30 rows cannot keep 8 clusters of p + 2 = 4 points and trim one more:
    # trimming needs 8 * 4 + 2 = 34 rows, whatever the budget
    data = np.random.default_rng(0).standard_normal((30, 2))
    with pytest.raises(ValueError, match=r"^n=30 rows are too few for n_clusters=8 at p=2; "
                                         r"trimming needs at least 34 rows$"):
        oclust_run(data, OclustConfig(n_clusters=8, max_outliers=max_outliers))
    # at 34 rows the one budget that fits is checked as before
    data = np.random.default_rng(0).standard_normal((34, 2))
    with pytest.raises(ValueError, match=r"^max_outliers=2 is outside \[1, 1\]"):
        oclust_run(data, OclustConfig(n_clusters=8, max_outliers=2))


def test_constant_column_is_named(contaminated_blobs):
    data, _ = contaminated_blobs
    flat = np.column_stack([data[:, 0], np.full(data.shape[0], 2.5), data[:, 1]])
    with pytest.raises(ValueError, match=r"feature column 1 is constant \(every value is 2\.5\)"):
        oclust_run(flat, OclustConfig(n_clusters=2, max_outliers=3))


def _three_blobs():
    rng = np.random.default_rng(0)
    return np.vstack([rng.standard_normal((40, 2)) + centre
                      for centre in ([0.0, 0.0], [6.0, 0.0], [0.0, 6.0])])


@pytest.mark.parametrize("scale, reason", [
    (1e160, "too wide"),  # r**2 overflows
    (1e153, "too wide"),  # r**2 is finite, 120 r**2 overflows
    (1e-160, "too narrow"),  # r**2 is below the smallest normal float
])
def test_column_of_extreme_scale_is_named_before_any_fit(scale, reason):
    data = _three_blobs()
    data[:, 1] *= scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing overflows on the way to the message
        with pytest.raises(ValueError, match=rf"^feature column 1 is {reason} \(range "):
            oclust_run(data, OclustConfig(n_clusters=3, max_outliers=5))


def test_columns_of_large_and_small_scale_trim_the_same_rows():
    data = _three_blobs()
    config = OclustConfig(n_clusters=3, max_outliers=5)
    for scale in [1.0, 1e150, 1e-150, 1e-153]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no subnormal distance overflows the seeding
            result = oclust_run(data * scale, config)
        assert list(result.outlier_indices) == [109, 119, 69, 34, 37], scale


@pytest.mark.parametrize("columns, named", [
    (lambda a, b, noise: (a, b, 2.0 * a + 1e-10 * noise), "0 and feature column 2"),
    (lambda a, b, noise: (a, b, a - b + 5.0), "0 and feature column 1 and feature column 2"),
], ids=["near-copy", "exact-sum"])
def test_affinely_dependent_columns_are_named_before_any_fit(columns, named):
    data = _three_blobs()
    noise = np.random.default_rng(1).standard_normal(data.shape[0])
    dependent = np.column_stack(columns(data[:, 0], data[:, 1], noise))
    with pytest.raises(ValueError, match=rf"^feature column {named} are affinely dependent \("):
        oclust_run(dependent, OclustConfig(n_clusters=3, max_outliers=5))


@pytest.mark.parametrize("mode", [DeltaMode.REFIT, DeltaMode.FROZEN])
def test_run_is_translation_invariant(mode):
    # adding 1e7 rounds the data themselves, so only the chosen rows are
    # compared, not the order in which they were removed
    data = gen_dataset(SimModelSpec(model="I", n_good=189, n_outliers=10, seed=5)).data
    config = OclustConfig(n_clusters=3, max_outliers=15, fit=FitConfig(seed=1), delta_mode=mode)
    expected = {*range(189, 196), 197, 198}
    for offset in [0.0, 1e7]:
        result = oclust_run(data + offset, config)
        assert result.chosen_num_outliers == 9, offset
        assert set(result.outlier_indices) == expected, offset


def test_tight_cluster_far_from_the_others_completes():
    # a cluster of spread 1e-6 at 1e4 from two unit clusters: EM centres the
    # features per component, so its covariance still factors; one feature
    # centre shared by every component (the data mean) loses its digits and
    # aborts these runs at iteration 0
    rng = np.random.default_rng(0)
    data = np.vstack([rng.normal(size=(80, 2)),
                      rng.normal(size=(80, 2)) * 1e-6 + 1e4,
                      rng.normal(size=(80, 2)) + [8.0, 0.0]])
    for seed in range(4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = oclust_run(data, OclustConfig(n_clusters=3, max_outliers=5,
                                                   fit=FitConfig(seed=seed)))
        assert len(result.trace) == 6 and result.chosen_num_outliers == 0, seed


def _two_clusters_and_a_speck(speck=((60.0, 60.0), (60.2, 60.0), (60.0, 60.2), (60.1, 60.1))):
    """Two real clusters of 12 points and a tight cluster, ``speck``."""
    rng = np.random.default_rng(0)
    return np.vstack([
        rng.standard_normal((12, 2)),
        rng.standard_normal((12, 2)) + 30.0,
        np.array(speck),
    ])


def test_degenerate_run_reports_partial_trace():
    # two real clusters but three requested: after enough removals a
    # component collapses; the error should carry the completed iterations
    data = _two_clusters_and_a_speck()
    config = OclustConfig(n_clusters=3, max_outliers=4, fit=FitConfig(seed=3),
                          delta_mode=DeltaMode.FROZEN)
    try:
        result = oclust_run(data, config)
    except DegenerateFitError as err:
        assert isinstance(err.partial_trace, list)
        assert all(hasattr(r, "kl") for r in err.partial_trace)
    else:
        # acceptable: the tiny cluster survived the budget
        assert len(result.trace) == 5


@pytest.mark.parametrize("case", ["completed", "aborted"])
def test_no_worker_thread_or_buffer_outlives_a_refit_run(monkeypatch, case):
    # each pass of a refit run ends its own pool, whether the run returns or
    # raises
    if case == "completed":
        rng = np.random.default_rng(34)
        data = np.vstack(
            [rng.standard_normal((100, 2)) * scale + center
             for scale, center in [(1.0, [0.0, 0.0]), (0.7, [7.0, 1.0]), (1.3, [2.0, 8.0])]]
            + [rng.uniform(-8.0, 15.0, (12, 2))]
        )  # 312 rows: two chunks per pass by the default rule
        config = OclustConfig(n_clusters=3, max_outliers=2, n_threads=2)
    else:
        # four points on a line and one off it: once the off-line point is
        # trimmed, a refit of the second pass fails
        data = _two_clusters_and_a_speck(
            ((60.0, 60.0), (60.1, 60.1), (60.2, 60.2), (60.3, 60.3), (60.0, 60.3)))
        config = OclustConfig(n_clusters=3, max_outliers=4, fit=FitConfig(seed=2), n_threads=2)
        # 29 rows make one chunk by the default rule; chunks of 7 give two groups
        monkeypatch.setattr(gmm, "_refit_cells", lambda n_components, n: 7 * n)
    names = set()

    # in the first pass each thread's first call waits at a barrier, which
    # times out unless a second thread is running, so one thread cannot take
    # both groups; later passes' helpers are new threads and do not wait
    sweeps, barrier = gmm._em_sweeps, threading.Barrier(2, timeout=30)

    def recording(*args, **kwargs):
        name = threading.current_thread().name
        if len(args) > 1 and name not in names:  # leave-one-out calls only, not em_fit's
            names.add(name)
            if len(names) <= 2:
                barrier.wait()
        return sweeps(*args, **kwargs)

    monkeypatch.setattr(gmm, "_em_sweeps", recording)
    before = threading.active_count()
    if case == "completed":
        assert len(oclust_run(data, config).trace) == 3
        assert len(names) == 4  # the caller and one new pool thread per pass
    else:
        with pytest.raises(DegenerateFitError, match="leave-one-out refit for row"):
            oclust_run(data, config)
    assert threading.active_count() == before
    assert threading.current_thread().name in names and len(names) > 1


def test_clean_data_reports_few_outliers():
    # null case: a single clean Gaussian cluster should keep the estimated
    # outlier share at or near zero in the large majority of seeds
    hits = 0
    for i in range(20):
        data = np.random.default_rng(100 + i).standard_normal((150, 2))
        config = OclustConfig(n_clusters=1, max_outliers=15, fit=FitConfig(seed=i))
        result = oclust_run(data, config)
        hits += result.alpha_hat <= 0.04
    assert hits >= 16


def test_run_is_row_permutation_equivariant(contaminated_blobs):
    data, _ = contaminated_blobs
    config = OclustConfig(n_clusters=2, max_outliers=6, fit=FitConfig(seed=9))
    base = oclust_run(data, config)
    perm = np.random.default_rng(7).permutation(data.shape[0])
    permuted = oclust_run(data[perm], config)
    mapped = {int(perm[k]) for k in permuted.outlier_indices}
    assert permuted.chosen_num_outliers == base.chosen_num_outliers
    assert mapped == set(base.outlier_indices)


def test_error_rates_closed_form():
    pred = np.array([True, True, False, False, False])
    truth = np.array([True, False, True, False, False])
    good_as_out, out_as_good, mis = error_rates(pred, truth)
    assert good_as_out == pytest.approx(1 / 3)
    assert out_as_good == pytest.approx(1 / 2)
    assert mis == pytest.approx(2 / 5)
    assert error_rates(np.zeros(4, bool), np.zeros(4, bool)) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        error_rates([True], [True, False])


@pytest.mark.parametrize("threads", [0, -4])
def test_nonpositive_threads_are_rejected(threads):
    with pytest.raises(ValueError, match=rf"n_threads must be >= 1, got {threads}"):
        OclustConfig(n_clusters=2, n_threads=threads)


def test_delta_mode_is_checked_when_the_config_is_built():
    assert OclustConfig(n_clusters=2, delta_mode="frozen").delta_mode is DeltaMode.FROZEN
    with pytest.raises(ValueError, match="'bogus' is not a valid DeltaMode"):
        OclustConfig(n_clusters=2, delta_mode="bogus")


@pytest.mark.parametrize("mode", [DeltaMode.REFIT, DeltaMode.FROZEN])
@pytest.mark.parametrize("case", ["good-row", "outlier-row", "random-rows"])
def test_duplicate_rows_finish(mode, case):
    # 30 of 150 rows become duplicates: copies of one good row, copies of one
    # outlier row, or copies of other rows drawn at random
    ds = gen_dataset(SimModelSpec(model="I", n_good=141, n_outliers=9, seed=3))
    data = ds.data.copy()
    rng = np.random.default_rng(11)
    if case == "random-rows":
        targets = rng.choice(150, 30, replace=False)
        data[targets] = data[rng.choice(np.setdiff1d(np.arange(150), targets), 30)]
    else:
        source = np.flatnonzero(ds.outlier_mask == (case == "outlier-row"))[0]
        data[rng.choice(np.setdiff1d(np.arange(150), [source]), 30, replace=False)] = data[source]
    config = OclustConfig(n_clusters=3, max_outliers=15, fit=FitConfig(seed=1), delta_mode=mode)
    result = oclust_run(data, config)
    removed = [record.removed_point for record in result.trace[1:]]
    assert len(result.trace) == 16
    assert len(set(removed)) == 15
    assert result.chosen_num_outliers <= 15
