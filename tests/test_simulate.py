import numpy as np
import pytest
from scipy.stats import chi2

import oclust.simulate as simulate
from oclust import (
    GenerationStallError,
    SimModelSpec,
    gen_dataset,
    separation_experiment,
    separation_index_pairwise,
    separation_index_univariate,
)
from oclust.simulate import (
    MODEL_SHAPES,
    cluster_means,
    model_covariances,
)


def test_cluster_means_layout():
    means = cluster_means(2)
    assert means.tolist() == [[0.0, 8.0], [8.0, 0.0], [-8.0, -8.0]]
    means5 = cluster_means(5)
    assert means5.shape == (3, 5)
    assert np.array_equal(means5[:, :2], means)
    assert np.all(means5[:, 2:] == 0.0)
    with pytest.raises(ValueError, match=r"^benchmark clusters need dimension >= 2$"):
        cluster_means(1)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_separation_experiment_rejects_dimension_below_two(p):
    with pytest.raises(ValueError, match=r"^benchmark clusters need dimension >= 2$"):
        separation_experiment(p, 0.0, 1, 0)


def test_separation_experiment_rejects_a_negative_seed_naming_it():
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
        separation_experiment(2, 0.3, 1, -1)


@pytest.mark.parametrize("target, replicates, message", [
    (1.0, 1, r"^target separation must lie in \(-1, 1\)$"),
    (-1.0, 1, r"^target separation must lie in \(-1, 1\)$"),
    (0.3, 0, "^need at least one replicate$"),
])
def test_separation_experiment_rejects_bad_targets_and_replicates(target, replicates, message):
    with pytest.raises(ValueError, match=message):
        separation_experiment(2, target, replicates, 0)


def test_calibration_stalls_below_the_separation_at_zero_spacing():
    # clusters already apart at spacing 0 separate by 0.67, so the bisection
    # shrinks the spacing towards 0 and never comes within 0.02 of target 0
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(3), 20)
    directions = simulate._mean_directions(2, rng)
    deviates = rng.standard_normal((60, 2)) + 10.0 * directions[labels]
    with pytest.raises(ValueError, match=r"^calibration stalled at separation 0\.6667 for "
                                         r"target 0\.0$"):
        simulate._calibrate_scale(deviates, directions, labels, 0.0)


@pytest.mark.parametrize("model", sorted(MODEL_SHAPES))
def test_model_covariances_are_valid(model):
    covs = model_covariances(model, 4)
    assert covs.shape == (3, 4, 4)
    for cov in covs:
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > 0
        # embedding coordinates beyond the first two stay standard normal
        assert np.array_equal(cov[2:, 2:], np.eye(2))
    a, b, c, d, e, f = MODEL_SHAPES[model]
    assert covs[0][1, 1] == a
    assert covs[1][0, 0] == b and covs[1][1, 1] == c
    assert covs[2][:2, :2].tolist() == [[d, e], [e, f]]


def test_spec_validation():
    with pytest.raises(ValueError):
        SimModelSpec(model="X", n_good=300, n_outliers=10)
    with pytest.raises(ValueError):
        SimModelSpec(model="I", n_good=100, n_outliers=10)  # not divisible by 3
    with pytest.raises(ValueError):
        SimModelSpec(model="I", n_good=301, n_outliers=10, proportions="unequal")
    with pytest.raises(ValueError):
        SimModelSpec(model="I", n_good=300, n_outliers=-1)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -5$"):
        SimModelSpec(model="I", n_good=300, n_outliers=10, seed=-5)
    with pytest.raises(ValueError, match="^unknown proportion scheme 'skewed'$"):
        SimModelSpec(model="I", n_good=300, n_outliers=10, proportions="skewed")
    with pytest.raises(ValueError, match="^need at least one good point per cluster$"):
        SimModelSpec(model="I", n_good=0, n_outliers=10)
    with pytest.raises(ValueError, match="^unknown model 'VI'; choose from "):
        model_covariances("VI", 2)


def test_gen_dataset_shapes_and_truth():
    spec = SimModelSpec(model="II", n_good=300, n_outliers=30, seed=7)
    ds = gen_dataset(spec)
    assert ds.data.shape == (330, 2)
    assert ds.true_labels.shape == (330,)
    assert ds.outlier_mask.sum() == 30
    assert np.array_equal(ds.outlier_mask, ds.true_labels == 0)
    counts = np.bincount(ds.true_labels)
    assert counts.tolist() == [30, 100, 100, 100]
    assert ds.means.shape == (3, 2) and ds.covariances.shape == (3, 2, 2)


def test_gen_dataset_unequal_proportions():
    ds = gen_dataset(SimModelSpec(model="I", n_good=500, n_outliers=0,
                                  proportions="unequal", seed=1))
    counts = np.bincount(ds.true_labels)[1:]
    assert counts.tolist() == [100, 200, 200]


def test_outliers_are_far_from_every_cluster_and_inside_box():
    spec = SimModelSpec(model="IV", n_good=300, n_outliers=40, seed=3)
    ds = gen_dataset(spec)
    good = ds.data[~ds.outlier_mask]
    out = ds.data[ds.outlier_mask]
    assert np.all(out >= good.min(axis=0) - 1e-12)
    assert np.all(out <= good.max(axis=0) + 1e-12)
    threshold = chi2.ppf(0.995, spec.p)
    for x in out:
        d2 = [
            (x - ds.means[g]) @ np.linalg.solve(ds.covariances[g], x - ds.means[g])
            for g in range(3)
        ]
        assert min(d2) > threshold


def test_gen_dataset_deterministic_and_seed_sensitive():
    spec = SimModelSpec(model="III", n_good=150, n_outliers=15, seed=11)
    a = gen_dataset(spec)
    b = gen_dataset(spec)
    assert np.array_equal(a.data, b.data)
    c = gen_dataset(SimModelSpec(model="III", n_good=150, n_outliers=15, seed=12))
    assert not np.array_equal(a.data, c.data)


def test_outlier_substreams_are_independent():
    # outlier i has its own random substream, so asking for fewer outliers
    # reproduces a prefix of the larger request
    big = gen_dataset(SimModelSpec(model="I", n_good=150, n_outliers=20, seed=5))
    small = gen_dataset(SimModelSpec(model="I", n_good=150, n_outliers=5, seed=5))
    assert np.array_equal(big.data[150:155], small.data[150:155])


def test_generation_stall_raises(monkeypatch):
    # force the rejection step to never accept a candidate
    monkeypatch.setattr(
        simulate,
        "_min_mahalanobis_sq",
        lambda points, means, inv_chols: np.zeros(points.shape[0]),
    )
    with pytest.raises(GenerationStallError):
        gen_dataset(SimModelSpec(model="I", n_good=30, n_outliers=1, seed=0))


def test_higher_dimension_embedding():
    ds = gen_dataset(SimModelSpec(model="V", n_good=150, n_outliers=10, p=6, seed=2))
    assert ds.data.shape == (160, 6)
    # the extra coordinates of good points are standard normal around zero
    extra = ds.data[~ds.outlier_mask][:, 2:]
    assert abs(extra.mean()) < 0.15
    assert abs(extra.std() - 1.0) < 0.1


# ---------------------------------------------------------------------------
# separation index
# ---------------------------------------------------------------------------


def test_univariate_separation_known_values():
    a = np.linspace(0.0, 1.0, 101)
    b = np.linspace(3.0, 4.0, 101)
    # exact quantiles: gap = 3 - 0.975 - 0.025 ... compute directly
    lo_a, hi_a = np.quantile(a, [0.025, 0.975])
    lo_b, hi_b = np.quantile(b, [0.025, 0.975])
    expected = (lo_b - hi_a) / (hi_b - lo_a)
    assert separation_index_univariate(a, b) == pytest.approx(expected, abs=1e-12)
    # order of arguments does not matter
    assert separation_index_univariate(b, a) == pytest.approx(expected, abs=1e-12)


def test_univariate_separation_sign_convention():
    # for unit-variance normals with mean gap d the index is roughly
    # (d - 3.92) / (d + 3.92): positive once the alpha-quantile ranges separate
    rng = np.random.default_rng(0)
    far = separation_index_univariate(rng.normal(0, 1, 400), rng.normal(30, 1, 400))
    touching = separation_index_univariate(rng.normal(0, 1, 400), rng.normal(3.9, 1, 400))
    overlapping = separation_index_univariate(rng.normal(0, 1, 400), rng.normal(1, 1, 400))
    assert far > 0.6
    assert abs(touching) < 0.15
    assert overlapping < -0.3
    assert far < 1.0


def test_univariate_separation_validation():
    with pytest.raises(ValueError):
        separation_index_univariate([1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        separation_index_univariate([1.0, 1.0], [1.0, 1.0])


def test_pairwise_separation_orders_datasets():
    rng = np.random.default_rng(8)
    labels = np.repeat([0, 1, 2], 200)
    spread = np.vstack([rng.standard_normal((200, 3)) + 12.0 * np.eye(3)[g] for g in range(3)])
    tight = np.vstack([rng.standard_normal((200, 3)) + 4.0 * np.eye(3)[g] for g in range(3)])
    assert separation_index_pairwise(spread, labels) > separation_index_pairwise(tight, labels)


def test_pairwise_separation_picks_discriminating_direction():
    # clusters separated along x only while y is 40x noisier; projecting on
    # any direction with much y weight would give a strongly negative index
    rng = np.random.default_rng(1)
    a = rng.standard_normal((300, 2)) * [1.0, 40.0]
    b = a + [9.0, 0.0]
    data = np.vstack([a, b])
    labels = np.repeat([0, 1], 300)
    value = separation_index_pairwise(data, labels)
    assert value > 0.3
    projected_on_noise = separation_index_univariate(a[:, 1], b[:, 1])
    assert projected_on_noise < 0.0
    assert value > projected_on_noise + 1.0


def test_pairwise_separation_is_best_of_mean_difference_and_discriminant():
    # oracle: each pair's index is the larger of its values along the mean
    # difference delta and the linear discriminant pooled^-1 delta (pooled
    # with no ridge), and the clustering takes the worst pair
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = 2 + seed % 5
        covs = simulate._random_covariances(p, rng)
        means = rng.normal(scale=4.0, size=(3, p))
        sizes = [60, 80, 100]
        data = np.vstack([rng.multivariate_normal(means[g], covs[g], size=sizes[g])
                          for g in range(3)])
        labels = np.repeat(np.arange(3), sizes)
        pair_values = []
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            a, b = data[labels == i], data[labels == j]
            delta = b.mean(axis=0) - a.mean(axis=0)
            pooled = ((len(a) - 1) * np.cov(a.T) + (len(b) - 1) * np.cov(b.T)) / (
                len(a) + len(b) - 2)
            lda = np.linalg.solve(pooled, delta)
            pair_values.append(max(
                separation_index_univariate(a @ u, b @ u)
                for u in (delta / np.linalg.norm(delta), lda / np.linalg.norm(lda))
            ))
        assert separation_index_pairwise(data, labels) == pytest.approx(
            min(pair_values), rel=1e-12)


def test_pairwise_separation_names_a_singular_pooled_covariance():
    # two clusters on one line: their pooled covariance is exactly singular,
    # so the discriminant is undefined and is not ridged into one
    a = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="^the pooled covariance of a cluster pair is singular"):
        separation_index_pairwise(np.vstack([a, a + 5.0]), [0, 0, 0, 1, 1, 1])


def test_pairwise_separation_needs_two_clusters():
    with pytest.raises(ValueError):
        separation_index_pairwise(np.zeros((5, 2)), np.zeros(5, dtype=int))
