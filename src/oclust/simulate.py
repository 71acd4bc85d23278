"""Synthetic three-cluster benchmarks with gross outliers, plus cluster
separation measurement.

The benchmark family places three Gaussian clusters at fixed centers and
varies their covariances through five named shape settings (``I`` through
``V``, from spherical and well separated to strongly elliptical and
overlapping).  Outliers are drawn uniformly over the bounding box of the good
points and accepted only when they are far (in Mahalanobis distance) from
every cluster, so they are gross outliers by construction.  "Far" is a
squared distance above the 0.995 quantile of chi-squared with p degrees of
freedom, taken as 2 * gammaincinv(p / 2, 0.995): the chi-squared quantile at
level q is twice the inverse in x of gammainc(p/2, x), the lower incomplete
gamma function divided by Gamma(p/2).

Separation between two clusters is summarized by the gap/spread ratio

    J = (L2 - U1) / (U2 - L1)

of the clusters' projected samples (cluster 1 has the lower projected mean;
L and U are the alpha/2 and 1 - alpha/2 sample quantiles, alpha = 0.05).  J
approaches 1 for widely separated clusters, is near 0 when they just touch,
and is negative when they overlap.  For multivariate data the index of a
pair is the larger of its values along two projection directions, the mean
difference and the linear discriminant, and the index of a clustering is the
minimum over cluster pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .errors import GenerationStallError
from .gmm import FitConfig, approx_log_likelihood, em_fit
from .rng import check_seed, derive_seed, substream

#: Covariance shape parameters (a, b, c, d, e, f) for the five model settings.
MODEL_SHAPES = {
    "I": (1.0, 1.0, 1.0, 1.0, 0.0, 1.0),
    "II": (5.0, 1.0, 5.0, 1.0, 0.0, 5.0),
    "III": (5.0, 5.0, 1.0, 3.0, -2.0, 3.0),
    "IV": (1.0, 20.0, 5.0, 15.0, -10.0, 15.0),
    "V": (1.0, 45.0, 30.0, 15.0, -10.0, 15.0),
}

#: Mixing proportions by scheme name.
PROPORTION_SCHEMES = {
    "equal": (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    "unequal": (0.2, 0.4, 0.4),
}

_ALPHA = 0.05  # the separation index reads the alpha/2 and 1 - alpha/2 quantiles

_STALL_BUDGET = 1_000_000
_STALL_RATE = 1e-4


def _check_dim(p: int) -> None:
    if p < 2:
        raise ValueError("benchmark clusters need dimension >= 2")


def cluster_means(p: int) -> np.ndarray:
    """Centers of the three benchmark clusters, embedded in dimension p >= 2."""
    _check_dim(p)
    means = np.zeros((3, p))
    means[0, 1] = 8.0
    means[1, 0] = 8.0
    means[2, 0] = means[2, 1] = -8.0
    return means


def model_covariances(model: str, p: int) -> np.ndarray:
    """Covariances of the three benchmark clusters for a named shape setting.

    The first two coordinates carry the shape parameters; any remaining
    coordinates are unit variance and uncorrelated.
    """
    if model not in MODEL_SHAPES:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(MODEL_SHAPES)}")
    _check_dim(p)
    a, b, c, d, e, f = MODEL_SHAPES[model]
    covs = np.tile(np.eye(p), (3, 1, 1))
    covs[0, 1, 1] = a
    covs[1, 0, 0] = b
    covs[1, 1, 1] = c
    covs[2, :2, :2] = [[d, e], [e, f]]
    return covs


@dataclass(frozen=True)
class SimModelSpec:
    """Recipe for one synthetic dataset."""

    model: str
    n_good: int
    n_outliers: int
    p: int = 2
    proportions: str = "equal"
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_SHAPES:
            raise ValueError(f"unknown model {self.model!r}")
        if self.proportions not in PROPORTION_SCHEMES:
            raise ValueError(f"unknown proportion scheme {self.proportions!r}")
        if self.n_good < 3:
            raise ValueError("need at least one good point per cluster")
        if self.n_outliers < 0:
            raise ValueError("n_outliers must be nonnegative")
        check_seed(self.seed)
        divisor = 3 if self.proportions == "equal" else 5
        if self.n_good % divisor:
            raise ValueError(
                f"n_good={self.n_good} is not divisible by {divisor} as required "
                f"by the {self.proportions!r} proportions"
            )


@dataclass(frozen=True)
class SimDataset:
    """A generated dataset plus its ground truth.

    ``true_labels`` holds 1, 2 or 3 for good points and 0 for outliers;
    ``outlier_mask`` flags the outlier rows.  The generating parameters are
    kept for downstream checks.
    """

    data: np.ndarray
    true_labels: np.ndarray
    outlier_mask: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    spec: SimModelSpec


def _min_mahalanobis_sq(points: np.ndarray, means: np.ndarray,
                        inv_chols: np.ndarray) -> np.ndarray:
    """Smallest squared Mahalanobis distance of each point to any cluster."""
    best = np.full(points.shape[0], np.inf)
    for g in range(means.shape[0]):
        z = (points - means[g]) @ inv_chols[g].T
        best = np.minimum(best, (z * z).sum(axis=1))
    return best


def gen_dataset(spec: SimModelSpec) -> SimDataset:
    """Generate a benchmark dataset.

    Good points come first (cluster by cluster), then the outliers.  All
    randomness derives from ``spec.seed``; clusters and individual outliers
    use independent substreams, so each outlier's value does not depend on
    how many draws its predecessors needed.  Raises ``GenerationStallError``
    if outlier rejection accepts fewer than 1 in 10^4 candidates across a
    10^6-draw budget.
    """
    means = cluster_means(spec.p)
    covs = model_covariances(spec.model, spec.p)
    weights = np.array(PROPORTION_SCHEMES[spec.proportions])
    counts = np.round(weights * spec.n_good).astype(int)
    counts[-1] = spec.n_good - counts[:-1].sum()
    chols = np.linalg.cholesky(covs)

    blocks = []
    labels = []
    for g in range(3):
        draws = substream(spec.seed, 1, g).standard_normal((counts[g], spec.p))
        blocks.append(means[g] + draws @ chols[g].T)
        labels.append(np.full(counts[g], g + 1, dtype=int))
    good = np.vstack(blocks)

    box_lo = good.min(axis=0)
    box_hi = good.max(axis=0)
    threshold = float(2.0 * gammaincinv(0.5 * spec.p, 0.995))
    inv_chols = np.stack([np.linalg.inv(chols[g]) for g in range(3)])

    outliers = np.empty((spec.n_outliers, spec.p))
    total_draws = 0
    total_accepted = 0
    for i in range(spec.n_outliers):
        rng = substream(spec.seed, 2, i)
        accepted = None
        while accepted is None:
            candidates = box_lo + rng.random((64, spec.p)) * (box_hi - box_lo)
            far = _min_mahalanobis_sq(candidates, means, inv_chols) > threshold
            total_draws += candidates.shape[0]
            hits = np.flatnonzero(far)
            if hits.size:
                accepted = candidates[hits[0]]
                total_accepted += 1
            elif total_draws >= _STALL_BUDGET and (
                total_accepted / total_draws
            ) < _STALL_RATE:
                raise GenerationStallError(
                    f"outlier acceptance rate {total_accepted}/{total_draws} "
                    f"fell below {_STALL_RATE} for model {spec.model}, p={spec.p}"
                )
        outliers[i] = accepted

    data = np.vstack([good, outliers]) if spec.n_outliers else good
    true_labels = np.concatenate([np.concatenate(labels), np.zeros(spec.n_outliers, dtype=int)])
    outlier_mask = np.concatenate(
        [np.zeros(spec.n_good, dtype=bool), np.ones(spec.n_outliers, dtype=bool)]
    )
    return SimDataset(
        data=data,
        true_labels=true_labels,
        outlier_mask=outlier_mask,
        weights=weights,
        means=means,
        covariances=covs,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# Separation index
# ---------------------------------------------------------------------------


def separation_index_univariate(sample_a, sample_b) -> float:
    """Gap/spread separation of two univariate samples.

    The lower-mean sample plays the role of cluster 1.  Raises ``ValueError``
    when the outer quantile spread is degenerate (all points equal).
    """
    a = np.asarray(sample_a, dtype=float).reshape(-1)
    b = np.asarray(sample_b, dtype=float).reshape(-1)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least two points per sample")
    if a.mean() > b.mean():
        a, b = b, a
    lo_a, hi_a = np.quantile(a, [_ALPHA / 2.0, 1.0 - _ALPHA / 2.0])
    lo_b, hi_b = np.quantile(b, [_ALPHA / 2.0, 1.0 - _ALPHA / 2.0])
    spread = hi_b - lo_a
    if spread <= 0.0:
        raise ValueError("degenerate samples: outer quantile spread is not positive")
    return float((lo_b - hi_a) / spread)


def _pair_directions(block_a: np.ndarray, block_b: np.ndarray) -> list[np.ndarray]:
    """Unit projection directions that discriminate two clusters: the mean
    difference delta and the linear discriminant pooled^-1 delta.  A pooled
    covariance that is exactly singular raises ``ValueError``."""
    mean_a = block_a.mean(axis=0)
    mean_b = block_b.mean(axis=0)
    delta = mean_b - mean_a
    n_a, n_b = block_a.shape[0], block_b.shape[0]
    cov_a = np.atleast_2d(np.cov(block_a, rowvar=False, ddof=1))
    cov_b = np.atleast_2d(np.cov(block_b, rowvar=False, ddof=1))
    pooled = ((n_a - 1) * cov_a + (n_b - 1) * cov_b) / (n_a + n_b - 2)
    directions = []
    norm = np.linalg.norm(delta)
    if norm > 0:
        directions.append(delta / norm)
    try:
        whitened = np.linalg.solve(pooled, delta)
    except np.linalg.LinAlgError as exc:
        raise ValueError("the pooled covariance of a cluster pair is singular; its linear "
                         "discriminant is undefined") from exc
    norm = np.linalg.norm(whitened)
    if norm > 0:
        directions.append(whitened / norm)
    return directions


def separation_index_pairwise(data, labels) -> float:
    """Separation of a labeled multivariate clustering.

    Each cluster pair takes the best (largest) univariate index over its
    candidate projection directions; the clustering's index is the worst
    (smallest) pair value.
    """
    arr = np.asarray(data, dtype=float)
    lab = np.asarray(labels, dtype=int)
    uniq = np.unique(lab)
    if uniq.size < 2:
        raise ValueError("need at least two clusters")
    worst = np.inf
    for i in range(uniq.size):
        for j in range(i + 1, uniq.size):
            block_a = arr[lab == uniq[i]]
            block_b = arr[lab == uniq[j]]
            best = -np.inf
            for direction in _pair_directions(block_a, block_b):
                value = separation_index_univariate(block_a @ direction, block_b @ direction)
                best = max(best, value)
            worst = min(worst, best)
    return float(worst)


# ---------------------------------------------------------------------------
# Separation experiment: hard-assignment likelihood gap vs separation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    """Mean relative gap between hard-assignment and mixture log-likelihoods
    on datasets calibrated to a target separation index."""

    target: float
    achieved: float
    relative_gap: float
    replicates: int


def _random_rotation(p: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal (p, p) matrix: the Q of a QR of a Gaussian draw, its
    column signs fixed by diag(R)."""
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def _random_covariances(p: int, rng: np.random.Generator, n_clusters: int = 3) -> np.ndarray:
    """Random covariances: eigenvalues uniform on [0.1, 10], random orthogonal axes."""
    covs = np.empty((n_clusters, p, p))
    for g in range(n_clusters):
        eigvals = rng.uniform(0.1, 10.0, size=p)
        q = _random_rotation(p, rng)
        covs[g] = (q * eigvals) @ q.T
    return covs


def _mean_directions(p: int, rng: np.random.Generator) -> np.ndarray:
    """Three unit vectors at equilateral-triangle angles, randomly rotated."""
    base = np.zeros((3, p))
    base[0, :2] = (1.0, 0.0)
    base[1, :2] = (-0.5, np.sqrt(3.0) / 2.0)
    base[2, :2] = (-0.5, -np.sqrt(3.0) / 2.0)
    return base @ _random_rotation(p, rng).T


def _calibrate_scale(deviates, directions, labels, target: float):
    """Bisect the center spacing until the achieved separation hits the target.

    ``deviates`` are the fixed zero-mean cluster samples; scaling moves only
    the centers.  The upper end of the bracket starts at 8 and doubles up to
    12 times; at most 60 bisections follow, stopping within 0.01 of the
    target.  Returns (scale, achieved index) for the closest spacing seen.
    Raises ``ValueError`` if no bracket can be found or the closest index is
    more than 0.02 from the target.
    """

    def achieved(scale: float) -> float:
        points = deviates + scale * directions[labels]
        return separation_index_pairwise(points, labels)

    lo, hi = 0.0, 8.0
    value_hi = achieved(hi)
    expansions = 0
    while value_hi < target and expansions < 12:
        hi *= 2.0
        value_hi = achieved(hi)
        expansions += 1
    if value_hi < target:
        raise ValueError(f"could not bracket separation target {target}")
    best_scale, best_value = hi, value_hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        value = achieved(mid)
        if abs(value - target) < abs(best_value - target):
            best_scale, best_value = mid, value
        if abs(value - target) <= 0.01:
            break
        if value < target:
            lo = mid
        else:
            hi = mid
    if abs(best_value - target) > 0.02:
        raise ValueError(
            f"calibration stalled at separation {best_value:.4f} for target {target}"
        )
    return best_scale, best_value


def separation_experiment(p: int, target: float, replicates: int, seed: int) -> SeparationReport:
    """Measure how the hard-assignment likelihood gap depends on separation.

    Each replicate draws three random-covariance clusters of 600 points,
    scales their center spacing until the pairwise separation index (at
    alpha = 0.05) matches ``target`` (within 0.02), fits a three-component
    mixture (two restarts, ``rel_tol`` 1e-7), and records the relative gap
    between the hard-assignment and mixture log-likelihoods.  Replicates
    whose calibration fails are skipped; at least one must succeed.
    """
    check_seed(seed)
    _check_dim(p)
    if not -1.0 < target < 1.0:
        raise ValueError("target separation must lie in (-1, 1)")
    if replicates < 1:
        raise ValueError("need at least one replicate")
    n_per_cluster = 600
    labels = np.repeat(np.arange(3), n_per_cluster)
    gaps = []
    achieved_values = []
    for r in range(replicates):
        rng = substream(seed, 3, r)
        covs = _random_covariances(p, rng)
        directions = _mean_directions(p, rng)
        chols = np.linalg.cholesky(covs)
        raw = rng.standard_normal((3, n_per_cluster, p))
        deviates = np.concatenate([raw[g] @ chols[g].T for g in range(3)])
        try:
            scale, value = _calibrate_scale(deviates, directions, labels, target)
        except ValueError:
            continue
        points = deviates + scale * directions[labels]
        fit = FitConfig(restarts=2, rel_tol=1e-7, seed=derive_seed(seed, 4, r))
        model, hard, loglik = em_fit(points, 3, fit)
        hard_ll = approx_log_likelihood(points, model, hard)
        gaps.append((hard_ll - loglik) / loglik)
        achieved_values.append(value)
    if not gaps:
        raise ValueError(f"no replicate achieved separation target {target}")
    return SeparationReport(
        target=target,
        achieved=float(np.mean(achieved_values)),
        relative_gap=float(np.mean(gaps)),
        replicates=len(gaps),
    )
