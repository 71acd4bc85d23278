"""Leave-one-out (subset) log-likelihoods and their reference distributions.

For a fitted mixture with hard clusters, removing one point x_j from cluster h
changes the hard-assignment log-likelihood by a closed-form amount

    delta(x_j) = -log(pi_h) + (p/2) log(2*pi) + (1/2) log det(S_h)
                 + (1/2) (x_j - xbar_h)' S_h^{-1} (x_j - xbar_h),

when the parameters are held fixed.  Under a Gaussian cluster the shifted,
scaled delta

    (2 n_h / (n_h - 1)^2) * (delta - c_h),   c_h = -log(pi_h)
        + (p/2) log(2*pi) + (1/2) log det(S_h)

follows a Beta(p/2, (n_h - p - 1)/2) law when sample statistics are used, and
(delta - c_h) follows a Gamma(p/2, 1) law when the population parameters are
used.  Across clusters the deltas therefore follow a mixture of shifted,
scaled beta densities weighted by the cluster proportions; that mixture is the
reference distribution the trimming loop compares against.

Two ways of producing empirical deltas are provided:

* ``refit``: each leave-one-out subset gets its own EM refinement
  (warm-started from the full-data fit) and the delta is the difference of
  true mixture log-likelihoods.  All n refits run as one vectorized batch.
* ``frozen``: the closed-form delta above, with full-data statistics.

The refits run in the EM loop of ``gmm``, the one that also runs the single
fit.  Its warm start (features centred on the full-fit means and the first
E-step on all n rows) is built once per call and shared read-only by every
chunk and thread.  A refit is held to the single fit's rules: the same
convergence test, and a ``DegenerateFitError`` naming row j when the refit
without row j lowers its log-likelihood on a sweep that needed no ridge.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betainc, gammaln

from .errors import InsufficientPointsError
from .gmm import (
    LOG_2PI,
    ClusterStats,
    FitConfig,
    MixtureModel,
    _em_start,
    _em_sweeps,
    _factor_covariances,
    _weighted_log_densities,
    cluster_stats,
    em_fit,
    validate_data,
)


class DeltaMode(str, Enum):
    """How empirical subset deltas are produced."""

    REFIT = "refit"
    FROZEN = "frozen"


class DowndateVariant(str, Enum):
    """Rule for removing one point from running mean/covariance statistics."""

    EXACT = "exact"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class SubsetDeltaSet:
    """Leave-one-out deltas for every row of a dataset.

    ``values[j]`` is the subset log-likelihood minus the full-data
    log-likelihood when row j is removed; ``source_labels[j]`` is the hard
    cluster of row j in the full-data fit.
    """

    values: np.ndarray
    source_labels: np.ndarray
    mode: DeltaMode

    def __post_init__(self):
        if self.values.shape != self.source_labels.shape:
            raise ValueError("values and source_labels must align")


def mahalanobis_sq(x, mean, cov) -> float:
    """Squared Mahalanobis distance of a point from a center."""
    x = np.asarray(x, dtype=float).reshape(-1)
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if mean.shape[0] != x.shape[0] or cov.shape != (x.shape[0], x.shape[0]):
        raise ValueError("dimension mismatch between point, mean and covariance")
    chol, _, _ = _factor_covariances(cov)
    z = solve_triangular(chol, x - mean, lower=True)
    return float(z @ z)


def delta_formula(x, mean, cov, weight) -> float:
    """Closed-form leave-one-out delta for a point in a cluster.

    Parameters are taken as given (not re-estimated): ``weight`` is the
    cluster proportion, ``mean``/``cov`` its center and covariance.

    Example:
        >>> round(delta_formula([0.0], [0.0], [[1.0]], 1.0), 4)
        0.9189
    """
    if not 0.0 < weight <= 1.0:
        raise ValueError("cluster weight must lie in (0, 1]")
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    p = cov.shape[0]
    _, logdet, _ = _factor_covariances(cov)
    return float(
        -np.log(weight) + 0.5 * p * LOG_2PI + 0.5 * logdet + 0.5 * mahalanobis_sq(x, mean, cov)
    )


def frozen_subset_deltas(data, labels, stats: ClusterStats) -> np.ndarray:
    """Closed-form deltas for every row, using fixed full-data statistics.

    Row j's delta is minus its weighted log-density under its own cluster.
    """
    arr = validate_data(data)
    lab = np.asarray(labels, dtype=int)
    frozen = MixtureModel(weights=stats.weights, means=stats.means, covariances=stats.covariances)
    return -_weighted_log_densities(arr, frozen, lab)


def downdate_stats(count: int, mean, cov, x, variant: DowndateVariant = DowndateVariant.EXACT):
    """Mean and covariance of a cluster after removing one member point.

    The mean update is exact in both variants.  The ``exact`` covariance
    update reproduces a from-scratch recomputation; the ``asymptotic`` variant
    drops a factor n/(n-1) on the removed point's outer product, which is the
    approximation whose error vanishes as the cluster grows.
    """
    variant = DowndateVariant(variant)
    if count < 3:
        raise InsufficientPointsError(
            f"cannot downdate a cluster of {count} points; need at least 3"
        )
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    x = np.asarray(x, dtype=float).reshape(-1)
    new_mean = (count * mean - x) / (count - 1)
    dev = x - mean
    outer = np.outer(dev, dev)
    if variant is DowndateVariant.EXACT:
        new_cov = ((count - 1) * cov - (count / (count - 1)) * outer) / (count - 2)
    else:
        new_cov = ((count - 1) * cov - outer) / (count - 2)
    return new_mean, new_cov


# ---------------------------------------------------------------------------
# Reference distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaComponent:
    """One shifted, scaled beta component of the reference mixture.

    The reference variable y has density
    ``scale * Beta_pdf(scale * (y - shift); alpha, beta)`` on
    ``shift < y < shift + 1/scale`` and zero elsewhere.
    """

    shift: float
    scale: float
    alpha: float
    beta: float
    weight: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("beta shape parameters must be positive")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError("component weight must lie in (0, 1]")

    @property
    def support(self) -> tuple[float, float]:
        return self.shift, self.shift + 1.0 / self.scale


@dataclass(frozen=True)
class ReferenceMixture:
    """Mixture of shifted, scaled beta components, one per cluster."""

    components: tuple

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("reference mixture needs at least one component")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError("component weights must sum to 1 within 1e-12")

    @property
    def support_lo(self) -> float:
        return min(c.shift for c in self.components)

    @property
    def support_hi(self) -> float:
        return max(c.support[1] for c in self.components)


@dataclass(frozen=True)
class GammaComponent:
    """Population-parameter reference for one cluster: Gamma(shape, 1) shifted by ``shift``."""

    shift: float
    shape: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError("gamma shape must be positive")


def _beta_shift(weight: float, logdet: float, p: int) -> float:
    return float(-np.log(weight) + 0.5 * p * LOG_2PI + 0.5 * logdet)


def beta_mixture_reference(stats: ClusterStats) -> ReferenceMixture:
    """Reference mixture implied by per-cluster sample statistics.

    Every cluster must satisfy ``n_g > p + 1`` so that the second beta shape
    parameter is positive.
    """
    p = stats.dim
    for g in range(stats.n_clusters):
        n_g = int(stats.counts[g])
        if n_g <= p + 1:
            raise InsufficientPointsError(
                f"cluster {g} has {n_g} points; the beta reference needs more than {p + 1}",
                cluster=g,
            )
    _, logdets, _ = _factor_covariances(stats.covariances)
    comps = []
    for g in range(stats.n_clusters):
        n_g = int(stats.counts[g])
        comps.append(
            BetaComponent(
                shift=_beta_shift(float(stats.weights[g]), float(logdets[g]), p),
                scale=2.0 * n_g / (n_g - 1) ** 2,
                alpha=0.5 * p,
                beta=0.5 * (n_g - p - 1),
                weight=float(stats.weights[g]),
            )
        )
    return ReferenceMixture(components=tuple(comps))


def gamma_reference(model: MixtureModel) -> tuple:
    """Per-cluster population-parameter references: Gamma(p/2, 1) shifted by c_g."""
    p = model.dim
    _, logdets, _ = _factor_covariances(model.covariances)
    return tuple(
        GammaComponent(
            shift=_beta_shift(float(model.weights[g]), float(logdets[g]), p),
            shape=0.5 * p,
        )
        for g in range(model.n_components)
    )


def _log_beta_norm(alpha: float, beta: float) -> float:
    return float(gammaln(alpha) + gammaln(beta) - gammaln(alpha + beta))


def beta_component_density(y, comp: BetaComponent) -> np.ndarray | float:
    """Density of one shifted, scaled beta component (vectorized over y)."""
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    u = np.atleast_1d(comp.scale * (y_arr - comp.shift))
    out = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    if inside.any():
        u_in = u[inside]
        log_pdf = (
            (comp.alpha - 1.0) * np.log(u_in)
            + (comp.beta - 1.0) * np.log1p(-u_in)
            - _log_beta_norm(comp.alpha, comp.beta)
        )
        out[inside] = comp.scale * np.exp(log_pdf)
    return float(out[0]) if scalar else out


def reference_mixture_density(y, ref: ReferenceMixture) -> np.ndarray | float:
    """Density of the reference mixture at y (vectorized)."""
    y_arr = np.asarray(y, dtype=float)
    total = np.zeros_like(y_arr, dtype=float)
    for comp in ref.components:
        total = total + comp.weight * beta_component_density(y_arr, comp)
    if y_arr.ndim == 0:
        return float(total)
    return total


def reference_mixture_cdf(y, ref: ReferenceMixture) -> np.ndarray | float:
    """Distribution function of the reference mixture at y (vectorized)."""
    y_arr = np.asarray(y, dtype=float)
    total = np.zeros_like(y_arr, dtype=float)
    for comp in ref.components:
        u = np.clip(comp.scale * (y_arr - comp.shift), 0.0, 1.0)
        total = total + comp.weight * betainc(comp.alpha, comp.beta, u)
    if y_arr.ndim == 0:
        return float(total)
    return total


def reference_mixture_ppf(q, ref: ReferenceMixture):
    """Quantiles of the reference mixture by monotone bisection of the CDF.

    ``q`` is one level or an array of levels; a scalar level returns a float.
    All levels are bisected together, and each stops as soon as its own
    bracket is small enough, so every element equals a one-level bisection.
    """
    q_arr = np.asarray(q, dtype=float)
    if not np.all((q_arr >= 0.0) & (q_arr <= 1.0)):
        raise ValueError("quantile level must lie in [0, 1]")
    levels = q_arr.reshape(-1)
    lo = np.full(levels.shape, ref.support_lo)
    hi = np.full(levels.shape, ref.support_hi)
    inner = (levels > 0.0) & (levels < 1.0)
    active = np.flatnonzero(inner)
    for _ in range(200):
        if active.size == 0:
            break
        mid = 0.5 * (lo[active] + hi[active])
        below = reference_mixture_cdf(mid, ref) < levels[active]
        lo[active[below]] = mid[below]
        hi[active[~below]] = mid[~below]
        width = hi[active] - lo[active]
        active = active[width > 1e-13 * np.maximum(1.0, np.abs(hi[active]))]
    out = np.where(levels <= 0.0, lo, hi)
    out[inner] = 0.5 * (lo[inner] + hi[inner])
    return float(out[0]) if q_arr.ndim == 0 else out.reshape(q_arr.shape)


def sample_reference(ref: ReferenceMixture, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw from the reference mixture by component choice plus inverse CDF."""
    from scipy.stats import beta as beta_dist

    weights = np.array([c.weight for c in ref.components])
    picks = rng.choice(len(ref.components), size=size, p=weights / weights.sum())
    uniforms = rng.random(size)
    out = np.empty(size)
    for idx, comp in enumerate(ref.components):
        mask = picks == idx
        if mask.any():
            u = beta_dist.ppf(uniforms[mask], comp.alpha, comp.beta)
            out[mask] = comp.shift + u / comp.scale
    return out


def gamma_reference_density(y, comp: GammaComponent) -> np.ndarray | float:
    """Density of a shifted Gamma(shape, 1) reference (vectorized over y)."""
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    u = np.atleast_1d(y_arr - comp.shift)
    out = np.zeros_like(u)
    positive = u > 0.0
    if positive.any():
        u_in = u[positive]
        out[positive] = np.exp((comp.shape - 1.0) * np.log(u_in) - u_in - gammaln(comp.shape))
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Empirical subset deltas
# ---------------------------------------------------------------------------


def loo_refit_logliks(data, model: MixtureModel, *, rel_tol: float = 1e-8,
                      reg_eps: float = 1e-8, max_iter: int = 100,
                      n_threads: int = 1, chunk_size: int | None = None) -> np.ndarray:
    """Mixture log-likelihood of a warm-started EM refit for every leave-one-out subset.

    All subsets are iterated as one vectorized batch (optionally split across
    threads); the result is independent of chunking and thread count.
    """
    arr = validate_data(data)
    n, p = arr.shape
    n_comp = model.n_components
    if chunk_size is None:
        # at most about 4e6 / p elements in each (chunk, G, n) work array
        chunk_size = int(np.clip(4_000_000 // max(1, n_comp * n * p), 8, 4096))
    rows = np.arange(n)
    chunks = [rows[i:i + chunk_size] for i in range(0, n, chunk_size)]
    start = _em_start(arr, model, reg_eps)

    def refit(chunk):
        return _em_sweeps(start, chunk, max_iter=max_iter, rel_tol=rel_tol, reg_eps=reg_eps)[0]

    if n_threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return np.concatenate(list(pool.map(refit, chunks)))
    return np.concatenate([refit(chunk) for chunk in chunks])


def subset_deltas(data, model: MixtureModel, labels, loglik: float,
                  stats: ClusterStats | None = None,
                  mode: DeltaMode = DeltaMode.REFIT, *,
                  rel_tol: float = 1e-8, reg_eps: float = 1e-8,
                  n_threads: int = 1) -> SubsetDeltaSet:
    """Subset deltas for an already fitted mixture.

    ``loglik`` must be the full-data mixture log-likelihood of ``model``.
    """
    arr = validate_data(data)
    lab = np.asarray(labels, dtype=int)
    mode = DeltaMode(mode)
    if mode is DeltaMode.REFIT:
        subset_ll = loo_refit_logliks(
            arr, model, rel_tol=rel_tol, reg_eps=reg_eps, n_threads=n_threads
        )
        values = subset_ll - loglik
    else:
        if stats is None:
            stats = cluster_stats(arr, lab, model.n_components)
        values = frozen_subset_deltas(arr, lab, stats)
    return SubsetDeltaSet(values=values, source_labels=lab.copy(), mode=mode)


def subset_loglik_set(data, n_clusters: int, config: FitConfig = FitConfig(),
                      mode: DeltaMode = DeltaMode.REFIT, *,
                      n_threads: int = 1) -> SubsetDeltaSet:
    """Fit a mixture, then compute the subset delta for every row."""
    arr = validate_data(data)
    model, labels, loglik = em_fit(arr, n_clusters, config)
    stats = cluster_stats(arr, labels, n_clusters)
    return subset_deltas(
        arr, model, labels, loglik, stats, mode,
        rel_tol=config.rel_tol, reg_eps=config.reg_eps, n_threads=n_threads,
    )
