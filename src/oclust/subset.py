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
used.  Across clusters the deltas therefore follow a mixture of G shifted,
scaled betas weighted by the cluster proportions: the reference distribution
the trimming loop compares against.  ``ReferenceMixture`` holds that law as
five (G,) arrays (shift c_g, scale 2 n_g / (n_g - 1)^2, the two shapes and
the weight pi_g); its CDF and sampler take every component in one call,
with the component axis first, and the CDF adds the components in order.
``GammaReference`` holds the G shifts and the shape p/2.

``subset_deltas`` turns a fitted mixture into the empirical deltas, one float
per row, in one of two ways:

* ``refit``: each leave-one-out subset gets its own EM refinement
  (warm-started from the full-data fit) and the delta is the difference of
  true mixture log-likelihoods.  The refits, with their batches, buffers
  and threads, run in ``gmm.loo_refit_logliks``, on the single fit's EM loop.
* ``frozen``: the closed-form delta above, minus each row's weighted log-density
  under the hard clusters' sample mixture (n_h / n, xbar_h, S_h): ``cluster_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betainc, betaincinv

from .errors import InsufficientPointsError
from .gmm import (
    LOG_2PI,
    ClusterStats,
    FitConfig,
    MixtureModel,
    _assigned_log_densities,
    _factor_covariances,
    _min_cluster_size,
    _point_terms,
    cluster_stats,
    loo_refit_logliks,
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


def mahalanobis_sq(x, mean, cov) -> float:
    """Squared Mahalanobis distance of a point from a center."""
    return _point_terms(x, mean, cov)[2]


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
    p, logdet, maha = _point_terms(x, mean, cov)
    return float(-np.log(weight) + 0.5 * p * LOG_2PI + 0.5 * logdet + 0.5 * maha)


def frozen_subset_deltas(data, labels, stats: ClusterStats) -> np.ndarray:
    """Closed-form deltas for every row, using fixed full-data statistics.

    Row j's delta is minus its weighted log-density under its own cluster.
    Labels that are not one per row, or name no cluster, raise ``ValueError``.
    """
    return -_assigned_log_densities(validate_data(data), stats, labels)


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


def _read_only_components(ref, names) -> None:
    """Store the named fields of a frozen reference as read-only, finite float
    arrays of one shape (G,), G >= 1."""
    arrays = {name: np.array(getattr(ref, name), dtype=float) for name in names}
    shape = arrays[names[0]].shape
    if len(shape) != 1 or any(arr.shape != shape for arr in arrays.values()):
        raise ValueError("reference fields must be 1-d and of one length, got shapes "
                         + ", ".join(f"{name} {arr.shape}" for name, arr in arrays.items()))
    if shape[0] == 0:
        raise ValueError("reference mixture needs at least one component")
    for name, arr in arrays.items():
        finite = np.isfinite(arr)
        if not finite.all():
            g = int(np.argmin(finite))
            raise ValueError(f"{name} of component {g} is not finite ({float(arr[g])!r})")
        arr.flags.writeable = False
        object.__setattr__(ref, name, arr)


@dataclass(frozen=True)
class ReferenceMixture:
    """Mixture of shifted, scaled beta laws, one component per cluster.

    Every field is a read-only (G,) float array.  Component g has weight
    ``weight[g]`` and density ``scale[g] * Beta_pdf(scale[g] * (y - shift[g]);
    alpha[g], beta[g])`` on ``shift[g] < y < shift[g] + 1/scale[g]``.
    """

    shift: np.ndarray
    scale: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        _read_only_components(self, ("shift", "scale", "alpha", "beta", "weight"))
        if not (self.scale > 0).all():
            raise ValueError("scale must be positive")
        if not ((self.alpha > 0).all() and (self.beta > 0).all()):
            raise ValueError("beta shape parameters must be positive")
        if not ((self.weight > 0.0) & (self.weight <= 1.0)).all():
            raise ValueError("component weight must lie in (0, 1]")
        if abs(float(self.weight.sum()) - 1.0) > 1e-12:
            raise ValueError("component weights must sum to 1 within 1e-12")

    @property
    def support_lo(self) -> float:
        return float(self.shift.min())

    @property
    def support_hi(self) -> float:
        return float((self.shift + 1.0 / self.scale).max())


@dataclass(frozen=True)
class GammaReference:
    """Population-parameter references, one per cluster: Gamma(shape, 1)
    shifted by ``shift[g]``, a read-only (G,) float array."""

    shift: np.ndarray
    shape: float

    def __post_init__(self):
        _read_only_components(self, ("shift",))
        if not self.shape > 0:
            raise ValueError("gamma shape must be positive")


def _cluster_shifts(model: MixtureModel) -> np.ndarray:
    """c_g = -log(pi_g) + (p/2) log(2 pi) + (1/2) log det(S_g) for every component."""
    _, logdets = _factor_covariances(model.covariances)
    return -np.log(model.weights) + 0.5 * model.dim * LOG_2PI + 0.5 * logdets


def beta_mixture_reference(stats: ClusterStats) -> ReferenceMixture:
    """Reference mixture implied by per-cluster sample statistics.

    Every cluster must hold at least ``_min_cluster_size(p)`` points, so
    that the second beta shape parameter is positive.
    """
    p, need = stats.dim, _min_cluster_size(stats.dim)
    small = stats.counts < need
    if small.any():
        g = int(np.argmax(small))
        raise InsufficientPointsError(f"cluster {g} has {stats.counts[g]} points; the beta "
                                      f"reference needs more than {need - 1}", cluster=g)
    n_g = stats.counts.astype(float)
    return ReferenceMixture(
        shift=_cluster_shifts(stats),
        scale=2.0 * n_g / (n_g - 1.0) ** 2,
        alpha=np.full(n_g.shape, 0.5 * p),
        beta=0.5 * (n_g - p - 1.0),
        weight=stats.weights,
    )


def gamma_reference(model: MixtureModel) -> GammaReference:
    """Per-cluster population-parameter references: Gamma(p/2, 1) shifted by c_g."""
    return GammaReference(shift=_cluster_shifts(model), shape=0.5 * model.dim)


def reference_mixture_cdf(y, ref: ReferenceMixture):
    """Distribution function of the reference mixture at y: an array shaped like y,
    a float for scalar y."""
    y = np.asarray(y, dtype=float)
    col = (-1,) + (1,) * y.ndim  # the component axis first: (G, 1, ..., 1)
    u = np.clip(ref.scale.reshape(col) * (y - ref.shift.reshape(col)), 0.0, 1.0)
    terms = ref.weight.reshape(col) * betainc(ref.alpha.reshape(col), ref.beta.reshape(col), u)
    # cumsum adds the components in order at every shape of y; sum(axis=0)
    # adds 8 or more of them pairwise when y is 0-d or has one element
    return terms.cumsum(axis=0)[-1]


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
    """Draw from the reference mixture by component choice plus inverse CDF.

    The Beta(a, b) quantile at level u is the inverse in x of
    betainc(a, b, x), the incomplete beta function divided by B(a, b):
    ``betaincinv(a, b, u)``.
    """
    picks = rng.choice(ref.weight.size, size=size, p=ref.weight / ref.weight.sum())
    u = betaincinv(ref.alpha[picks], ref.beta[picks], rng.random(size))
    return ref.shift[picks] + u / ref.scale[picks]


# ---------------------------------------------------------------------------
# Empirical subset deltas
# ---------------------------------------------------------------------------


def subset_deltas(data, model: MixtureModel, labels, loglik: float,
                  stats: ClusterStats | None = None, *, mode: DeltaMode,
                  rel_tol: float = FitConfig.rel_tol, n_threads: int = 1) -> np.ndarray:
    """Subset deltas (n,) for an already fitted mixture.

    Entry j is the subset log-likelihood minus the full-data log-likelihood
    when row j is removed.  ``loglik`` must be the full-data mixture
    log-likelihood of ``model``; ``labels`` are its hard clusters, read in
    frozen mode.  ``mode`` is required, a ``DeltaMode`` or its value: the
    default belongs to ``OclustConfig.delta_mode`` alone.  In refit mode
    ``rel_tol`` and ``n_threads`` go to ``loo_refit_logliks``, whose pass has
    one pool and one workspace per group; frozen mode starts no thread.
    """
    if DeltaMode(mode) is DeltaMode.REFIT:
        return loo_refit_logliks(data, model, rel_tol=rel_tol, n_threads=n_threads) - loglik
    if stats is None:
        stats = cluster_stats(data, labels, model.n_components)
    return frozen_subset_deltas(data, labels, stats)
