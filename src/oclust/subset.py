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
the weight pi_g); its density, CDF and sampler take every component in one
call, with the component axis first, and the CDF adds the components in
order.  ``GammaReference`` holds the G shifts and the shape p/2.

``subset_deltas`` turns a fitted mixture into the empirical deltas, one float
per row, in one of two ways:

* ``refit``: each leave-one-out subset gets its own EM refinement
  (warm-started from the full-data fit) and the delta is the difference of
  true mixture log-likelihoods.  The refits run in vectorized batches.
* ``frozen``: the closed-form delta above, with full-data statistics.

The refits run in the EM loop of ``gmm``, the one that also runs the single
fit.  Its warm start (features centred on the full-fit means and the first
E-step on all n rows) is built once per call and shared read-only by every
batch and thread.  One pass plan, ``_refit_plan``, cuts the rows into a
contiguous group per thread and each group into the fewest batches that the
one leave-one-out budget (``_refit_cells``) allows, sizes within one.  Each
pass has one pool and one workspace per group, of the budget's size: the
calling thread runs the first group and the pool's helper threads the rest,
so ``n_threads`` counts the caller.  Each thread runs the E-steps of its
batches in its workspace and writes its rows' values and failures into the
pass's one result (``loo_refit_logliks``).  No thread or workspace outlives
the pass.  A refit is held to the single fit's convergence test and failures,
and the error raised is the lowest failing row's at any batching and thread
count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betainc, betaincinv, betaln, gammaln

from .errors import InsufficientPointsError
from .gmm import (
    LOG_2PI,
    ClusterStats,
    MixtureModel,
    _assigned_log_densities,
    _check_em_limits,
    _em_start,
    _em_sweeps,
    _em_workspace,
    _factor_covariances,
    _min_cluster_size,
    _point_terms,
    cluster_stats,
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
    arr = validate_data(data)
    frozen = MixtureModel(weights=stats.weights, means=stats.means, covariances=stats.covariances)
    return -_assigned_log_densities(arr, frozen, labels)


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


def _cluster_shifts(weights, covariances, p: int) -> np.ndarray:
    """c_g = -log(pi_g) + (p/2) log(2 pi) + (1/2) log det(S_g) for every cluster."""
    _, logdets = _factor_covariances(covariances)
    return -np.log(weights) + 0.5 * p * LOG_2PI + 0.5 * logdets


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
        shift=_cluster_shifts(stats.weights, stats.covariances, p),
        scale=2.0 * n_g / (n_g - 1.0) ** 2,
        alpha=np.full(n_g.shape, 0.5 * p),
        beta=0.5 * (n_g - p - 1.0),
        weight=stats.weights,
    )


def gamma_reference(model: MixtureModel) -> GammaReference:
    """Per-cluster population-parameter references: Gamma(p/2, 1) shifted by c_g."""
    return GammaReference(shift=_cluster_shifts(model.weights, model.covariances, model.dim),
                          shape=0.5 * model.dim)


def _by_component(y, ref: ReferenceMixture):
    """y as floats, then the reference's fields shaped to broadcast against
    it with the component axis first: (G, 1, ..., 1)."""
    y_arr = np.asarray(y, dtype=float)
    col = (-1,) + (1,) * y_arr.ndim
    return (y_arr, ref.shift.reshape(col), ref.scale.reshape(col), ref.alpha.reshape(col),
            ref.beta.reshape(col), ref.weight.reshape(col))


def reference_mixture_density(y, ref: ReferenceMixture):
    """Density of the reference mixture at y: an array shaped like y, a float for scalar y."""
    y, shift, scale, alpha, beta, weight = _by_component(y, ref)
    u = scale * (y - shift)
    inside = (u > 0.0) & (u < 1.0)
    u = np.where(inside, u, 0.5)
    log_pdf = (alpha - 1.0) * np.log(u) + (beta - 1.0) * np.log1p(-u) - betaln(alpha, beta)
    return np.where(inside, weight * (scale * np.exp(log_pdf)), 0.0).cumsum(axis=0)[-1]


def reference_mixture_cdf(y, ref: ReferenceMixture):
    """Distribution function of the reference mixture at y: an array shaped like y,
    a float for scalar y."""
    y, shift, scale, alpha, beta, weight = _by_component(y, ref)
    u = np.clip(scale * (y - shift), 0.0, 1.0)
    # cumsum adds the components in order at every shape of y; sum(axis=0)
    # adds 8 or more of them pairwise when y is 0-d or has one element
    return (weight * betainc(alpha, beta, u)).cumsum(axis=0)[-1]


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


def gamma_reference_density(y, ref: GammaReference) -> np.ndarray:
    """Density of every cluster's shifted Gamma(shape, 1) reference at y,
    component axis first: shape (G,) + the shape of y."""
    y_arr = np.asarray(y, dtype=float)
    u = y_arr - ref.shift.reshape((-1,) + (1,) * y_arr.ndim)
    positive = u > 0.0
    u = np.where(positive, u, 1.0)
    return np.where(positive, np.exp((ref.shape - 1.0) * np.log(u) - u - gammaln(ref.shape)), 0.0)


# ---------------------------------------------------------------------------
# Empirical subset deltas
# ---------------------------------------------------------------------------


def _refit_cells(n_components: int, n: int) -> int:
    """The leave-one-out budget: the most refit-rows (refits times rows) that a
    batch of a pass on n rows may hold, max(8 n, 2**18 // G).  A batch takes
    at most ``_refit_cells // n`` refits, at least 8, so its (batch, G, n)
    work array holds at most about 2 MiB; a group's ``_em_workspace`` of G + 2
    floats per cell holds every batch of the pass, about 3.3 MiB at G = 3.
    2**18 is measured: 2**17 made a 2,000-row pass slower at two threads.
    While G n <= 2**15 the budget is one constant, and it never grows as a
    trimming run's passes shrink.  It must not: glibc hands a pass the block
    that the last pass freed only when the new request is no larger, and a
    workspace per pass, from its own largest batch, raised the peak RSS of a
    500-row refit run by about 2 MB."""
    return max(8 * n, 2**18 // n_components)


def _refit_plan(n_components: int, n: int, n_threads: int) -> list[list[np.ndarray]]:
    """The row batches of a leave-one-out pass on n rows, per worker: the
    rows cut into min(n_threads, ceil(n / chunk)) contiguous groups, chunk =
    ``_refit_cells(n_components, n) // n``, and each group into
    ceil(rows / chunk) contiguous batches whose sizes differ by at most one,
    larger first.  A chunk of n rows or more makes the pass one group of one
    batch."""
    chunk = _refit_cells(n_components, n) // n
    groups = np.array_split(np.arange(n), min(n_threads, -(-n // chunk)))
    return [np.array_split(group, -(-group.shape[0] // chunk)) for group in groups]


def loo_refit_logliks(data, model: MixtureModel, *, rel_tol: float = 1e-8, max_iter: int = 100,
                      n_threads: int = 1) -> np.ndarray:
    """Mixture log-likelihood of a warm-started EM refit for every leave-one-out subset.

    The refits run in the batches of one pass plan (``_refit_plan``), within
    the budget ``_refit_cells``.  The calling thread runs the first group and
    the threads of a pool made for the call the others, so a pass runs on at
    most ``n_threads`` threads, the caller included.  Each group's thread
    makes one workspace for its batches and writes its rows' values and
    failures in place, into one array and one dict per pass; the pool and the
    workspaces last for the call.  The result is independent of batching and
    thread count, and so is the error when refits fail: that of the lowest
    failing row j, of its class (a ``DegenerateFitError``) with
    ``subset_index`` j, as "leave-one-out refit for row j: ...".
    ``n_threads`` or ``max_iter`` below 1 and ``rel_tol`` not positive raise
    ``ValueError``.  A singular covariance in the warm start ``model`` raises
    ``SingularCovarianceError`` naming its component.
    """
    _check_em_limits(max_iter, rel_tol)
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    arr = validate_data(data)
    n, n_comp = arr.shape[0], model.n_components
    start = _em_start(arr, model)
    plan = _refit_plan(n_comp, n, n_threads)
    logliks, failures = np.empty(n), {}  # threads write disjoint rows, so need no lock

    def refit(batches):
        work = _em_workspace(_refit_cells(n_comp, n), n_comp)
        for rows in batches:
            logliks[rows], _, _, _, failed = _em_sweeps(start, rows, max_iter=max_iter,
                                                        rel_tol=rel_tol, work=work)
            failures.update((int(rows[i]), exc) for i, exc in failed.items())

    # a pool starts a thread per group submitted, so a one-group pass starts none
    with ThreadPoolExecutor(max(1, len(plan) - 1)) as pool:
        helpers = [pool.submit(refit, batches) for batches in plan[1:]]
        refit(plan[0])
        for helper in helpers:
            helper.result()  # raises a helper's exception, the lowest group's first
    if failures:
        j = min(failures)
        raise type(failures[j])(f"leave-one-out refit for row {j}: {failures[j]}",
                                subset_index=j) from failures[j]
    return logliks


def subset_deltas(data, model: MixtureModel, labels, loglik: float,
                  stats: ClusterStats | None = None,
                  mode: DeltaMode = DeltaMode.REFIT, *,
                  rel_tol: float = 1e-8, n_threads: int = 1) -> np.ndarray:
    """Subset deltas (n,) for an already fitted mixture.

    Entry j is the subset log-likelihood minus the full-data log-likelihood
    when row j is removed.  ``loglik`` must be the full-data mixture
    log-likelihood of ``model``; ``labels`` are its hard clusters, read in
    frozen mode.  In refit mode ``rel_tol`` and ``n_threads`` go to
    ``loo_refit_logliks``, whose pass has one pool and one workspace per
    group; frozen mode starts no thread.
    """
    arr = validate_data(data)
    if DeltaMode(mode) is DeltaMode.REFIT:
        return loo_refit_logliks(arr, model, rel_tol=rel_tol, n_threads=n_threads) - loglik
    if stats is None:
        stats = cluster_stats(arr, labels, model.n_components)
    return frozen_subset_deltas(arr, labels, stats)
