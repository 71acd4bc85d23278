"""Iterative outlier trimming for Gaussian mixture clustering.

Each iteration fits a mixture to the current data, computes the leave-one-out
subset delta for every row, and measures the KL divergence between those
deltas and the beta-mixture reference implied by the current cluster
statistics.  The row whose removal raises the subset log-likelihood the most
is then trimmed and the loop repeats.  Contaminated data produce a divergence
trace that falls while genuine outliers are being removed and rises again
once trimming starts eating into the good points; the number of outliers is
chosen at the global minimum of that trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .divergence import KlEstimate, build_bins, default_num_bins, kl_divergence
from .errors import DegenerateFitError
from .gmm import (FitConfig, MixtureModel, _min_cluster_size, _singular, cluster_stats, em_fit,
                  validate_data)
from .rng import derive_seed
from .subset import DeltaMode, beta_mixture_reference, subset_deltas


@dataclass(frozen=True)
class OclustConfig:
    """Configuration of a trimming run.

    Attributes:
        n_clusters: number of mixture components.
        max_outliers: most points the loop may remove (the trace then has
            ``max_outliers + 1`` entries).  ``None`` selects ceil(0.125 * n).
        fit: EM settings.  ``restarts`` and ``rel_tol`` apply to each
            iteration's fit (``em_fit``), seeded from ``seed`` and the
            iteration; each restart stops after at most ``em_refine``'s
            default of 1,000 sweeps, which no setting changes, and ``em_fit``
            discards a restart that leaves a hard cluster too small for the
            beta reference.  The leave-one-out refits in refit mode take only
            ``rel_tol`` and keep their own cap of 100 sweeps
            (``loo_refit_logliks(max_iter=100)``).
        delta_mode: how subset deltas are produced (``refit`` or ``frozen``),
            stored as a ``DeltaMode``; any other value raises ``ValueError``.
            Its default is the package's only one: the CLI's ``--mode``
            reads it.
        n_threads: threads that run the leave-one-out refits of refit
            mode, counting the calling thread (at least 1); how a pass uses
            them is ``loo_refit_logliks``' to say.  Frozen mode runs no
            refits and starts no thread.  Outputs do not depend on it.

    The divergence at each iteration uses B = max(10, ceil(sqrt(n_current)))
    equal-probability bins of the beta-mixture reference.
    """

    n_clusters: int
    max_outliers: int | None = None
    fit: FitConfig = field(default_factory=FitConfig)
    delta_mode: DeltaMode = DeltaMode.REFIT
    n_threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "delta_mode", DeltaMode(self.delta_mode))
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.max_outliers is not None and self.max_outliers < 1:
            raise ValueError("max_outliers must be >= 1")
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")


@dataclass(frozen=True)
class IterationRecord:
    """State of the loop after ``iteration`` removals.

    ``removed_point`` is the original row trimmed immediately before this
    iteration's measurement (``None`` for iteration 0).
    """

    iteration: int
    removed_point: int | None
    kl: KlEstimate
    loglik: float
    model: MixtureModel


@dataclass(frozen=True)
class OclustResult:
    """Outcome of a trimming run."""

    trace: tuple
    chosen_num_outliers: int
    outlier_indices: tuple
    retained_indices: np.ndarray
    final_labels: np.ndarray
    final_model: MixtureModel
    alpha_hat: float


def default_max_outliers(n: int) -> int:
    """Default trimming budget for n rows: ceil(0.125 * n)."""
    return int(np.ceil(0.125 * n))


def most_likely_outlier(subset_logliks) -> int:
    """Index whose removal leaves the highest subset log-likelihood.

    Ties go to the lowest index.  A non-finite value raises ``ValueError``.
    """
    values = np.asarray(subset_logliks, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("need at least one subset log-likelihood")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(
            f"subset log-likelihood {int(bad[0])} is not finite ({float(values[bad[0]])!r})"
        )
    return int(np.argmax(values))


def unusable_columns(data, names) -> str | None:
    """Why no cluster covariance can be estimated from the feature columns, as
    a message that calls column j ``names[j]``; None when it can.

    A column that holds one value while others vary makes every cluster
    covariance singular.  So does one whose range r is so narrow that r**2 is
    below the smallest normal float, and one so wide that n r**2 overflows
    makes the second moments infinite.  When every column is constant, all
    rows are one point and no column is to blame: the result is ``None`` and
    the fit reports the degeneracy.  Otherwise the columns are affinely
    dependent, which also makes every cluster covariance singular, when the
    smallest eigenvalue of their correlation matrix is below n * eps, the
    rounding of n rows; the message names the columns whose entries in its
    eigenvector are at least a thousandth of the largest.
    """
    n = data.shape[0]
    with np.errstate(over="ignore"):
        spread = np.ptp(data, axis=0)
        square = spread ** 2
        wide = ~np.isfinite(n * square)
    flat = spread == 0
    if flat.all():
        return None
    narrow = ~flat & (square < np.finfo(float).tiny)
    bad = np.flatnonzero(flat | narrow | wide)
    if bad.size:
        j = int(bad[0])
        if flat[j]:
            return (f"{names[j]} is constant (every value is {float(data[0, j])!r}); "
                    "it makes every cluster covariance singular")
        if narrow[j]:
            return (f"{names[j]} is too narrow (range {float(spread[j])!r}, whose square is "
                    "below the smallest normal float); it makes every cluster covariance singular")
        return (f"{names[j]} is too wide (range {float(spread[j])!r}, whose square times {n} "
                "rows overflows a float); it makes the cluster covariances infinite")
    corr = np.atleast_2d(np.corrcoef(data, rowvar=False))
    tol = n * np.finfo(float).eps
    # factoring corr - tol I tests the smallest eigenvalue; eigh, whose first
    # call raises peak RSS by about 0.75 MB with OpenBLAS, runs only when it fails
    if _singular(corr - tol * np.eye(corr.shape[0])) is None:
        return None
    values, vectors = np.linalg.eigh(corr)
    entries = np.abs(vectors[:, 0])
    named = " and ".join(names[j] for j in np.flatnonzero(entries >= 1e-3 * entries.max()))
    return (f"{named} are affinely dependent (the smallest eigenvalue of their correlation "
            f"matrix is {values[0]:.3g}, below {tol:.3g}); they make every cluster covariance "
            "singular")


def oclust_run(data, config: OclustConfig) -> OclustResult:
    """Trim likely outliers one at a time and pick the count that best matches
    the beta-mixture reference.

    The chosen count is the first iteration with the lowest KL divergence;
    the result's model, labels and (ascending) retained rows are its own fit.

    Raises ``DegenerateFitError`` (with the trace so far attached) if an
    iteration's fit, leave-one-out deltas or reference fail, naming the
    iteration, its row count and the stage, and ``ValueError`` if the
    feature columns are unusable (``unusable_columns``) or the trimming
    budget leaves too few points to keep the mixture identifiable.
    """
    arr = validate_data(data)
    n, p = arr.shape
    problem = unusable_columns(arr, [f"feature column {j}" for j in range(p)])
    if problem is not None:
        raise ValueError(problem)
    budget = config.max_outliers
    if budget is None:
        budget = default_max_outliers(n)
    least = config.n_clusters * _min_cluster_size(p) + 2  # the fewest rows that fit a budget
    if n < least:
        raise ValueError(f"n={n} rows are too few for n_clusters={config.n_clusters} at p={p}; "
                         f"trimming needs at least {least} rows")
    most = n - least + 1
    if not 1 <= budget <= most:
        raise ValueError(f"max_outliers={budget} is outside [1, {most}] for n={n}, "
                         f"n_clusters={config.n_clusters}, p={p}")
    current = arr
    original_rows = np.arange(n)
    removed: list[int] = []
    records: list[IterationRecord] = []
    best = None  # (kl, iteration, labels, rows) of the first lowest KL so far
    try:
        for m in range(budget + 1):
            stage = "fit"
            fit_cfg = replace(config.fit, seed=derive_seed(config.fit.seed, 101, m))
            model, labels, loglik = em_fit(current, config.n_clusters, fit_cfg)
            stats = cluster_stats(current, labels, config.n_clusters)
            stage = "leave-one-out deltas"
            deltas = subset_deltas(current, model, labels, loglik, stats, mode=config.delta_mode,
                                   rel_tol=config.fit.rel_tol, n_threads=config.n_threads)
            stage = "reference"
            reference = beta_mixture_reference(stats)
            bins = build_bins(reference, default_num_bins(current.shape[0]))
            kl = kl_divergence(deltas, bins)
            records.append(
                IterationRecord(
                    iteration=m,
                    removed_point=removed[m - 1] if m > 0 else None,
                    kl=kl,
                    loglik=loglik,
                    model=model,
                )
            )
            if best is None or kl.value < best[0]:
                best = (kl.value, m, labels, original_rows)
            if m < budget:
                local = most_likely_outlier(deltas)
                removed.append(int(original_rows[local]))
                current = np.delete(current, local, axis=0)
                original_rows = np.delete(original_rows, local)
    except DegenerateFitError as exc:
        raise DegenerateFitError(
            f"trimming aborted after {len(records)} of {budget + 1} iterations, in the {stage} "
            f"of iteration {m} on {current.shape[0]} rows: {exc}",
            partial_trace=records,
        ) from exc
    _, chosen, final_labels, retained = best
    return OclustResult(
        trace=tuple(records),
        chosen_num_outliers=chosen,
        outlier_indices=tuple(removed[:chosen]),
        retained_indices=retained,
        final_labels=final_labels,
        final_model=records[chosen].model,
        alpha_hat=chosen / n,
    )


def outlier_mask(result: OclustResult) -> np.ndarray:
    """Boolean mask over the original rows: True where a row was called an outlier."""
    n = result.retained_indices.shape[0] + len(result.outlier_indices)
    mask = np.zeros(n, dtype=bool)
    mask[list(result.outlier_indices)] = True
    return mask


def error_rates(predicted_outliers, true_outliers):
    """Outlier classification error rates.

    Returns ``(prop_good_as_outlier, prop_outlier_as_good,
    misclassification_rate)`` where the first two are relative to the counts
    of truly good points and true outliers respectively (0.0 when the
    denominator is empty) and the last is relative to all points.
    """
    pred = np.asarray(predicted_outliers, dtype=bool).reshape(-1)
    truth = np.asarray(true_outliers, dtype=bool).reshape(-1)
    if pred.shape != truth.shape:
        raise ValueError("predicted and true outlier masks must have the same length")
    n = pred.shape[0]
    if n == 0:
        raise ValueError("need at least one point")
    n_good = int((~truth).sum())
    n_out = int(truth.sum())
    good_as_outlier = float((pred & ~truth).sum() / n_good) if n_good else 0.0
    outlier_as_good = float((~pred & truth).sum() / n_out) if n_out else 0.0
    misclassified = float((pred != truth).sum() / n)
    return good_as_outlier, outlier_as_good, misclassified


def classify_errors(result: OclustResult, true_outliers):
    """Error rates of a trimming run against ground-truth outlier flags."""
    return error_rates(outlier_mask(result), true_outliers)
