"""Gaussian mixture core: densities, likelihoods, EM fitting, cluster statistics.

The fitting path is deliberately plain maximum-likelihood EM:

* means are seeded from data points with a k-means++ style weighted draw,
* covariances start at the pooled covariance of the whole sample,
* mixing weights start uniform,
* several independent restarts are run and the best log-likelihood wins.

Seeding draws are keyed by row *content* (a keyed hash of the row bytes feeds
an exponential race), so a fit is reproducible for a given seed and
equivariant under row reordering.  Each draw keys one BLAKE2b state and copies
it for every row, and the digests are read as one uint64 array.

Every mixture density and EM sweep in the package, the single fit here and
the leave-one-out refits in ``subset``, runs on one kernel over sufficient
statistics.  Every row x gets, per component g, the features
F_g(x) = [1, y, upper(y y')] with y = x - c_g, where the centre c_g is a fixed
mean (the starting mean of a fit); centring per component keeps the second
moments well conditioned even for data far from the origin.  The features are
built once per call.  An E-step folds log w_g, the log-determinant and the
quadratic form into one coefficient vector a_g, so that
log w_g + log N(x; mu_g, Sigma_g) = a_g . F_g(x) and the log-densities of a
problem come from one matrix product; an M-step turns the moments
resp @ F_g into mean c_g + S1/S0 and covariance S2/S0 - d d' with d = S1/S0.
Arrays carry a leading problem axis m (m = 1 for a single fit).  One helper,
``_factor_covariances``, turns every covariance stack into Cholesky factors
and log-determinants.  One EM loop, ``_em_sweeps``, runs the single fit (one
problem) and the leave-one-out refits (one problem per left-out row) under
one convergence rule and one rule against a falling log-likelihood.  A single
fit's hard labels are the argmax of its final E-step, which belongs to the
returned parameters, so ``em_fit`` takes no extra pass over the data for them.
"""

from __future__ import annotations

import functools
import hashlib
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DegenerateFitError, InsufficientPointsError, SingularCovarianceError
from .rng import derive_seed

LOG_2PI = float(np.log(2.0 * np.pi))

# Soft cluster mass below which an EM component is considered collapsed.
_MIN_SOFT_COUNT = 1e-9


def validate_data(data) -> np.ndarray:
    """Coerce input to a C-contiguous float64 matrix of shape (n, p).

    One-dimensional input is treated as a single feature column.  Empty or
    non-finite input raises ``ValueError``.
    """
    arr = np.ascontiguousarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d data matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"data matrix must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data matrix contains non-finite values")
    return arr


@dataclass(frozen=True)
class MixtureModel:
    """Parameters of a Gaussian mixture: weights (G,), means (G, p), covariances (G, p, p)."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "means", np.atleast_2d(np.asarray(self.means, dtype=float)))
        cov = np.asarray(self.covariances, dtype=float)
        if cov.ndim == 2:
            cov = cov[None, :, :]
        object.__setattr__(self, "covariances", cov)
        g = self.weights.shape[0]
        if self.means.shape[0] != g or self.covariances.shape[0] != g:
            raise ValueError("weights, means and covariances disagree on the number of components")
        p = self.means.shape[1]
        if self.covariances.shape[1:] != (p, p):
            raise ValueError("covariance blocks must be (p, p)")
        if np.any(self.weights <= 0):
            raise ValueError("mixing weights must be strictly positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("mixing weights must sum to 1 within 1e-12")

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def validate(self) -> None:
        """Check symmetry and positive definiteness of every covariance block."""
        for g in range(self.n_components):
            cov = self.covariances[g]
            if not np.allclose(cov, cov.T, rtol=1e-10, atol=1e-12):
                raise ValueError(f"covariance of component {g} is not symmetric")
        _factor_covariances(self.covariances)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`em_fit`.

    Attributes:
        restarts: number of independently seeded EM runs; the best wins.
        max_iter: cap on EM update sweeps per run.
        rel_tol: relative log-likelihood change that counts as converged.
        reg_eps: diagonal ridge factor used when a covariance loses positive
            definiteness (scaled by trace/p before being added).
        seed: master seed; every random draw derives from it.
    """

    restarts: int = 3
    max_iter: int = 1000
    rel_tol: float = 1e-8
    reg_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.reg_eps < 0:
            raise ValueError("reg_eps must be nonnegative")


@dataclass(frozen=True)
class ClusterStats:
    """Per-cluster sample statistics under a hard assignment.

    counts (G,) holds n_g, weights (G,) holds n_g / n, means (G, p) the sample
    means, covariances (G, p, p) the sample covariances with divisor n_g - 1.
    """

    counts: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    @property
    def n_clusters(self) -> int:
        return self.counts.shape[0]

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class EmRun:
    """One EM run: final model, its log-likelihood, the per-sweep history and
    the hard maximum-posterior labels under the final model."""

    model: MixtureModel
    loglik: float
    history: tuple
    labels: np.ndarray


def _positive_definite(block: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return False
    return True


def _factor_covariances(covs, reg_eps: float = 0.0, row_ids=None):
    """Cholesky factors and log-determinants of a covariance stack (..., p, p).

    Returns ``(chol, logdet, factored)``: the lower factors, the
    log-determinants (shape ``covs.shape[:-2]``) and the covariances actually
    factored.  When ``reg_eps > 0`` a block that is not positive definite is
    retried once with ``reg_eps * trace/p`` added to its diagonal;
    ``factored`` is ``covs`` itself when no block needed that ridge.  A block
    that still fails raises ``SingularCovarianceError`` naming its component
    (the last stack axis) and, given ``row_ids``, the row excluded by its
    leave-one-out refit (the first stack axis).
    """
    covs = np.asarray(covs, dtype=float)
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        covs = covs.copy()
        p = covs.shape[-1]
        for idx in np.ndindex(covs.shape[:-2]):
            if _positive_definite(covs[idx]):
                continue
            if reg_eps > 0:
                ridge = reg_eps * float(np.trace(covs[idx])) / p
                covs[idx] = covs[idx] + ridge * np.eye(p)
                if _positive_definite(covs[idx]):
                    continue
            where = f"component {idx[-1]} covariance" if idx else "covariance"
            if row_ids is not None:
                where = f"leave-one-out refit for row {int(row_ids[idx[0]])}: {where}"
            after = " even after regularization" if reg_eps > 0 else ""
            raise SingularCovarianceError(f"{where} is not positive definite{after}")
        chol = np.linalg.cholesky(covs)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    return chol, logdet, covs


def log_gaussian_density(x, mean, cov) -> float:
    """Log density of a multivariate Gaussian at a single point.

    Example:
        >>> log_gaussian_density([0.0], [0.0], [[1.0]])  # doctest: +ELLIPSIS
        -0.918938...
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    p = x.shape[0]
    if mean.shape[0] != p or cov.shape != (p, p):
        raise ValueError("dimension mismatch between point, mean and covariance")
    if not np.allclose(cov, cov.T, rtol=1e-10, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    chol, logdet, _ = _factor_covariances(cov)
    z = solve_triangular(chol, x - mean, lower=True)
    return -0.5 * (p * LOG_2PI + float(logdet) + float(z @ z))


@functools.cache
def _upper(p: int):
    """Row and column indices of the upper triangle of a p x p matrix (read-only)."""
    iu = np.triu_indices(p)
    iu[0].flags.writeable = iu[1].flags.writeable = False
    return iu


def _features(y: np.ndarray) -> np.ndarray:
    """Sufficient-statistic features [1, y, upper(y y')] of deviations y (..., p).

    Returns shape (..., d) with d = 1 + p + p(p+1)/2; F_g(x) is the value at
    y = x - c_g.
    """
    iu = _upper(y.shape[-1])
    ones = np.ones(y.shape[:-1] + (1,))
    return np.concatenate([ones, y, y[..., iu[0]] * y[..., iu[1]]], axis=-1)


def _log_density_coefs(weights, shifts, covs, reg_eps, row_ids=None):
    """Coefficients a with log w_g + log N(x; c_g + shift_g, cov_g) = a_g . F_g(x).

    Inputs are batched as (m, G), (m, G, p) and (m, G, p, p).  Returns the
    (m, G, d) coefficients and the covariances actually factored (see
    ``_factor_covariances``).
    """
    p = shifts.shape[-1]
    chol, logdet, factored = _factor_covariances(covs, reg_eps, row_ids)
    chol_inv = np.linalg.inv(chol)
    prec = chol_inv.swapaxes(-1, -2) @ chol_inv
    whitened = (chol_inv @ shifts[..., None])[..., 0]
    linear = (prec @ shifts[..., None])[..., 0]
    iu = _upper(p)
    quadratic = np.where(iu[0] == iu[1], -0.5, -1.0) * prec[..., iu[0], iu[1]]
    const = np.log(weights) - 0.5 * (p * LOG_2PI + logdet + (whitened * whitened).sum(axis=-1))
    return np.concatenate([const[..., None], linear, quadratic], axis=-1), factored


def _log_densities(feats, coefs):
    """Weighted log-densities a_g . F_g(x) for (m, G, d) coefficients, shape (m, G, n).

    Each problem and component gets its own (1, d) x (d, n) product, so a
    value never depends on which other problems share the batch.
    """
    return (coefs[:, :, None, :] @ feats.transpose(0, 2, 1))[:, :, 0, :]


def _posterior(logp):
    """Per-row log-likelihoods (m, n) and responsibilities (m, G, n) from log-densities."""
    top = logp.max(axis=1)  # (m, n)
    row_ll = top + np.log(np.exp(logp - top[:, None, :]).sum(axis=1))
    return row_ll, np.exp(logp - row_ll[:, None, :])


def _moments(feats, resp):
    """Responsibility-weighted feature sums resp @ F_g, shape (m, G, d)."""
    return (resp[:, :, None, :] @ feats)[:, :, 0, :]


def _problem_error(message: str, row_ids, i) -> DegenerateFitError:
    """The error for problem ``i``, naming its excluded row given ``row_ids``."""
    if row_ids is None:
        return DegenerateFitError(message)
    row = int(row_ids[i])
    return DegenerateFitError(f"leave-one-out refit for row {row}: {message}", subset_index=row)


def _params_from_moments(moments, p, row_ids=None):
    """Weights, mean shifts from the centers and covariances from (m, G, d) moments.

    A component whose responsibility mass falls below ``_MIN_SOFT_COUNT``
    raises ``DegenerateFitError``, naming the excluded row given ``row_ids``.
    """
    soft = moments[..., 0]  # (m, G)
    if np.any(soft < _MIN_SOFT_COUNT):
        i, g = np.unravel_index(int(np.argmin(soft)), soft.shape)
        raise _problem_error(f"component {g} collapsed to zero responsibility mass", row_ids, i)
    weights = soft / soft.sum(axis=-1, keepdims=True)
    shifts = moments[..., 1:p + 1] / soft[..., None]
    second = moments[..., p + 1:] / soft[..., None]
    iu = _upper(p)
    covs = np.empty(shifts.shape + (p,))
    covs[..., iu[0], iu[1]] = second
    covs[..., iu[1], iu[0]] = second
    covs -= shifts[..., :, None] * shifts[..., None, :]
    return weights, shifts, covs


def _weighted_log_densities(data: np.ndarray, model: MixtureModel, labels=None) -> np.ndarray:
    """log w_g + log N(x; mu_g, Sigma_g) per row and component, shape (n, G); no ridge.

    Given ``labels``, only each row's own component g = labels[row], shape (n,).
    """
    if data.shape[1] != model.dim:
        raise ValueError(
            f"data has dimension {data.shape[1]} but the model expects {model.dim}"
        )
    coefs, _ = _log_density_coefs(
        model.weights[None], np.zeros((1,) + model.means.shape), model.covariances[None], 0.0
    )
    if labels is not None:
        return (coefs[0, labels] * _features(data - model.means[labels])).sum(axis=-1)
    return _log_densities(_features(data[None] - model.means[:, None]), coefs)[0].T


def mixture_log_likelihood(data, model: MixtureModel) -> float:
    """Total mixture log-likelihood of the data, accumulated via log-sum-exp."""
    row_ll, _ = _posterior(_weighted_log_densities(validate_data(data), model).T[None])
    return float(row_ll.sum())


def approx_log_likelihood(data, model: MixtureModel, labels) -> float:
    """Hard-assignment log-likelihood.

    Each point contributes only its assigned component's weighted log density,
    which approximates the mixture log-likelihood increasingly well as the
    clusters separate.
    """
    arr = validate_data(data)
    lab = np.asarray(labels, dtype=int)
    if lab.shape != (arr.shape[0],):
        raise ValueError("labels must be one integer per data row")
    if lab.min() < 0 or lab.max() >= model.n_components:
        raise ValueError("labels refer to components outside the model")
    logp = _weighted_log_densities(arr, model)
    return float(logp[np.arange(arr.shape[0]), lab].sum())


def cluster_stats(data, labels, n_clusters: int | None = None) -> ClusterStats:
    """Sample counts, proportions, means and covariances for a hard clustering.

    Every cluster index in ``[0, n_clusters)`` must hold at least two points;
    otherwise an ``InsufficientPointsError`` naming the cluster is raised.
    """
    arr = validate_data(data)
    lab = np.asarray(labels, dtype=int)
    if lab.shape != (arr.shape[0],):
        raise ValueError("labels must be one integer per data row")
    n_comp = int(lab.max()) + 1 if n_clusters is None else int(n_clusters)
    if lab.min() < 0 or lab.max() >= n_comp:
        raise ValueError("labels out of range for the requested cluster count")
    n, p = arr.shape
    counts = np.bincount(lab, minlength=n_comp)
    means = np.empty((n_comp, p))
    covs = np.empty((n_comp, p, p))
    for g in range(n_comp):
        if counts[g] < 2:
            raise InsufficientPointsError(
                f"cluster {g} has {counts[g]} points; at least 2 are required",
                cluster=g,
            )
        block = arr[lab == g]
        means[g] = block.mean(axis=0)
        centered = block - means[g]
        covs[g] = centered.T @ centered / (counts[g] - 1)
    return ClusterStats(
        counts=counts,
        weights=counts / n,
        means=means,
        covariances=covs,
    )


def hard_labels(data, model: MixtureModel) -> np.ndarray:
    """Maximum-posterior component per row; ties go to the lower index."""
    arr = validate_data(data)
    logp = _weighted_log_densities(arr, model)
    return np.argmax(logp, axis=1)


@dataclass(frozen=True)
class _EmStart:
    """Warm start shared by a batch of EM problems: the start model, the
    features centred on its means, and its E-step on every row."""

    model: MixtureModel
    covs: np.ndarray  # (G, p, p), as factored
    feats: np.ndarray  # (G, n, d)
    row_ll: np.ndarray  # (n,)
    resp: np.ndarray  # (G, n)
    moments: np.ndarray  # (G, d)


def _em_start(data: np.ndarray, model: MixtureModel, reg_eps: float) -> _EmStart:
    feats = _features(data[None] - model.means[:, None])
    coefs, covs = _log_density_coefs(
        model.weights[None], np.zeros((1,) + model.means.shape), model.covariances[None], reg_eps
    )
    row_ll, resp = _posterior(_log_densities(feats, coefs))
    return _EmStart(model, covs[0], feats, row_ll[0], resp[0], _moments(feats, resp)[0])


def _em_sweeps(start: _EmStart, leave_out=None, *, max_iter: int, rel_tol: float,
               reg_eps: float):
    """Warm-started EM sweeps for a batch of problems that share ``start``.

    With ``leave_out`` None the batch is one problem on every row; otherwise
    problem i leaves out row ``leave_out[i]``, whose log-likelihood term and
    weighted features are taken off the shared first E-step.  A problem stops
    once its relative log-likelihood change drops below ``rel_tol`` or after
    ``max_iter`` sweeps; a fall by more than 1e-7 max(1, |l|) raises
    ``DegenerateFitError`` unless the problem's covariances needed a ridge.
    Returns per problem the final log-likelihood (m,), the parameters it
    belongs to as ``(weights, means, covs)``, and the log-likelihood before
    the first and after every sweep, (sweeps + 1, m), held once it stops.
    With ``leave_out`` None it also returns the hard labels (n,) of the last
    E-step, which belongs to the returned parameters (ties go to the lower
    component); otherwise the labels are None.
    """
    feats, p = start.feats, start.model.dim
    rows = None if leave_out is None else np.asarray(leave_out, dtype=int)
    if rows is None:
        loglik = start.row_ll.sum(keepdims=True)
        moments = start.moments[None]
    else:
        loglik = start.row_ll.sum() - start.row_ll[rows]
        removed = start.resp[:, rows].T[..., None] * feats[:, rows].transpose(1, 0, 2)
        moments = start.moments - removed
    m = loglik.shape[0]
    weights = np.repeat(start.model.weights[None], m, axis=0)
    shifts = np.zeros((m,) + start.model.means.shape)
    covs = np.repeat(start.covs[None], m, axis=0)
    history = [loglik.copy()]
    active = np.arange(m)
    for _ in range(max_iter):
        excluded = None if rows is None else rows[active]
        w, s, c = _params_from_moments(moments, p, excluded)
        coefs, factored = _log_density_coefs(w, s, c, reg_eps, excluded)
        logp = _log_densities(feats, coefs)
        row_ll, resp = _posterior(logp)
        if excluded is not None:
            batch = np.arange(active.shape[0])
            row_ll[batch, excluded] = 0.0
            resp[batch, :, excluded] = 0.0
        old, new = loglik[active], row_ll.sum(axis=1)
        scale = np.maximum(1.0, np.abs(old))
        fell = new < old - 1e-7 * scale
        if factored is not c:  # a problem whose covariances were ridged is exempt
            fell &= (factored == c).all(axis=(1, 2, 3))
        if fell.any():
            i = int(np.argmax(fell))
            raise _problem_error(
                f"log-likelihood decreased from {float(old[i])} to {float(new[i])}; "
                "EM update is inconsistent", excluded, i,
            )
        loglik[active], weights[active], shifts[active], covs[active] = new, w, s, factored
        history.append(loglik.copy())
        keep = ~(np.abs(new - old) / np.maximum(scale, np.abs(new)) < rel_tol)
        if not keep.any():
            break
        if not keep.all():
            active, resp = active[keep], resp[keep]
        moments = _moments(feats, resp)
    labels = logp[0].argmax(axis=0) if rows is None else None
    return loglik, (weights, start.model.means + shifts, covs), np.array(history), labels


def em_refine(data, model: MixtureModel, *, max_iter: int = 1000,
              rel_tol: float = 1e-8, reg_eps: float = 1e-8) -> EmRun:
    """Run EM updates from explicit starting parameters (one problem of ``_em_sweeps``).

    The log-likelihood history is monotone nondecreasing up to float rounding
    on every sweep whose covariances factor without a ridge; a sweep that had
    to ridge a covariance is exempt, since the ridge moves the parameters off
    the EM update.  Iteration stops once the relative change drops below
    ``rel_tol`` or after ``max_iter`` update sweeps.  The returned
    log-likelihood is always that of the returned parameters, whose
    covariances are the ones actually factored; the returned labels are the
    maximum-posterior components of the final E-step under those parameters.
    """
    arr = validate_data(data)
    loglik, (weights, means, covs), history, labels = _em_sweeps(
        _em_start(arr, model, reg_eps), max_iter=max_iter, rel_tol=rel_tol, reg_eps=reg_eps
    )
    return EmRun(
        model=MixtureModel(weights=weights[0], means=means[0], covariances=covs[0]),
        loglik=float(loglik[0]),
        history=tuple(history[:, 0].tolist()),
        labels=labels,
    )


def _content_uniforms(data: np.ndarray, key_seed: int, draw: int) -> np.ndarray:
    """One uniform in (0, 1] per row, derived from a keyed hash of the row bytes.

    Keying by content rather than position keeps seeding decisions stable
    under row permutation.
    """
    key = int(key_seed).to_bytes(8, "little") + int(draw).to_bytes(8, "little")
    keyed = hashlib.blake2b(key=key, digest_size=8)
    raw = data.tobytes()
    width = len(raw) // data.shape[0]
    digests = []
    for start in range(0, len(raw), width):
        h = keyed.copy()
        h.update(raw[start:start + width])
        digests.append(h.digest())
    # (digest + 1) / 2**64, rounded once: the +1 is exact in uint64, where
    # only the largest digest wraps to 0 and stands for 2**64
    counts = np.frombuffer(b"".join(digests), dtype="<u8") + np.uint64(1)
    return np.where(counts == 0, 2.0 ** 64, counts.astype(float)) / 18446744073709551616.0


def _seed_mean_indices(data: np.ndarray, n_clusters: int, key_seed: int) -> list[int]:
    """k-means++ style center selection via deterministic exponential races."""
    n = data.shape[0]
    uniforms = _content_uniforms(data, key_seed, 0)
    chosen = [int(np.argmin(-np.log(uniforms)))]
    dist_sq = ((data - data[chosen[0]]) ** 2).sum(axis=1)
    for draw in range(1, n_clusters):
        weights = dist_sq.copy()
        if weights.max() <= 0.0:
            # all remaining points coincide with a chosen center; fall back to
            # the lowest unchosen row
            mask = np.ones(n, dtype=bool)
            mask[chosen] = False
            chosen.append(int(np.flatnonzero(mask)[0]) if mask.any() else chosen[-1])
            continue
        uniforms = _content_uniforms(data, key_seed, draw)
        with np.errstate(divide="ignore"):
            race = -np.log(uniforms) / weights
        pick = int(np.argmin(race))
        chosen.append(pick)
        dist_sq = np.minimum(dist_sq, ((data - data[pick]) ** 2).sum(axis=1))
    return chosen


def _initial_model(data: np.ndarray, n_clusters: int, key_seed: int, reg_eps: float) -> MixtureModel:
    n, p = data.shape
    centers = data[_seed_mean_indices(data, n_clusters, key_seed)].copy()
    if n >= 2:
        pooled = np.atleast_2d(np.cov(data, rowvar=False, ddof=1))
    else:
        pooled = np.eye(p)
    pooled = _factor_covariances(pooled, max(reg_eps, 1e-10))[2]
    covs = np.broadcast_to(pooled, (n_clusters, p, p)).copy()
    weights = np.full(n_clusters, 1.0 / n_clusters)
    return MixtureModel(weights=weights, means=centers, covariances=covs)


def em_fit(data, n_clusters: int, config: FitConfig = FitConfig()):
    """Fit a Gaussian mixture by restarted EM.

    Returns ``(model, labels, loglik)`` for the restart with the highest
    log-likelihood (ties keep the lowest restart index).  Labels are hard
    maximum-posterior assignments with ties to the lower component.  A restart
    whose solution leaves any hard cluster with fewer than two points is
    discarded as degenerate; if every restart degenerates a
    ``DegenerateFitError`` is raised.
    """
    arr = validate_data(data)
    n, p = arr.shape
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if n < n_clusters:
        raise ValueError(f"cannot fit {n_clusters} clusters to {n} points")
    if n <= n_clusters * (p + 1):
        warnings.warn(
            f"only {n} points for {n_clusters} clusters in dimension {p}; "
            "the fit is ill-posed",
            stacklevel=2,
        )
    best: tuple[float, int, EmRun, np.ndarray] | None = None
    first_failure: Exception | None = None
    first_failure_run = -1
    for restart in range(config.restarts):
        key_seed = derive_seed(config.seed, 11, restart)
        try:
            start = _initial_model(arr, n_clusters, key_seed, config.reg_eps)
            run = em_refine(
                arr,
                start,
                max_iter=config.max_iter,
                rel_tol=config.rel_tol,
                reg_eps=config.reg_eps,
            )
            labels = run.labels
            counts = np.bincount(labels, minlength=n_clusters)
            if np.any(counts < 2):
                g = int(np.argmin(counts))
                raise DegenerateFitError(
                    f"restart {restart}: hard cluster {g} retained {counts[g]} points",
                    run_index=restart,
                )
        except (DegenerateFitError, SingularCovarianceError) as exc:
            if first_failure is None:
                first_failure = exc
                first_failure_run = restart
            continue
        if best is None or run.loglik > best[0]:
            best = (run.loglik, restart, run, labels)
    if best is None:
        raise DegenerateFitError(
            f"all {config.restarts} restarts degenerated; first failure "
            f"(restart {first_failure_run}): {first_failure}",
            run_index=first_failure_run,
        ) from first_failure
    _, _, run, labels = best
    return run.model, labels, run.loglik
