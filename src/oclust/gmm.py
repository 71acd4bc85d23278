"""Gaussian mixture core: densities, likelihoods, EM fitting, cluster statistics.

The fitting path is deliberately plain maximum-likelihood EM:

* means are seeded from data points with a k-means++ style weighted draw,
* covariances start at the pooled covariance of the whole sample,
* mixing weights start uniform,
* several independent restarts are run and the best log-likelihood wins.

Seeding draws are keyed by row *content* (a keyed hash of the row bytes feeds
an exponential race), so a fit is reproducible for a given seed and
equivariant under row reordering.  A fit splits the data into row bytes once
and computes the pooled start covariance once, for all of its restarts; each
draw keys one BLAKE2b state and copies it for every row, and the digests are
read as one uint64 array.

Every mixture density and EM sweep in the package, the single fit and the
leave-one-out refits, runs on one kernel over sufficient
statistics.  Every row x gets, per component g, the features
F_g(x) = [1, y, upper(y y')] with y = x - c_g, where the centre c_g is a fixed
mean (the starting mean of a fit); centring per component keeps the second
moments well conditioned even for data far from the origin.  The features are
built once per call, feature-major: a C-contiguous (G, d, n) array, so that
each feature of a component is one contiguous row over the data.  One cached
``_layout(p)`` says where each feature sits, for the features, the
coefficients and the M-step alike.  An E-step
folds log w_g, the log-determinant and the quadratic form into one
coefficient vector a_g, so that log w_g + log N(x; mu_g, Sigma_g) =
a_g . F_g(x), and each problem and component gets its log-densities from one
(1, d) x (d, n) product (a gemv over those rows).  The posterior takes one
exp per entry: e = exp(logp - top) with top the row maximum, then
row log-likelihood top + log sum_g e and responsibilities e / sum_g e.  An
M-step turns the moments F_g @ resp (again one gemv per problem and
component) into mean c_g + S1/S0 and covariance S2/S0 - d d' with d = S1/S0.
No product spans several problems, so a problem's values never depend on the
batch it runs in.  Arrays carry a leading problem axis m (m = 1 for a single
fit).  One helper, ``_factor_covariances``, turns every covariance stack into
inverse Cholesky factors and log-determinants: for p <= 2 in closed form,
elementwise over the stack, since a LAPACK call on a 2 x 2 block costs far
more than its arithmetic and concurrent calls from refit threads serialize
inside OpenBLAS; for p >= 3 with ``np.linalg.cholesky`` and ``np.linalg.inv``.
The choice depends on p alone, never on the batch, and ``_singular`` uses the
same pivot test.  One helper, ``_evaluate``, puts a model
on the data (its features and its log-densities) for the start of EM, the
mixture log-likelihood and the hard labels.  No covariance is ridged: one
that does not factor fails the fit or refit that reached it, as a spurious
singular maximum.  The single-point formulas share ``_point_terms``, kept
apart from the kernel as the oracle it is tested against.  The
hard-assignment log-likelihood and the frozen subset deltas read each row's
assigned component from those same log-densities
(``_assigned_log_densities``).  One EM loop, ``_em_sweeps``, runs the single
fit (one problem) and the leave-one-out refits (one problem per left-out row)
under one convergence rule and one set of failures, returned per problem
while the others run on; the caller decides what a failure means.  A single
fit's hard labels are the argmax of its final E-step, which belongs to the
returned parameters, so ``em_fit`` takes no extra pass over the data for
them; it numbers the winning fit's components by the first row each one owns.
Its E-steps run in place, the responsibilities overwriting the log-densities,
in one flat buffer (``_em_workspace``) that a caller can own and reuse for
every batch that fits, so a sweep allocates nothing of size n.

A leave-one-out pass (``loo_refit_logliks``) shares one warm start with all
its batches and threads.  One plan (``_refit_plan``) and one budget
(``_refit_cells``) set its batches, threads and workspaces, none of which
outlives the pass, and each refit is held to the single fit's convergence
test and failures.
"""

from __future__ import annotations

import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, InsufficientPointsError, SingularCovarianceError
from .rng import check_seed, derive_seed

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
    """Parameters of a Gaussian mixture: weights (G,), means (G, p), covariances (G, p, p).

    Checked when built: shapes agree, every field is finite, the weights are
    positive and sum to 1, and the covariances are symmetric.  Positive
    definiteness is checked where the model is used.
    """

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
        for name in ("weights", "means", "covariances"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.weights <= 0):
            raise ValueError("mixing weights must be strictly positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("mixing weights must sum to 1 within 1e-12")
        _check_symmetric(self.covariances)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`em_fit`.

    Attributes:
        restarts: number of independently seeded EM runs; the best wins.
        rel_tol: relative log-likelihood change that counts as converged.
            Its default is the package's only one: ``em_refine``,
            ``loo_refit_logliks`` and ``subset_deltas`` read it.
        seed: master seed, an integer >= 0; every random draw derives from it.

    Each run stops after at most ``em_refine``'s default cap of update sweeps.
    """

    restarts: int = 3
    rel_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        _check_em_limits(self.rel_tol)
        check_seed(self.seed)


def _check_em_limits(rel_tol: float, max_iter: int = 1) -> None:
    """Raise ``ValueError`` unless ``max_iter >= 1`` and ``rel_tol > 0`` (not NaN);
    ``FitConfig``, which sets no sweep cap, passes ``rel_tol`` alone."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class ClusterStats(MixtureModel):
    """The sample mixture of a hard assignment, with its cluster sizes.

    weights (G,) holds n_g / n, means (G, p) the sample means, covariances
    (G, p, p) the sample covariances with divisor n_g - 1, all checked as for
    any ``MixtureModel``; counts (G,) holds n_g.
    """

    counts: np.ndarray


@dataclass(frozen=True)
class EmRun:
    """One EM run: final model, its log-likelihood, the per-sweep history and
    the hard maximum-posterior labels under the final model."""

    model: MixtureModel
    loglik: float
    history: tuple
    labels: np.ndarray


def _check_symmetric(covs: np.ndarray) -> None:
    """Raise ``ValueError`` unless every block of a (..., p, p) stack equals its
    transpose to rtol 1e-10, atol 1e-12, naming the first bad component."""
    swapped = covs.swapaxes(-1, -2)
    if (covs == swapped).all():
        return
    close = np.isclose(covs, swapped, rtol=1e-10, atol=1e-12).all(axis=(-1, -2))
    if not close.all():
        where = f" of component {np.flatnonzero(~close)[0]}" if close.ndim else ""
        raise ValueError(f"covariance{where} is not symmetric")


def _inverse_factors(covs):
    """Inverse lower Cholesky factors L^-1 and log-determinants of a
    covariance stack (..., p, p), or None when some block is not positive
    definite.

    For p <= 2 both are closed-form and elementwise over the stack:
    l11 = sqrt(a), l21 = b (1/l11), l22 = sqrt(c - l21^2), and L^-1 holds
    1/l11, 1/l22 and -l21/(l11 l22).  A block fails, as in LAPACK's potrf,
    when a pivot (a, then c - l21^2) is not positive or is NaN, and each
    pivot is tested before anything divides by it.  At these sizes a LAPACK
    call costs far more than its arithmetic, and concurrent calls from
    refit threads serialize inside OpenBLAS.  For p >= 3 the factors come
    from ``np.linalg.cholesky`` and ``np.linalg.inv``.  The choice depends
    on p alone, so no value depends on the batch.
    """
    p = covs.shape[-1]
    if p > 2:
        try:
            chol = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError:
            return None
        return (np.linalg.inv(chol),
                2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1))
    pivot = covs[..., 0, 0]
    if not (pivot > 0).all():
        return None
    inv = np.zeros(covs.shape)
    r1 = np.divide(1.0, np.sqrt(pivot), out=inv[..., 0, 0])
    logdet = np.log(pivot)
    if p == 2:
        l21 = covs[..., 1, 0] * r1
        pivot = covs[..., 1, 1] - l21 * l21
        if not (pivot > 0).all():
            return None
        r2 = np.divide(1.0, np.sqrt(pivot), out=inv[..., 1, 1])
        np.multiply(-l21 * r1, r2, out=inv[..., 1, 0])
        logdet += np.log(pivot)
    return inv, logdet


def _singular(covs) -> SingularCovarianceError | None:
    """The error naming the first block of a covariance stack (..., p, p) that
    is not positive definite by ``_inverse_factors``' pivot test, or None
    when every block is.  The error is made, not raised, so no traceback
    ties it to a caller's frame."""
    for idx in np.ndindex(covs.shape[:-2]):
        if _inverse_factors(covs[idx]) is None:
            where = f"component {idx[-1]} covariance" if idx else "covariance"
            return SingularCovarianceError(f"{where} is not positive definite")
    return None


def _factor_covariances(covs):
    """Inverse Cholesky factors and log-determinants of a covariance stack (..., p, p).

    Returns ``(chol_inv, logdet)`` from ``_inverse_factors``: the inverse
    lower factors and the log-determinants (shape ``covs.shape[:-2]``).  A
    block that is not positive definite raises ``SingularCovarianceError``
    naming its component (``_singular``).
    """
    covs = np.asarray(covs, dtype=float)
    factors = _inverse_factors(covs)
    if factors is None:
        raise _singular(covs)
    return factors


def _point_terms(x, mean, cov):
    """``(p, log det cov, (x - mean)' cov^-1 (x - mean))`` for one point, from
    one checked LAPACK Cholesky factor and one triangular solve, whatever p:
    the oracle of the kernel's closed form."""
    x = np.asarray(x, dtype=float).reshape(-1)
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    p = x.shape[0]
    if mean.shape[0] != p or cov.shape != (p, p):
        raise ValueError("dimension mismatch between point, mean and covariance")
    for name, value in (("point", x), ("mean", mean), ("covariance", cov)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    _check_symmetric(cov)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        chol = None  # raised below, outside the handler, with no chained error
    if chol is None:
        raise SingularCovarianceError("covariance is not positive definite")
    z = np.linalg.solve(chol, x - mean)
    return p, float(2.0 * np.log(np.diagonal(chol)).sum()), float(z @ z)


def log_gaussian_density(x, mean, cov) -> float:
    """Log density of a multivariate Gaussian at a single point.

    Example:
        >>> log_gaussian_density([0.0], [0.0], [[1.0]])  # doctest: +ELLIPSIS
        -0.918938...
    """
    p, logdet, maha = _point_terms(x, mean, cov)
    return -0.5 * (p * LOG_2PI + logdet + maha)


@functools.cache
def _layout(p: int):
    """The feature layout [1, y, upper(y y')] at dimension p, as read-only tables:
    the row and column indices (i, j) of upper(y y'), i <= j in row-major order;
    the (p, p) position of y_i y_j in the features without their constant,
    [y, upper(y y')]; and the factor of each upper precision entry in the
    quadratic coefficients, -1/2 on the diagonal and -1 off it."""
    rows, cols = np.triu_indices(p)
    index = np.empty((p, p), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = p + np.arange(rows.size)
    scale = np.where(rows == cols, -0.5, -1.0)
    for table in (rows, cols, index, scale):
        table.flags.writeable = False
    return (rows, cols), index, scale


def _features(data: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Sufficient-statistic features [1, y, upper(y y')] of (n, p) data about
    (G, p) centres, y = x - c_g.

    Returns them feature-major: a C-contiguous (G, d, n) array with
    d = 1 + p + p(p+1)/2, whose column (g, :, i) is F_g(x_i).  Each feature,
    y included, is written straight into the result, so nothing of the
    result's size is allocated besides it.
    """
    n, p = data.shape
    iu = _layout(p)[0]
    out = np.empty((centres.shape[0], 1 + p + iu[0].size, n))
    out[:, 0] = 1.0
    y = np.subtract(data.T[None], centres[:, :, None], out=out[:, 1:1 + p])
    for k, (i, j) in enumerate(zip(*iu), start=1 + p):
        np.multiply(y[:, i], y[:, j], out=out[:, k])
    return out


def _log_density_coefs(weights, shifts, covs):
    """Coefficients a with log w_g + log N(x; c_g + shift_g, cov_g) = a_g . F_g(x).

    Inputs are batched as (m, G), (m, G, p) and (m, G, p, p).  Returns the
    (m, G, d) coefficients, written into one array.  With U = L^-1 from
    ``_factor_covariances``, z = U shift, the precision is U'U and the linear
    coefficients are U'z.  For p <= 2, where U is closed-form, they are built
    entry by entry over the stack with no stacked matmul (a matmul per 2 x 2
    block costs more than its arithmetic); for p >= 3 by stacked matmuls.  A
    covariance that is not positive definite raises ``SingularCovarianceError``.
    """
    p = shifts.shape[-1]
    chol_inv, logdet = _factor_covariances(covs)
    iu, _, scale = _layout(p)
    coefs = np.empty(shifts.shape[:-1] + (1 + p + iu[0].size,))
    if p > 2:
        prec = chol_inv.swapaxes(-1, -2) @ chol_inv
        whitened = (chol_inv @ shifts[..., None])[..., 0]
        quad = (whitened * whitened).sum(axis=-1)
        coefs[..., 1:p + 1] = (prec @ shifts[..., None])[..., 0]
        np.multiply(scale, prec[..., iu[0], iu[1]], out=coefs[..., p + 1:])
    else:  # the quadratic slots take upper(U'U) = u11^2 [+ u21^2, u21 u22, u22^2], then scale
        u11, s1 = chol_inv[..., 0, 0], shifts[..., 0]
        z1 = u11 * s1
        quad = z1 * z1
        np.multiply(u11, z1, out=coefs[..., 1])
        np.multiply(u11, u11, out=coefs[..., p + 1])
        if p == 2:
            u21, u22, s2 = chol_inv[..., 1, 0], chol_inv[..., 1, 1], shifts[..., 1]
            z2 = u21 * s1 + u22 * s2
            quad += z2 * z2
            coefs[..., 1] += u21 * z2
            np.multiply(u22, z2, out=coefs[..., 2])
            coefs[..., 3] += u21 * u21
            np.multiply(u21, u22, out=coefs[..., 4])
            np.multiply(u22, u22, out=coefs[..., 5])
        coefs[..., p + 1:] *= scale
    np.subtract(np.log(weights), 0.5 * (p * LOG_2PI + logdet + quad), out=coefs[..., 0])
    return coefs


def _log_densities(feats, coefs, out=None):
    """Weighted log-densities a_g . F_g(x) for (m, G, d) coefficients and
    (G, d, n) features, shape (m, G, n).

    Each problem and component gets its own (1, d) x (d, n) product, a gemv
    over the contiguous feature rows, so a value never depends on which other
    problems share the batch.  Given ``out`` (m, G, n), the values are
    written there.
    """
    if out is None:
        out = np.empty(coefs.shape[:2] + feats.shape[2:])
    np.matmul(coefs[:, :, None, :], feats, out=out[:, :, None, :])
    return out


def _posterior(logp, top=None, row_ll=None):
    """Per-row log-likelihoods (m, n) and responsibilities (m, G, n) from
    log-densities (m, G, n), which the responsibilities overwrite.

    ``top`` and ``row_ll`` (m, n) are optional buffers.  One exp per entry:
    with e = exp(logp - top) and s = sum_g e, the responsibilities are e / s
    and the row log-likelihood is top + log s.
    """
    top = np.maximum.reduce(logp, axis=1, out=top)
    logp -= top[:, None, :]
    np.exp(logp, out=logp)
    row_ll = np.add.reduce(logp, axis=1, out=row_ll)
    logp /= row_ll[:, None, :]
    np.log(row_ll, out=row_ll)
    row_ll += top
    return row_ll, logp


def _moments(feats, resp):
    """Responsibility-weighted feature sums F_g @ resp for (G, d, n) features
    and (m, G, n) responsibilities, shape (m, G, d): one gemv over the
    contiguous feature rows per problem and component."""
    return (feats @ resp[..., None])[..., 0]


def _params_from_moments(moments, p):
    """Weights, mean shifts and covariances from (m, G, d) moments of positive mass."""
    soft = moments[..., 0]  # (m, G)
    weights = soft / soft.sum(axis=-1, keepdims=True)
    scaled = moments[..., 1:] / soft[..., None]  # [S1, upper(S2)] / S0
    shifts = scaled[..., :p]
    covs = scaled[..., _layout(p)[1]]
    covs -= shifts[..., :, None] * shifts[..., None, :]
    return weights, shifts, covs


def _evaluate(data: np.ndarray, model: MixtureModel):
    """A model on every row: its features centred on its means, feature-major
    (G, d, n) and C-contiguous, and its log-densities log w_g + log N(x; mu_g,
    Sigma_g) as (1, G, n).  A covariance that is not positive definite raises
    ``SingularCovarianceError`` naming its component."""
    if data.shape[1] != model.dim:
        raise ValueError(
            f"data has dimension {data.shape[1]} but the model expects {model.dim}"
        )
    coefs = _log_density_coefs(model.weights[None], np.zeros((1,) + model.means.shape),
                               model.covariances[None])
    feats = _features(data, model.means)
    return feats, _log_densities(feats, coefs)


def mixture_log_likelihood(data, model: MixtureModel) -> float:
    """Total mixture log-likelihood of the data, accumulated via log-sum-exp."""
    row_ll, _ = _posterior(_evaluate(validate_data(data), model)[1])
    return float(row_ll.sum())


def _component_labels(labels, n: int, n_components: int) -> np.ndarray:
    """Labels as an int array of shape (n,); raises ``ValueError`` unless each
    is an integer naming one of ``n_components`` components."""
    raw = np.asarray(labels)
    if raw.shape != (n,):
        raise ValueError("labels must be one integer per data row")
    with np.errstate(invalid="ignore"):
        lab = raw.astype(int, copy=False)
    bad = np.flatnonzero(lab != raw)
    if bad.size:
        raise ValueError(f"label of row {bad[0]} is not an integer: {raw[bad[0]]}")
    if lab.min() < 0 or lab.max() >= n_components:
        raise ValueError("labels refer to components outside the model")
    return lab


def _assigned_log_densities(data: np.ndarray, model: MixtureModel, labels) -> np.ndarray:
    """log w_g + log N(x; mu_g, Sigma_g) of each row under its assigned
    component g = labels[row], shape (n,), read from ``_evaluate``."""
    lab = _component_labels(labels, data.shape[0], model.n_components)
    return _evaluate(data, model)[1][0, lab, np.arange(data.shape[0])]


def approx_log_likelihood(data, model: MixtureModel, labels) -> float:
    """Hard-assignment log-likelihood.

    Each point contributes only its assigned component's weighted log density,
    which approximates the mixture log-likelihood increasingly well as the
    clusters separate.
    """
    return float(_assigned_log_densities(validate_data(data), model, labels).sum())


def cluster_stats(data, labels, n_clusters: int) -> ClusterStats:
    """The sample mixture (proportions, means and covariances) and counts of a
    hard clustering into ``n_clusters`` clusters.

    Labels must be one integer in ``[0, n_clusters)`` per row, or
    ``ValueError`` is raised.  Every cluster must hold at least two points;
    otherwise an ``InsufficientPointsError`` naming the cluster is raised.  A
    covariance that overflows raises ``ValueError`` naming its cluster.
    """
    arr = validate_data(data)
    lab = _component_labels(labels, arr.shape[0], n_clusters)
    n, p = arr.shape
    counts = np.bincount(lab, minlength=n_clusters)
    means = np.empty((n_clusters, p))
    covs = np.empty((n_clusters, p, p))
    for g in range(n_clusters):
        if counts[g] < 2:
            raise InsufficientPointsError(
                f"cluster {g} has {counts[g]} points; at least 2 are required",
                cluster=g,
            )
        block = arr[lab == g]
        with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
            means[g] = block.mean(axis=0)
            centered = block - means[g]
            covs[g] = centered.T @ centered / (counts[g] - 1)
        if not np.isfinite(covs[g]).all():
            raise ValueError(f"sample covariance of cluster {g} overflows a float")
    return ClusterStats(weights=counts / n, means=means, covariances=covs, counts=counts)


def hard_labels(data, model: MixtureModel) -> np.ndarray:
    """Maximum-posterior component per row; ties go to the lower index."""
    return _evaluate(validate_data(data), model)[1][0].argmax(axis=0)


@dataclass(frozen=True)
class _EmStart:
    """Warm start shared by a batch of EM problems: the start model, the
    features centred on its means, and its E-step on every row."""

    model: MixtureModel
    feats: np.ndarray  # (G, d, n): feature-major, C-contiguous
    row_ll: np.ndarray  # (n,)
    resp: np.ndarray  # (G, n)
    moments: np.ndarray  # (G, d)


def _em_start(data: np.ndarray, model: MixtureModel) -> _EmStart:
    feats, logp = _evaluate(data, model)
    row_ll, resp = _posterior(logp)
    return _EmStart(model, feats, row_ll[0], resp[0], _moments(feats, resp)[0])


def _em_workspace(cells: int, n_components: int) -> np.ndarray:
    """A flat ``_em_sweeps`` workspace for batches of up to ``cells`` problem-rows
    (problems times rows): G + 2 floats per cell."""
    return np.empty(cells * (n_components + 2))


def _em_sweeps(start: _EmStart, leave_out=None, *, max_iter: int, rel_tol: float, work=None):
    """Warm-started EM sweeps for a batch of problems that share ``start``.

    With ``leave_out`` None the batch is one problem on every row; otherwise
    problem i leaves out row ``leave_out[i]``, whose log-likelihood term and
    weighted features are taken off the shared first E-step.  A problem stops
    once its relative log-likelihood change drops below ``rel_tol`` or after
    ``max_iter`` sweeps.  It stops as failed when a component's mass falls
    below ``_MIN_SOFT_COUNT``, when a covariance is not positive definite, or
    when its log-likelihood falls by more than 1e-7 max(1, |l|) on a sweep;
    the others run on, to the same bits.  Each sweep's coefficients come from
    ``_log_density_coefs``: for p <= 2 with closed-form factors and no LAPACK
    call or stacked matmul (on a refit batch of 125 problems in about a
    quarter of the LAPACK path's time; a single fit pays a few microseconds
    more), for p >= 3 from LAPACK.  The E-steps run in place in ``work``
    (``_em_workspace`` of at least m n cells; made here when None), in
    C-contiguous views of its leading floats, on their rows for the active
    problems.  While every problem is active the per-problem state is
    replaced whole each sweep; once one has stopped, the active rows are
    written into a copy of the log-likelihoods, so no history row is written
    after it is recorded.
    Returns ``(loglik, history, failures, fit)``: per problem the final
    log-likelihood (m,) and the log-likelihood before the first and after
    every sweep, (sweeps + 1, m), held once it stops; a dict of failed
    problems to their errors; and, when ``leave_out`` is None and the one
    problem did not fail, ``fit = ((weights, means, covs), labels)``, the
    parameters the final log-likelihood belongs to and the hard labels (n,)
    as the argmax of the last E-step's responsibilities (the maximum
    posterior, ties to the lower component), else None.
    """
    feats, p = start.feats, start.model.dim
    rows = None if leave_out is None else np.asarray(leave_out, dtype=int)
    loglik, moments = start.row_ll.sum(keepdims=True), start.moments[None]
    if rows is not None:  # each refit takes its row's terms off the shared start
        loglik = loglik - start.row_ll[rows]
        moments = moments - start.resp[:, rows].T[..., None] * feats[:, :, rows].transpose(2, 0, 1)
    m, n_comp, n = loglik.shape[0], start.model.n_components, feats.shape[2]
    if work is None:
        work = _em_workspace(m * n, n_comp)
    block = m * n_comp * n
    logp = work[:block].reshape(m, n_comp, n)
    tops, row_lls = work[block:block + 2 * m * n].reshape(2, m, n)
    history = [loglik]
    active = np.arange(m)
    failures = {}
    for _ in range(max_iter):
        if np.fmin.reduce(moments[..., 0], axis=None) < _MIN_SOFT_COUNT:  # fmin skips NaN
            collapsed = (moments[..., 0] < _MIN_SOFT_COUNT).any(axis=1)
            for i in np.flatnonzero(collapsed):
                g = int(np.argmin(moments[i, :, 0]))
                failures[int(active[i])] = DegenerateFitError(
                    f"component {g} collapsed to zero responsibility mass")
            active, moments = active[~collapsed], moments[~collapsed]
        w, s, c = _params_from_moments(moments, p)
        try:
            coefs = _log_density_coefs(w, s, c)
        except SingularCovarianceError:  # name each failed problem; the others run on
            errors = {int(i): _singular(block) for i, block in zip(active, c)}
            failures.update((i, error) for i, error in errors.items() if error is not None)
            kept = np.array([error is None for error in errors.values()])
            active, w, s, c = active[kept], w[kept], s[kept], c[kept]
            coefs = _log_density_coefs(w, s, c)
        k = active.shape[0]  # when 0, the sweep runs on empty arrays and ends the loop
        row_ll, resp = _posterior(_log_densities(feats, coefs, out=logp[:k]), tops[:k],
                                  row_lls[:k])
        if rows is not None:
            batch, excluded = np.arange(k), rows[active]
            row_ll[batch, excluded] = 0.0
            resp[batch, :, excluded] = 0.0
        new = row_ll.sum(axis=1)
        if k == m:
            old, loglik = loglik, new
        else:
            old, loglik = loglik[active], loglik.copy()  # history holds the old array
            loglik[active] = new
        history.append(loglik)
        scale = np.maximum(1.0, np.abs(old))
        fell = new < old - 1e-7 * scale
        stop = np.abs(new - old) / np.maximum(scale, np.abs(new)) < rel_tol
        if np.count_nonzero(fell):
            for i in np.flatnonzero(fell):
                failures[int(active[i])] = DegenerateFitError(
                    f"log-likelihood decreased from {float(old[i])} to {float(new[i])}; "
                    "EM update is inconsistent")
            stop |= fell
        stopped = np.count_nonzero(stop)
        if stopped == k:
            break
        moments = _moments(feats, resp)
        if stopped:
            active, moments = active[~stop], moments[~stop]
    fit = None
    if rows is None and not failures:
        fit = (w[0], start.model.means + s[0], c[0]), resp[0].argmax(axis=0)
    return loglik, np.array(history), failures, fit


def em_refine(data, model: MixtureModel, *, max_iter: int = 1000,
              rel_tol: float = FitConfig.rel_tol) -> EmRun:
    """Run EM updates from explicit starting parameters (one problem of ``_em_sweeps``).

    A covariance that is not positive definite, at the start or after a
    sweep, raises ``SingularCovarianceError`` naming its component.  The
    log-likelihood history is monotone nondecreasing up to float rounding, or
    ``DegenerateFitError`` is raised.  Iteration stops once the relative
    change drops below ``rel_tol`` or after ``max_iter`` update sweeps;
    ``max_iter`` below 1 or ``rel_tol`` not positive raises ``ValueError``.
    The default cap of 1,000 sweeps is the package's single-fit cap:
    ``em_fit``'s restarts run with it, and no setting changes it.
    The returned log-likelihood is always that of the returned parameters;
    the returned labels are the maximum-posterior components of the final
    E-step under those parameters.
    """
    _check_em_limits(rel_tol, max_iter)
    arr = validate_data(data)
    loglik, history, failures, fit = _em_sweeps(_em_start(arr, model), max_iter=max_iter,
                                                rel_tol=rel_tol)
    if failures:
        raise failures[0]
    (weights, means, covs), labels = fit
    return EmRun(
        model=MixtureModel(weights=weights, means=means, covariances=covs),
        loglik=float(loglik[0]),
        history=tuple(history[:, 0].tolist()),
        labels=labels,
    )


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


def loo_refit_logliks(data, model: MixtureModel, *, rel_tol: float = FitConfig.rel_tol,
                      max_iter: int = 100, n_threads: int = 1) -> np.ndarray:
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
    _check_em_limits(rel_tol, max_iter)
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
            logliks[rows], _, failed, _ = _em_sweeps(start, rows, max_iter=max_iter,
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


def _row_bytes(data: np.ndarray) -> list[bytes]:
    """The bytes of each row of a matrix, in C order: what ``_content_uniforms`` hashes."""
    rows = np.ascontiguousarray(data)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _content_uniforms(rows: list[bytes], key_seed: int, draw: int) -> np.ndarray:
    """One uniform in (0, 1] per row, derived from a keyed hash of the row
    bytes (``_row_bytes``).

    Keying by content rather than position keeps seeding decisions stable
    under row permutation.
    """
    key = int(key_seed).to_bytes(8, "little") + int(draw).to_bytes(8, "little")
    copy = hashlib.blake2b(key=key, digest_size=8).copy
    digests = []
    append = digests.append
    for row in rows:
        h = copy()
        h.update(row)
        append(h.digest())
    # (digest + 1) / 2**64, rounded once: the +1 is exact in uint64, where
    # only the largest digest wraps to 0 and stands for 2**64
    counts = np.frombuffer(b"".join(digests), dtype="<u8") + np.uint64(1)
    return np.where(counts == 0, 2.0 ** 64, counts.astype(float)) / 18446744073709551616.0


def _seed_mean_indices(data: np.ndarray, rows: list[bytes], n_clusters: int,
                       key_seed: int) -> list[int]:
    """k-means++ style center selection via deterministic exponential races;
    ``rows`` is ``_row_bytes(data)``."""
    n = data.shape[0]
    uniforms = _content_uniforms(rows, key_seed, 0)
    chosen = [int(np.argmin(-np.log(uniforms)))]
    dist_sq = ((data - data[chosen[0]]) ** 2).sum(axis=1)
    for draw in range(1, n_clusters):
        top = dist_sq.max()
        if top <= 0.0:
            # all remaining points coincide with a chosen center; fall back to
            # the lowest unchosen row (em_fit's row minimum leaves one)
            mask = np.ones(n, dtype=bool)
            mask[chosen] = False
            chosen.append(int(np.flatnonzero(mask)[0]))
            continue
        uniforms = _content_uniforms(rows, key_seed, draw)
        # weights relative to the largest, as the draw does not depend on scale: no
        # subnormal distance overflows a race; a weight below ~1e-308 races to inf
        with np.errstate(divide="ignore", over="ignore"):
            race = -np.log(uniforms) / (dist_sq / top)
        pick = int(np.argmin(race))
        chosen.append(pick)
        dist_sq = np.minimum(dist_sq, ((data - data[pick]) ** 2).sum(axis=1))
    return chosen


def _initial_model(data: np.ndarray, rows: list[bytes], pooled: np.ndarray, n_clusters: int,
                   key_seed: int) -> MixtureModel:
    """A restart's start: seeded means, ``pooled`` covariances, uniform weights."""
    p = data.shape[1]
    centers = data[_seed_mean_indices(data, rows, n_clusters, key_seed)]
    covs = np.broadcast_to(pooled, (n_clusters, p, p)).copy()
    weights = np.full(n_clusters, 1.0 / n_clusters)
    return MixtureModel(weights=weights, means=centers, covariances=covs)


def _min_cluster_size(p: int) -> int:
    """The admissibility rule of every fit: a hard cluster holds at least p + 2
    points, the fewest that admit its beta reference Beta(p/2, (n_g - p - 1)/2)."""
    return p + 2


def em_fit(data, n_clusters: int, config: FitConfig = FitConfig()):
    """Fit a Gaussian mixture by restarted EM.

    Returns ``(model, labels, loglik)`` for the restart with the highest
    log-likelihood (ties keep the lowest restart index).  Labels are hard
    maximum-posterior assignments with ties to the lower component of the
    fit.  The components are then numbered in the order of the first row
    each one owns (row 0's cluster is 0), so restarts that reach the same
    partition with their components in another order return the same
    labels.  A restart whose EM fails, or whose solution leaves a hard
    cluster with fewer points than ``_min_cluster_size(p)``, is discarded as
    degenerate; if every restart degenerates a ``DegenerateFitError`` is
    raised.  Fewer rows than ``n_clusters`` times that, where every restart
    must fail, raise ``InsufficientPointsError`` up front.
    """
    arr = validate_data(data)
    n, p = arr.shape
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    need = _min_cluster_size(p)
    if n < n_clusters * need:
        raise InsufficientPointsError(f"{n} points are too few for {n_clusters} clusters; "
                                      f"each cluster in dimension {p} needs at least {need}")
    best: EmRun | None = None
    first_failure: DegenerateFitError | None = None
    rows = _row_bytes(arr)
    pooled = np.atleast_2d(np.cov(arr, rowvar=False, ddof=1))
    for restart in range(config.restarts):
        key_seed = derive_seed(config.seed, 11, restart)
        try:
            start = _initial_model(arr, rows, pooled, n_clusters, key_seed)
            run = em_refine(arr, start, rel_tol=config.rel_tol)
            counts = np.bincount(run.labels, minlength=n_clusters)
            if np.any(counts < need):
                g = int(np.argmin(counts))
                raise DegenerateFitError(f"hard cluster {g} retained {counts[g]} points; "
                                         f"at least {need} are needed")
        except DegenerateFitError as exc:
            first_failure = first_failure or exc
            continue
        if best is None or run.loglik > best.loglik:
            best = run
    if best is None:  # every restart failed, restart 0 first
        raise DegenerateFitError(f"all {config.restarts} restarts degenerated; first failure "
                                 f"(restart 0): {first_failure}") from first_failure
    # every kept component owns rows; number them by their first
    order = list(dict.fromkeys(best.labels.tolist()))
    model = MixtureModel(weights=best.model.weights[order], means=best.model.means[order],
                         covariances=best.model.covariances[order])
    number = np.empty(len(order), dtype=np.intp)
    number[order] = np.arange(len(order))
    return model, number[best.labels], best.loglik
