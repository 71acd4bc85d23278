"""Outlier trimming for Gaussian mixture clustering.

Fit a Gaussian mixture, measure how much each point's removal changes the
log-likelihood, and compare those leave-one-out deltas to their theoretical
reference distribution (a mixture of shifted, scaled betas).  Points are
trimmed one at a time; the number of outliers is chosen where the empirical
deltas agree best with the reference, as measured by KL divergence.
"""

from .divergence import (
    BinningScheme,
    KlEstimate,
    build_bins,
    default_num_bins,
    kl_divergence,
)
from .errors import (
    BinningError,
    DegenerateFitError,
    GenerationStallError,
    InputFormatError,
    InsufficientPointsError,
    OclustError,
    SingularCovarianceError,
)
from .gmm import (
    ClusterStats,
    FitConfig,
    MixtureModel,
    approx_log_likelihood,
    cluster_stats,
    em_fit,
    em_refine,
    hard_labels,
    log_gaussian_density,
    loo_refit_logliks,
    mixture_log_likelihood,
    validate_data,
)
from .simulate import (
    SeparationReport,
    SimDataset,
    SimModelSpec,
    gen_dataset,
    separation_experiment,
    separation_index_pairwise,
    separation_index_univariate,
)
from .subset import (
    DeltaMode,
    DowndateVariant,
    GammaReference,
    ReferenceMixture,
    beta_mixture_reference,
    delta_formula,
    downdate_stats,
    frozen_subset_deltas,
    gamma_reference,
    mahalanobis_sq,
    reference_mixture_cdf,
    reference_mixture_ppf,
    sample_reference,
    subset_deltas,
)
from .trim import (
    IterationRecord,
    OclustConfig,
    OclustResult,
    classify_errors,
    error_rates,
    most_likely_outlier,
    oclust_run,
    outlier_mask,
)

__version__ = "0.1.0"
