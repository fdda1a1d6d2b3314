"""Exact Monte Carlo tests of linearity against Markov-switching means and
variances in autoregressive models."""

__version__ = "0.1.0"

from .msar import (
    TransitionMatrix,
    RegimeParams,
    MSARSpec,
    MixtureMoments,
    ergodic_probabilities,
    simulate_chain,
    simulate_msar,
    mixture_moments,
    filtered_mixture_components,
    four_state_transition,
    min_root_modulus,
    stationary_rows,
)
from .moments import (
    DegenerateSampleError,
    StatQuartet,
    demean,
    stat_m,
    stat_v,
    stat_s,
    stat_k,
    compute_quartet,
    quartet_matrix,
)
from .mctest import (
    LogisticCoeffs,
    LogisticCoeffTable,
    MCTestReport,
    logistic_cdf,
    approx_pvalues,
    combine_min,
    combine_prod,
    mc_pvalue,
    mc_mixture_test,
    critical_rank,
    bonferroni_decision,
    fit_logistic_cdf,
)
from .linearity import (
    ARFit,
    NuisanceBox,
    LinearityReport,
    ols_ar_fit,
    ar_filter,
    linearity_tests,
    lmc_test,
    build_grid,
    mmc_test,
)
from .chp import (
    NullScorePanel,
    NuisanceDraw,
    CHPReport,
    null_score_panel,
    gamma_star,
    projection_residuals,
    sup_ts,
    exp_ts,
    chp_bootstrap_test,
)
from .harness import (
    SeriesDataset,
    ExperimentConfig,
    ingest_series,
    run_size_power_study,
    default_study_grid,
    regenerate_coeff_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
