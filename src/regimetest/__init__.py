"""Exact Monte Carlo tests of linearity against Markov-switching means and
variances in autoregressive models."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .msar import (
    TransitionMatrix,
    RegimeParams,
    MSARSpec,
    MixtureMoments,
    ergodic_probabilities,
    simulate_chain,
    simulate_msar,
    mixture_moments,
    min_root_modulus,
    stationary_rows,
)
from .moments import (
    DegenerateSampleError,
    StatQuartet,
    demean,
    compute_quartet,
    quartet_matrix,
)
from .mctest import (
    LogisticCoeffs,
    LogisticCoeffTable,
    MCTestReport,
    logistic_cdf,
    combine_min,
    combine_prod,
    mc_pvalue,
    mc_mixture_test,
    critical_rank,
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
from .chp import CHPReport, chp_bootstrap_test
from .harness import (
    SeriesDataset,
    ExperimentConfig,
    ingest_series,
    run_size_power_study,
    default_study_grid,
    regenerate_coeff_table,
)

# the public names above; the submodules stay attributes, not star-import names
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
