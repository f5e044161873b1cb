"""Closed-form marginal likelihood for heterogeneous binary-logit panels.

The marginal likelihood of panel purchase data under Gamma-family
heterogeneity has an exact alternating-series representation whose
parameter-independent part is a table of signed Diophantine solution counts.
This package evaluates that series, fits the heterogeneity parameters by
maximum marginal likelihood, and cross-checks everything against quadrature
and Monte Carlo oracles.
"""

__version__ = "1.0.0"

from .data_model import (
    ArnoldStrauss,
    CheriyanRamabhadran,
    DataError,
    Dataset,
    Freund,
    GammaMixture,
    GeneralizedMVGamma,
    Household,
    IndependentGamma,
    Observation,
    PointMassGamma,
    SpecError,
    load_dataset,
    load_spec,
    save_dataset,
    save_spec,
    validate_dataset,
)
from .diophantine import (
    BudgetError,
    CacheFileError,
    DioCache,
    build_cache,
    compositions_count,
    compositions_cum,
    load_cache,
    save_cache,
    tail_bound,
)
from .gamma_kernels import log_mgf
from .optimizer import (
    FitError,
    FitResult,
    GridAxis,
    GridSpec,
    grid_fit,
    newton_fit,
)
from .oracle import QuadConfig, mc_h, quadrature_h
from .series import (
    Evaluation,
    HouseholdSums,
    SeriesConfig,
    TruncationFailure,
    group_spread,
    h_naive,
    log_marginal,
    prepare_dataset,
)
from .sim import SimDesign, SimReport, parity_study, run_study, simulate_dataset

__all__ = [
    "__version__",
    "ArnoldStrauss",
    "BudgetError",
    "CacheFileError",
    "CheriyanRamabhadran",
    "DataError",
    "Dataset",
    "DioCache",
    "Evaluation",
    "FitError",
    "FitResult",
    "Freund",
    "GammaMixture",
    "GeneralizedMVGamma",
    "GridAxis",
    "GridSpec",
    "Household",
    "HouseholdSums",
    "IndependentGamma",
    "Observation",
    "PointMassGamma",
    "QuadConfig",
    "SeriesConfig",
    "SimDesign",
    "SimReport",
    "SpecError",
    "TruncationFailure",
    "build_cache",
    "compositions_count",
    "compositions_cum",
    "grid_fit",
    "group_spread",
    "h_naive",
    "load_cache",
    "load_dataset",
    "load_spec",
    "log_marginal",
    "log_mgf",
    "mc_h",
    "newton_fit",
    "parity_study",
    "prepare_dataset",
    "quadrature_h",
    "run_study",
    "save_cache",
    "save_dataset",
    "save_spec",
    "simulate_dataset",
    "tail_bound",
    "validate_dataset",
]
