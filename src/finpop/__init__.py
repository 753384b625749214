"""finpop: design-based finite-population sampling, estimation and benchmarking.

Submodules:

* ``population``  -- data model, synthetic linear-model generators, CSV i/o
* ``designs``     -- SRSWOR, Lahiri-Midzuno-Sen, Rao-Sampford, Rao-Hartley-
  Cochran: drawing, inclusion probabilities, exact enumeration
* ``estimators``  -- HT, RHC, Hajek, ratio, product, GREG and PEML mean
  estimators, with the calibrated-weight solver
* ``functionals`` -- mean, variance, correlation and regression coefficient
  as plug-in functionals
* ``asymptotics`` -- large-sample MSE formulas and equivalence classes
* ``inference``   -- plug-in variance estimators, confidence intervals,
  jackknife bias correction
* ``montecarlo``  -- seeded replicate runner (MSEs, relative efficiencies,
  interval statistics)
* ``oracle``      -- exact design expectations on tiny populations
"""

from .asymptotics import (
    AsymptoticContext,
    MomentSummary,
    check_c6,
    delta_sq,
    equivalence_class,
    gamma_coeff,
)
from .designs import (
    DesignKind,
    SampleDraw,
    Support,
    draw,
    enumerate_design,
    inclusion_probabilities,
    rhc_group_sizes,
)
from .errors import (
    CombinationError,
    ConvergenceError,
    DegenerateError,
    DrawFailureError,
    EnumerationTooLargeError,
    FinpopError,
    InfeasibleError,
    IngestionError,
    JackknifeFailureError,
    ParameterError,
    UndefinedParameterError,
    UnsupportedQueryError,
)
from .estimators import (
    EstimatorKind,
    design_weights,
    estimate_mean,
    peml_weights,
    valid_pair,
)
from .functionals import (
    CORRELATION,
    MEAN,
    VARIANCE,
    Functional,
    FunctionalKind,
    plug_in,
    population_value,
    regression_coef,
)
from .inference import (
    ConfidenceInterval,
    confidence_interval,
    jackknife_bc,
    variance_est_pi,
    variance_est_rhc,
)
from .montecarlo import (
    Cell,
    ExperimentConfig,
    ExperimentReport,
    empirical_mse,
    relative_efficiency,
    run_experiment,
)
from .oracle import ExactSummary, exact_moments, exact_vs_formula
from .population import (
    LinearModelSpec,
    Population,
    default_bivariate_spec,
    default_univariate_spec,
    generate_bivariate,
    generate_univariate,
    load_csv,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticContext",
    "Cell",
    "CombinationError",
    "ConfidenceInterval",
    "ConvergenceError",
    "CORRELATION",
    "DegenerateError",
    "DesignKind",
    "DrawFailureError",
    "EnumerationTooLargeError",
    "EstimatorKind",
    "ExactSummary",
    "ExperimentConfig",
    "ExperimentReport",
    "FinpopError",
    "Functional",
    "FunctionalKind",
    "InfeasibleError",
    "IngestionError",
    "JackknifeFailureError",
    "LinearModelSpec",
    "MEAN",
    "MomentSummary",
    "ParameterError",
    "Population",
    "SampleDraw",
    "Support",
    "UndefinedParameterError",
    "UnsupportedQueryError",
    "VARIANCE",
    "check_c6",
    "confidence_interval",
    "default_bivariate_spec",
    "default_univariate_spec",
    "delta_sq",
    "design_weights",
    "draw",
    "empirical_mse",
    "enumerate_design",
    "equivalence_class",
    "estimate_mean",
    "exact_moments",
    "exact_vs_formula",
    "gamma_coeff",
    "generate_bivariate",
    "generate_univariate",
    "inclusion_probabilities",
    "jackknife_bc",
    "load_csv",
    "peml_weights",
    "plug_in",
    "population_value",
    "regression_coef",
    "relative_efficiency",
    "rhc_group_sizes",
    "run_experiment",
    "valid_pair",
    "variance_est_pi",
    "variance_est_rhc",
    "write_csv",
]
