"""The package's public names: what ``finpop`` exports and where each is declared,
and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import finpop

PUBLIC = [
    "AsymptoticContext", "CORRELATION", "Cell", "CombinationError",
    "ConfidenceInterval", "ConvergenceError", "DegenerateError", "DesignKind",
    "EnumerationTooLargeError", "EstimatorKind", "ExactSummary",
    "ExperimentConfig", "ExperimentReport", "FinpopError", "Functional",
    "FunctionalKind", "InfeasibleError", "IngestionError", "JackknifeFailureError",
    "LinearModelSpec", "MEAN", "MomentSummary", "ParameterError", "Population",
    "SampleDraw", "Support", "UndefinedParameterError", "UnsupportedQueryError",
    "VARIANCE", "check_c6", "confidence_interval", "default_bivariate_spec",
    "default_univariate_spec", "delta_sq", "design_weights", "draw", "empirical_mse",
    "enumerate_design", "equivalence_class", "estimate_mean", "exact_moments",
    "exact_vs_formula", "gamma_coeff", "generate_bivariate", "generate_univariate",
    "inclusion_probabilities", "jackknife_bc", "load_csv", "peml_weights", "plug_in",
    "population_value", "regression_coef", "relative_efficiency", "rhc_group_sizes",
    "run_experiment", "valid_pair", "variance_estimate", "write_csv",
]

SUBMODULES = (
    finpop.asymptotics, finpop.designs, finpop.errors, finpop.estimators,
    finpop.functionals, finpop.inference, finpop.montecarlo, finpop.oracle,
    finpop.population,
)


def test_public_names_are_unchanged_and_resolve():
    assert sorted(finpop.__all__) == PUBLIC
    assert all(hasattr(finpop, name) for name in PUBLIC)


def test_no_name_is_declared_by_two_submodules():
    # the package star-imports each submodule, so a name declared twice would
    # silently shadow the first module's object with the second one's
    declared = [name for module in SUBMODULES for name in module.__all__]
    assert len(declared) == len(set(declared))


def test_import_loads_no_scipy():
    # the library runs on numpy alone; scipy is a test dependency
    probe = "import sys, finpop; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    src = str(Path(finpop.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
