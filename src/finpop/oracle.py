"""Exact design expectations on tiny populations.

Takes the full sample space of a design -- every support point as one row
of a single batch, with its exact probability -- and evaluates a plug-in
estimator over the whole batch in one pass, yielding its exact design
expectation and MSE.  All four designs enumerate, Rao-Sampford through
Sampford's closed-form sample probabilities.  This is the ground truth used
to verify unbiasedness claims and to sanity-check the asymptotic MSE
formulas at desk scale.  Exact mode tolerates no undefined estimate: the
lowest failing support point's error propagates.

The population-free part of each sample space (the subsets, or RHC's
outcomes and group layouts) is built once per (N, n) and reused by the next
calls with that (N, n), whatever the population, estimator or functional;
``designs.enumerate_design`` keeps one per kind, of at most 2**21 index
entries (16 MB) each.
"""

from __future__ import annotations

from dataclasses import dataclass

from .asymptotics import AsymptoticContext, delta_sq, equivalence_class
from .designs import DesignKind, enumerate_design
from .errors import FinpopError, rows_that_evaluate
from .estimators import EstimatorKind
from .functionals import Functional, _check_cell, plug_in, population_value
from .population import Population

__all__ = ["ExactSummary", "exact_moments", "exact_vs_formula"]


@dataclass(frozen=True)
class ExactSummary:
    """Exact design expectation and MSE of a plug-in estimator."""

    expectation: float
    mse: float
    support_size: int
    truth: float

    @property
    def bias(self) -> float:
        return self.expectation - self.truth

    @property
    def variance(self) -> float:
        return self.mse - self.bias**2


def exact_moments(
    design: DesignKind,
    pop: Population,
    n: int,
    kind: EstimatorKind,
    f: Functional,
) -> ExactSummary:
    """Exact expectation and MSE over the design's full sample space; a cell
    that ``run_experiment`` would refuse is refused before enumeration."""
    _check_cell(design, kind, f, pop)
    support = enumerate_design(design, pop, n)
    truth = population_value(f, pop)
    batch, probs = support.batch, support.probs
    evaluate = lambda rows: plug_in(f, kind, batch[rows], pop)  # noqa: E731
    _, values, failure = rows_that_evaluate(evaluate, len(support), n)
    if failure is not None:
        i, error = failure
        raise FinpopError(
            f"estimate undefined on support point {i} "
            f"(units {batch.indices[i].tolist()}): {error}"
        ) from error
    expectation = float(probs @ values)
    mse = float(probs @ (values - truth) ** 2)
    return ExactSummary(
        expectation=expectation, mse=mse, support_size=len(support), truth=truth
    )


def exact_vs_formula(
    design: DesignKind,
    pop: Population,
    n: int,
    f: Functional,
    kind: EstimatorKind,
) -> tuple[float, float]:
    """(exact n * MSE, class asymptotic MSE) for directional comparison."""
    summary = exact_moments(design, pop, n, kind, f)
    ctx = AsymptoticContext.compute(pop, f, n)
    return n * summary.mse, delta_sq(equivalence_class(kind, design), ctx)
