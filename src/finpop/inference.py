"""Plug-in variance estimation, normal-limit confidence intervals and
jackknife bias correction.

The two variance estimators target the asymptotic MSE of
sqrt(n) (g(mean estimate) - g(true mean)):

* ``variance_est_pi`` (pi-based designs): a weighted sum over the sample of
  squared centered linearized values, with centering term That estimated from
  the same sample;
* ``variance_est_rhc`` (RHC design): the analogous quadratic form driven by
  the group totals.

A level-q interval is then  point +- z * sqrt(variance / n).

``jackknife_bc`` computes  n g - (n-1) mean of leave-one-out g's, each
leave-one-out estimate keeping the remaining units' original design weights
(self-normalizing estimators renormalize on their own).  All n come from one
row-wise estimator pass over the (n, n) matrix of design weights with its
diagonal zeroed, under pi-based and RHC draws alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import stats

from .asymptotics import gamma_coeff
from .designs import DesignKind, SampleDraw
from .errors import (
    CombinationError,
    DegenerateError,
    FinpopError,
    JackknifeFailureError,
    ParameterError,
)
from .estimators import (
    EstimatorKind,
    design_weights,
    estimate_mean,
    estimate_mean_rows,
    valid_pair,
)
from .functionals import Functional, FunctionalKind, plug_in
from .population import Population

__all__ = [
    "ConfidenceInterval",
    "variance_est_pi",
    "variance_est_rhc",
    "variance_estimate",
    "supports_variance_estimate",
    "confidence_interval",
    "jackknife_bc",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    center: float
    half_width: float
    level: float

    def __post_init__(self):
        if not 0 < self.level < 1:
            raise ParameterError("level must lie strictly between 0 and 1")
        if self.half_width < 0:
            raise ParameterError("half width cannot be negative")

    @property
    def lower(self) -> float:
        return self.center - self.half_width

    @property
    def upper(self) -> float:
        return self.center + self.half_width

    @property
    def length(self) -> float:
        return 2.0 * self.half_width

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def variance_est_pi(
    sample: SampleDraw, pop: Population, f: Functional, kind: EstimatorKind
) -> float:
    """Variance estimate under a pi-based design for HT/Hajek/GREG/PEML plug-ins.

    The linearized values are V_i = h_i (HT), h_i - HT mean of h (Hajek), or
    the weighted regression residual of h on x (GREG/PEML); the gradient of g
    is taken at the HT mean of h, except at the Hajek mean for the
    correlation coefficient, where the HT plug-in can be undefined.
    """
    if not sample.design.is_pi_based:
        raise CombinationError("this variance estimator requires a pi-based draw")
    if not supports_variance_estimate(kind, sample.design):
        raise CombinationError(f"no pi-design variance estimator for {kind}")
    N = pop.n_units
    n = sample.n
    pi = sample.pi
    x_s = pop.x[sample.indices]
    h_s = f.h(pop.y[sample.indices])
    d = 1.0 / (N * pi)

    h_ht = d @ h_s
    if kind is EstimatorKind.HT:
        v = h_s
    elif kind is EstimatorKind.HAJEK:
        v = h_s - h_ht
    else:
        x_ht = d @ x_s
        s2x = d @ (x_s * x_s) - x_ht**2
        if s2x <= 0:
            raise DegenerateError("estimated x variance is not positive")
        sxh = (d * x_s) @ h_s - x_ht * h_ht
        v = h_s - h_ht - np.outer(x_s - x_ht, sxh / s2x)

    one_minus = float(np.sum(1.0 - pi))
    if one_minus <= 0:
        raise DegenerateError("all inclusion probabilities are 1; variance undefined")
    t_hat = ((1.0 / pi - 1.0) @ v) / one_minus

    if f.kind is FunctionalKind.CORRELATION:
        grad_point = h_ht / d.sum()
    else:
        grad_point = h_ht
    grad = f.grad_g(grad_point)

    a = (v - np.outer(pi, t_hat)) @ grad
    return float(n / N**2 * np.sum(a * a * (1.0 / pi - 1.0) / pi))


def variance_est_rhc(
    sample: SampleDraw, pop: Population, f: Functional, kind: EstimatorKind
) -> float:
    """Variance estimate under the RHC design for RHC/GREG/PEML plug-ins.

    The gradient of g is taken at the RHC mean of h, except at the PEML mean
    for the correlation coefficient.
    """
    if sample.design.is_pi_based:
        raise CombinationError("this variance estimator requires an RHC draw")
    if not supports_variance_estimate(kind, sample.design):
        raise CombinationError(f"no RHC variance estimator for {kind}")
    N = pop.n_units
    n = sample.n
    g_tot = sample.g_totals
    x_s = pop.x[sample.indices]
    h_s = f.h(pop.y[sample.indices])
    x_bar = pop.x_bar()
    d = g_tot / (N * x_s)

    h_rhc = d @ h_s
    if kind is EstimatorKind.RHC_EST:
        v = h_s
    else:
        s2x = float((x_s * g_tot).sum() / N - x_bar**2)
        if s2x <= 0:
            raise DegenerateError("estimated x variance is not positive")
        sxh = g_tot @ h_s / N - x_bar * h_rhc
        v = h_s - h_rhc - np.outer(x_s - x_bar, sxh / s2x)

    if f.kind is FunctionalKind.CORRELATION:
        grad_point = np.atleast_1d(estimate_mean(EstimatorKind.PEML, sample, pop, h_s))
    else:
        grad_point = h_rhc
    grad = f.grad_g(grad_point)

    v_bar = d @ v
    a = (v - np.outer(x_s / x_bar, v_bar)) @ grad
    gam = gamma_coeff(N, n)
    return float(n * gam * x_bar / N * np.sum(a * a * g_tot / (x_s * x_s)))


def supports_variance_estimate(kind: EstimatorKind, design: DesignKind) -> bool:
    """Whether a plug-in variance estimator exists for this pair: for every
    valid pair but the ratio and product estimators."""
    no_variance = (EstimatorKind.RATIO, EstimatorKind.PRODUCT)
    return valid_pair(kind, design) and kind not in no_variance


def variance_estimate(
    sample: SampleDraw, pop: Population, f: Functional, kind: EstimatorKind
) -> float:
    """Dispatch to the pi-based or RHC variance estimator by draw type."""
    if sample.design.is_pi_based:
        return variance_est_pi(sample, pop, f, kind)
    return variance_est_rhc(sample, pop, f, kind)


def confidence_interval(
    point: float, var_est: float, n: int, level: float = 0.95
) -> ConfidenceInterval:
    """Normal-limit interval: point +- z_{(1+level)/2} sqrt(var_est / n)."""
    if not 0 < level < 1:
        raise ParameterError("level must lie strictly between 0 and 1")
    if var_est < 0:
        raise ParameterError("variance estimate cannot be negative")
    if n < 1:
        raise ParameterError("n must be positive")
    return ConfidenceInterval(
        center=float(point), half_width=_z(level) * float(np.sqrt(var_est / n)),
        level=level,
    )


@lru_cache(maxsize=16)
def _z(level: float) -> float:
    """The standard normal quantile at (1 + level) / 2."""
    return float(stats.norm.ppf(0.5 * (1.0 + level)))


def jackknife_bc(
    sample: SampleDraw, pop: Population, f: Functional, kind: EstimatorKind
) -> float:
    """Bias-corrected estimate  n g - (n-1) mean over i of g on the sample
    without unit i.

    Row i of the weight matrix is the design weights with unit i's set to 0,
    so one row-wise estimator pass gives all n leave-one-out estimates.
    Exact for estimators linear in the per-unit terms; an undefined
    leave-one-out estimate aborts with the offending unit (the first by
    sample position).
    """
    n = sample.n
    if n < 3:
        raise ParameterError("jackknifing needs at least 3 sampled units")
    full = plug_in(f, kind, sample, pop)
    weights = np.where(np.eye(n, dtype=bool), 0.0, design_weights(sample, pop))
    x_s = pop.x[sample.indices]
    h = f.h(pop.y[sample.indices])
    stop, failure = n, None
    while stop:
        try:
            loo = f.g(estimate_mean_rows(kind, weights[:stop], x_s, pop.x_bar(), h))
            break
        except FinpopError as exc:
            # a row before the failing one may fail a later check, so search
            # the rows before it for the first failure
            stop, failure = exc.row, exc
    if failure is not None:
        unit = int(sample.indices[stop])
        message = f"leave-one-out estimate undefined without unit {unit}: {failure}"
        raise JackknifeFailureError(message, unit=unit) from failure
    return n * full - (n - 1) * float(loo.sum()) / n
