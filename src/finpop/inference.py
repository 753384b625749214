"""Plug-in variance estimation, normal-limit confidence intervals and
jackknife bias correction.

The two variance estimators target the asymptotic MSE of
sqrt(n) (g(mean estimate) - g(true mean)):

* ``variance_est_pi`` (pi-based designs): a weighted sum over the sample of
  squared centered linearized values, with centering term That estimated from
  the same sample;
* ``variance_est_rhc`` (RHC design): the analogous quadratic form driven by
  the group totals.

The GREG/PEML linearization takes the slope of h on x from d-weighted
centred moments, d = 1 / (N pi) under pi-based draws and G / (N x) under
RHC: its denominator sum d (x - xbar_d)^2 is 0 only when every sampled x is
equal.  The uncentred sum d x^2 - (sum d x)^2 and sum x G / N - Xbar^2
differ from it by terms carrying sum d - 1 = O_p(n^{-1/2}), so both give
consistent estimators of the same asymptotic class, but they are not
positive on samples whose x varies little.

A level-q interval is then  point +- z * sqrt(variance / n).  Both variance
estimators and the interval also take a batch of same-size samples, one
estimate or interval per row; one sample is their batch of one.

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
    JackknifeFailureError,
    ParameterError,
    rows_that_evaluate,
)
from .estimators import (
    EstimatorKind,
    _row_dots,
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
    "confidence_interval",
    "jackknife_bc",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A level-``level`` interval, or one per sample when ``center`` and
    ``half_width`` are arrays."""

    center: float | np.ndarray
    half_width: float | np.ndarray
    level: float

    def __post_init__(self):
        if not 0 < self.level < 1:
            raise ParameterError("level must lie strictly between 0 and 1")
        if (np.asarray(self.half_width) < 0).any():
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

    def contains(self, value: float) -> bool | np.ndarray:
        return (self.lower <= value) & (value <= self.upper)


def variance_est_pi(
    sample: SampleDraw, pop: Population, f: Functional, kind: EstimatorKind
) -> float | np.ndarray:
    """Variance estimate under a pi-based design for HT/Hajek/GREG/PEML plug-ins.

    The linearized values are V_i = h_i (HT), h_i - HT mean of h (Hajek), or
    the weighted regression residual of h on x (GREG/PEML); the gradient of g
    is taken at the HT mean of h, except at the Hajek mean for the
    correlation coefficient, where the HT plug-in can be undefined.  A batch
    of m samples gives (m,) estimates, a failing sample raising with its
    ``row``.
    """
    if not sample.design.is_pi_based:
        raise CombinationError("this variance estimator requires a pi-based draw")
    if not supports_variance_estimate(kind, sample.design):
        raise CombinationError(f"no pi-design variance estimator for {kind}")
    N = pop.n_units
    n = sample.n
    idx = np.atleast_2d(sample.indices)  # one sample is a batch of one
    pi = np.atleast_2d(sample.pi)
    x_s = pop.x[idx]
    h_s = f.h(pop.y[idx])
    d = 1.0 / (N * pi)

    h_ht = _row_dots(d, h_s)
    if kind is EstimatorKind.HT:
        v = h_s
    elif kind is EstimatorKind.HAJEK:
        v = h_s - h_ht[:, None, :]
    else:
        x_ht = _row_dots(d, x_s)
        v = h_s - h_ht[:, None, :] - _outer(x_s - x_ht[:, None], _wls_slope(d, x_s, h_s))

    one_minus = np.sum(1.0 - pi, axis=1)
    _check_positive(one_minus, "all inclusion probabilities are 1; variance undefined")
    t_hat = _row_dots(1.0 / pi - 1.0, v) / one_minus[:, None]

    if f.kind is FunctionalKind.CORRELATION:
        grad_point = h_ht / d.sum(axis=1)[:, None]
    else:
        grad_point = h_ht
    grad = f.grad_g(grad_point)

    a = ((v - _outer(pi, t_hat)) @ grad[:, :, None])[..., 0]
    est = n / N**2 * np.sum(a * a * (1.0 / pi - 1.0) / pi, axis=1)
    return float(est[0]) if sample.indices.ndim == 1 else est


def variance_est_rhc(
    sample: SampleDraw, pop: Population, f: Functional, kind: EstimatorKind
) -> float | np.ndarray:
    """Variance estimate under the RHC design for RHC/GREG/PEML plug-ins.

    The gradient of g is taken at the RHC mean of h, except at the PEML mean
    for the correlation coefficient.  A batch of m samples gives (m,)
    estimates, a failing sample raising with its ``row``.
    """
    if sample.design.is_pi_based:
        raise CombinationError("this variance estimator requires an RHC draw")
    if not supports_variance_estimate(kind, sample.design):
        raise CombinationError(f"no RHC variance estimator for {kind}")
    N = pop.n_units
    n = sample.n
    idx = np.atleast_2d(sample.indices)  # one sample is a batch of one
    g_tot = np.atleast_2d(sample.g_totals)
    x_s = pop.x[idx]
    h_s = f.h(pop.y[idx])
    x_bar = pop.x_bar()
    d = g_tot / (N * x_s)

    h_rhc = _row_dots(d, h_s)
    if kind is EstimatorKind.RHC_EST:
        v = h_s
    else:
        v = h_s - h_rhc[:, None, :] - _outer(x_s - x_bar, _wls_slope(d, x_s, h_s))

    if f.kind is FunctionalKind.CORRELATION:
        h_rows = h_s if sample.indices.ndim == 2 else h_s[0]  # one sample: (n, p)
        grad_point = np.atleast_2d(estimate_mean(EstimatorKind.PEML, sample, pop, h_rows))
    else:
        grad_point = h_rhc
    grad = f.grad_g(grad_point)

    v_bar = _row_dots(d, v)
    a = ((v - _outer(x_s / x_bar, v_bar)) @ grad[:, :, None])[..., 0]
    gam = gamma_coeff(N, n)
    est = n * gam * x_bar / N * np.sum(a * a * g_tot / (x_s * x_s), axis=1)
    return float(est[0]) if sample.indices.ndim == 1 else est


def _wls_slope(d: np.ndarray, x_s: np.ndarray, h_s: np.ndarray) -> np.ndarray:
    """The (m, p) d-weighted least-squares slopes of h on x.  x is shifted by
    its first sampled value before it is centred, so that a sample whose x
    values are all equal, and only such a sample, has a zero denominator."""
    x0 = x_s - x_s[:, :1]
    xc = x0 - (_row_dots(d, x0) / d.sum(axis=1))[:, None]
    s2x = _row_dots(d, xc * xc)
    _check_positive(s2x, "sampled x values are all equal; the regression slope is undefined")
    return _row_dots(d * xc, h_s) / s2x[:, None]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise outer products: (m, n, p) from a (m, n) and b (m, p)."""
    return a[:, :, None] * b[:, None, :]


def _check_positive(values: np.ndarray, message: str) -> None:
    bad = values <= 0
    if bad.any():
        raise DegenerateError(message).at_row(int(bad.argmax()))


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
    point: float | np.ndarray,
    var_est: float | np.ndarray,
    n: int,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Normal-limit interval: point +- z_{(1+level)/2} sqrt(var_est / n);
    arrays of points and variance estimates give one interval per sample."""
    if not 0 < level < 1:
        raise ParameterError("level must lie strictly between 0 and 1")
    var = np.asarray(var_est, dtype=float)
    if (var < 0).any():
        raise ParameterError("variance estimate cannot be negative")
    if n < 1:
        raise ParameterError("n must be positive")
    half = _z(level) * np.sqrt(var / n)
    if var.ndim == 0:
        point, half = float(point), float(half)
    return ConfidenceInterval(center=point, half_width=half, level=level)


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

    def leave_out(lo, hi):
        return f.g(estimate_mean_rows(kind, weights[lo:hi], x_s, pop.x_bar(), h))

    _, loo, failure = rows_that_evaluate(leave_out, n, stop_at_failure=True)
    if failure is not None:
        row, error = failure
        unit = int(sample.indices[row])
        message = f"leave-one-out estimate undefined without unit {unit}: {error}"
        raise JackknifeFailureError(message, unit=unit) from error
    return n * full - (n - 1) * float(loo.sum()) / n
