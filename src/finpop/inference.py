"""Plug-in variance estimation, normal-limit confidence intervals and
jackknife bias correction.

``variance_estimate`` targets the asymptotic MSE of
sqrt(n) (g(mean estimate) - g(true mean)), with d the design weights of
``estimators.design_weights``: under pi-based designs a weighted sum over the
sample of squared centred linearized values, the centring term That estimated
from the same sample; under RHC the analogous quadratic form driven by the
group totals.

The GREG/PEML linearization takes the slope of h on x from d-weighted
centred moments, the one ``estimators._wls_slope`` that GREG calibrates with:
its denominator sum d (x - xbar_d)^2 is 0 only when every sampled x is
equal.  The uncentred sum d x^2 - (sum d x)^2 and sum x G / N - Xbar^2
differ from it by terms carrying sum d - 1 = O_p(n^{-1/2}), so both give
consistent estimators of the same asymptotic class, but they are not
positive on samples whose x varies little.

A level-q interval is then  point +- z * sqrt(variance / n), z the standard
normal quantile at (1 + q) / 2 from ``statistics.NormalDist.inv_cdf``, which
implements Wichura's AS241 (Applied Statistics 37:477-484, 1988).  The variance
estimator and the interval also take a batch of same-size samples, one
estimate or interval per row; one sample is their batch of one.

``jackknife_bc`` computes  n g - (n-1) mean of leave-one-out g's, each on the
delete-one replicate weights n/(n-1) d of the remaining units (Wolter 2007,
ch. 4); Hajek, ratio, GREG and PEML are invariant to that factor and keep d.
Row r n + i zeroes unit i of sample r, pi-based or RHC; a pass holds at most
2**14 weight entries (one row if n > 2**14), but the full-sample plug-in takes
the whole batch.  A PEML row, its sample's d and x less unit i, starts at the
root of its sample, which the plug-in's solve returns, plus the root of the
degree-12 Taylor series of its own dual about that root.  A failure names
every sample with an undefined row.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .asymptotics import gamma_coeff
from .designs import DesignKind, SampleDraw
from .errors import (
    CombinationError,
    JackknifeFailureError,
    ParameterError,
    rows_that_evaluate,
)
from .estimators import (
    EstimatorKind,
    _check_positive,
    _peml_solve,
    _row_dots,
    _wls_slope,
    design_weights,
    estimate_mean_rows,
    valid_pair,
)
from .estimators import estimate_mean  # noqa: F401 - the traced benchmark patches this name
from .functionals import Functional, FunctionalKind, plug_in
from .population import Population

__all__ = [
    "ConfidenceInterval",
    "variance_estimate",
    "confidence_interval",
    "jackknife_bc",
]
_DEGREE, _STEPS = 12, 4  # the leave-one-out PEML start's Taylor degree and Newton steps


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


def supports_variance_estimate(kind: EstimatorKind, design: DesignKind) -> bool:
    """Whether a plug-in variance estimator exists for this pair: for every
    valid pair but the ratio and product estimators."""
    no_variance = (EstimatorKind.RATIO, EstimatorKind.PRODUCT)
    return valid_pair(kind, design) and kind not in no_variance


def variance_estimate(
    sample: SampleDraw, pop: Population, f: Functional, kind: EstimatorKind
) -> float | np.ndarray:
    """Variance estimate for the HT/Hajek/GREG/PEML plug-ins under a pi-based
    design and for the RHC/GREG/PEML plug-ins under RHC.

    The linearized values are V_i = h_i (HT, RHC), h_i - the d-weighted sum of
    h (Hajek), or the weighted regression residual of h on x (GREG/PEML); the
    gradient of g is taken at that d-weighted sum, except for the correlation
    coefficient, where it can be undefined: there it is taken at the Hajek
    mean (pi-based) or the PEML mean (RHC).  A batch of m samples gives (m,)
    estimates, failing samples raising, named in ``rows``.
    """
    if not supports_variance_estimate(kind, sample.design):
        raise CombinationError(f"no {sample.design} variance estimator for {kind}")
    N, x_bar = pop.n_units, pop.x_bar()
    n = sample.n
    pi_based = sample.design.is_pi_based
    idx = np.atleast_2d(sample.indices)  # one sample is a batch of one
    x_s = pop.x[idx]
    h_s = f.h(pop.y[idx])
    d = np.atleast_2d(design_weights(sample, pop))

    h_d = _row_dots(d, h_s)
    if kind in (EstimatorKind.HT, EstimatorKind.RHC_EST):
        v = h_s
    elif kind is EstimatorKind.HAJEK:
        v = h_s - h_d[:, None, :]
    else:
        x_c = _row_dots(d, x_s)[:, None] if pi_based else x_bar
        v = h_s - h_d[:, None, :] - _outer(x_s - x_c, _wls_slope(d, x_s, h_s))

    if f.kind is FunctionalKind.CORRELATION:
        safe = EstimatorKind.HAJEK if pi_based else EstimatorKind.PEML
        grad_point = estimate_mean_rows(safe, d, x_s, x_bar, h_s)
    else:
        grad_point = h_d
    grad = f.grad_g(grad_point)

    if pi_based:
        pi = np.atleast_2d(sample.pi)
        one_minus = np.sum(1.0 - pi, axis=1)
        _check_positive(one_minus, "all inclusion probabilities are 1; variance undefined")
        t_hat = _row_dots(1.0 / pi - 1.0, v) / one_minus[:, None]
        a = ((v - _outer(pi, t_hat)) @ grad[:, :, None])[..., 0]
        est = n / N**2 * np.sum(a * a * (1.0 / pi - 1.0) / pi, axis=1)
    else:
        g_tot = np.atleast_2d(sample.g_totals)
        a = ((v - _outer(x_s / x_bar, _row_dots(d, v))) @ grad[:, :, None])[..., 0]
        est = n * gamma_coeff(N, n) * x_bar / N * np.sum(a * a * g_tot / (x_s * x_s), axis=1)
    return float(est[0]) if sample.indices.ndim == 1 else est


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise outer products: (m, n, p) from a (m, n) and b (m, p)."""
    return a[:, :, None] * b[:, None, :]


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
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * np.sqrt(var / n)
    if var.ndim == 0:
        point, half = float(point), float(half)
    return ConfidenceInterval(center=point, half_width=half, level=level)


def jackknife_bc(
    sample: SampleDraw, pop: Population, f: Functional, kind: EstimatorKind
) -> float | np.ndarray:
    """Bias-corrected estimate  n g - (n-1) mean over i of g on the sample
    without unit i: a float, or (m,) for a batch of m samples.

    Flat row r n + i is sample r's replicate weights with unit i's set to
    0, so row-wise estimator passes of a bounded number of rows give every
    leave-one-out estimate.  Exact for estimators linear in the per-unit
    terms; an undefined leave-one-out estimate aborts with the lowest flat
    row's unit and names every sample that has one in ``rows``.
    """
    n = sample.n
    if n < 3:
        raise ParameterError("jackknifing needs at least 3 sampled units")
    idx = np.atleast_2d(sample.indices)  # one sample is a batch of one
    d = np.atleast_2d(design_weights(sample, pop))
    x_s, h, flat, x_bar = pop.x[idx], f.h(pop.y[idx]), np.arange(idx.size), pop.x_bar()
    if kind is EstimatorKind.PEML:  # plug_in's solve, keeping its roots lam
        c, lam = _peml_solve(d, x_s, x_bar)
        full = f.g(_row_dots(c, h))
        # row r n + i's psi at lam_r + z is, up to a factor, sum_k a_k z^k with
        # a_k = sum_{j != i} d~_j t_j (-t_j)^k, t_j = u_j / (1 + lam_r u_j):
        # sample r's power sums, taken one degree at a time, less unit i's term
        t = (x_s - x_bar) / (1.0 + lam[:, None] * (x_s - x_bar))
        own = d / d.sum(axis=1, keepdims=True) * t
        term, sums = own.copy(), np.empty((_DEGREE + 1, len(d)))
        for k in range(_DEGREE + 1):
            sums[k] = term.sum(axis=1)
            term *= -t
    else:
        full = plug_in(f, kind, sample, pop)
    if kind in (EstimatorKind.HT, EstimatorKind.RHC_EST, EstimatorKind.PRODUCT):
        d = d * (n / (n - 1))  # the others are invariant to a common factor

    def leave_out(rows):
        r, i = np.divmod(flat[rows], n)
        if kind is not EstimatorKind.PEML:
            w = np.where(np.arange(n) == i[:, None], 0.0, d[r])
            return f.g(estimate_mean_rows(kind, w, x_s[r], x_bar, h[r]))
        a = np.vstack([own[r, i], np.broadcast_to(-t[r, i], (_DEGREE, r.size))])
        a = sums[:, r] - np.multiply.accumulate(a)  # less unit i's own terms
        # Newton steps on the polynomial from z = 0: the first is -a_0 / a_1, the
        # rest take Horner's rule; all is elementwise, the same bits in any pass
        with np.errstate(all="ignore"):  # a non-finite start falls back to 0
            z = -a[0] / a[1]
            for _ in range(_STEPS - 1):
                p, dp = a[-1], 0.0
                for a_k in a[-2::-1]:
                    p, dp = p * z + a_k, dp * z + p
                z -= p / dp
        s = slice(r[0], r[-1] + 1)  # the pass's samples: r ascends
        return f.g(_row_dots(_peml_solve(d[s], x_s[s], x_bar, lam[r] + z, (r - r[0], i))[0], h[r]))

    kept, loo, failure = rows_that_evaluate(leave_out, idx.size, n)
    if failure is not None:
        row, error = failure
        unit = int(idx.flat[row])
        message = f"leave-one-out estimate undefined without unit {unit}: {error}"
        failed = np.bincount(kept // n, minlength=len(idx)) < n
        raise JackknifeFailureError(message, unit=unit).at_rows(failed) from error
    bc = n * full - (n - 1) * loo.reshape(-1, n).sum(axis=1) / n
    return float(bc[0]) if sample.indices.ndim == 1 else bc
