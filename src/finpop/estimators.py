"""The seven mean estimators, applied coordinatewise to transformed study
values, plus the calibrated-weight solver behind the pseudo empirical
likelihood (PEML) estimator.

Closed forms, with d(i,s) the design weight (1/(N pi_i) for pi-based draws,
G_i/(N x_i) for RHC draws) and Xbar the known population mean of x:

  HT / RHC        sum_s d_i h_i
  Hajek           sum_s d_i h_i / sum_s d_i
  ratio           (sum_s d_i h_i / sum_s d_i x_i) * Xbar
  product         (sum_s d_i h_i)(sum_s d_i x_i) / Xbar
  GREG            weighted-least-squares calibration on x with weights d_i
  PEML            sum_s c_i h_i, with c maximizing sum_s d_i log c_i subject
                  to sum c_i = 1 and sum c_i (x_i - Xbar) = 0

``estimate_mean_rows`` evaluates them for each row of an (m, n) matrix of
design weights, a zero weight leaving the unit out: ``estimate_mean`` is its
one-row case, and the jackknife passes one row per left-out unit.
"""

from __future__ import annotations

import enum

import numpy as np

from .designs import DesignKind, SampleDraw
from .errors import (
    CombinationError,
    ConvergenceError,
    DegenerateError,
    InfeasibleError,
    ParameterError,
)
from .population import Population

__all__ = [
    "EstimatorKind",
    "valid_pair",
    "design_weights",
    "peml_weights",
    "estimate_mean_rows",
    "estimate_mean",
]


class EstimatorKind(enum.Enum):
    HT = "ht"
    HAJEK = "hajek"
    RATIO = "ratio"
    PRODUCT = "product"
    RHC_EST = "rhc"
    GREG = "greg"
    PEML = "peml"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_PI_KINDS = frozenset(EstimatorKind) - {EstimatorKind.RHC_EST}
_RHC_KINDS = frozenset(
    {EstimatorKind.RHC_EST, EstimatorKind.GREG, EstimatorKind.PEML}
)


def valid_pair(kind: EstimatorKind, design: DesignKind) -> bool:
    """Whether ``kind`` is defined on draws from ``design``."""
    if design is DesignKind.RHC:
        return kind in _RHC_KINDS
    return kind in _PI_KINDS


def design_weights(sample: SampleDraw, pop: Population) -> np.ndarray:
    """d(i,s) = 1/(N pi_i) for pi-based draws, G_i/(N x_i) under RHC."""
    N = pop.n_units
    if sample.design.is_pi_based:
        return 1.0 / (N * sample.pi)
    return sample.g_totals / (N * pop.x[sample.indices])


def peml_weights(
    d: np.ndarray,
    x_sample: np.ndarray,
    x_bar: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Maximize sum d_i log c_i subject to sum c = 1 and sum c (x - x_bar) = 0.

    ``d`` is (n,) or (m, n), and so are the weights c returned: each row is
    its own problem over the units it weights positively (c is 0 where d is),
    and an error names its first failing row as ``row``.  A row reduces to a
    one-dimensional dual root:
    c_i = d~_i / (1 + lam u_i) with u_i = x_i - x_bar and lam the unique zero
    of psi(lam) = sum d~_i u_i / (1 + lam u_i) on the interval keeping every
    denominator positive.  psi is strictly decreasing there, so a safeguarded
    Newton iteration (bisection fallback inside the bracket) always converges;
    once |psi| is within the tolerance, a row stops at the first step that
    fails to lower it.
    """
    dv = np.asarray(d, dtype=float)
    x_sample = np.asarray(x_sample, dtype=float)
    w = dv[None, :] if dv.ndim == 1 else dv
    if w.ndim != 2 or x_sample.ndim != 1 or w.shape[1] != x_sample.size:
        raise ParameterError("weights and sample x values must align")
    if not (np.isfinite(w) & (w >= 0)).all():
        raise ParameterError("weights must be nonnegative and finite")
    inside = w > 0
    if (inside.sum(axis=1) < 2).any():
        raise ParameterError("need at least two sampled units")
    dt = w / w.sum(axis=1, keepdims=True)
    # u is 0 outside a row's units, so they add nothing to its sums
    u = np.where(inside, x_sample - x_bar, 0.0)
    u_max, u_min = u.max(axis=1), u.min(axis=1)
    u_scale = np.maximum(u_max, -u_min)
    # a row whose sampled x all equal x_bar has a vacuous x constraint: lam = 0
    solve = u_scale > 0
    outside = solve & ((u_min >= 0) | (u_max <= 0))
    if outside.any():
        raise InfeasibleError(
            "x_bar lies outside the open hull of the sampled x values; "
            "no positive calibrated weights exist"
        ).at_row(int(outside.argmax()))

    def psi(dt_a, u_a, lam):  # psi and -psi'
        r = u_a / (1.0 + lam[:, None] * u_a)
        q = dt_a * r
        return np.add.reduce(q, axis=1), np.add.reduce(q * r, axis=1)

    # the rows still iterating, compacted; the best iterate of each row is
    # written back to best_lam / best_val when its row leaves
    rows = np.flatnonzero(solve)
    target = tol * np.maximum(1.0, u_scale)
    best_lam, best_val = np.zeros(w.shape[0]), np.zeros(w.shape[0])
    dt_a, u_a, tgt = dt[rows], u[rows], target[rows]
    blo, bhi = -1.0 / u_max[rows], -1.0 / u_min[rows]
    lam = np.zeros(rows.size)
    val, curv = psi(dt_a, u_a, lam)
    row_lam, row_val = lam.copy(), np.abs(val)
    live = val != 0
    for _ in range(max_iter):
        if not live.all():
            best_lam[rows], best_val[rows] = row_lam, row_val
            rows, dt_a, u_a, tgt = rows[live], dt_a[live], u_a[live], tgt[live]
            blo, bhi, lam, val = blo[live], bhi[live], lam[live], val[live]
            curv, row_lam, row_val = curv[live], row_lam[live], row_val[live]
        if not rows.size:
            break
        above = val > 0  # psi decreases: the root lies above lam
        np.copyto(blo, lam, where=above)
        np.copyto(bhi, lam, where=~above)
        step = lam + val / curv
        new_lam = np.where((blo < step) & (step < bhi), step, 0.5 * (blo + bhi))
        moved = new_lam != lam  # else a float fixpoint: no further progress
        lam = new_lam
        val, curv = psi(dt_a, u_a, lam)
        abs_val = np.abs(val)
        lowered = abs_val < row_val
        np.copyto(row_lam, lam, where=lowered)
        np.minimum(row_val, abs_val, out=row_val)
        live = moved & (lowered | (row_val > tgt))
    best_lam[rows], best_val[rows] = row_lam, row_val
    unconverged = solve & (best_val > target)
    if unconverged.any():
        raise ConvergenceError(
            f"calibration root search did not converge in {max_iter} iterations"
        ).at_row(int(unconverged.argmax()))

    c = dt / (1.0 + best_lam[:, None] * u)
    resid_sum = np.abs(c.sum(axis=1) - 1.0)
    resid_x = np.abs(c @ x_sample - x_bar) / max(1.0, abs(x_bar))
    bad = (resid_sum > 1e-10) | (resid_x > 1e-10) | ((c > 0) != inside).any(axis=1)
    if bad.any():
        r = int(bad.argmax())
        raise ConvergenceError(
            f"calibration residuals too large (sum: {resid_sum[r]:.2e}, "
            f"x: {resid_x[r]:.2e})"
        ).at_row(r)
    return c if dv.ndim == 2 else c[0]


def estimate_mean_rows(
    kind: EstimatorKind,
    weights: np.ndarray,
    x_sample: np.ndarray,
    x_bar: float,
    h: np.ndarray,
) -> np.ndarray:
    """The (m, p) mean estimates of the columns of h (n, p), one row per row
    of design weights (m, n); an undefined row raises with its position as
    ``row``."""
    dh = weights @ h
    if kind in (EstimatorKind.HT, EstimatorKind.RHC_EST):
        return dh
    if kind is EstimatorKind.HAJEK:
        return dh / weights.sum(axis=1)[:, None]
    if kind is EstimatorKind.RATIO:
        return dh / (weights @ x_sample)[:, None] * x_bar
    if kind is EstimatorKind.PRODUCT:
        return dh * (weights @ x_sample)[:, None] / x_bar
    if kind is EstimatorKind.GREG:
        dsum = weights.sum(axis=1)[:, None]
        h_star = dh / dsum
        x_star = (weights @ x_sample)[:, None] / dsum
        xc = x_sample - x_star
        # row-wise dot products, summed as a single row's ``d @ v`` sums
        denom = (weights[:, None, :] @ (xc * xc)[:, :, None])[:, 0]
        flat = denom[:, 0] <= 0
        if flat.any():
            raise DegenerateError(
                "weighted x variance is zero; regression calibration undefined"
            ).at_row(int(flat.argmax()))
        beta = ((weights * xc)[:, None, :] @ (h - h_star[:, None, :]))[:, 0] / denom
        return h_star + beta * (x_bar - x_star)
    if kind is EstimatorKind.PEML:
        return peml_weights(weights, x_sample, x_bar) @ h
    raise CombinationError(f"unknown estimator {kind}")  # pragma: no cover


def estimate_mean(
    kind: EstimatorKind,
    sample: SampleDraw,
    pop: Population,
    h_values: np.ndarray,
) -> float | np.ndarray:
    """Estimate the population mean of h given its values at the sampled units.

    ``h_values`` may be (n,) or (n, p); the estimate has matching shape
    (scalar or (p,)).  Each column is treated as its own study variable.
    """
    if not valid_pair(kind, sample.design):
        raise CombinationError(
            f"estimator {kind} is not defined under the {sample.design} design"
        )
    h = np.asarray(h_values, dtype=float)
    scalar = h.ndim == 1
    if scalar:
        h = h[:, None]
    if h.shape[0] != sample.n:
        raise ParameterError("h_values must have one row per sampled unit")

    d = design_weights(sample, pop)
    est = estimate_mean_rows(kind, d[None, :], pop.x[sample.indices], pop.x_bar(), h)[0]
    return float(est[0]) if scalar else est
