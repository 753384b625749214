"""The seven mean estimators, applied coordinatewise to transformed study
values, plus the calibrated-weight solver behind the pseudo empirical
likelihood (PEML) estimator.

Closed forms, with d(i,s) the design weight (1/(N pi_i) for pi-based draws,
G_i/(N x_i) for RHC draws) and Xbar the known population mean of x:

  HT / RHC        sum_s d_i h_i
  Hajek           sum_s d_i h_i / sum_s d_i
  ratio           (sum_s d_i h_i / sum_s d_i x_i) * Xbar
  product         (sum_s d_i h_i)(sum_s d_i x_i) / Xbar
  GREG            Hajek(h) + b (Xbar - Hajek(x)), b the d-weighted
                  least-squares slope of h on x
  PEML            sum_s c_i h_i, with c maximizing sum_s d_i log c_i subject
                  to sum c_i = 1 and sum c_i (x_i - Xbar) = 0

``estimate_mean_rows`` evaluates them for each row of an (m, n) matrix of
design weights, row i weighting sample i and a zero weight leaving the unit
out: ``estimate_mean`` is its case of one sample or of a batch of samples,
and the jackknife passes one row per left-out unit of each sample.  GREG's
slope ``_wls_slope`` is also the one the GREG/PEML variance estimates of
``inference`` linearize with.

``_CLASSES`` is the one table of which estimator runs under which design:
each design's row maps its valid estimators to their asymptotic MSE class
(``asymptotics.equivalence_class``); ``valid_pair`` is membership in it, and
``_check_pair`` the one check that raises on a pair outside it.
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


# design -> {valid estimator: its asymptotic MSE class id}; LMS shares SRSWOR's row
_SRSWOR_ROW = {
    EstimatorKind.GREG: 1, EstimatorKind.PEML: 1, EstimatorKind.HT: 2,
    EstimatorKind.HAJEK: 2, EstimatorKind.RATIO: 3, EstimatorKind.PRODUCT: 4,
}
_CLASSES = {
    DesignKind.SRSWOR: _SRSWOR_ROW,
    DesignKind.LMS: _SRSWOR_ROW,
    DesignKind.RAO_SAMPFORD: {
        EstimatorKind.GREG: 5, EstimatorKind.PEML: 5, EstimatorKind.HT: 6,
        EstimatorKind.RATIO: 6, EstimatorKind.PRODUCT: 6, EstimatorKind.HAJEK: 7,
    },
    DesignKind.RHC: {EstimatorKind.GREG: 8, EstimatorKind.PEML: 8, EstimatorKind.RHC_EST: 9},
}


def valid_pair(kind: EstimatorKind, design: DesignKind) -> bool:
    """Whether ``kind`` is defined on draws from ``design``."""
    return kind in _CLASSES[design]


def _check_pair(kind: EstimatorKind, design: DesignKind) -> None:
    """Refuse, with a CombinationError, an estimator not valid under ``design``."""
    if not valid_pair(kind, design):
        raise CombinationError(f"estimator {kind} is not valid under design {design}")


def design_weights(sample: SampleDraw, pop: Population) -> np.ndarray:
    """d(i,s) = 1/(N pi_i) for pi-based draws, G_i/(N x_i) under RHC."""
    N = pop.n_units
    if sample.design.is_pi_based:
        return 1.0 / (N * sample.pi)
    return sample.g_totals / (N * pop.x[sample.indices])


_TOL = 1e-12  # |psi| at which a PEML row has converged, relative to its largest |u|
_RESID = 1e-15  # calibration residuals at which a converged PEML row stops at once
_MAX_ITER = 200  # the most safeguarded Newton steps a PEML solve takes


def peml_weights(d: np.ndarray, x_sample: np.ndarray, x_bar: float, *, _roots=None) -> np.ndarray:
    """Maximize sum d_i log c_i subject to sum c = 1 and sum c (x - x_bar) = 0.

    ``d`` is (n,) or (m, n), and so are the weights c returned: each row is
    its own problem over the units it weights positively (c is 0 where d is),
    and an error names its failing rows as ``rows``.  ``x_sample`` is
    (n,), shared by the rows, or (m, n), one sample per row.  A row reduces to a
    one-dimensional dual root:
    c_i = d~_i / (1 + lam u_i) with u_i = x_i - x_bar and lam the unique zero
    of psi(lam) = sum d~_i u_i / (1 + lam u_i) on the interval keeping every
    denominator positive.  psi is strictly decreasing there, so a safeguarded
    Newton iteration (bisection fallback inside the bracket) always converges
    from its start, lam = 0 (jackknife rows start at a series root: ``_peml_solve``).
    A row stops at the first iterate lowering |psi| to within the tolerance
    whose residuals, |sum c - 1| = |lam psi| and |sum c x - x_bar| =
    |1 - x_bar lam| |psi| / max(1, |x_bar|), are at most 1e-15; a row that
    never gets there stops at the first step that fails to lower |psi|.  The
    rows' dual roots are appended to the list ``_roots`` if one is given.
    """
    dv = np.asarray(d, dtype=float)
    c, lam = _peml_solve(dv[None, :] if dv.ndim == 1 else dv, x_sample, x_bar)
    if _roots is not None:
        _roots.append(lam)
    return c if dv.ndim == 2 else c[0]


def _peml_solve(w, x_sample, x_bar, start=None, drop=None):
    """``peml_weights`` of (m, n) weights w, returned with the (m,) dual
    roots lam.  Row i starts at ``start[i]`` if that lies inside its bracket
    (-1/max u, -1/min u), and at 0 otherwise or without ``start``.  With
    ``drop=(take, unit)`` row k is sample take[k] of w and x_sample without
    its unit unit[k]: its checks and sums are the sample's less that unit's."""
    x_sample = np.asarray(x_sample, dtype=float)
    if w.ndim != 2 or x_sample.shape not in (w.shape, w.shape[1:]):
        raise ParameterError("weights and sample x values must align")
    ok, inside = np.isfinite(w) & (w >= 0), w > 0
    # u is 0 outside a row's units, so they add nothing to its sums
    u, w_ok = np.where(inside, x_sample - x_bar, 0.0), np.where(ok, w, 0.0)
    n_bad, units, total = (~ok).sum(axis=1), inside.sum(axis=1), w_ok.sum(axis=1)
    if drop is not None:  # each sample's counts and sums less the left-out unit's
        take, unit = drop
        n_bad, units = n_bad[take] - ~ok[take, unit], units[take] - inside[take, unit]
        total, w, u = total[take] - w_ok[take, unit], w_ok[take], u[take]
        w[np.arange(take.size), unit] = u[np.arange(take.size), unit] = 0.0
        x_sample = x_sample[take] if x_sample.ndim == 2 else x_sample
    if (n_bad > 0).any():
        raise ParameterError("weights must be nonnegative and finite").at_rows(n_bad > 0)
    if (units < 2).any():
        raise ParameterError("need at least two sampled units").at_rows(units < 2)
    # w if gathered, dt and u are this call's own: c and c x are computed in them
    dt = np.divide(w, total[:, None], out=None if drop is None else w)
    u_max, u_min = u.max(axis=1), u.min(axis=1)
    u_scale = np.maximum(u_max, -u_min)
    # a row whose sampled x all equal x_bar has a vacuous x constraint: lam = 0
    solve = u_scale > 0
    outside = solve & ((u_min >= 0) | (u_max <= 0))
    if outside.any():
        raise InfeasibleError(
            "x_bar lies outside the open hull of the sampled x values; "
            "no positive calibrated weights exist"
        ).at_rows(outside)

    rows = np.flatnonzero(solve)
    r_buf, q_buf = np.empty((2, rows.size, w.shape[1]))

    def psi(dt_a, u_a, lam):  # psi and -psi', evaluated into the two buffers
        r, q = r_buf[: lam.size], q_buf[: lam.size]
        np.divide(u_a, np.add(1.0, np.multiply(lam[:, None], u_a, out=r), out=r), out=r)
        val = np.add.reduce(np.multiply(dt_a, r, out=q), axis=1)
        return val, np.add.reduce(np.multiply(q, r, out=q), axis=1)

    x_scale = max(1.0, abs(x_bar))

    def settled(lam, abs_val, tgt):  # |psi| within tolerance, residuals <= _RESID
        resid = np.maximum(np.abs(lam), np.abs(1.0 - x_bar * lam) / x_scale) * abs_val
        return (abs_val <= tgt) & (resid <= _RESID)

    # the rows still iterating, compacted; the best iterate of each row is
    # written back to best_lam / best_val when its row leaves
    target = _TOL * np.maximum(1.0, u_scale)
    best_lam, best_val = np.zeros(w.shape[0]), np.zeros(w.shape[0])
    dt_a, u_a, tgt = (dt, u, target) if rows.size == len(u) else (dt[rows], u[rows], target[rows])
    blo, bhi = -1.0 / u_max[rows], -1.0 / u_min[rows]
    lam = np.zeros(rows.size) if start is None else np.asarray(start, dtype=float)[rows]
    lam[~((blo < lam) & (lam < bhi))] = 0.0  # a start outside its bracket: 0
    val, curv = psi(dt_a, u_a, lam)
    row_lam, row_val = lam.copy(), np.abs(val)
    live = (val != 0) & ~settled(lam, row_val, tgt)
    for _ in range(_MAX_ITER):
        if not live.any():
            break
        if not live.all():
            best_lam[rows], best_val[rows] = row_lam, row_val
            rows, dt_a, u_a, tgt = rows[live], dt_a[live], u_a[live], tgt[live]
            blo, bhi, lam, val = blo[live], bhi[live], lam[live], val[live]
            curv, row_lam, row_val = curv[live], row_lam[live], row_val[live]
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
        live = moved & ((lowered & ~settled(lam, abs_val, tgt)) | (row_val > tgt))
    best_lam[rows], best_val[rows] = row_lam, row_val
    unconverged = solve & (best_val > target)
    if unconverged.any():
        raise ConvergenceError(
            f"calibration root search did not converge in {_MAX_ITER} iterations"
        ).at_rows(unconverged)

    c = np.divide(dt, np.add(1.0, np.multiply(best_lam[:, None], u, out=u), out=u), out=dt)
    resid_sum = np.abs(c.sum(axis=1) - 1.0)
    resid_x = np.abs(np.multiply(c, x_sample, out=u).sum(axis=1) - x_bar) / x_scale
    # c is 0 outside a row's units: a unit whose c is not positive lowers the count
    bad = (resid_sum > 1e-10) | (resid_x > 1e-10) | ((c > 0).sum(axis=1) != units)
    if bad.any():
        raise ConvergenceError(
            f"calibration residuals too large (sum: {resid_sum[bad].max():.2e}, "
            f"x: {resid_x[bad].max():.2e})"
        ).at_rows(bad)
    return c, best_lam


def _row_dots(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """w_i . v_i for each row of w (m, n) and its own v_i, v being (m, n) or
    (m, n, p): a stacked matmul sums each row as a single row's ``d @ v``."""
    if v.ndim == 2:
        return (w[:, None, :] @ v[:, :, None])[:, 0, 0]
    return (w[:, None, :] @ v)[:, 0]


def _wls_slope(
    w: np.ndarray, x_sample: np.ndarray, h: np.ndarray, w_sum: np.ndarray | None = None
) -> np.ndarray:
    """The (m, p) w-weighted least-squares slopes of h on x, one per row of
    w (m, n) and its own sample, x (m, n) and h (m, n, p); ``w_sum`` is
    ``w.sum(axis=1)`` if the caller has it.  x is shifted by the x of each
    row's first positively weighted unit before it is centred, so that a row
    whose weighted x values are all equal, and only such a row, has a zero
    denominator; such rows raise, named in ``rows``."""
    if w_sum is None:
        w_sum = w.sum(axis=1)
    first = (w > 0).argmax(axis=1)
    x0 = x_sample - x_sample[np.arange(len(w)), first][:, None]
    xc = x0 - (_row_dots(w, x0) / w_sum)[:, None]
    s2x = _row_dots(w, xc * xc)
    _check_positive(s2x, "sampled x values are all equal; the regression slope is undefined")
    return ((w * xc)[:, None, :] @ h)[:, 0] / s2x[:, None]


def _check_positive(values: np.ndarray, message: str) -> None:
    bad = values <= 0
    if bad.any():
        raise DegenerateError(message).at_rows(bad)


def estimate_mean_rows(
    kind: EstimatorKind,
    weights: np.ndarray,
    x_sample: np.ndarray,
    x_bar: float,
    h: np.ndarray,
    roots: list | None = None,
) -> np.ndarray:
    """The (m, p) mean estimates of the columns of h, one row per row of
    design weights (m, n), row i weighting sample i: x_sample (m, n) and
    h (m, n, p).  Undefined rows raise, named in ``rows``; ``roots`` is
    ``peml_weights``'s list of PEML dual roots."""
    dh = _row_dots(weights, h)
    if kind in (EstimatorKind.HT, EstimatorKind.RHC_EST):
        return dh
    if kind is EstimatorKind.HAJEK:
        return dh / weights.sum(axis=1)[:, None]
    if kind is EstimatorKind.RATIO:
        return dh / _row_dots(weights, x_sample)[:, None] * x_bar
    if kind is EstimatorKind.PRODUCT:
        return dh * _row_dots(weights, x_sample)[:, None] / x_bar
    if kind is EstimatorKind.GREG:
        dsum = weights.sum(axis=1)
        x_star = _row_dots(weights, x_sample)[:, None] / dsum[:, None]
        slope = _wls_slope(weights, x_sample, h, dsum)
        return dh / dsum[:, None] + slope * (x_bar - x_star)
    return _row_dots(peml_weights(weights, x_sample, x_bar, _roots=roots), h)  # PEML


def estimate_mean(
    kind: EstimatorKind,
    sample: SampleDraw,
    pop: Population,
    h_values: np.ndarray,
    *, _roots: list | None = None,
) -> float | np.ndarray:
    """Estimate the population mean of h given its values at the sampled units.

    ``h_values`` may be (n,) or (n, p); the estimate has matching shape
    (scalar or (p,)).  Each column is treated as its own study variable.  On
    a batch of m samples h_values is (m, n) or (m, n, p) and the estimates
    (m,) or (m, p), one per sample; failing samples raise, named in ``rows``.
    """
    _check_pair(kind, sample.design)
    h = np.asarray(h_values, dtype=float)
    one = sample.indices.ndim == 1
    scalar = h.ndim == sample.indices.ndim
    if scalar:
        h = h[..., None]
    if h.shape[:-1] != sample.indices.shape:
        raise ParameterError("h_values must have one row per sampled unit")
    # one sample is the one-row case of a batch
    w = np.atleast_2d(design_weights(sample, pop))
    x_s = np.atleast_2d(pop.x[sample.indices])
    est = estimate_mean_rows(kind, w, x_s, pop.x_bar(), h[None] if one else h, _roots)
    if scalar:
        est = est[:, 0]
    if not one:
        return est
    return float(est[0]) if scalar else est[0]
