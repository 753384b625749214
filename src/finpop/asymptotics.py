"""Finite-population versions of the large-sample MSE machinery.

For a functional with transform h and gradient grad g, define the linearized
values W_i = grad g(hbar) . h_i.  Nine disjoint (estimator, design)
equivalence classes share one asymptotic MSE each; ``delta_sq`` evaluates the
class formulas on a concrete population with the sampling fraction n/N
standing in for its limit.  ``equivalence_class`` maps a valid
(estimator, design) pair to its class id, with the vanishing-sampling-fraction
merges (8 into 5, 9 into 6) available behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import DesignKind, _check_n, rhc_group_sizes
from .errors import CombinationError, DegenerateError, ParameterError, UndefinedParameterError
from .estimators import EstimatorKind, valid_pair
from .functionals import Functional
from .population import Population

__all__ = [
    "gamma_coeff",
    "AsymptoticContext",
    "delta_sq",
    "equivalence_class",
    "MomentSummary",
    "check_c6",
]


def gamma_coeff(N: int, n: int) -> float:
    """sum N_j (N_j - 1) / (N (N - 1)) over the random-group sizes.

    Equals (N - n) / (n (N - 1)) whenever n divides N.
    """
    sizes = rhc_group_sizes(N, n)
    return float(np.sum(sizes * (sizes - 1)) / (N * (N - 1)))


@dataclass(frozen=True)
class AsymptoticContext:
    """Population-level ingredients of the class MSE formulas.

    ``w`` holds the linearized values W_i; the S terms are population
    (divide-by-N) moments; ``phi = xbar - (n/N) (sum x^2 / N) / xbar``.
    """

    pop: Population
    f: Functional
    n: int
    lambda_hat: float
    w: np.ndarray
    x_bar: float
    s2_x: float
    s2_w: float
    s_xw: float
    phi: float
    gamma: float

    @classmethod
    def compute(cls, pop: Population, f: Functional, n: int) -> "AsymptoticContext":
        _check_n(pop, n)
        h = f.h(pop.y)
        grad = f.grad_g(h.mean(axis=0))
        w = h @ grad
        N = pop.n_units
        lam = n / N
        x = pop.x
        x_bar = float(x.mean())
        w_bar = float(w.mean())
        s2_x = float((x * x).mean() - x_bar**2)
        s2_w = float((w * w).mean() - w_bar**2)
        s_xw = float((w * x).mean() - w_bar * x_bar)
        phi = x_bar - lam * float((x * x).mean()) / x_bar
        w = w.copy()
        w.setflags(write=False)
        return cls(
            pop=pop,
            f=f,
            n=n,
            lambda_hat=lam,
            w=w,
            x_bar=x_bar,
            s2_x=s2_x,
            s2_w=s2_w,
            s_xw=s_xw,
            phi=phi,
            gamma=gamma_coeff(N, n),
        )

    @property
    def w_bar(self) -> float:
        return float(self.w.mean())


def delta_sq(class_id: int, ctx: AsymptoticContext) -> float:
    """The class ``class_id`` asymptotic MSE evaluated on the population."""
    lam = ctx.lambda_hat
    x = ctx.pop.x
    w = ctx.w
    w_bar = ctx.w_bar
    x_bar = ctx.x_bar

    if class_id in (1, 5, 8) and ctx.s2_x <= 0:
        raise DegenerateError("x has zero variance; the regression term is undefined")
    if class_id in (6, 7) and ctx.phi == 0:
        raise DegenerateError("phi is zero; the class formula is singular")

    if class_id == 1:
        return (1 - lam) * (ctx.s2_w - ctx.s_xw**2 / ctx.s2_x)
    if class_id == 2:
        return (1 - lam) * ctx.s2_w
    if class_id == 3:
        return (1 - lam) * (
            ctx.s2_w - 2 * w_bar * ctx.s_xw / x_bar + (w_bar / x_bar) ** 2 * ctx.s2_x
        )
    if class_id == 4:
        return (1 - lam) * (
            ctx.s2_w + 2 * w_bar * ctx.s_xw / x_bar + (w_bar / x_bar) ** 2 * ctx.s2_x
        )
    if class_id == 5:
        resid = w - w_bar - (ctx.s_xw / ctx.s2_x) * (x - x_bar)
        return float(np.mean(resid**2 * (x_bar / x - lam)))
    if class_id == 6:
        shift = (lam * float((w * x).mean()) - w_bar * x_bar) / (ctx.phi * x_bar)
        term = w + shift * x
        return float(np.mean(term**2 * (x_bar / x - lam)))
    if class_id == 7:
        term = w - w_bar + (lam / (ctx.phi * x_bar)) * x * ctx.s_xw
        return float(np.mean(term**2 * (x_bar / x - lam)))
    if class_id == 8:
        resid = w - w_bar - (ctx.s_xw / ctx.s2_x) * (x - x_bar)
        return ctx.n * ctx.gamma * x_bar * float(np.mean(resid**2 / x))
    if class_id == 9:
        return ctx.n * ctx.gamma * (
            x_bar * float(np.mean(w**2 / x)) - w_bar**2
        )
    raise ParameterError(f"class id must be 1..9, got {class_id}")


_CLASS_TABLE = {
    DesignKind.SRSWOR: {
        EstimatorKind.GREG: 1,
        EstimatorKind.PEML: 1,
        EstimatorKind.HT: 2,
        EstimatorKind.HAJEK: 2,
        EstimatorKind.RATIO: 3,
        EstimatorKind.PRODUCT: 4,
    },
    DesignKind.LMS: {
        EstimatorKind.GREG: 1,
        EstimatorKind.PEML: 1,
        EstimatorKind.HT: 2,
        EstimatorKind.HAJEK: 2,
        EstimatorKind.RATIO: 3,
        EstimatorKind.PRODUCT: 4,
    },
    DesignKind.RAO_SAMPFORD: {
        EstimatorKind.GREG: 5,
        EstimatorKind.PEML: 5,
        EstimatorKind.HT: 6,
        EstimatorKind.RATIO: 6,
        EstimatorKind.PRODUCT: 6,
        EstimatorKind.HAJEK: 7,
    },
    DesignKind.RHC: {
        EstimatorKind.GREG: 8,
        EstimatorKind.PEML: 8,
        EstimatorKind.RHC_EST: 9,
    },
}


def equivalence_class(
    kind: EstimatorKind, design: DesignKind, lambda_zero: bool = False
) -> int:
    """Class id (1..9) of a valid (estimator, design) pair.

    With ``lambda_zero`` the sampling fraction is treated as vanishing, which
    merges class 8 into 5 and class 9 into 6.
    """
    if not valid_pair(kind, design):
        raise CombinationError(
            f"estimator {kind} is not defined under the {design} design"
        )
    cid = _CLASS_TABLE[design][kind]
    if lambda_zero:
        cid = {8: 5, 9: 6}.get(cid, cid)
    return cid


@dataclass(frozen=True)
class MomentSummary:
    """Moments mu_j = E X^j of a positive size variable, j in {-1, 1, 2, 3}."""

    mu_m1: float
    mu1: float
    mu2: float
    mu3: float

    def __post_init__(self):
        if self.mu1 <= 0 or self.mu_m1 <= 0:
            raise ParameterError("mu1 and mu_m1 must be positive")
        if self.mu1 * self.mu_m1 < 1 - 1e-12:
            raise ParameterError("mu1 * mu_m1 < 1 violates Cauchy-Schwarz")

    @property
    def xi(self) -> float:
        """Covariance of X^2 and X: mu3 - mu2 mu1."""
        return self.mu3 - self.mu2 * self.mu1

    @classmethod
    def from_values(cls, x: np.ndarray) -> "MomentSummary":
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ParameterError("moments require positive values")
        return cls(
            mu_m1=float(np.mean(1.0 / x)),
            mu1=float(np.mean(x)),
            mu2=float(np.mean(x**2)),
            mu3=float(np.mean(x**3)),
        )


def check_c6(m: MomentSummary) -> bool:
    """Moment predicate xi > 2 max(mu1, mu_m1 / (mu1 mu_m1 - 1)).

    Undefined (an error) when mu1 mu_m1 = 1, i.e. the size variable is
    degenerate.
    """
    denom = m.mu1 * m.mu_m1 - 1.0
    if denom <= 0:
        raise UndefinedParameterError(
            "mu1 * mu_m1 = 1: the size variable is degenerate and the "
            "predicate is undefined"
        )
    return m.xi > 2.0 * max(m.mu1, m.mu_m1 / denom)
