"""Population parameters expressed as smooth functions of mean vectors.

Each functional packages a transform ``h`` of the study values, a scalar
function ``g`` of the mean of ``h``, and the analytic gradient of ``g``:

  mean                  h(y) = y                       g(s) = s1
  variance              h(y) = (y^2, y)                g(s) = s1 - s2^2
  correlation           h(z1,z2) = (z1, z2, z1^2,      g = (s5 - s1 s2) /
                                    z2^2, z1 z2)           sqrt((s3-s1^2)(s4-s2^2))
  regression (a on b)   h = (za, zb, zb^2, za zb)      g = (s4 - s1 s2)/(s3 - s2^2)

The parameter value is ``g`` of the population mean of ``h``; an estimate
plugs in an estimated mean vector instead.  Correlation and regression are
undefined when a variance term is not strictly positive, which is reported as
an error rather than a silent NaN.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .designs import SampleDraw
from .errors import CombinationError, ParameterError, UndefinedParameterError
from .estimators import EstimatorKind, estimate_mean
from .population import Population

__all__ = [
    "FunctionalKind",
    "Functional",
    "MEAN",
    "VARIANCE",
    "CORRELATION",
    "regression_coef",
    "plug_in",
    "population_value",
]


class FunctionalKind(enum.Enum):
    MEAN = "mean"
    VARIANCE = "variance"
    CORRELATION = "correlation"
    REGRESSION = "regression"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_MOMENTS = {
    FunctionalKind.MEAN: 1,
    FunctionalKind.VARIANCE: 2,
    FunctionalKind.CORRELATION: 5,
    FunctionalKind.REGRESSION: 4,
}


@dataclass(frozen=True)
class Functional:
    """An (h, g, grad g) triple mapping study rows to a scalar parameter.

    ``of`` / ``on`` pick the coordinates for the regression coefficient
    (slope of ``of`` regressed on ``on``); they are ignored otherwise.
    """

    kind: FunctionalKind
    of: int = 0
    on: int = 1

    def __post_init__(self):
        if self.kind is FunctionalKind.REGRESSION:
            if {self.of, self.on} != {0, 1}:
                raise ParameterError(
                    "regression coordinates must be 0 and 1 in some order"
                )

    @property
    def name(self) -> str:
        """Label that distinguishes the two regression orientations."""
        if self.kind is FunctionalKind.REGRESSION:
            return f"regression{self.of + 1}{self.on + 1}"
        return self.kind.value

    @property
    def d(self) -> int:
        return 1 if self.kind in (FunctionalKind.MEAN, FunctionalKind.VARIANCE) else 2

    @property
    def p(self) -> int:
        return _MOMENTS[self.kind]

    def h(self, rows: np.ndarray) -> np.ndarray:
        """Transform study rows (m, d) into moment rows (m, p)."""
        y = np.asarray(rows, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape[1] != self.d:
            raise ParameterError(
                f"{self.kind} expects {self.d}-dimensional rows, got {y.shape[1]}"
            )
        if self.kind is FunctionalKind.MEAN:
            return y.copy()
        if self.kind is FunctionalKind.VARIANCE:
            v = y[:, 0]
            return np.column_stack([v * v, v])
        if self.kind is FunctionalKind.CORRELATION:
            z1, z2 = y[:, 0], y[:, 1]
            return np.column_stack([z1, z2, z1 * z1, z2 * z2, z1 * z2])
        za, zb = y[:, self.of], y[:, self.on]
        return np.column_stack([za, zb, zb * zb, za * zb])

    def g(self, s: np.ndarray) -> float | np.ndarray:
        """g at a moment vector (p,), or at each row of an (m, p) array.

        A row where g is undefined raises with its position as ``row``.
        """
        s = np.asarray(s, dtype=float)
        if s.ndim not in (1, 2) or s.shape[-1] != self.p:
            raise ParameterError(f"{self.kind} expects length-{self.p} moment vectors")
        c = s.T if s.ndim == 2 else s[:, None]  # one column per moment vector
        # float_power is libm pow, as ``**`` squares a float scalar (grad_g);
        # an array's ``** 2`` multiplies instead and can differ in the last bit
        if self.kind is FunctionalKind.MEAN:
            out = c[0].copy()
        elif self.kind is FunctionalKind.VARIANCE:
            out = c[0] - np.float_power(c[1], 2)
        elif self.kind is FunctionalKind.CORRELATION:
            v1 = c[2] - np.float_power(c[0], 2)
            v2 = c[3] - np.float_power(c[1], 2)
            bad = (v1 <= 0) | (v2 <= 0)
            if bad.any():
                raise UndefinedParameterError(
                    "correlation undefined: a variance term is not positive"
                ).at_row(int(bad.argmax()))
            out = (c[4] - c[0] * c[1]) / np.sqrt(v1 * v2)
        else:
            v = c[2] - np.float_power(c[1], 2)
            if (v <= 0).any():
                raise UndefinedParameterError(
                    "regression coefficient undefined: regressor variance not positive"
                ).at_row(int((v <= 0).argmax()))
            out = (c[3] - c[0] * c[1]) / v
        return out if s.ndim == 2 else float(out[0])

    def grad_g(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.shape != (self.p,):
            raise ParameterError(f"{self.kind} expects a length-{self.p} moment vector")
        if self.kind is FunctionalKind.MEAN:
            return np.array([1.0])
        if self.kind is FunctionalKind.VARIANCE:
            return np.array([1.0, -2.0 * s[1]])
        if self.kind is FunctionalKind.CORRELATION:
            v1 = s[2] - s[0] ** 2
            v2 = s[3] - s[1] ** 2
            if v1 <= 0 or v2 <= 0:
                raise UndefinedParameterError(
                    "correlation undefined: a variance term is not positive"
                )
            root = np.sqrt(v1 * v2)
            val = (s[4] - s[0] * s[1]) / root
            return np.array(
                [
                    -s[1] / root + val * s[0] / v1,
                    -s[0] / root + val * s[1] / v2,
                    -val / (2.0 * v1),
                    -val / (2.0 * v2),
                    1.0 / root,
                ]
            )
        v = s[2] - s[1] ** 2
        if v <= 0:
            raise UndefinedParameterError(
                "regression coefficient undefined: regressor variance not positive"
            )
        a = s[3] - s[0] * s[1]
        return np.array(
            [
                -s[1] / v,
                -s[0] / v + 2.0 * s[1] * a / (v * v),
                -a / (v * v),
                1.0 / v,
            ]
        )


MEAN = Functional(FunctionalKind.MEAN)
VARIANCE = Functional(FunctionalKind.VARIANCE)
CORRELATION = Functional(FunctionalKind.CORRELATION)


def regression_coef(of: int = 0, on: int = 1) -> Functional:
    """Slope of coordinate ``of`` regressed on coordinate ``on``."""
    return Functional(FunctionalKind.REGRESSION, of=of, on=on)


_RATIO_SAFE = frozenset({EstimatorKind.HAJEK, EstimatorKind.PEML})


def plug_in(
    f: Functional, kind: EstimatorKind, sample: SampleDraw, pop: Population
) -> float:
    """g of the estimated mean of h at the sampled units.

    Correlation and regression coefficients only admit the Hajek and PEML
    plug-ins (the others can produce negative variance estimates).
    """
    if f.kind in (FunctionalKind.CORRELATION, FunctionalKind.REGRESSION):
        if kind not in _RATIO_SAFE:
            raise CombinationError(
                f"{f.kind} plug-in requires the Hajek or PEML estimator, not {kind}"
            )
    y_s = pop.y[sample.indices]
    h_s = f.h(y_s)
    est = estimate_mean(kind, sample, pop, h_s)
    return f.g(np.atleast_1d(est))


def population_value(f: Functional, pop: Population) -> float:
    """g evaluated at the exact population mean of h."""
    return f.g(f.h(pop.y).mean(axis=0))
