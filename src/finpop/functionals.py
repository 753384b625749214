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

from .designs import DesignKind, SampleDraw
from .errors import ParameterError, UndefinedParameterError
from .estimators import EstimatorKind, _check_pair, estimate_mean
from .population import Population, _integer

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
        for name in ("of", "on"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.kind is FunctionalKind.REGRESSION and {self.of, self.on} != {0, 1}:
            raise ParameterError("regression coordinates must be 0 and 1 in some order")

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
        """Transform study rows (..., d) into moment rows (..., p); a 1-D
        array is a column of rows with d = 1."""
        y = np.asarray(rows, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape[-1] != self.d:
            raise ParameterError(
                f"{self.kind} expects {self.d}-dimensional rows, got {y.shape[-1]}"
            )
        if self.kind is FunctionalKind.MEAN:
            return y.copy()
        if self.kind is FunctionalKind.VARIANCE:
            v = y[..., 0]
            return np.stack([v * v, v], axis=-1)
        if self.kind is FunctionalKind.CORRELATION:
            z1, z2 = y[..., 0], y[..., 1]
            return np.stack([z1, z2, z1 * z1, z2 * z2, z1 * z2], axis=-1)
        za, zb = y[..., self.of], y[..., self.on]
        return np.stack([za, zb, zb * zb, za * zb], axis=-1)

    def _columns(self, s: np.ndarray) -> np.ndarray:
        """The (p, m) moments of a vector (p,) or of each row of (m, p)."""
        s = np.asarray(s, dtype=float)
        if s.ndim not in (1, 2) or s.shape[-1] != self.p:
            raise ParameterError(f"{self.kind} expects length-{self.p} moment vectors")
        return s.T if s.ndim == 2 else s[:, None]

    def _spreads(self, c: np.ndarray) -> list[np.ndarray]:
        """The variance terms the correlation (two) or the regression
        coefficient (one) divides by, each required positive in every column
        of moments; the columns where one is not raise as ``rows``."""
        # float_power is libm pow, as ``**`` on a float scalar is; an array's
        # ``** 2`` multiplies instead and can differ in the last bit
        if self.kind is FunctionalKind.CORRELATION:
            spreads = [c[2] - np.float_power(c[0], 2), c[3] - np.float_power(c[1], 2)]
            message = "correlation undefined: a variance term is not positive"
        else:
            spreads = [c[2] - np.float_power(c[1], 2)]
            message = "regression coefficient undefined: regressor variance not positive"
        bad = np.logical_or.reduce([v <= 0 for v in spreads])
        if bad.any():
            raise UndefinedParameterError(message).at_rows(bad)
        return spreads

    def g(self, s: np.ndarray) -> float | np.ndarray:
        """g at a moment vector (p,), or at each row of an (m, p) array.

        The rows where g is undefined raise, named in ``rows``.
        """
        c = self._columns(s)  # one column per moment vector
        if self.kind is FunctionalKind.MEAN:
            out = c[0].copy()
        elif self.kind is FunctionalKind.VARIANCE:
            out = c[0] - np.float_power(c[1], 2)
        elif self.kind is FunctionalKind.CORRELATION:
            v1, v2 = self._spreads(c)
            out = (c[4] - c[0] * c[1]) / np.sqrt(v1 * v2)
        else:
            (v,) = self._spreads(c)
            out = (c[3] - c[0] * c[1]) / v
        return out if np.ndim(s) == 2 else float(out[0])

    def grad_g(self, s: np.ndarray) -> np.ndarray:
        """The gradient (p,) of g at a moment vector (p,), or (m, p) at each
        row of an (m, p) array; undefined rows raise, named in ``rows``."""
        c = self._columns(s)
        if self.kind is FunctionalKind.MEAN:
            cols = [np.ones_like(c[0])]
        elif self.kind is FunctionalKind.VARIANCE:
            cols = [np.ones_like(c[0]), -2.0 * c[1]]
        elif self.kind is FunctionalKind.CORRELATION:
            v1, v2 = self._spreads(c)
            root = np.sqrt(v1 * v2)
            val = (c[4] - c[0] * c[1]) / root
            cols = [
                -c[1] / root + val * c[0] / v1,
                -c[0] / root + val * c[1] / v2,
                -val / (2.0 * v1),
                -val / (2.0 * v2),
                1.0 / root,
            ]
        else:
            (v,) = self._spreads(c)
            a = c[3] - c[0] * c[1]
            cols = [
                -c[1] / v,
                -c[0] / v + 2.0 * c[1] * a / (v * v),
                -a / (v * v),
                1.0 / v,
            ]
        grad = np.stack(cols, axis=-1)
        return grad if np.ndim(s) == 2 else grad[0]


MEAN = Functional(FunctionalKind.MEAN)
VARIANCE = Functional(FunctionalKind.VARIANCE)
CORRELATION = Functional(FunctionalKind.CORRELATION)


def regression_coef(of: int = 0, on: int = 1) -> Functional:
    """Slope of coordinate ``of`` regressed on coordinate ``on``."""
    return Functional(FunctionalKind.REGRESSION, of=of, on=on)


_RATIO_SAFE = frozenset({EstimatorKind.HAJEK, EstimatorKind.PEML})


def _check_plug_in(f: Functional, kind: EstimatorKind):
    """The one check, for ``plug_in`` and ``_check_cell``, that a correlation
    or regression plug-in is Hajek or PEML."""
    ratio = f.kind in (FunctionalKind.CORRELATION, FunctionalKind.REGRESSION)
    if ratio and kind not in _RATIO_SAFE:
        raise ParameterError(f"{f.name} requires the Hajek or PEML estimator, not {kind}")


def _check_cell(design: DesignKind, kind: EstimatorKind, f: Functional, pop: Population):
    """Refuse, with a ParameterError, a (design, estimator, functional) cell
    that cannot run on ``pop``: the Monte Carlo runner, the exact oracle and
    the CLI check a cell here before they draw or enumerate anything."""
    _check_pair(kind, design)
    _check_plug_in(f, kind)
    if f.d != pop.d:
        raise ParameterError(
            f"{f.name} expects d={f.d} study coordinates; population has d={pop.d}"
        )


def plug_in(
    f: Functional, kind: EstimatorKind, sample: SampleDraw, pop: Population, *, _roots=None
) -> float:
    """g of the estimated mean of h at the sampled units: a float, or (m,)
    for a batch of m samples, failing samples raising, named in ``rows``.

    Correlation and regression coefficients only admit the Hajek and PEML
    plug-ins (the others can produce negative variance estimates).  A PEML
    plug-in that returns appends its (m,) dual roots to the list ``_roots``.
    """
    _check_plug_in(f, kind)
    h_s, found = f.h(pop.y[sample.indices]), []
    value = f.g(estimate_mean(kind, sample, pop, h_s, _roots=found))
    if _roots is not None:  # g may fail after the solve: a call that raises adds none
        _roots += found
    return value


def population_value(f: Functional, pop: Population) -> float:
    """g evaluated at the exact population mean of h."""
    return f.g(f.h(pop.y).mean(axis=0))
