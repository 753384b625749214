"""Finite-population data model, synthetic generators and CSV ingestion.

A population is a fixed list of ``N`` units, each carrying a strictly
positive size value ``x`` and a ``d``-dimensional study value ``y``.  The
synthetic generators draw ``x`` from a gamma distribution (parameterized by
mean and standard deviation) and build ``y`` from a linear model
``y = alpha + beta * x + eps`` with independent normal noise.

Randomness comes from ``numpy.random.default_rng`` (PCG64); a generation is a
pure function of ``(spec, n_pop, seed)``.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import IngestionError, ParameterError

__all__ = [
    "Population",
    "LinearModelSpec",
    "default_univariate_spec",
    "default_bivariate_spec",
    "generate_univariate",
    "generate_bivariate",
    "load_csv",
    "write_csv",
]


@dataclass(frozen=True)
class Population:
    """A finite population: size values ``x`` (N,) and study values ``y`` (N, d).

    Immutable after construction; the arrays are marked read-only so a
    population can be shared freely across threads, and the mean and total of
    x are computed once.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if x.ndim != 1 or y.ndim != 2:
            raise ParameterError("x must be 1-d and y 2-d (rows = units)")
        if x.shape[0] != y.shape[0]:
            raise ParameterError(
                f"x has {x.shape[0]} units but y has {y.shape[0]} rows"
            )
        if x.shape[0] < 2:
            raise ParameterError("a population needs at least 2 units")
        if y.shape[1] < 1:
            raise ParameterError("y needs at least one study coordinate")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ParameterError("population values must be finite")
        if np.any(x <= 0):
            bad = int(np.argmax(x <= 0))
            raise ParameterError(f"size values must be positive (unit {bad})")
        x = x.copy()
        y = y.copy()
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_x_bar", float(x.mean()))
        object.__setattr__(self, "_x_total", float(x.sum()))

    @property
    def n_units(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.y.shape[1]

    def x_bar(self) -> float:
        return self._x_bar

    def x_total(self) -> float:
        return self._x_total


def _as_coords(value, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{name} must be a scalar or flat sequence")
    return arr


@dataclass(frozen=True)
class LinearModelSpec:
    """Parameters of the generating model ``y_j = alpha_j + beta_j * x + eps_j``.

    ``alpha``, ``beta`` and ``sigma_eps`` may be scalars (one study
    coordinate) or equal-length sequences (one entry per coordinate).
    ``gamma_mean`` / ``gamma_sd`` parameterize the gamma distribution of the
    size variable x.
    """

    alpha: float | Sequence[float] = 500.0
    beta: float | Sequence[float] = 1.0
    sigma_eps: float | Sequence[float] = 100.0
    gamma_mean: float = 1000.0
    gamma_sd: float = 200.0
    alphas: np.ndarray = field(init=False, repr=False, compare=False)
    betas: np.ndarray = field(init=False, repr=False, compare=False)
    sigmas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = {"alphas": "alpha", "betas": "beta", "sigmas": "sigma_eps"}
        coords = {k: _as_coords(getattr(self, name), name) for k, name in names.items()}
        d = max(arr.size for arr in coords.values())
        if any(arr.size not in (1, d) for arr in coords.values()):
            raise ParameterError("alpha, beta and sigma_eps lengths disagree")
        if np.any(coords["sigmas"] < 0):
            raise ParameterError("sigma_eps must be nonnegative")
        if not (self.gamma_mean > 0 and self.gamma_sd > 0):
            raise ParameterError("gamma_mean and gamma_sd must be positive")
        for k, arr in coords.items():
            arr = np.repeat(arr, d) if arr.size == 1 else arr
            arr.setflags(write=False)
            object.__setattr__(self, k, arr)

    @property
    def d(self) -> int:
        return self.alphas.size


def default_univariate_spec() -> LinearModelSpec:
    """y = 500 + x + eps, sd(eps) = 100, x ~ gamma(mean 1000, sd 200)."""
    return LinearModelSpec(alpha=500.0, beta=1.0, sigma_eps=100.0)


def default_bivariate_spec() -> LinearModelSpec:
    """z1 = 500 + x + eps1, z2 = 1000 + x + eps2 with noise sds 100 and 200."""
    return LinearModelSpec(
        alpha=(500.0, 1000.0), beta=(1.0, 1.0), sigma_eps=(100.0, 200.0)
    )


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool, a float or a string is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{what} must be an integer, got {value!r}")


def _generate(spec: LinearModelSpec, n_pop: int, seed: int) -> Population:
    n_pop, seed = _integer(n_pop, "n_pop"), _integer(seed, "seed")
    if n_pop < 2:
        raise ParameterError("n_pop must be at least 2")
    if seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    # shape/scale from (mean, sd): mean = k*theta, var = k*theta^2
    shape = (spec.gamma_mean / spec.gamma_sd) ** 2
    scale = spec.gamma_sd**2 / spec.gamma_mean
    x = rng.gamma(shape, scale, size=n_pop)
    eps = rng.standard_normal(size=(n_pop, spec.d)) * spec.sigmas
    y = spec.alphas + np.outer(x, spec.betas) + eps
    return Population(x=x, y=y)


def generate_univariate(spec: LinearModelSpec, n_pop: int, seed: int) -> Population:
    """Generate a univariate-study-variable population from the linear model."""
    if spec.d != 1:
        raise ParameterError("univariate generation needs a 1-coordinate spec")
    return _generate(spec, n_pop, seed)


def generate_bivariate(spec: LinearModelSpec, n_pop: int, seed: int) -> Population:
    """Generate a bivariate-study-variable population (independent noise streams)."""
    if spec.d != 2:
        raise ParameterError("bivariate generation needs a 2-coordinate spec")
    return _generate(spec, n_pop, seed)


def load_csv(
    path: str | Path, x_column: str, y_columns: Sequence[str] | None = None
) -> Population:
    """Read a population from a headered CSV file.

    ``y_columns`` defaults to every column but ``x_column``, in file order.
    Rows keep file order.  Parsing failures name the offending data row
    (1-based, header excluded) and column.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        if y_columns is None:
            y_columns = [name for name in header if name != x_column]
        y_columns = list(y_columns)
        if not y_columns:
            raise IngestionError("at least one y column must be named")
        missing = [c for c in [x_column, *y_columns] if c not in header]
        if missing:
            raise IngestionError(f"{path}: missing column(s) {', '.join(missing)}")
        xi = header.index(x_column)
        yi = [header.index(c) for c in y_columns]
        xs: list[float] = []
        ys: list[list[float]] = []
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue

            def cell(idx: int, name: str) -> float:
                if idx >= len(row):
                    raise IngestionError(
                        f"{path}: row {row_no}: missing value for column {name!r}"
                    )
                try:
                    return float(row[idx])
                except ValueError:
                    raise IngestionError(
                        f"{path}: row {row_no}, column {name!r}: "
                        f"not a number ({row[idx]!r})"
                    ) from None

            xv = cell(xi, x_column)
            if xv <= 0:
                raise IngestionError(
                    f"{path}: row {row_no}, column {x_column!r}: "
                    f"size value must be positive, got {xv}"
                )
            xs.append(xv)
            ys.append([cell(j, name) for j, name in zip(yi, y_columns)])
    if len(xs) < 2:
        raise IngestionError(f"{path}: need at least 2 data rows, got {len(xs)}")
    return Population(x=np.array(xs), y=np.array(ys))


def write_csv(pop: Population, path: str | Path) -> None:
    """Write a population to CSV (header row, full-precision decimals): the
    columns are x and then y, or z1, z2, ... for more than one coordinate."""
    y_columns = ["y"] if pop.d == 1 else [f"z{j + 1}" for j in range(pop.d)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", *y_columns])
        for i in range(pop.n_units):
            writer.writerow([repr(float(pop.x[i]))]
                            + [repr(float(v)) for v in pop.y[i]])
