import numpy as np
import pytest

from finpop import (
    DesignKind,
    Population,
    SampleDraw,
    default_bivariate_spec,
    default_univariate_spec,
    generate_bivariate,
    generate_univariate,
)


@pytest.fixture
def pop4():
    """N=4, x=(1,2,3,4), generic y."""
    return Population(x=np.array([1.0, 2.0, 3.0, 4.0]),
                      y=np.array([2.0, 1.0, 5.0, 3.0]))


@pytest.fixture
def pop5():
    """N=5, x=(1..5), generic y."""
    return Population(x=np.arange(1.0, 6.0),
                      y=np.array([3.0, 1.0, 4.0, 1.0, 5.0]))


@pytest.fixture(scope="session")
def benchmark_pop():
    """The synthetic univariate benchmark population (N=5000)."""
    return generate_univariate(default_univariate_spec(), 5000, seed=4)


@pytest.fixture(scope="session")
def benchmark_pop_biv():
    """The synthetic bivariate benchmark population (N=5000)."""
    return generate_bivariate(default_bivariate_spec(), 5000, seed=4)


def random_population(rng, N=None, d=1):
    """A small random population for property-style loops."""
    if N is None:
        N = int(rng.integers(5, 12))
    x = rng.uniform(0.5, 4.0, size=N)
    y = rng.normal(size=(N, d)) * 2.0 + 1.0
    return Population(x=x, y=y)


def drop_unit(sample, position, scale=1.0):
    """The same one-sample draw with the unit at ``position`` removed and the
    others' design weights times ``scale``: with n/(n-1), the delete-one
    jackknife replicate the jackknife's weight matrix stands for."""
    keep = np.ones(sample.n, dtype=bool)
    keep[position] = False
    return SampleDraw(
        design=sample.design,
        indices=sample.indices[keep],
        pi=None if sample.pi is None else sample.pi[keep] / scale,
        g_totals=None if sample.g_totals is None else sample.g_totals[keep] * scale,
    )


def stack(draws):
    """The validated batch whose row r is the r-th of these same-size draws."""
    draws = list(draws)
    pi_based = draws[0].design.is_pi_based
    meta = np.stack([s.pi if pi_based else s.g_totals for s in draws])
    return SampleDraw(
        draws[0].design,
        np.stack([s.indices for s in draws]),
        pi=meta if pi_based else None,
        g_totals=None if pi_based else meta,
    )


ALL_DESIGNS = list(DesignKind)
