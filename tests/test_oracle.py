import re
from collections import Counter
from itertools import product
from math import comb

import numpy as np
import pytest

from finpop import designs, oracle
from finpop import (
    CORRELATION,
    VARIANCE,
    AsymptoticContext,
    DesignKind,
    EnumerationTooLargeError,
    EstimatorKind,
    FinpopError,
    MEAN,
    ParameterError,
    Population,
    default_bivariate_spec,
    default_univariate_spec,
    delta_sq,
    empirical_mse,
    enumerate_design,
    exact_moments,
    exact_vs_formula,
    generate_bivariate,
    generate_univariate,
    plug_in,
    population_value,
    regression_coef,
)
from conftest import random_population


class TestExactMoments:
    def test_ht_unbiased_under_srswor(self, pop4):
        s = exact_moments(DesignKind.SRSWOR, pop4, 2, EstimatorKind.HT, MEAN)
        assert s.support_size == 6
        assert abs(s.bias) < 1e-12

    def test_ht_unbiased_under_lms(self, pop4):
        s = exact_moments(DesignKind.LMS, pop4, 2, EstimatorKind.HT, MEAN)
        assert abs(s.bias) < 1e-12

    def test_rhc_unbiased_under_rhc(self, pop5):
        s = exact_moments(DesignKind.RHC, pop5, 2, EstimatorKind.RHC_EST, MEAN)
        assert s.support_size == 60
        assert abs(s.bias) < 1e-12

    def test_ht_unbiased_under_rao_sampford(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 20:
            pop = random_population(rng, N=int(rng.integers(5, 10)))
            n = int(rng.integers(2, 4))
            if (n * pop.x / pop.x_total() >= 1).any():
                continue
            s = exact_moments(DesignKind.RAO_SAMPFORD, pop, n, EstimatorKind.HT, MEAN)
            assert s.support_size == comb(pop.n_units, n)
            assert abs(s.bias) <= 1e-12
            checked += 1

    def test_hajek_biased_under_lms(self, pop4):
        s = exact_moments(DesignKind.LMS, pop4, 2, EstimatorKind.HAJEK, MEAN)
        assert abs(s.bias) > 1e-6

    def test_mse_decomposition(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            pop = random_population(rng, N=6)
            s = exact_moments(DesignKind.LMS, pop, 3, EstimatorKind.RATIO, MEAN)
            truth = population_value(MEAN, pop)
            assert s.mse == pytest.approx(
                s.variance + (s.expectation - truth) ** 2, abs=1e-12
            )

    @pytest.mark.parametrize("design,kind,f,message", [
        (DesignKind.RHC, EstimatorKind.HT, MEAN, "not valid"),
        (DesignKind.SRSWOR, EstimatorKind.RHC_EST, MEAN, "not valid"),
        (DesignKind.SRSWOR, EstimatorKind.HT, CORRELATION, "Hajek or PEML"),
        (DesignKind.LMS, EstimatorKind.GREG, regression_coef(1, 0), "Hajek or PEML"),
        (DesignKind.SRSWOR, EstimatorKind.HAJEK, CORRELATION, "expects d=2"),
    ])
    def test_a_cell_run_would_refuse_is_refused_before_enumeration(
        self, monkeypatch, pop5, design, kind, f, message
    ):
        def build(*args):
            raise AssertionError("the support was enumerated")

        monkeypatch.setattr(oracle, "enumerate_design", build)
        with pytest.raises(ParameterError, match=message):
            exact_moments(design, pop5, 2, kind, f)

    def test_undefined_support_point_is_fatal(self):
        # PEML is infeasible on any subset missing the single large unit
        pop = Population(x=np.array([1.0, 1.0, 1.0, 1.0, 16.0]), y=np.arange(5.0))
        with pytest.raises(FinpopError, match="support point"):
            exact_moments(DesignKind.SRSWOR, pop, 2, EstimatorKind.PEML, MEAN)

    def test_error_names_the_first_undefined_support_point(self):
        # the first infeasible subset in enumeration order, as a loop finds it
        pop = Population(x=np.array([1.0, 16.0, 1.0, 1.0, 1.0]), y=np.arange(5.0))
        batch = enumerate_design(DesignKind.SRSWOR, pop, 2).batch
        first = None
        for i in range(len(batch.indices)):
            try:
                plug_in(MEAN, EstimatorKind.PEML, batch[i], pop)
            except FinpopError:
                first = i
                break
        assert first is not None and first > 0
        units = batch.indices[first].tolist()
        message = re.escape(f"support point {first} (units {units})")
        with pytest.raises(FinpopError, match=message):
            exact_moments(DesignKind.SRSWOR, pop, 2, EstimatorKind.PEML, MEAN)

    def test_batched_moments_match_a_loop(self):
        rng = np.random.default_rng(23)
        for design, kind in (
            (DesignKind.SRSWOR, EstimatorKind.GREG),
            (DesignKind.LMS, EstimatorKind.RATIO),
            (DesignKind.RHC, EstimatorKind.GREG),
            (DesignKind.RAO_SAMPFORD, EstimatorKind.HAJEK),
        ):
            pop = random_population(rng, N=7)
            support = enumerate_design(design, pop, 3)
            values = np.array(
                [plug_in(MEAN, kind, support.batch[i], pop) for i in range(len(support))]
            )
            probs = support.probs
            s = exact_moments(design, pop, 3, kind, MEAN)
            assert s.expectation == float(probs @ values)
            assert s.mse == float(probs @ (values - s.truth) ** 2)

    def test_enumeration_cap_propagates(self):
        pop = Population(x=np.ones(40) + np.arange(40) * 0.01, y=np.zeros(40))
        with pytest.raises(EnumerationTooLargeError):
            exact_moments(DesignKind.SRSWOR, pop, 15, EstimatorKind.HT, MEAN)


class TestExactVsFormula:
    def test_constant_y_both_zero(self):
        pop = Population(x=np.array([1.0, 2.0, 3.0, 4.0]), y=np.full(4, 3.0))
        n_mse, d2 = exact_vs_formula(
            DesignKind.SRSWOR, pop, 2, MEAN, EstimatorKind.HT
        )
        assert n_mse == pytest.approx(0.0, abs=1e-20)
        assert d2 == pytest.approx(0.0, abs=1e-12)

    def test_proportional_y_rhc_both_zero(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        pop = Population(x=x, y=2.0 * x)
        n_mse, d2 = exact_vs_formula(
            DesignKind.RHC, pop, 2, MEAN, EstimatorKind.RHC_EST
        )
        assert n_mse == pytest.approx(0.0, abs=1e-16)
        assert d2 == pytest.approx(0.0, abs=1e-10)

    def test_rao_sampford_monte_carlo_matches_class6(self):
        # N=200, n=20 is beyond the enumeration cap: verify with a
        # high-replicate Monte Carlo estimate of n * MSE against the class-6
        # formula
        rng = np.random.default_rng(52)
        x = rng.gamma(25.0, 40.0, size=200)
        y = 500.0 + x + rng.normal(0.0, 100.0, size=200)
        pop = Population(x=x, y=y)
        n = 20
        truth = population_value(MEAN, pop)
        # 10^5 draws, as 10 batches of 10^4 rows sharing one generator
        ests = [
            plug_in(MEAN, EstimatorKind.HT,
                    designs._draw_rows(DesignKind.RAO_SAMPFORD, pop, n, [rng] * 10_000), pop)
            for _ in range(10)
        ]
        n_mse = n * empirical_mse(np.concatenate(ests), truth)
        d2 = delta_sq(6, AsymptoticContext.compute(pop, MEAN, n))
        assert abs(n_mse - d2) / d2 < 0.15


def test_every_cell_gives_a_result_or_a_finpop_error():
    """Robustness sweep over three N=9 populations (one with 7 tied x
    values), every design, estimator and functional kind and five sample
    sizes: nothing but a result or a FinpopError comes out."""
    uni = generate_univariate(default_univariate_spec(), 9, 1)
    tied = Population(x=np.r_[1.0, np.full(7, 2.0), 3.0], y=uni.y)
    pops = [uni, generate_bivariate(default_bivariate_spec(), 9, 1), tied]
    outcomes = Counter()
    for pop, design, kind, f, n in product(
        pops, DesignKind, EstimatorKind, [MEAN, VARIANCE, CORRELATION, regression_coef(0, 1)],
        (2, 3, 4, 7, 8),
    ):
        try:
            exact_moments(design, pop, n, kind, f)
            outcomes["result"] += 1
        except FinpopError:
            outcomes["refused"] += 1
    assert outcomes == {"result": 336, "refused": 1344}
