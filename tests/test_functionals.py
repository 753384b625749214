import numpy as np
import pytest

from finpop import (
    CORRELATION,
    DesignKind,
    EstimatorKind,
    MEAN,
    ParameterError,
    Population,
    UndefinedParameterError,
    VARIANCE,
    draw,
    estimate_mean,
    plug_in,
    population_value,
    regression_coef,
)
from conftest import random_population
from test_estimators import srswor_sample

ALL_FUNCTIONALS = [MEAN, VARIANCE, CORRELATION, regression_coef(0, 1), regression_coef(1, 0)]


class TestTransform:
    def test_variance_h(self):
        np.testing.assert_allclose(VARIANCE.h(np.array([3.0])), [[9.0, 3.0]])

    def test_correlation_h(self):
        np.testing.assert_allclose(
            CORRELATION.h(np.array([[2.0, -1.0]])),
            [[2.0, -1.0, 4.0, 1.0, -2.0]],
        )

    def test_regression_h(self):
        np.testing.assert_allclose(
            regression_coef(0, 1).h(np.array([[2.0, 3.0]])),
            [[2.0, 3.0, 9.0, 6.0]],
        )
        # swapped roles square the other coordinate
        np.testing.assert_allclose(
            regression_coef(1, 0).h(np.array([[2.0, 3.0]])),
            [[3.0, 2.0, 4.0, 6.0]],
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            CORRELATION.h(np.array([1.0, 2.0]))
        with pytest.raises(ParameterError):
            MEAN.h(np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("of,on", [(True, False), (0.0, 1), (0, 1.0)], ids=repr)
    def test_regression_coordinates_are_integers(self, of, on):
        # {True, False} == {0, 1}, and 0.0 passed the set check only to fail
        # later inside numpy or as an IndexError
        with pytest.raises(ParameterError, match="must be an integer"):
            regression_coef(of, on)

    def test_numpy_integer_coordinates_are_integers(self):
        f = regression_coef(np.int64(1), np.int64(0))
        assert f == regression_coef(1, 0) and type(f.of) is int


class TestGAndGradient:
    def test_variance_g_and_grad(self):
        assert VARIANCE.g(np.array([5.0, 2.0])) == pytest.approx(1.0)
        np.testing.assert_allclose(VARIANCE.grad_g(np.array([5.0, 2.0])), [1.0, -4.0])

    def test_correlation_of_exactly_linear_moments(self):
        # moments of z2 = 3 + 2 z1 for z1 in {0,1,2}
        z1 = np.array([0.0, 1.0, 2.0])
        z2 = 3.0 + 2.0 * z1
        s = CORRELATION.h(np.column_stack([z1, z2])).mean(axis=0)
        assert CORRELATION.g(s) == pytest.approx(1.0, abs=1e-12)

    def test_undefined_variance_terms(self):
        with pytest.raises(UndefinedParameterError):
            CORRELATION.g(np.array([1.0, 0.0, 1.0, 1.0, 0.5]))  # s3 - s1^2 = 0
        with pytest.raises(UndefinedParameterError):
            regression_coef(0, 1).g(np.array([0.0, 1.0, 1.0, 0.5]))
        with pytest.raises(UndefinedParameterError):
            CORRELATION.grad_g(np.array([1.0, 0.0, 1.0, 1.0, 0.5]))

    @pytest.mark.parametrize("f", ALL_FUNCTIONALS)
    def test_rows_match_single_moment_vectors(self, f):
        rng = np.random.default_rng(17)
        s = np.stack([f.h(rng.normal(size=(6, f.d))).mean(axis=0) for _ in range(40)])
        g, grad = f.g(s), f.grad_g(s)
        assert g.shape == (40,) and grad.shape == (40, f.p)
        for row, g_row, grad_row in zip(s, g, grad):
            assert g_row == f.g(row)
            assert np.array_equal(grad_row, f.grad_g(row))

    def test_undefined_gradient_names_its_row(self):
        s = np.array([[0.4, -0.2, 1.7, 2.1, 0.9]] * 4)
        s[2, 2] = s[3, 3] = 0.0  # s3 - s1^2 < 0, then s4 - s2^2 < 0
        with pytest.raises(UndefinedParameterError) as err:
            CORRELATION.grad_g(s)
        assert err.value.row == 2

    @pytest.mark.parametrize(
        "f,s",
        [
            (MEAN, np.array([1.3])),
            (VARIANCE, np.array([5.0, 2.0])),
            (CORRELATION, np.array([0.0, 0.0, 1.0, 1.0, 0.5])),
            (CORRELATION, np.array([0.4, -0.2, 1.7, 2.1, 0.9])),
            (regression_coef(0, 1), np.array([0.4, -0.2, 2.1, 0.9])),
            (regression_coef(1, 0), np.array([-0.2, 0.4, 1.7, 0.9])),
        ],
    )
    def test_gradient_matches_central_differences(self, f, s):
        grad = f.grad_g(s)
        step = 1e-6
        for j in range(s.size):
            e = np.zeros_like(s)
            e[j] = step
            fd = (f.g(s + e) - f.g(s - e)) / (2 * step)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestPlugIn:
    def test_mean_plug_in_equals_estimate_mean(self, pop5):
        s = srswor_sample(pop5, [0, 2, 3])
        expected = estimate_mean(
            EstimatorKind.HT, s, pop5, pop5.y[s.indices][:, 0]
        )
        assert plug_in(MEAN, EstimatorKind.HT, s, pop5) == pytest.approx(expected)

    def test_variance_hajek_srswor_hand_value(self):
        # sample y = (1, 2, 3): mean of squares - squared mean = 14/3 - 4 = 2/3
        pop = Population(x=np.ones(5) + np.arange(5) * 0.1,
                         y=np.array([1.0, 2.0, 3.0, 9.0, 9.0]))
        s = srswor_sample(pop, [0, 1, 2])
        est = plug_in(VARIANCE, EstimatorKind.HAJEK, s, pop)
        assert est == pytest.approx(2 / 3, abs=1e-12)

    def test_ratio_safe_guard(self, pop5):
        s = srswor_sample(pop5, [0, 1, 2])
        pop2 = Population(x=pop5.x, y=np.column_stack([pop5.y[:, 0], pop5.x]))
        for f in (CORRELATION, regression_coef(0, 1)):
            with pytest.raises(ParameterError, match="Hajek or PEML"):
                plug_in(f, EstimatorKind.HT, s, pop2)

    def test_variance_plug_in_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            pop = random_population(rng, N=9)
            n = int(rng.integers(2, 6))
            design = rng.choice([DesignKind.SRSWOR, DesignKind.LMS, DesignKind.RHC])
            s = draw(DesignKind(design), pop, n, rng)
            kind = (
                EstimatorKind.PEML
                if rng.random() < 0.5 and design != DesignKind.RHC
                else (EstimatorKind.HAJEK if design != DesignKind.RHC else EstimatorKind.PEML)
            )
            try:
                est = plug_in(VARIANCE, kind, s, pop)
            except Exception:
                continue
            assert est >= -1e-12

    def test_correlation_peml_in_unit_interval(self):
        rng = np.random.default_rng(22)
        defined = 0
        for _ in range(10_000):
            pop = random_population(rng, N=12, d=2)
            s = draw(DesignKind.SRSWOR, pop, 6, rng)
            try:
                est = plug_in(CORRELATION, EstimatorKind.PEML, s, pop)
            except Exception:
                continue
            defined += 1
            assert -1.0 - 1e-10 <= est <= 1.0 + 1e-10
        assert defined > 9000


class TestPopulationValue:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        pop = random_population(rng, N=11, d=2)
        perm = rng.permutation(11)
        shuffled = Population(x=pop.x[perm], y=pop.y[perm])
        for f in (MEAN, VARIANCE, CORRELATION, regression_coef(0, 1)):
            if f.d != 2 and f is not MEAN and f is not VARIANCE:
                continue
            pop_f = pop if f.d == 2 else Population(x=pop.x, y=pop.y[:, :1])
            shuf_f = shuffled if f.d == 2 else Population(x=shuffled.x, y=shuffled.y[:, :1])
            assert population_value(f, pop_f) == pytest.approx(
                population_value(f, shuf_f), rel=1e-12
            )

    def test_regression_product_equals_squared_correlation(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            pop = random_population(rng, N=15, d=2)
            b12 = population_value(regression_coef(0, 1), pop)
            b21 = population_value(regression_coef(1, 0), pop)
            r = population_value(CORRELATION, pop)
            assert b12 * b21 == pytest.approx(r**2, rel=1e-12, abs=1e-12)
