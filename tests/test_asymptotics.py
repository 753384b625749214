import numpy as np
import pytest

from finpop import (
    AsymptoticContext,
    CombinationError,
    DegenerateError,
    DesignKind,
    EstimatorKind,
    MEAN,
    MomentSummary,
    ParameterError,
    Population,
    UndefinedParameterError,
    check_c6,
    delta_sq,
    equivalence_class,
    gamma_coeff,
)
from conftest import random_population


class TestGammaCoeff:
    def test_integer_ratio_closed_form(self):
        # all groups of size N/n: gamma = (N-n)/(n(N-1))
        assert gamma_coeff(10, 5) == pytest.approx(1 / 9, abs=1e-15)
        assert 5 * gamma_coeff(10, 5) == pytest.approx(5 / 9, abs=1e-15)
        for N, n in [(12, 3), (100, 10), (1000, 100)]:
            if N % n == 0:
                assert gamma_coeff(N, n) == pytest.approx(
                    (N - n) / (n * (N - 1)), abs=1e-15
                )

    def test_mixed_sizes(self):
        # sizes (2,2,3): (2 + 2 + 6) / (7*6) = 10/42
        assert gamma_coeff(7, 3) == pytest.approx(5 / 21, abs=1e-15)

    def test_large_population_limit(self):
        # lam = 0.1: limit of n*gamma is
        # lam*floor(1/lam)*(2 - lam*floor(1/lam) - lam) = 0.9
        lam = 0.1
        limit = lam * np.floor(1 / lam) * (2 - lam * np.floor(1 / lam) - lam)
        assert limit == pytest.approx(0.9)
        n_gamma = 100 * gamma_coeff(1000, 100)
        assert abs(n_gamma - limit) / limit < 0.02


def mean_context(x, y, n):
    pop = Population(x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float))
    return AsymptoticContext.compute(pop, MEAN, n)


class TestDeltaSq:
    def test_constant_w_kills_classes_1_and_2(self):
        ctx = mean_context([1.0, 2.0, 3.0, 4.0], [7.0, 7.0, 7.0, 7.0], 2)
        assert delta_sq(1, ctx) == pytest.approx(0.0, abs=1e-12)
        assert delta_sq(2, ctx) == pytest.approx(0.0, abs=1e-12)

    def test_proportional_w_kills_classes_8_and_9(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ctx = mean_context(x, 3.0 * x, 2)
        assert delta_sq(8, ctx) == pytest.approx(0.0, abs=1e-10)
        assert delta_sq(9, ctx) == pytest.approx(0.0, abs=1e-10)

    def test_class2_minus_class1_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            pop = random_population(rng)
            n = int(rng.integers(2, pop.n_units))
            ctx = AsymptoticContext.compute(pop, MEAN, n)
            lhs = delta_sq(2, ctx) - delta_sq(1, ctx)
            rhs = (1 - n / pop.n_units) * ctx.s_xw**2 / ctx.s2_x
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_class1_is_best_of_first_four(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            pop = random_population(rng)
            n = int(rng.integers(2, pop.n_units))
            ctx = AsymptoticContext.compute(pop, MEAN, n)
            d1 = delta_sq(1, ctx)
            for cid in (2, 3, 4):
                assert d1 <= delta_sq(cid, ctx) + 1e-12

    def test_all_classes_nonnegative(self):
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(100):
            pop = random_population(rng)
            n = int(rng.integers(2, pop.n_units))
            ctx = AsymptoticContext.compute(pop, MEAN, n)
            # classes 1-4, 8, 9 are variance forms on any population
            for cid in (1, 2, 3, 4, 8, 9):
                assert delta_sq(cid, ctx) >= -1e-10
            # classes 5-7 presume a feasible pi-proportional-to-size design,
            # i.e. n max(x) / sum(x) < 1 (otherwise their weights go negative)
            if n * pop.x.max() / pop.x_total() < 1:
                checked += 1
                for cid in (5, 6, 7):
                    assert delta_sq(cid, ctx) >= -1e-10
        assert checked > 20

    def test_scale_invariance_in_x(self):
        rng = np.random.default_rng(34)
        pop = random_population(rng, N=9)
        n = 4
        scaled = Population(x=3.0 * pop.x, y=pop.y)
        ctx = AsymptoticContext.compute(pop, MEAN, n)
        ctx_s = AsymptoticContext.compute(scaled, MEAN, n)
        assert ctx_s.gamma == pytest.approx(ctx.gamma, abs=1e-15)
        for cid in range(5, 10):
            assert delta_sq(cid, ctx_s) == pytest.approx(
                delta_sq(cid, ctx), rel=1e-10, abs=1e-12
            )

    def test_constant_x_degenerate_classes(self):
        ctx = mean_context([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0], 2)
        # phi = c (1 - n/N) still well defined
        assert ctx.phi == pytest.approx(2.0 * (1 - 0.5))
        assert delta_sq(2, ctx) >= 0
        for cid in (1, 5, 8):
            with pytest.raises(DegenerateError):
                delta_sq(cid, ctx)

    def test_zero_phi_is_refused_by_classes_6_and_7(self):
        # x = 1, 1, 4 at n = 2: phi = 2 - (2/3) * 6 / 2 = 0 exactly
        ctx = mean_context([1.0, 1.0, 4.0], [1.0, 2.0, 3.0], 2)
        assert ctx.phi == 0.0
        for cid in (6, 7):
            with pytest.raises(DegenerateError, match="phi"):
                delta_sq(cid, ctx)

    def test_bad_class_id(self):
        ctx = mean_context([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 2)
        with pytest.raises(ParameterError):
            delta_sq(0, ctx)
        with pytest.raises(ParameterError):
            delta_sq(10, ctx)


class TestEquivalenceClasses:
    def test_table_cells(self):
        ec = equivalence_class
        for design in (DesignKind.SRSWOR, DesignKind.LMS):
            assert ec(EstimatorKind.GREG, design) == 1
            assert ec(EstimatorKind.PEML, design) == 1
            assert ec(EstimatorKind.HT, design) == 2
            assert ec(EstimatorKind.HAJEK, design) == 2
            assert ec(EstimatorKind.RATIO, design) == 3
            assert ec(EstimatorKind.PRODUCT, design) == 4
        rs = DesignKind.RAO_SAMPFORD
        assert ec(EstimatorKind.GREG, rs) == 5
        assert ec(EstimatorKind.PEML, rs) == 5
        assert ec(EstimatorKind.HT, rs) == 6
        assert ec(EstimatorKind.RATIO, rs) == 6
        assert ec(EstimatorKind.PRODUCT, rs) == 6
        assert ec(EstimatorKind.HAJEK, rs) == 7
        assert ec(EstimatorKind.GREG, DesignKind.RHC) == 8
        assert ec(EstimatorKind.PEML, DesignKind.RHC) == 8
        assert ec(EstimatorKind.RHC_EST, DesignKind.RHC) == 9

    def test_lambda_zero_merges(self):
        assert equivalence_class(EstimatorKind.PEML, DesignKind.RHC, lambda_zero=True) == 5
        assert (
            equivalence_class(EstimatorKind.RHC_EST, DesignKind.RHC, lambda_zero=True)
            == 6
        )
        # unaffected classes stay put
        assert (
            equivalence_class(EstimatorKind.HT, DesignKind.SRSWOR, lambda_zero=True)
            == 2
        )

    def test_invalid_pair(self):
        with pytest.raises(CombinationError):
            equivalence_class(EstimatorKind.RHC_EST, DesignKind.SRSWOR)
        with pytest.raises(CombinationError):
            equivalence_class(EstimatorKind.RATIO, DesignKind.RHC)


class TestC6:
    def test_gamma_distribution_closed_forms(self):
        # gamma with shape 25, scale 0.2 (mean 5, sd 1):
        # mu1 = 5, mu2 = 26, mu3 = 140.4, mu_{-1} = 1/4.8
        k, theta = 25.0, 0.2
        m = MomentSummary(
            mu_m1=1.0 / (theta * (k - 1)),
            mu1=k * theta,
            mu2=k * (k + 1) * theta**2,
            mu3=k * (k + 1) * (k + 2) * theta**3,
        )
        assert m.xi == pytest.approx(2 * k * (k + 1) * theta**3)  # 10.4
        assert m.xi == pytest.approx(10.4)
        assert 2 * m.mu1 == pytest.approx(10.0)
        assert 2 * m.mu_m1 / (m.mu1 * m.mu_m1 - 1) == pytest.approx(10.0)
        assert check_c6(m) is True

    def test_degenerate_size_variable(self):
        # constant x = c: mu1 * mu_{-1} = 1 exactly
        m = MomentSummary(mu_m1=0.5, mu1=2.0, mu2=4.0, mu3=8.0)
        with pytest.raises(UndefinedParameterError):
            check_c6(m)

    def test_negative_xi_fails(self):
        m = MomentSummary(mu_m1=2.0, mu1=1.0, mu2=2.0, mu3=1.0)
        assert m.xi < 0
        assert check_c6(m) is False

    def test_empirical_moments(self):
        rng = np.random.default_rng(35)
        x = rng.gamma(25.0, 0.2, size=200_000)
        m = MomentSummary.from_values(x)
        assert m.mu1 == pytest.approx(5.0, rel=0.01)
        assert check_c6(m) in (True, False)  # defined for non-degenerate x

    @pytest.mark.parametrize("make", [
        lambda: MomentSummary(mu_m1=0.5, mu1=0.0, mu2=4.0, mu3=8.0),
        lambda: MomentSummary(mu_m1=-0.5, mu1=2.0, mu2=4.0, mu3=8.0),
        lambda: MomentSummary.from_values([1.0, 0.0, 2.0]),
    ], ids=["mu1", "mu_m1", "from_values"])
    def test_non_positive_moments_are_refused(self, make):
        with pytest.raises(ParameterError, match="positive"):
            make()

    def test_cauchy_schwarz_guard(self):
        with pytest.raises(ParameterError):
            MomentSummary(mu_m1=0.1, mu1=2.0, mu2=4.0, mu3=8.0)
