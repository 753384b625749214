import numpy as np
import pytest

from finpop import (
    CombinationError,
    ConvergenceError,
    DegenerateError,
    DesignKind,
    EstimatorKind,
    FinpopError,
    InfeasibleError,
    JackknifeFailureError,
    MEAN,
    ParameterError,
    Population,
    SampleDraw,
    design_weights,
    draw,
    estimate_mean,
    jackknife_bc,
    peml_weights,
    valid_pair,
)
from finpop import estimators

PI_DESIGNS = (DesignKind.SRSWOR, DesignKind.LMS, DesignKind.RAO_SAMPFORD)


def srswor_sample(pop, indices):
    n = len(indices)
    return SampleDraw(
        DesignKind.SRSWOR,
        np.asarray(indices),
        pi=np.full(n, n / pop.n_units),
    )


class TestDesignWeights:
    def test_srswor(self):
        pop = Population(x=np.ones(10) + np.arange(10) * 0.1, y=np.zeros(10))
        s = draw(DesignKind.SRSWOR, pop, 5, np.random.default_rng(0))
        np.testing.assert_allclose(design_weights(s, pop), 0.2)

    def test_rao_sampford_units(self, pop4):
        s = SampleDraw(
            DesignKind.RAO_SAMPFORD, np.array([1, 3]), pi=np.array([0.4, 0.8])
        )
        np.testing.assert_allclose(design_weights(s, pop4), [0.625, 0.3125])

    def test_rhc_unit(self):
        pop = Population(x=np.array([2.0, 1.0, 3.0, 2.0, 2.0]), y=np.zeros(5))
        s = SampleDraw(
            DesignKind.RHC, np.array([0, 2]), g_totals=np.array([7.0, 3.0])
        )
        d = design_weights(s, pop)
        assert d[0] == pytest.approx(7.0 / (5 * 2.0))  # = 0.7


class TestValidity:
    def test_table_of_valid_pairs(self):
        for design in PI_DESIGNS:
            assert valid_pair(EstimatorKind.HT, design)
            assert valid_pair(EstimatorKind.HAJEK, design)
            assert valid_pair(EstimatorKind.RATIO, design)
            assert valid_pair(EstimatorKind.PRODUCT, design)
            assert valid_pair(EstimatorKind.GREG, design)
            assert valid_pair(EstimatorKind.PEML, design)
            assert not valid_pair(EstimatorKind.RHC_EST, design)
        assert valid_pair(EstimatorKind.RHC_EST, DesignKind.RHC)
        assert valid_pair(EstimatorKind.GREG, DesignKind.RHC)
        assert valid_pair(EstimatorKind.PEML, DesignKind.RHC)
        for kind in (
            EstimatorKind.HT,
            EstimatorKind.HAJEK,
            EstimatorKind.RATIO,
            EstimatorKind.PRODUCT,
        ):
            assert not valid_pair(kind, DesignKind.RHC)

    def test_invalid_combination_raises(self, pop4):
        s = srswor_sample(pop4, [0, 1])
        with pytest.raises(CombinationError):
            estimate_mean(EstimatorKind.RHC_EST, s, pop4, pop4.y[s.indices])
        r = draw(DesignKind.RHC, pop4, 2, np.random.default_rng(0))
        with pytest.raises(CombinationError):
            estimate_mean(EstimatorKind.HT, r, pop4, pop4.y[r.indices])


class TestClosedForms:
    def test_ht_equals_hajek_equals_sample_mean_under_srswor(self, pop5):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = draw(DesignKind.SRSWOR, pop5, 3, rng)
            h = pop5.y[s.indices][:, 0]
            ht = estimate_mean(EstimatorKind.HT, s, pop5, h)
            hajek = estimate_mean(EstimatorKind.HAJEK, s, pop5, h)
            assert ht == pytest.approx(h.mean(), abs=1e-14)
            assert hajek == pytest.approx(h.mean(), abs=1e-14)

    def test_hajek_of_constant_is_one(self, pop4):
        s = SampleDraw(
            DesignKind.RAO_SAMPFORD, np.array([2, 3]), pi=np.array([0.6, 0.8])
        )
        assert estimate_mean(EstimatorKind.HAJEK, s, pop4, np.ones(2)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_ht_of_constant_is_not_constant(self, pop4):
        # HT of h = 1 on units {3, 4} with pi = (0.6, 0.8): (1/0.6 + 1/0.8)/4
        s = SampleDraw(
            DesignKind.RAO_SAMPFORD, np.array([2, 3]), pi=np.array([0.6, 0.8])
        )
        expected = (1 / 0.6 + 1 / 0.8) / 4
        assert estimate_mean(EstimatorKind.HT, s, pop4, np.ones(2)) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.7291666666666666)

    def test_rhc_exact_for_proportional_y(self):
        # y = c x makes the RHC estimator reproduce the population mean on
        # every draw: sum G_i (c x_i) / (N x_i) = c sum x / N
        pop = Population(x=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                         y=2.5 * np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = draw(DesignKind.RHC, pop, 2, rng)
            est = estimate_mean(EstimatorKind.RHC_EST, s, pop, pop.y[s.indices][:, 0])
            assert est == pytest.approx(2.5 * 3.0, rel=1e-12)

    def test_ht_ratio_product_coincide_under_rao_sampford(self, pop4):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = draw(DesignKind.RAO_SAMPFORD, pop4, 2, rng)
            h = pop4.y[s.indices][:, 0]
            ht = estimate_mean(EstimatorKind.HT, s, pop4, h)
            ra = estimate_mean(EstimatorKind.RATIO, s, pop4, h)
            pr = estimate_mean(EstimatorKind.PRODUCT, s, pop4, h)
            assert ra == pytest.approx(ht, rel=1e-12)
            assert pr == pytest.approx(ht, rel=1e-12)

    def test_matrix_h_is_columnwise(self, pop5):
        s = srswor_sample(pop5, [0, 2, 4])
        h = np.column_stack([pop5.y[s.indices][:, 0], pop5.x[s.indices]])
        est = estimate_mean(EstimatorKind.HT, s, pop5, h)
        assert est.shape == (2,)
        assert est[0] == pytest.approx(
            estimate_mean(EstimatorKind.HT, s, pop5, h[:, 0])
        )

    def test_linear_estimators_homogeneous(self, pop5):
        rng = np.random.default_rng(4)
        s = draw(DesignKind.LMS, pop5, 3, rng)
        h = pop5.y[s.indices][:, 0]
        for kind in (
            EstimatorKind.HT,
            EstimatorKind.HAJEK,
            EstimatorKind.RATIO,
            EstimatorKind.PRODUCT,
        ):
            a = estimate_mean(kind, s, pop5, 3.5 * h)
            b = estimate_mean(kind, s, pop5, h)
            assert a == pytest.approx(3.5 * b, rel=1e-12)

    def test_greg_peml_location_equivariant(self, pop5):
        rng = np.random.default_rng(5)
        s = draw(DesignKind.SRSWOR, pop5, 3, rng)
        h = pop5.y[s.indices][:, 0]
        for kind in (EstimatorKind.GREG, EstimatorKind.PEML):
            shifted = estimate_mean(kind, s, pop5, h + 11.25)
            plain = estimate_mean(kind, s, pop5, h)
            assert shifted == pytest.approx(plain + 11.25, abs=1e-10)

    def test_greg_degenerate_x(self):
        pop = Population(x=np.array([2.0, 2.0, 2.0, 5.0]), y=np.arange(4.0))
        s = srswor_sample(pop, [0, 1, 2])
        with pytest.raises(DegenerateError):
            estimate_mean(EstimatorKind.GREG, s, pop, pop.y[s.indices][:, 0])


class TestGregEqualX:
    """GREG is undefined on a sample whose x values are all equal, also where
    their weighted mean rounds away from them under unequal weights: 1.1 has
    no exact binary form."""

    @staticmethod
    def pop():
        return Population(x=np.array([3.0, 1.1, 1.1, 1.1, 1.1, 2.0]),
                          y=np.array([1.0, 2.0, 4.0, 3.0, 7.0, 5.0]))

    @staticmethod
    def rs_draw(indices, pi):
        return SampleDraw(DesignKind.RAO_SAMPFORD, np.array(indices), pi=np.array(pi))

    def test_single_sample(self):
        pop = self.pop()
        s = self.rs_draw([1, 2, 3], [0.3, 0.5, 0.6])
        with pytest.raises(DegenerateError) as err:
            estimate_mean(EstimatorKind.GREG, s, pop, pop.y[s.indices])
        assert err.value.row == 0

    def test_batch_row(self):
        pop = self.pop()
        batch = self.rs_draw([[0, 1, 2], [1, 2, 3], [2, 3, 5]],
                             [[0.5, 0.2, 0.4], [0.3, 0.5, 0.6], [0.4, 0.6, 0.2]])
        with pytest.raises(DegenerateError) as err:
            estimate_mean(EstimatorKind.GREG, batch, pop, pop.y[batch.indices])
        assert err.value.row == 1

    def test_jackknife_without_the_one_other_x(self):
        # every unit but unit 0 has x = 1.1: its leave-one-out row is flat
        pop = self.pop()
        s = self.rs_draw([0, 1, 2, 3], [0.5, 0.2, 0.4, 0.7])
        assert np.isfinite(estimate_mean(EstimatorKind.GREG, s, pop, pop.y[s.indices]))
        with pytest.raises(JackknifeFailureError) as err:
            jackknife_bc(s, pop, MEAN, EstimatorKind.GREG)
        assert err.value.unit == 0
        assert isinstance(err.value.__cause__, DegenerateError)


class TestPemlWeights:
    def test_lambda_zero_when_constraint_already_met(self):
        # symmetric sample around x_bar with uniform weights: c = d~
        c = peml_weights(np.array([0.5, 0.5]), np.array([1.0, 3.0]), 2.0)
        np.testing.assert_allclose(c, [0.5, 0.5], atol=1e-14)

    def test_n2_fully_determined(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = rng.uniform(0.1, 2.0, size=2)
            c = peml_weights(d, np.array([2.0, 6.0]), 3.0)
            np.testing.assert_allclose(c, [0.75, 0.25], atol=1e-12)

    def test_n3_against_grid_oracle(self):
        # independent oracle: dense grid search over the dual interval
        x = np.array([1.0, 2.0, 4.0])
        x_bar = 2.5
        d = np.array([1.0, 1.0, 1.0]) / 3
        u = x - x_bar
        lam_grid = np.linspace(-1 / 1.5 + 1e-9, 1 / 1.5 - 1e-9, 2_000_001)
        psi = (d[:, None] * u[:, None] / (1 + lam_grid[None, :] * u[:, None])).sum(0)
        lam_star = lam_grid[np.argmin(np.abs(psi))]
        expected = d / (1 + lam_star * u)
        expected /= expected.sum()

        c = peml_weights(d, x, x_bar)
        np.testing.assert_allclose(c, expected, atol=1e-5)
        assert abs(c.sum() - 1) < 1e-10
        assert abs(c @ x - x_bar) < 1e-10

    def test_n3_beats_random_feasible_points(self):
        x = np.array([1.0, 2.0, 4.0])
        x_bar = 2.5
        d = np.ones(3) / 3
        c = peml_weights(d, x, x_bar)
        objective = d @ np.log(c)
        rng = np.random.default_rng(7)
        # feasible perturbations live in the null space of [1; x]
        basis = np.linalg.svd(np.vstack([np.ones(3), x]))[2][2]
        for _ in range(1000):
            t_max = np.min(np.where(basis < 0, c / -basis, np.inf))
            t_min = np.min(np.where(basis > 0, c / basis, np.inf))
            t = rng.uniform(-0.95 * t_min, 0.95 * t_max)
            comp = c + t * basis
            assert np.all(comp > 0)
            assert objective >= d @ np.log(comp) - 1e-12

    def test_infeasible_mean_outside_hull(self):
        with pytest.raises(InfeasibleError):
            peml_weights(np.ones(3) / 3, np.array([1.0, 2.0, 3.0]), 5.0)
        with pytest.raises(InfeasibleError):
            peml_weights(np.ones(3) / 3, np.array([1.0, 2.0, 3.0]), 1.0)

    def test_iteration_cap_names_every_unconverged_row(self, monkeypatch):
        # rows 0 and 2 are symmetric about x_bar (lam = 0 at once) and row 3
        # has every x at x_bar; rows 1 and 4 need several Newton steps
        x = np.array([[1.0, 3.0], [1.0, 2.5], [0.0, 4.0], [2.0, 2.0], [1.5, 9.0]])
        d = np.array([[1.0, 1.0], [1.0, 3.0], [2.0, 2.0], [1.0, 1.0], [5.0, 1.0]])
        assert np.all(np.isfinite(peml_weights(d, x, 2.0)))
        monkeypatch.setattr(estimators, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="in 1 iterations") as err:
            peml_weights(d, x, 2.0)
        np.testing.assert_array_equal(err.value.rows, [1, 4])
        assert err.value.row == 1

    def test_all_x_equal_mean(self):
        c = peml_weights(np.array([0.3, 0.7]), np.array([2.0, 2.0]), 2.0)
        np.testing.assert_allclose(c, [0.3, 0.7])

    def test_invariants_on_random_samples(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 15))
            x = rng.uniform(0.5, 3.0, size=n)
            lo, hi = x.min(), x.max()
            if lo == hi:
                continue
            x_bar = rng.uniform(lo + 1e-3, hi - 1e-3)
            d = rng.uniform(0.1, 1.0, size=n)
            c = peml_weights(d, x, x_bar)
            assert np.all(c > 0)
            assert abs(c.sum() - 1.0) < 1e-8
            assert abs(c @ x - x_bar) < 1e-8 * max(1.0, abs(x_bar))


class TestPemlRows:
    def random_problem(self, rng):
        """Shared sampled x, an x_bar inside their hull (often within 1e-9 of
        an edge) and m weight rows, each over a random subset of the units
        that still straddles x_bar."""
        n = int(rng.integers(3, 40))
        m = int(rng.integers(1, 12))
        x = rng.gamma(4.0, 250.0, size=n)
        lo, hi = x.min(), x.max()
        gap = (hi - lo) * 10.0 ** -rng.choice([1, 3, 6, 9])
        x_bar = (lo + gap, hi - gap, rng.uniform(lo, hi))[int(rng.integers(3))]
        below, above = np.flatnonzero(x < x_bar), np.flatnonzero(x > x_bar)
        w = rng.uniform(0.1, 2.0, size=(m, n)) * (rng.random((m, n)) < 0.7)
        for row in w:
            row[rng.choice(below)] = rng.uniform(0.1, 2.0)
            row[rng.choice(above)] = rng.uniform(0.1, 2.0)
        return w, x, x_bar

    def test_rows_match_separate_solves(self):
        rng = np.random.default_rng(11)
        problems = 0
        while problems < 1000:
            w, x, x_bar = self.random_problem(rng)
            c = peml_weights(w, x, x_bar)
            assert c.shape == w.shape
            assert np.all(c[w == 0] == 0) and np.all(c[w > 0] > 0)
            assert np.all(np.abs(c.sum(axis=1) - 1.0) <= 1e-12)
            assert np.all(np.abs(c @ x - x_bar) <= 1e-12 * x_bar)
            for row, c_row in zip(w, c):
                units = row > 0
                alone = peml_weights(row[units], x[units], x_bar)
                np.testing.assert_allclose(c_row[units], alone, rtol=1e-12, atol=0)
            problems += len(w)

    def test_a_start_moves_the_weights_only_by_rounding(self):
        # from 0, from near the root, and from outside the bracket, which
        # falls back to 0: the same weights, calibrated to 1e-12
        rng = np.random.default_rng(13)
        problems = 0
        while problems < 1000:
            w, x, x_bar = self.random_problem(rng)
            c0, lam = estimators._peml_solve(w, x, x_bar)
            u = np.where(w > 0, x - x_bar, 0.0)
            blo, bhi = -1.0 / u.max(axis=1), -1.0 / u.min(axis=1)
            sign = rng.choice([-1.0, 1.0], size=lam.size)
            near = lam + sign * 0.1 * np.minimum(lam - blo, bhi - lam)
            out = np.where(sign > 0, 2.0 * bhi, 2.0 * blo)
            for start in (near, out):
                c, _ = estimators._peml_solve(w, x, x_bar, start)
                np.testing.assert_allclose(c, c0, rtol=1e-13, atol=0)
                assert np.all(np.abs(c.sum(axis=1) - 1.0) <= 1e-12)
                assert np.all(np.abs(c @ x - x_bar) <= 1e-12 * x_bar)
            problems += len(w)

    def test_error_names_the_first_failing_row(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 1], [0, 1, 1, 0.0]])
        with pytest.raises(InfeasibleError) as err:
            peml_weights(w, x, 2.5)
        assert err.value.row == 1

    def test_bad_weight_names_its_row(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.ones((4, 4))
        w[2, 1] = -1.0
        w[3, 0] = np.nan
        with pytest.raises(ParameterError, match="nonnegative and finite") as err:
            peml_weights(w, x, 2.5)
        assert err.value.row == 2

    def test_too_few_units_names_its_row(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([[1, 1, 1, 1], [1, 0, 1, 0], [0, 0, 1, 0], [1, 0, 0, 0.0]])
        with pytest.raises(ParameterError, match="at least two") as err:
            peml_weights(w, x, 2.5)
        assert err.value.row == 2

    def test_one_sample_per_row(self):
        # row i weights its own x values: the same weights as a solve alone
        rng = np.random.default_rng(12)
        x = rng.gamma(4.0, 250.0, size=(30, 8))
        w = rng.uniform(0.1, 2.0, size=(30, 8))
        x_bar = float(np.median(x))
        x[:, 0], x[:, 1] = x_bar / 2, x_bar * 2  # every row straddles x_bar
        c = peml_weights(w, x, x_bar)
        for w_row, x_row, c_row in zip(w, x, c):
            assert np.array_equal(c_row, peml_weights(w_row, x_row, x_bar))

    @staticmethod
    def assert_drop_matches_zeroed(w, x, x_bar, take, unit):
        """``drop=(take, unit)`` against the solve of the gathered rows with
        the left-out units' weights zeroed: the same weights and roots to
        1e-13 where every row solves, else the same error class and rows;
        the failing rows are then left out and the rest compared again."""
        while take.size:
            zeroed = w[take]
            zeroed[np.arange(take.size), unit] = 0.0
            try:
                want = estimators._peml_solve(zeroed, x, x_bar)
            except FinpopError as exc:
                with pytest.raises(type(exc)) as err:
                    estimators._peml_solve(w, x, x_bar, drop=(take, unit))
                np.testing.assert_array_equal(err.value.rows, exc.rows)
                take, unit = np.delete(take, exc.rows), np.delete(unit, exc.rows)
                continue
            got = estimators._peml_solve(w, x, x_bar, drop=(take, unit))
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)
            return

    def test_dropped_units_match_zeroed_weights(self):
        # rows of the random problems, repeated and each without a random unit:
        # some lose their only unit on one side of x_bar or keep one unit
        rng = np.random.default_rng(14)
        problems = 0
        while problems < 1000:
            w, x, x_bar = self.random_problem(rng)
            take = rng.integers(len(w), size=2 * len(w))
            unit = rng.integers(w.shape[1], size=take.size)
            self.assert_drop_matches_zeroed(w, x, x_bar, take, unit)
            problems += take.size

    @pytest.mark.parametrize(
        "w,take,unit,error",
        [
            # a bad weight fails every row that keeps it, not the row without it
            ([[1, np.nan, 1, 1], [1, 1, -1, 1]], [0, 0, 1, 1, 0], [1, 0, 2, 3, 2],
             ParameterError),
            ([[1, 0, 1, 0], [1, 1, 1, 1]], [0, 1, 0], [0, 0, 2], ParameterError),
            ([[1, 1, 1, 0], [0, 1, 1, 1]], [0, 0, 1, 1], [2, 0, 1, 3], InfeasibleError),
        ],
        ids=["bad-weight", "one-unit", "outside-hull"],
    )
    def test_dropped_unit_failures_match_zeroed_weights(self, w, take, unit, error):
        x, w = np.array([1.0, 2.0, 3.0, 4.0]), np.array(w, dtype=float)
        take, unit = np.array(take), np.array(unit)
        with pytest.raises(error):
            estimators._peml_solve(w, x, 2.5, drop=(take, unit))
        self.assert_drop_matches_zeroed(w, x, 2.5, take, unit)


class TestPemlGregConvergence:
    def test_difference_shrinks_with_n(self, benchmark_pop):
        # first-order equivalence: the max |PEML - GREG| gap over 100 draws
        # at n=400 is below half the gap at n=100
        def max_gap(n, seed):
            rng = np.random.default_rng(seed)
            gap = 0.0
            for _ in range(100):
                s = draw(DesignKind.SRSWOR, benchmark_pop, n, rng)
                h = benchmark_pop.y[s.indices][:, 0]
                peml = estimate_mean(EstimatorKind.PEML, s, benchmark_pop, h)
                greg = estimate_mean(EstimatorKind.GREG, s, benchmark_pop, h)
                gap = max(gap, abs(peml - greg))
            return gap

        assert max_gap(400, seed=9) < 0.5 * max_gap(100, seed=10)
