import tracemalloc

import numpy as np
import pytest
from scipy import stats

from finpop import (
    CORRELATION,
    CombinationError,
    DegenerateError,
    DesignKind,
    EstimatorKind,
    FinpopError,
    JackknifeFailureError,
    LinearModelSpec,
    MEAN,
    ParameterError,
    Population,
    SampleDraw,
    VARIANCE,
    confidence_interval,
    design_weights,
    draw,
    empirical_mse,
    enumerate_design,
    estimate_mean,
    generate_univariate,
    jackknife_bc,
    plug_in,
    regression_coef,
    valid_pair,
    variance_estimate,
)
from finpop import errors
from finpop.estimators import _wls_slope, estimate_mean_rows
from finpop.inference import ConfidenceInterval, supports_variance_estimate
from conftest import drop_unit, random_population, stack
from test_estimators import srswor_sample


class TestConfidenceInterval:
    def test_zero_variance_zero_width(self):
        ci = confidence_interval(3.0, 0.0, 50, 0.95)
        assert ci.half_width == 0.0
        assert ci.contains(3.0)
        assert not ci.contains(3.0001)

    def test_standard_normal_quantiles(self):
        # var_est = n makes the half width equal the z quantile itself
        ci95 = confidence_interval(0.0, 100.0, 100, 0.95)
        assert ci95.half_width == pytest.approx(1.959964, abs=1e-6)
        ci50 = confidence_interval(0.0, 100.0, 100, 0.50)
        assert ci50.half_width == pytest.approx(0.674490, abs=1e-6)

    def test_quantile_matches_scipy(self):
        # the standard library's AS241 agrees with scipy's ndtri to a few ulps
        levels = np.linspace(0.001, 0.999, 999)
        z = [confidence_interval(0.0, 40.0, 40, level).half_width for level in levels]
        np.testing.assert_allclose(z, stats.norm.ppf((1 + levels) / 2), rtol=1e-14, atol=0)

    def test_monotone_in_variance_and_level(self):
        a = confidence_interval(0.0, 1.0, 10, 0.95)
        b = confidence_interval(0.0, 2.0, 10, 0.95)
        c = confidence_interval(0.0, 1.0, 10, 0.99)
        assert b.half_width > a.half_width
        assert c.half_width > a.half_width

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            confidence_interval(0.0, 1.0, 10, 1.0)
        with pytest.raises(ParameterError):
            confidence_interval(0.0, -1.0, 10, 0.95)
        with pytest.raises(ParameterError, match="n must be positive"):
            confidence_interval(0.0, 1.0, 0, 0.95)
        # an interval built directly is checked too
        with pytest.raises(ParameterError, match="level"):
            ConfidenceInterval(center=0.0, half_width=1.0, level=0.0)
        with pytest.raises(ParameterError, match="half width"):
            ConfidenceInterval(center=np.zeros(2), half_width=np.array([1.0, -1.0]), level=0.9)


class TestSampleBatches:
    """Each row of a batch of draws gets the value of its own one-sample
    call; a batch with a failing row names the first one."""

    @staticmethod
    def check_rows(fn, batch, draws):
        values, first_failure = [], None
        for r, s in enumerate(draws):
            try:
                values.append(fn(s))
            except FinpopError:
                first_failure = r if first_failure is None else first_failure
        if first_failure is not None:
            with pytest.raises(FinpopError) as err:
                fn(batch)
            assert err.value.row == first_failure
            return None
        out = fn(batch)
        assert out.tolist() == values
        return out

    @pytest.mark.parametrize("design", list(DesignKind))
    def test_rows_match_one_sample_calls(self, design):
        rng = np.random.default_rng(41)
        x = rng.uniform(1.0, 3.0, size=60)
        pop = Population(x=x, y=np.column_stack([x + rng.normal(size=60), rng.normal(size=60)]))
        checked = 0
        for trial in range(4):
            draws = [draw(design, pop, 8, rng) for _ in range(12)]
            batch = stack(draws)
            for kind in EstimatorKind:
                if not supports_variance_estimate(kind, design):
                    continue
                for f in (MEAN, CORRELATION, regression_coef(1, 0)):
                    if f is not MEAN and kind not in (EstimatorKind.HAJEK, EstimatorKind.PEML):
                        continue
                    pf = pop if f.d == 2 else Population(x=pop.x, y=pop.y[:, 0])
                    est = self.check_rows(lambda s: plug_in(f, kind, s, pf), batch, draws)
                    var = self.check_rows(
                        lambda s: variance_estimate(s, pf, f, kind), batch, draws
                    )
                    if est is None or var is None:
                        continue
                    ci = confidence_interval(est, np.maximum(var, 0.0), 8)
                    for r in range(len(draws)):
                        one = confidence_interval(est[r], max(var[r], 0.0), 8)
                        assert (ci.lower[r], ci.upper[r]) == (one.lower, one.upper)
                    checked += 1
        assert checked >= 4

    def test_failing_row_is_named(self):
        # only the last two samples straddle a flat x: the GREG x variance
        # of the first ones is zero, and the error names the first of them
        pop = Population(x=np.array([1.0, 1.0, 1.0, 1.0, 2.0]), y=np.arange(5.0))
        idx = np.array([[0, 4], [1, 2], [3, 4], [0, 1]])
        batch = SampleDraw(DesignKind.SRSWOR, idx, pi=np.full(idx.shape, 0.4))
        with pytest.raises(DegenerateError) as err:
            plug_in(MEAN, EstimatorKind.GREG, batch, pop)
        assert err.value.row == 1


class TestRegressionSlope:
    """GREG/PEML variance estimates take the slope of h on x from d-weighted
    centred moments: defined unless every sampled x is equal."""

    def test_slope_is_weighted_least_squares(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(0.5, 2.0, size=(6, 9))
        x = rng.gamma(25.0, 4.0, size=(6, 9))
        h = rng.normal(size=(6, 9, 2)) + x[:, :, None]
        got = _wls_slope(d, x, h)
        for r in range(6):
            sw = np.sqrt(d[r])[:, None]
            design = np.column_stack([np.ones(9), x[r]]) * sw
            coef = np.linalg.lstsq(design, h[r] * sw, rcond=None)[0]
            np.testing.assert_allclose(got[r], coef[1], rtol=1e-9)

    def test_zero_weight_rows_match_the_samples_without_that_unit(self):
        # the jackknife's shape: row i weights the sample with unit i's
        # weight zeroed, unit 0 included
        rng = np.random.default_rng(6)
        x = rng.gamma(25.0, 4.0, size=7)
        h = rng.normal(size=(7, 2)) + x[:, None]
        d = rng.uniform(0.5, 2.0, size=7)
        w = np.where(np.eye(7, dtype=bool), 0.0, d)
        got = _wls_slope(w, np.tile(x, (7, 1)), np.tile(h, (7, 1, 1)))
        for i in range(7):
            keep = np.arange(7) != i
            want = _wls_slope(d[None, keep], x[None, keep], h[None, keep])
            np.testing.assert_allclose(got[i], want[0], rtol=1e-12)

    @pytest.mark.parametrize("design", [DesignKind.RAO_SAMPFORD, DesignKind.RHC])
    def test_only_equal_x_is_degenerate(self, design):
        # 1.1 has no exact binary form, so a weighted mean of it need not
        # equal it; row 1 is the first whose x values are all equal
        pop = Population(x=np.array([1.1, 1.1, 1.1, 1.1 + 1e-12, 3.0]), y=np.arange(5.0))
        idx = np.array([[0, 3, 4], [0, 1, 2], [1, 2, 3], [2, 1, 0]])
        if design is DesignKind.RHC:
            batch = SampleDraw(design, idx, g_totals=np.full(idx.shape, 2.5))
        else:
            batch = SampleDraw(design, idx, pi=np.full(idx.shape, 0.6))
        for kind in (EstimatorKind.GREG, EstimatorKind.PEML):
            with pytest.raises(DegenerateError) as err:
                variance_estimate(batch, pop, MEAN, kind)
            assert err.value.row == 1
            assert variance_estimate(batch[2], pop, MEAN, kind) >= 0.0

    @pytest.mark.parametrize("design, N, n", [
        (DesignKind.RAO_SAMPFORD, 12, 4), (DesignKind.RHC, 8, 3),
    ])
    def test_defined_on_every_support_point(self, design, N, n):
        # x with CV 0.2: the uncentred x-variance forms are not positive on
        # about a third of these supports' probability mass
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = rng.gamma(25.0, 4.0, N)
            pop = Population(x=x, y=2.0 * x + rng.normal(size=N) * 5.0)
            batch = enumerate_design(design, pop, n).batch
            for kind in (EstimatorKind.GREG, EstimatorKind.PEML):
                var = variance_estimate(batch, pop, MEAN, kind)
                assert np.isfinite(var).all() and (var >= 0).all()


class TestVarianceEstPi:
    def test_constant_h_hajek_is_zero(self, pop4):
        pop = Population(x=pop4.x, y=np.full(4, 5.5))
        s = srswor_sample(pop, [1, 3])
        assert variance_estimate(s, pop, MEAN, EstimatorKind.HAJEK) == pytest.approx(
            0.0, abs=1e-20
        )

    def test_hand_evaluated_tiny_case(self):
        # Mean, HT, SRSWOR with n=2 of N=4, sampled y = (1, 3), pi = 1/2:
        #   That = (1*(2-1) + 3*(2-1)) / (0.5 + 0.5) = 4
        #   V - That*pi = (1-2, 3-2) = (-1, 1)
        #   result = (2/16) * [1*1*2 + 1*1*2] = 0.5
        pop = Population(x=np.array([1.0, 1.0, 1.0, 1.0]),
                         y=np.array([1.0, 3.0, 8.0, 9.0]))
        s = srswor_sample(pop, [0, 1])
        got = variance_estimate(s, pop, MEAN, EstimatorKind.HT)
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_census_like_degenerate(self, pop4):
        s = SampleDraw(DesignKind.SRSWOR, np.array([0, 1]), pi=np.array([1.0, 1.0]))
        with pytest.raises(DegenerateError):
            variance_estimate(s, pop4, MEAN, EstimatorKind.HT)

    def test_rejects_rhc_draw_and_bad_kind(self, pop5):
        r = draw(DesignKind.RHC, pop5, 2, np.random.default_rng(0))
        with pytest.raises(CombinationError):
            variance_estimate(r, pop5, MEAN, EstimatorKind.HT)
        s = srswor_sample(pop5, [0, 1])
        with pytest.raises(CombinationError):
            variance_estimate(s, pop5, MEAN, EstimatorKind.RATIO)

    def test_nonnegative_on_random_draws(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            pop = random_population(rng, N=10)
            n = int(rng.integers(2, 7))
            design = (DesignKind.SRSWOR, DesignKind.LMS)[int(rng.integers(2))]
            s = draw(design, pop, n, rng)
            kind = (
                EstimatorKind.HT,
                EstimatorKind.HAJEK,
                EstimatorKind.GREG,
                EstimatorKind.PEML,
            )[int(rng.integers(4))]
            try:
                v = variance_estimate(s, pop, MEAN, kind)
            except DegenerateError:
                continue
            assert v >= -1e-12

    def test_tracks_true_sampling_variance(self, benchmark_pop):
        # median plug-in variance over 1000 draws stays within 20% of the
        # empirical n * MSE of the PEML mean under SRSWOR
        rng = np.random.default_rng(42)
        n = 125
        truth = benchmark_pop.y[:, 0].mean()
        ests, vars_ = [], []
        for _ in range(1000):
            s = draw(DesignKind.SRSWOR, benchmark_pop, n, rng)
            ests.append(plug_in(MEAN, EstimatorKind.PEML, s, benchmark_pop))
            vars_.append(variance_estimate(s, benchmark_pop, MEAN, EstimatorKind.PEML))
        n_mse = n * empirical_mse(ests, truth)
        med = float(np.median(vars_))
        assert abs(med - n_mse) / n_mse < 0.20


class TestVarianceEstRhc:
    def test_proportional_h_is_zero(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        pop = Population(x=x, y=4.0 * x)
        rng = np.random.default_rng(43)
        for _ in range(20):
            s = draw(DesignKind.RHC, pop, 2, rng)
            v = variance_estimate(s, pop, MEAN, EstimatorKind.RHC_EST)
            assert v == pytest.approx(0.0, abs=1e-20)

    def test_hand_evaluated_tiny_case(self):
        # N=5, n=2, x = (1..5), sampled units x=(1,4) with group totals (6,9),
        # y = (2, 10): d = (1.2, 0.45), mean est = 6.9, terms (-0.3, 0.8),
        # weights G/x^2 = (6, 0.5625), quadratic form 0.9,
        # n*gamma = 0.8, result = 0.8 * (3/5) * 0.9 = 0.432
        pop = Population(x=np.arange(1.0, 6.0), y=np.array([2.0, 0.0, 0.0, 10.0, 0.0]))
        s = SampleDraw(
            DesignKind.RHC, np.array([0, 3]), g_totals=np.array([6.0, 9.0])
        )
        got = variance_estimate(s, pop, MEAN, EstimatorKind.RHC_EST)
        assert got == pytest.approx(0.432, abs=1e-14)

    def test_nonnegative_on_random_draws(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            pop = random_population(rng, N=10)
            n = int(rng.integers(2, 7))
            s = draw(DesignKind.RHC, pop, n, rng)
            kind = (EstimatorKind.RHC_EST, EstimatorKind.GREG, EstimatorKind.PEML)[
                int(rng.integers(3))
            ]
            try:
                v = variance_estimate(s, pop, MEAN, kind)
            except DegenerateError:
                continue
            assert v >= -1e-12

    def test_rejects_pi_draw(self, pop5):
        s = srswor_sample(pop5, [0, 1])
        with pytest.raises(CombinationError):
            variance_estimate(s, pop5, MEAN, EstimatorKind.RHC_EST)


class TestJackknife:
    def test_linear_statistic_unchanged(self, benchmark_pop):
        # the Hajek mean under SRSWOR is the sample mean; jackknifing a
        # linear statistic reproduces it exactly
        rng = np.random.default_rng(45)
        for _ in range(5):
            s = draw(DesignKind.SRSWOR, benchmark_pop, 12, rng)
            plain = plug_in(MEAN, EstimatorKind.HAJEK, s, benchmark_pop)
            bc = jackknife_bc(s, benchmark_pop, MEAN, EstimatorKind.HAJEK)
            assert bc == pytest.approx(plain, abs=1e-10 * max(1, abs(plain)))

    @pytest.mark.parametrize("design", list(DesignKind), ids=str)
    def test_linear_estimators_are_their_own_correction(self, design, benchmark_pop):
        # the leave-one-out HT and RHC means on the n/(n-1) replicate weights
        # average to the full-sample mean, so bc is the plug-in
        kind = EstimatorKind.RHC_EST if design is DesignKind.RHC else EstimatorKind.HT
        rng = np.random.default_rng(49)
        for n in (3, 20):
            batch = stack(draw(design, benchmark_pop, n, rng) for _ in range(5))
            plain = plug_in(MEAN, kind, batch, benchmark_pop)
            bc = jackknife_bc(batch, benchmark_pop, MEAN, kind)
            np.testing.assert_allclose(bc, plain, rtol=1e-13, atol=0)

    def test_product_correction_is_exact_under_srswor(self):
        # the product estimator's SRSWOR bias is c (1/n - 1/N); the delete-one
        # replicates estimate it as c/n, so over the whole sample space the
        # corrected bias is -c/N, that is -n/(N-n) times the plug-in's
        rng = np.random.default_rng(50)
        x = rng.gamma(25.0, 4.0, 12)
        pop = Population(x=x, y=500 + 3 * x + rng.normal(0, 30, 12))
        support = enumerate_design(DesignKind.SRSWOR, pop, 4)
        truth = pop.y.mean()
        bias = support.probs @ plug_in(MEAN, EstimatorKind.PRODUCT, support.batch, pop) - truth
        bc = jackknife_bc(support.batch, pop, MEAN, EstimatorKind.PRODUCT)
        assert abs(bias) > 0.1
        assert support.probs @ bc - truth == pytest.approx(-bias * 4 / 8, rel=1e-9)

    def test_variance_hand_case(self):
        # Hajek variance, SRSWOR, y = (1,2,3): full g = 2/3,
        # leave-one-out g's = (1/4, 1, 1/4), BC = 3*(2/3) - 2*(1/2) = 1
        pop = Population(x=np.ones(5) + np.arange(5) * 0.1,
                         y=np.array([1.0, 2.0, 3.0, 7.0, 7.0]))
        s = srswor_sample(pop, [0, 1, 2])
        bc = jackknife_bc(s, pop, VARIANCE, EstimatorKind.HAJEK)
        assert bc == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_units(self, pop5):
        s = srswor_sample(pop5, [0, 1])
        with pytest.raises(ParameterError):
            jackknife_bc(s, pop5, MEAN, EstimatorKind.HAJEK)

    def test_failure_identifies_unit(self):
        # dropping the only large-x unit pushes x_bar outside the sample hull,
        # so the PEML leave-one-out estimate is infeasible
        pop = Population(
            x=np.array([1.0, 2.0, 50.0, 2.0, 2.0, 3.0]),
            y=np.arange(6.0),
        )
        assert pop.x_bar() == pytest.approx(10.0)
        s = srswor_sample(pop, [0, 1, 2])
        with pytest.raises(JackknifeFailureError) as err:
            jackknife_bc(s, pop, MEAN, EstimatorKind.PEML)
        assert err.value.unit == 2
        assert loo_reference(s, pop, MEAN, EstimatorKind.PEML)[2] == 2

    @pytest.mark.parametrize(
        "design,kind",
        [(d, k) for d in DesignKind for k in EstimatorKind if valid_pair(k, d)],
        ids=str,
    )
    def test_batch_rows_match_one_sample_calls(self, design, kind, benchmark_pop):
        # 12 samples of 75 units are 900 leave-one-out rows: several passes,
        # which split samples between them
        rng = np.random.default_rng(47)
        draws = [draw(design, benchmark_pop, 75, rng) for _ in range(12)]
        batch = stack(draws)
        for f in (MEAN, VARIANCE):
            want = [jackknife_bc(s, benchmark_pop, f, kind) for s in draws]
            assert jackknife_bc(batch, benchmark_pop, f, kind).tolist() == want

    def test_failing_sample_of_a_batch_is_named(self):
        # x_bar = 128/7 lies inside every sample's hull, but sample 2 without
        # unit 2 has no x above it: its PEML leave-one-out is infeasible
        pop = Population(x=np.array([1.0, 2.0, 50.0, 40.0, 2.0, 3.0, 30.0]),
                         y=np.arange(7.0))
        units = ([0, 1, 2, 3], [4, 5, 3, 6], [0, 1, 4, 2], [1, 6, 2, 5])
        draws = [srswor_sample(pop, u) for u in units]
        with pytest.raises(JackknifeFailureError) as one:
            jackknife_bc(draws[2], pop, MEAN, EstimatorKind.PEML)
        with pytest.raises(JackknifeFailureError) as err:
            jackknife_bc(stack(draws), pop, MEAN, EstimatorKind.PEML)
        assert err.value.row == 2 and err.value.unit == one.value.unit == 2

    def test_near_edge_leave_one_out_matches_the_loop(self):
        # unit 7's x lies 5e-10 (relative) below x_bar: sample 0 without unit 0
        # keeps x_bar that close to its hull, where a start one Newton step from
        # the full-sample root is least accurate; sample 1 without unit 7 has
        # no x below x_bar, so its PEML leave-one-out is infeasible
        base = np.array([1.0, 30.0, 40.0, 50.0, 35.0, 45.0, 2.0])
        gap = 5e-10 * base.mean()
        x = np.append(base, (base.sum() - 8 * gap) / 7)
        pop = Population(x=x, y=np.column_stack([1.3 * x + np.cos(7.0 * x)]))
        assert 0 < pop.x_bar() - x[7] <= 1e-9 * pop.x_bar()
        near = srswor_sample(pop, [0, 7, 1, 2, 3])
        for f in (MEAN, VARIANCE):
            ref_means, ref, failed_unit = loo_reference(near, pop, f, EstimatorKind.PEML)
            assert failed_unit is None
            scale = ref_means[:, 0] if f is VARIANCE else np.abs(ref)
            ref_bc = 5 * plug_in(f, EstimatorKind.PEML, near, pop) - 4 * ref.mean()
            bc = jackknife_bc(near, pop, f, EstimatorKind.PEML)
            assert bc == pytest.approx(ref_bc, rel=1e-12, abs=1e-12 * 5 * scale.max())
        infeasible = srswor_sample(pop, [1, 2, 7, 4, 5])
        assert loo_reference(infeasible, pop, MEAN, EstimatorKind.PEML)[2] == 7
        with pytest.raises(JackknifeFailureError) as one:
            jackknife_bc(infeasible, pop, MEAN, EstimatorKind.PEML)
        with pytest.raises(JackknifeFailureError) as err:
            jackknife_bc(stack([near, infeasible]), pop, MEAN, EstimatorKind.PEML)
        assert one.value.unit == err.value.unit == 7
        np.testing.assert_array_equal(err.value.rows, [1])

    @pytest.mark.parametrize("design", [DesignKind.SRSWOR, DesignKind.RHC], ids=str)
    @pytest.mark.parametrize("case", ["skewed-sizes", "n5"])
    def test_peml_series_start_matches_the_loop(self, case, design, benchmark_pop):
        # skewed sizes (sd 1.5 times the mean) leave out units far from x_bar,
        # and at n=5 a left-out unit is a fifth of its sample: both move the
        # root far from the sample's.  Passes hold different rows in a batch
        # than in one-sample calls, yet give the same bits.
        if case == "n5":
            pop, n, m = benchmark_pop, 5, 40
        else:
            spec = LinearModelSpec(gamma_mean=1000.0, gamma_sd=1500.0)
            pop, n, m = generate_univariate(spec, 2000, seed=52), 40, 12
        rng = np.random.default_rng(53)
        draws = [draw(design, pop, n, rng) for _ in range(m)]
        for f in (MEAN, VARIANCE):
            kept, want = [], []
            for s in draws:
                try:
                    full = plug_in(f, EstimatorKind.PEML, s, pop)
                except FinpopError as exc:  # x_bar outside the sample's own hull
                    with pytest.raises(type(exc)):
                        jackknife_bc(s, pop, f, EstimatorKind.PEML)
                    continue
                ref_means, ref, failed_unit = loo_reference(s, pop, f, EstimatorKind.PEML)
                if failed_unit is not None:  # or outside a leave-one-out hull
                    with pytest.raises(JackknifeFailureError) as err:
                        jackknife_bc(s, pop, f, EstimatorKind.PEML)
                    assert err.value.unit == failed_unit
                    continue
                scale = ref_means[:, 0] if f is VARIANCE else np.abs(ref)
                ref_bc = n * full - (n - 1) * ref.mean()
                bc = jackknife_bc(s, pop, f, EstimatorKind.PEML)
                assert bc == pytest.approx(ref_bc, rel=1e-12, abs=1e-12 * n * scale.max())
                kept.append(s)
                want.append(bc)
            assert len(kept) >= m // 2
            assert jackknife_bc(stack(kept), pop, f, EstimatorKind.PEML).tolist() == want

    @pytest.mark.parametrize("design", [DesignKind.SRSWOR, DesignKind.RHC], ids=str)
    def test_peml_bits_do_not_depend_on_the_pass_size(self, design, benchmark_pop, monkeypatch):
        # passes of one row, of seven and of 218 (the default) group the rows,
        # and blocks of 5, 40 and 1260 rows their series starts, differently
        n = 75
        rng = np.random.default_rng(55)
        batch = stack(draw(design, benchmark_pop, n, rng) for _ in range(12))
        for f in (MEAN, VARIANCE):
            want = jackknife_bc(batch, benchmark_pop, f, EstimatorKind.PEML)
            for entries in (n, 7 * n):
                with monkeypatch.context() as m:
                    m.setattr(errors, "_PASS_ENTRIES", entries)
                    got = jackknife_bc(batch, benchmark_pop, f, EstimatorKind.PEML)
                assert got.tolist() == want.tolist()

    def test_every_failing_sample_of_a_batch_is_named(self):
        # samples 2 and 4 have no x above x_bar = 128/7 without unit 2
        pop = Population(x=np.array([1.0, 2.0, 50.0, 40.0, 2.0, 3.0, 30.0]),
                         y=np.arange(7.0))
        units = ([0, 1, 2, 3], [4, 5, 3, 6], [0, 1, 4, 2], [1, 6, 2, 5], [5, 4, 2, 0])
        with pytest.raises(JackknifeFailureError) as err:
            jackknife_bc(stack(srswor_sample(pop, u) for u in units), pop, MEAN,
                         EstimatorKind.PEML)
        np.testing.assert_array_equal(err.value.rows, [2, 4])
        assert err.value.row == 2 and err.value.unit == 2

    def test_memory_is_bounded_whatever_n(self, benchmark_pop):
        # the whole (n, n) leave-one-out weight matrix alone would take 32 MB
        s = draw(DesignKind.SRSWOR, benchmark_pop, 2000, np.random.default_rng(48))
        tracemalloc.start()
        try:
            bc = jackknife_bc(s, benchmark_pop, MEAN, EstimatorKind.PEML)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(bc)
        assert peak <= 32 * 2**20


def replicate_scale(kind, n):
    """The factor on the remaining units' design weights in a delete-one
    replicate: n/(n-1), where a common factor changes the estimator."""
    variant = (EstimatorKind.HT, EstimatorKind.RHC_EST, EstimatorKind.PRODUCT)
    return n / (n - 1) if kind in variant else 1.0


def loo_reference(sample, pop, f, kind):
    """The leave-one-out loop: per sample position, the mean vector and the
    plug-in on the delete-one replicate without that unit; or, where the
    plug-in is first undefined, that unit."""
    means, values = [], []
    for i in range(sample.n):
        s_i = drop_unit(sample, i, replicate_scale(kind, sample.n))
        try:
            means.append(estimate_mean(kind, s_i, pop, f.h(pop.y[s_i.indices])))
            values.append(plug_in(f, kind, s_i, pop))
        except FinpopError:
            return None, None, int(sample.indices[i])
    return np.array(means).reshape(sample.n, -1), np.array(values), None


def jackknife_triples():
    """Every (design, estimator, functional) the jackknife accepts."""
    for design in DesignKind:
        for kind in EstimatorKind:
            if not valid_pair(kind, design):
                continue
            for f in (MEAN, VARIANCE):
                yield design, kind, f
            if kind in (EstimatorKind.HAJEK, EstimatorKind.PEML):
                for f in (CORRELATION, regression_coef(0, 1), regression_coef(1, 0)):
                    yield design, kind, f


class TestClosedFormJackknife:
    @pytest.mark.parametrize(
        "design,kind,f", list(jackknife_triples()),
        ids=lambda v: getattr(v, "value", None) or getattr(v, "name", None),
    )
    def test_matches_the_leave_one_out_loop(
        self, design, kind, f, benchmark_pop, benchmark_pop_biv
    ):
        pop = benchmark_pop if f.d == 1 else benchmark_pop_biv
        rng = np.random.default_rng(46)
        for n in (10, 75):
            for _ in range(3):
                s = draw(design, pop, n, rng)
                ref_means, ref, failed_unit = loo_reference(s, pop, f, kind)
                if failed_unit is not None:  # e.g. x_bar outside a PEML hull
                    with pytest.raises(JackknifeFailureError) as err:
                        jackknife_bc(s, pop, f, kind)
                    assert err.value.unit == failed_unit
                    continue
                d = design_weights(s, pop) * replicate_scale(kind, n)
                weights = np.where(np.eye(n, dtype=bool), 0.0, d)
                x_s, h = pop.x[s.indices], f.h(pop.y[s.indices])
                means = estimate_mean_rows(
                    kind, weights, np.tile(x_s, (n, 1)), pop.x_bar(), np.tile(h, (n, 1, 1))
                )
                np.testing.assert_allclose(means, ref_means, rtol=1e-12, atol=0)
                # the variance s0 - s1^2 cancels, so it is held to 1e-12 of s0
                scale = ref_means[:, 0] if f is VARIANCE else np.abs(ref)
                assert np.all(np.abs(f.g(means) - ref) <= 1e-12 * scale)
                full = plug_in(f, kind, s, pop)
                ref_bc = n * full - (n - 1) * ref.mean()
                bc = jackknife_bc(s, pop, f, kind)
                assert bc == pytest.approx(ref_bc, rel=1e-12, abs=1e-12 * n * scale.max())

    def assert_same_failure(self, s, pop, f, kind, unit):
        assert loo_reference(s, pop, f, kind)[2] == unit
        with pytest.raises(JackknifeFailureError) as err:
            jackknife_bc(s, pop, f, kind)
        assert err.value.unit == unit

    def test_degenerate_greg_names_the_loop_unit(self):
        # without unit 4 the remaining x are all 2: no regression calibration
        pop = Population(x=np.array([2.0, 2.0, 3.0, 1.0, 5.0, 2.0]), y=np.arange(6.0))
        s = srswor_sample(pop, [0, 4, 5])
        self.assert_same_failure(s, pop, MEAN, EstimatorKind.GREG, unit=4)

    def test_undefined_correlation_names_the_first_unit(self):
        # without unit 3 (position 1) z2 is 0 on every remaining unit; without
        # unit 1 (position 3) the hull of x excludes x_bar = 10.  The loop
        # stops at position 1; the batched PEML pass meets the infeasible
        # row first (the estimator runs before g) and must still name unit 3.
        x = np.array([1.0, 50.0, 2.0, 3.0, 2.0, 2.0])
        z = np.array([[1.0, 0.0], [5.0, 0.0], [0.0, 0.0],
                      [2.0, 4.0], [0.0, 0.0], [3.0, 0.0]])
        pop = Population(x=x, y=z)
        s = srswor_sample(pop, [0, 3, 5, 1])
        for kind in (EstimatorKind.HAJEK, EstimatorKind.PEML):
            assert np.isfinite(plug_in(CORRELATION, kind, s, pop))
        self.assert_same_failure(s, pop, CORRELATION, EstimatorKind.HAJEK, unit=3)
        self.assert_same_failure(s, pop, CORRELATION, EstimatorKind.PEML, unit=3)
