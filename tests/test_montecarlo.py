import numpy as np
import pytest

from finpop import (
    CORRELATION,
    Cell,
    DesignKind,
    EstimatorKind,
    ExperimentConfig,
    FinpopError,
    InfeasibleError,
    MEAN,
    ParameterError,
    Population,
    VARIANCE,
    confidence_interval,
    default_bivariate_spec,
    empirical_mse,
    generate_bivariate,
    jackknife_bc,
    plug_in,
    population_value,
    regression_coef,
    relative_efficiency,
    run_experiment,
    valid_pair,
)
from finpop.designs import draw
from finpop.inference import supports_variance_estimate, variance_estimate
from finpop import designs
from finpop.montecarlo import _replicate_rng, _replicate_states, _State


def small_pop():
    rng = np.random.default_rng(61)
    x = rng.uniform(1.0, 3.0, size=30)
    y = 2.0 + 1.5 * x + rng.normal(0, 0.5, size=30)
    return Population(x=x, y=y)


def mean_cell(design, estimator):
    return Cell(design=design, estimator=estimator, functional=MEAN)


class TestScalarOps:
    def test_empirical_mse_exact_hits(self):
        assert empirical_mse([2.0, 2.0, 2.0], 2.0) == 0.0

    def test_empirical_mse_hand_value(self):
        assert empirical_mse([1.0, 3.0], 2.0) == pytest.approx(1.0)

    def test_empirical_mse_permutation_invariant(self):
        a = empirical_mse([1.0, 5.0, 2.0, 7.0], 3.0)
        b = empirical_mse([7.0, 2.0, 1.0, 5.0], 3.0)
        assert a == b

    def test_empirical_mse_empty(self):
        with pytest.raises(ParameterError):
            empirical_mse([], 1.0)

    def test_relative_efficiency(self):
        assert relative_efficiency(2.0, 2.0) == 1.0
        assert relative_efficiency(2.0, 4.0) == 2.0
        assert relative_efficiency(4.0, 2.0) * relative_efficiency(2.0, 4.0) == 1.0
        with pytest.raises(ParameterError):
            relative_efficiency(0.0, 1.0)


@pytest.mark.parametrize(
    "seed, n, design, r",
    [(9, 5, DesignKind.SRSWOR, 0), (11, 12, DesignKind.RHC, 29),
     (123, 6, DesignKind.RAO_SAMPFORD, 3), (2, 4, DesignKind.LMS, 11)],
)
def test_replicate_rng_is_the_default_rng_stream(seed, n, design, r):
    # the replicate generator is built without default_rng, on the same stream
    rng = _replicate_rng(seed, n, design, r)
    ss = np.random.SeedSequence([seed, n, list(DesignKind).index(design), r])
    reference = np.random.default_rng(ss)
    assert rng.bit_generator.state == reference.bit_generator.state
    np.testing.assert_array_equal(rng.random(16), reference.random(16))
    pop = small_pop()
    a, b = draw(design, pop, n, rng), draw(design, pop, n, reference)
    np.testing.assert_array_equal(a.indices, b.indices)


def test_batched_seeding_is_the_seed_sequence_stream():
    # a few hundred random (seed, n, design, r), R = 1 among them, and words
    # of 2**32 or more, which SeedSequence spreads over several uint32 words
    rng = np.random.default_rng(2024)
    checked = 0
    for k in range(60):
        bound = 2**40 if k % 4 == 0 else 2**32  # every fourth case falls back
        seed = int(rng.integers(0, bound))
        sizes = [int(v) for v in rng.integers(2, bound, size=rng.integers(1, 3))]
        kinds = list(rng.permutation(list(DesignKind))[: rng.integers(1, 5)])
        R = 1 if k % 3 == 0 else int(rng.integers(2, 6))
        states = _replicate_states(seed, sizes, kinds, R)
        assert states.shape == (len(sizes), len(kinds), R, 4)
        for i, n in enumerate(sizes):
            for j, design in enumerate(kinds):
                for r in range(R):
                    batched = np.random.Generator(np.random.PCG64(_State(states[i, j, r])))
                    reference = _replicate_rng(seed, n, design, r)
                    assert batched.bit_generator.state == reference.bit_generator.state
                    np.testing.assert_array_equal(batched.random(8), reference.random(8))
                    np.testing.assert_array_equal(
                        batched.permutation(50), reference.permutation(50)
                    )
                    checked += 1
    assert checked >= 300
    # either side of the word boundary, and a seed of three words
    for seed, n in ((2**32 - 1, 2**32 - 1), (2**32, 5), (3, 2**32), (2**64 + 7, 9)):
        state = _replicate_states(seed, [n], [DesignKind.RHC], 2)[0, 0, 1]
        reference = _replicate_rng(seed, n, DesignKind.RHC, 1)
        assert np.random.PCG64(_State(state)).state == reference.bit_generator.state


class TestRunExperiment:
    def test_reports_do_not_depend_on_the_sampford_memo(self, monkeypatch):
        # cold, and warm from another population or another n
        pop, other = small_pop(), Population(x=np.arange(1.0, 41.0), y=np.zeros(40))
        cells = (
            mean_cell(DesignKind.RAO_SAMPFORD, EstimatorKind.HT),
            mean_cell(DesignKind.RAO_SAMPFORD, EstimatorKind.HAJEK),
            mean_cell(DesignKind.SRSWOR, EstimatorKind.HT),
        )
        cfg = ExperimentConfig(
            population=pop, cells=cells, sample_sizes=(4, 7), replicates=25, seed=31,
        )
        monkeypatch.setattr(designs, "_rs_memo", designs._NO_RS_TABLES)
        cold = repr(run_experiment(cfg))
        for warm_pop, warm_n in ((other, 4), (other, 7), (pop, 5), (pop, 7)):
            draw(DesignKind.RAO_SAMPFORD, warm_pop, warm_n, np.random.default_rng(1))
            assert repr(run_experiment(cfg)) == cold

    def test_single_replicate_is_single_squared_error(self):
        pop = small_pop()
        cell = mean_cell(DesignKind.SRSWOR, EstimatorKind.HT)
        cfg = ExperimentConfig(
            population=pop, cells=(cell,), sample_sizes=(5,), replicates=1, seed=9,
            baseline=None,
        )
        report = run_experiment(cfg)
        res = report.result_for(cell, 5)
        # reproduce the single draw from the same substream
        s = draw(DesignKind.SRSWOR, pop, 5, _replicate_rng(9, 5, DesignKind.SRSWOR, 0))
        est = plug_in(MEAN, EstimatorKind.HT, s, pop)
        truth = population_value(MEAN, pop)
        assert res.mse == pytest.approx((est - truth) ** 2, rel=1e-12)
        assert res.mean_estimate == pytest.approx(est, rel=1e-12)

    def test_deterministic(self):
        pop = small_pop()
        cells = (
            mean_cell(DesignKind.SRSWOR, EstimatorKind.PEML),
            mean_cell(DesignKind.RHC, EstimatorKind.RHC_EST),
            mean_cell(DesignKind.RAO_SAMPFORD, EstimatorKind.HAJEK),
        )
        cfg = ExperimentConfig(
            population=pop, cells=cells, sample_sizes=(4, 6), replicates=40, seed=123,
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for r_a, r_b in zip(a.cells, b.cells):
            assert r_a.mse == r_b.mse
            assert r_a.mean_estimate == r_b.mean_estimate
            assert r_a.ci_mean_length == r_b.ci_mean_length
        for e_a, e_b in zip(a.relative_efficiencies, b.relative_efficiencies):
            assert e_a.value == e_b.value

    def test_cell_result_independent_of_other_cells_and_sizes(self):
        # each (seed, n, design, replicate) owns its substream, so a cell's
        # result does not depend on what else the grid holds
        pop = small_pop()
        cell = Cell(DesignKind.RAO_SAMPFORD, EstimatorKind.HAJEK, VARIANCE)
        others = (
            mean_cell(DesignKind.SRSWOR, EstimatorKind.PEML),
            mean_cell(DesignKind.RHC, EstimatorKind.GREG),
            mean_cell(DesignKind.LMS, EstimatorKind.HT),
        )

        def result(cells, sizes):
            cfg = ExperimentConfig(
                population=pop, cells=cells, sample_sizes=sizes, replicates=30,
                seed=44, jackknife=True,
            )
            return run_experiment(cfg).result_for(cell, 6)

        alone = result((cell,), (6,))
        # no NaN field, so == compares every statistic bit for bit
        assert alone.failures < 30 and alone.ci_count > 1 and alone.bc_failures < 30
        for beside in (
            result(others[:1] + (cell,) + others[1:], (4, 6, 8)),
            result((cell,) + others, (8, 6)),
        ):
            assert beside == alone

    def test_cells_share_design_draws(self):
        pop = small_pop()
        ht = mean_cell(DesignKind.SRSWOR, EstimatorKind.HT)
        hajek = mean_cell(DesignKind.SRSWOR, EstimatorKind.HAJEK)
        cfg = ExperimentConfig(
            population=pop, cells=(ht, hajek), sample_sizes=(6,), replicates=50,
            seed=77,
        )
        report = run_experiment(cfg)
        # under SRSWOR the two estimators coincide, so identical draws force
        # identical cell statistics
        assert report.result_for(ht, 6).mse == pytest.approx(
            report.result_for(hajek, 6).mse, rel=1e-12
        )

    def test_failures_counted_and_flagged(self):
        # most SRSWOR n=2 subsets of this population miss the single large
        # unit, making the calibration constraint infeasible
        pop = Population(x=np.array([1.0, 1.0, 1.0, 1.0, 16.0]), y=np.arange(5.0))
        cell = mean_cell(DesignKind.SRSWOR, EstimatorKind.PEML)
        cfg = ExperimentConfig(
            population=pop, cells=(cell,), sample_sizes=(2,), replicates=200,
            seed=5, baseline=None,
        )
        report = run_experiment(cfg)
        res = report.result_for(cell, 2)
        assert 0 < res.failures <= 200
        assert np.isfinite(res.mse)
        # expected failure rate is 60%; the cell gets flagged
        assert res.flagged

    def test_relative_efficiency_entries(self):
        pop = small_pop()
        peml = mean_cell(DesignKind.SRSWOR, EstimatorKind.PEML)
        ht = mean_cell(DesignKind.SRSWOR, EstimatorKind.HT)
        cfg = ExperimentConfig(
            population=pop, cells=(peml, ht), sample_sizes=(6,), replicates=60,
            seed=8, baseline=0,
        )
        report = run_experiment(cfg)
        re = report.re_for(peml, ht, 6)
        assert re == pytest.approx(
            report.result_for(ht, 6).mse / report.result_for(peml, 6).mse
        )

    def test_jackknife_columns(self):
        pop = small_pop()
        cell = Cell(
            design=DesignKind.SRSWOR,
            estimator=EstimatorKind.HAJEK,
            functional=VARIANCE,
        )
        cfg = ExperimentConfig(
            population=pop, cells=(cell,), sample_sizes=(6,), replicates=25, seed=12,
            jackknife=True, baseline=None,
        )
        report = run_experiment(cfg)
        res = report.result_for(cell, 6)
        assert res.bc_mse is not None and np.isfinite(res.bc_mse)
        assert res.bc_failures == 0

    def test_coverage_tracks_nominal_on_easy_case(self):
        rng = np.random.default_rng(62)
        x = rng.uniform(1.0, 2.0, size=400)
        y = rng.normal(10.0, 1.0, size=400)
        pop = Population(x=x, y=y)
        cell = mean_cell(DesignKind.SRSWOR, EstimatorKind.HT)
        cfg = ExperimentConfig(
            population=pop, cells=(cell,), sample_sizes=(60,), replicates=400,
            seed=21, baseline=None,
        )
        res = run_experiment(cfg).result_for(cell, 60)
        assert res.ci_count == 400
        assert 0.90 <= res.coverage <= 0.99

    def test_config_validation(self):
        pop = small_pop()
        with pytest.raises(ParameterError):
            ExperimentConfig(
                population=pop,
                cells=(mean_cell(DesignKind.RHC, EstimatorKind.HT),),
                sample_sizes=(5,), replicates=10, seed=1,
            )
        with pytest.raises(ParameterError):
            ExperimentConfig(
                population=pop,
                cells=(mean_cell(DesignKind.SRSWOR, EstimatorKind.HT),),
                sample_sizes=(30,), replicates=10, seed=1,
            )
        with pytest.raises(ParameterError):
            ExperimentConfig(
                population=pop,
                cells=(
                    Cell(DesignKind.SRSWOR, EstimatorKind.HT, VARIANCE),
                    Cell(DesignKind.SRSWOR, EstimatorKind.HT, VARIANCE),
                ),
                sample_sizes=(5,), replicates=10, seed=1,
            )
        with pytest.raises(ParameterError):
            ExperimentConfig(
                population=pop,
                cells=(Cell(DesignKind.SRSWOR, EstimatorKind.HT, MEAN),),
                sample_sizes=(5,), replicates=10, seed=-1,
            )
        # correlation and regression need the Hajek or PEML plug-in
        y2 = np.column_stack([pop.y[:, 0], pop.x * pop.y[:, 0]])
        with pytest.raises(ParameterError, match="Hajek or PEML"):
            ExperimentConfig(
                population=Population(x=pop.x, y=y2),
                cells=(Cell(DesignKind.SRSWOR, EstimatorKind.HT, CORRELATION),),
                sample_sizes=(5,), replicates=10, seed=1,
            )

    def test_jackknife_below_three_units_fails_validation(self):
        # it would fail on every replicate; the config is refused before any
        # replicate runs
        cell = mean_cell(DesignKind.SRSWOR, EstimatorKind.HAJEK)
        with pytest.raises(ParameterError, match="sample_sizes"):
            ExperimentConfig(
                population=small_pop(), cells=(cell,), sample_sizes=(5, 2),
                replicates=10, seed=1, jackknife=True,
            )
        ExperimentConfig(
            population=small_pop(), cells=(cell,), sample_sizes=(2,), replicates=10,
            seed=1,
        )

    @pytest.mark.parametrize("sizes", [(), (5, 5), (5, 6, 5)], ids=repr)
    def test_sample_sizes_must_be_nonempty_and_distinct(self, sizes):
        # () ran no replicate at all, and a repeated n ran and reported twice
        with pytest.raises(ParameterError, match="sample_sizes"):
            ExperimentConfig(
                population=small_pop(),
                cells=(mean_cell(DesignKind.SRSWOR, EstimatorKind.HAJEK),),
                sample_sizes=sizes, replicates=10, seed=1,
            )

    @pytest.mark.parametrize("field,value", [
        ("sample_sizes", "75"), ("sample_sizes", (5.0,)), ("replicates", 2.5),
        ("replicates", True), ("seed", "1"), ("jackknife", "false"), ("jackknife", 1),
        ("baseline", True), ("ci_level", "0.9"), ("ci_level", True),
    ], ids=repr)
    def test_config_values_are_checked_not_coerced(self, field, value):
        values = dict(sample_sizes=(5,), replicates=10, seed=1, jackknife=False, baseline=0)
        values[field] = value
        with pytest.raises(ParameterError, match=field):
            ExperimentConfig(
                population=small_pop(),
                cells=(mean_cell(DesignKind.SRSWOR, EstimatorKind.HAJEK),), **values
            )

    def test_numpy_integers_are_integers(self):
        cfg = ExperimentConfig(
            population=small_pop(),
            cells=(mean_cell(DesignKind.SRSWOR, EstimatorKind.HAJEK),),
            sample_sizes=np.array([5, 6]), replicates=np.int64(10), seed=np.uint32(1),
        )
        assert cfg.sample_sizes == (5, 6) and (cfg.replicates, cfg.seed) == (10, 1)
        assert all(type(v) is int for v in (*cfg.sample_sizes, cfg.replicates, cfg.seed))

    def test_infeasible_rao_sampford_size_fails_validation(self):
        # n = 2 is feasible, but n = 3 puts n x_i / sum(x) >= 1 for the last
        # unit: the config is refused before any replicate runs
        pop = Population(x=np.array([1.0] * 8 + [5.0]), y=np.arange(9.0))
        cell = mean_cell(DesignKind.RAO_SAMPFORD, EstimatorKind.HT)
        with pytest.raises(InfeasibleError, match="infeasible"):
            ExperimentConfig(
                population=pop, cells=(cell,), sample_sizes=(2, 3), replicates=10,
                seed=1,
            )
        ExperimentConfig(
            population=pop, cells=(cell,), sample_sizes=(2,), replicates=10, seed=1,
        )


class TestBatchedReplicates:
    """The row-wise pass of run_experiment against a per-replicate loop over
    the same substreams: draw -> plug_in -> variance_estimate ->
    confidence_interval, and jackknife_bc."""

    SIZES = (10, 75)
    REPLICATES = 20

    @staticmethod
    def tied_pop():
        # x = 1.5 = x_bar on nine units in ten, 1.0 and 2.0 on the others:
        # small samples often miss 1.0 or 2.0, so PEML calibration is
        # infeasible on some rows, and on rows whose x values are all 1.5 the
        # PEML constraint is vacuous (the estimate exists) while the
        # regression slope of its variance estimate is undefined
        rng = np.random.default_rng(3)
        x = rng.permutation(np.repeat([1.5, 1.0, 2.0], [1800, 100, 100]))
        return Population(x=x, y=1.0 + 2.0 * x + rng.normal(size=x.size))

    @staticmethod
    def reference(cfg, cell, n):
        pop, f, kind = cfg.population, cell.functional, cell.estimator
        truth = population_value(f, pop)
        est, lengths, covered, bc = [], [], 0, []
        failures = bc_failures = 0
        for r in range(cfg.replicates):
            s = draw(cell.design, pop, n, _replicate_rng(cfg.seed, n, cell.design, r))
            try:
                e = plug_in(f, kind, s, pop)
            except FinpopError:
                failures += 1
                bc_failures += 1
                continue
            est.append(e)
            if supports_variance_estimate(kind, cell.design):
                try:
                    var = variance_estimate(s, pop, f, kind)
                except FinpopError:
                    pass
                else:
                    ci = confidence_interval(e, var, n, cfg.ci_level)
                    lengths.append(ci.length)
                    covered += ci.contains(truth)
            if cfg.jackknife:
                try:
                    bc.append(jackknife_bc(s, pop, f, kind))
                except FinpopError:
                    bc_failures += 1
        nan = float("nan")
        out = {
            "failures": failures,
            "ci_count": len(lengths),
            "mean_estimate": np.mean(est) if est else nan,
            "mse": empirical_mse(est, truth) if est else nan,
            "coverage": covered / len(lengths) if lengths else nan,
            "ci_mean_length": np.mean(lengths) if lengths else nan,
            "ci_sd_length": np.std(lengths, ddof=1) if len(lengths) > 1 else nan,
        }
        if cfg.jackknife:
            out["bc_failures"] = bc_failures
            out["bc_mean"] = np.mean(bc) if bc else nan
            out["bc_mse"] = empirical_mse(bc, truth) if bc else nan
        return out

    def check(self, cfg):
        report = run_experiment(cfg)
        assert len(report.cells) == len(cfg.cells) * len(cfg.sample_sizes)
        for res in report.cells:
            ref = self.reference(cfg, res.cell, res.n)
            for key, want in ref.items():
                got = getattr(res, key)
                label = f"{res.cell.label()} n={res.n} {key}"
                if isinstance(want, int):
                    assert got == want, label
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=label)
        return report

    @pytest.mark.parametrize("jackknife", [False, True])
    def test_every_design_estimator_mean_and_variance_cell(self, jackknife):
        cells = tuple(
            Cell(design, kind, f)
            for design in DesignKind
            for kind in EstimatorKind
            for f in (MEAN, VARIANCE)
            if valid_pair(kind, design)
        )
        assert len(cells) == 42
        cfg = ExperimentConfig(
            population=self.tied_pop(), cells=cells, sample_sizes=self.SIZES,
            replicates=self.REPLICATES, seed=31, jackknife=jackknife,
        )
        report = self.check(cfg)
        # the grid holds failing rows of each kind, so the row-failure walk is
        # exercised: an infeasible PEML hull fails the estimate, a sample of
        # equal x values drops the interval of a PEML estimate but fails a
        # GREG estimate, which shares the interval's regression slope
        at10 = {(r.cell.design, r.cell.estimator, r.cell.functional): r
                for r in report.cells if r.n == 10}
        for design in DesignKind:
            peml = at10[(design, EstimatorKind.PEML, MEAN)]
            assert 0 < peml.failures < self.REPLICATES
            assert 0 < peml.ci_count < self.REPLICATES - peml.failures
            greg = at10[(design, EstimatorKind.GREG, MEAN)]
            assert 0 < greg.ci_count == self.REPLICATES - greg.failures
        if jackknife:
            peml = at10[(DesignKind.SRSWOR, EstimatorKind.PEML, MEAN)]
            assert 0 < peml.bc_failures < self.REPLICATES

    @pytest.mark.parametrize("jackknife", [False, True])
    def test_correlation_and_regression_cells(self, jackknife):
        pop = generate_bivariate(default_bivariate_spec(), 2000, seed=6)
        cells = tuple(
            Cell(design, kind, f)
            for design in DesignKind
            for kind in (EstimatorKind.HAJEK, EstimatorKind.PEML)
            for f in (CORRELATION, regression_coef(0, 1), regression_coef(1, 0))
            if valid_pair(kind, design)
        )
        cfg = ExperimentConfig(
            population=pop, cells=cells, sample_sizes=self.SIZES,
            replicates=self.REPLICATES, seed=32, jackknife=jackknife,
        )
        self.check(cfg)
