import numpy as np
import pytest

from finpop import (
    CORRELATION,
    Cell,
    DesignKind,
    EstimatorKind,
    ExperimentConfig,
    InfeasibleError,
    MEAN,
    ParameterError,
    Population,
    VARIANCE,
    empirical_mse,
    plug_in,
    population_value,
    relative_efficiency,
    run_experiment,
)
from finpop.designs import draw
from finpop.montecarlo import _replicate_rng


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


class TestRunExperiment:
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

    def test_explicit_re_pairs(self):
        pop = small_pop()
        cells = (
            mean_cell(DesignKind.SRSWOR, EstimatorKind.PEML),
            mean_cell(DesignKind.SRSWOR, EstimatorKind.GREG),
            mean_cell(DesignKind.SRSWOR, EstimatorKind.RATIO),
        )
        cfg = ExperimentConfig(
            population=pop, cells=cells, sample_sizes=(5,), replicates=30, seed=3,
            re_pairs=((1, 2),),
        )
        report = run_experiment(cfg)
        assert len(report.relative_efficiencies) == 1
        entry = report.relative_efficiencies[0]
        assert entry.subject == cells[1]
        assert entry.reference == cells[2]

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
