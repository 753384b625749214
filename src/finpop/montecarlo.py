"""Seeded replicate runner: empirical MSEs, relative efficiencies, interval
lengths and coverage for a grid of (design, estimator, functional) cells.

Every replicate draws one sample per design present in the grid, from a
dedicated random substream derived by mixing (seed, sample size, design id,
replicate index) through ``numpy.random.SeedSequence``; all cells sharing a
design evaluate the identical draw.  Reports are therefore pure functions of
the configuration, independent of execution order.

For each sample size each design is drawn once, as one batch of R rows,
row r being what ``draw`` (the one-row case) gives for replicate r's
substream.  Each cell evaluates all R replicates in one row-wise pass: one
``plug_in``, one ``variance_estimate``, one ``confidence_interval`` and,
when asked for, one ``jackknife_bc`` over the rows, each pass bounded in
memory by ``errors.rows_that_evaluate``.

Replicates where an estimate is undefined (infeasible calibration, undefined
correlation, ...) are dropped from that cell's moments and counted as
failures instead of propagating NaNs into the ratios; a failing row is found
through ``FinpopError.row`` and the rows around it are evaluated again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import nan

import numpy as np

from .designs import DesignKind, SampleDraw, _check_n, _draw_rows, inclusion_probabilities
from .designs import draw  # noqa: F401 - the traced benchmark patches this name
from .errors import ParameterError, rows_that_evaluate
from .estimators import EstimatorKind, valid_pair
from .functionals import _RATIO_SAFE, Functional, FunctionalKind, plug_in, population_value
from .inference import (
    confidence_interval,
    jackknife_bc,
    supports_variance_estimate,
    variance_estimate,
)
from .population import Population

__all__ = [
    "Cell",
    "ExperimentConfig",
    "ExperimentReport",
    "empirical_mse",
    "relative_efficiency",
    "run_experiment",
]

_DESIGN_ID = {
    DesignKind.SRSWOR: 0,
    DesignKind.LMS: 1,
    DesignKind.RAO_SAMPFORD: 2,
    DesignKind.RHC: 3,
}


@dataclass(frozen=True)
class Cell:
    """One (design, estimator, functional) combination under study."""

    design: DesignKind
    estimator: EstimatorKind
    functional: Functional

    def label(self) -> str:
        return f"{self.estimator}/{self.design}/{self.functional.name}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one simulation study.

    ``baseline`` indexes the cell whose MSE sits in the denominator of every
    reported relative efficiency (subject cell); ``None`` reports none.
    """

    population: Population
    cells: tuple[Cell, ...]
    sample_sizes: tuple[int, ...]
    replicates: int
    seed: int
    ci_level: float = 0.95
    jackknife: bool = False
    baseline: int | None = 0

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        if not self.cells:
            raise ParameterError("at least one cell is required")
        if len(set(self.cells)) != len(self.cells):
            raise ParameterError("cells must be distinct")
        if self.replicates < 1:
            raise ParameterError("replicates must be at least 1")
        if self.seed < 0:
            raise ParameterError("seed must be a nonnegative integer")
        if not 0 < self.ci_level < 1:
            raise ParameterError("ci_level must lie strictly between 0 and 1")
        for n in self.sample_sizes:
            _check_n(self.population, n)
        if self.jackknife and min(self.sample_sizes, default=3) < 3:
            raise ParameterError("jackknife needs sample_sizes of at least 3")
        for cell in self.cells:
            if not valid_pair(cell.estimator, cell.design):
                raise ParameterError(
                    f"invalid cell {cell.label()}: estimator/design mismatch"
                )
            if cell.functional.kind in (
                FunctionalKind.CORRELATION,
                FunctionalKind.REGRESSION,
            ) and cell.estimator not in _RATIO_SAFE:
                raise ParameterError(
                    f"invalid cell {cell.label()}: this functional requires the "
                    "Hajek or PEML estimator"
                )
            if cell.functional.d != self.population.d:
                raise ParameterError(
                    f"cell {cell.label()} expects d={cell.functional.d} study "
                    f"coordinates; population has d={self.population.d}"
                )
        if self.baseline is not None and not 0 <= self.baseline < len(self.cells):
            raise ParameterError("baseline must index a cell")
        # an infeasible Rao-Sampford size raises InfeasibleError here, before
        # any replicate runs, instead of from the draw mid-run
        if any(c.design is DesignKind.RAO_SAMPFORD for c in self.cells):
            for n in self.sample_sizes:
                inclusion_probabilities(DesignKind.RAO_SAMPFORD, self.population, n)


def empirical_mse(estimates, truth: float) -> float:
    """Mean squared deviation of the estimates from the true value."""
    arr = np.asarray(list(estimates), dtype=float)
    if arr.size == 0:
        raise ParameterError("empirical MSE of an empty list is undefined")
    return float(np.mean((arr - truth) ** 2))


def relative_efficiency(mse_subject: float, mse_reference: float) -> float:
    """MSE(reference cell) / MSE(subject cell); > 1 favors the subject."""
    if mse_subject <= 0:
        raise ParameterError("subject-cell MSE must be positive for a ratio")
    return mse_reference / mse_subject


@dataclass
class CellResult:
    """Per-(cell, n) Monte Carlo summary."""

    cell: Cell
    n: int
    truth: float
    replicates: int
    failures: int
    mean_estimate: float
    mse: float
    ci_count: int
    coverage: float
    ci_mean_length: float
    ci_sd_length: float
    bc_failures: int | None = None
    bc_mean: float | None = None
    bc_mse: float | None = None

    @property
    def flagged(self) -> bool:
        """More than half the replicates failed; treat the cell with suspicion."""
        return self.failures > self.replicates / 2


@dataclass(frozen=True)
class REEntry:
    n: int
    subject: Cell
    reference: Cell
    value: float


@dataclass
class ExperimentReport:
    """Everything a benchmark run produced, keyed by cell and sample size."""

    seed: int
    replicates: int
    cells: list[CellResult] = field(default_factory=list)
    relative_efficiencies: list[REEntry] = field(default_factory=list)

    def result_for(self, cell: Cell, n: int) -> CellResult:
        for r in self.cells:
            if r.cell == cell and r.n == n:
                return r
        raise KeyError(f"no result for {cell.label()} at n={n}")

    def re_for(self, subject: Cell, reference: Cell, n: int) -> float:
        for e in self.relative_efficiencies:
            if e.subject == subject and e.reference == reference and e.n == n:
                return e.value
        raise KeyError(
            f"no relative efficiency for {subject.label()} vs "
            f"{reference.label()} at n={n}"
        )

    def summary(self) -> str:
        lines = [f"seed={self.seed} replicates={self.replicates}", "", "cells:"]
        for r in self.cells:
            line = (
                f"  {r.cell.label():34s} n={r.n:<5d} truth={r.truth:.6g} "
                f"mean={r.mean_estimate:.6g} mse={r.mse:.6g} fail={r.failures}"
            )
            if r.flagged:
                line += " FLAGGED"
            if r.ci_count:
                line += (
                    f" cover={r.coverage:.6g} ci_len={r.ci_mean_length:.6g}"
                    f" (sd {r.ci_sd_length:.6g})"
                )
            if r.bc_mse is not None:
                line += f" bc_mse={r.bc_mse:.6g}"
            lines.append(line)
        if self.relative_efficiencies:
            lines += ["", "relative efficiencies (reference MSE / subject MSE):"]
            for e in self.relative_efficiencies:
                lines.append(
                    f"  n={e.n:<5d} {e.subject.label()} vs "
                    f"{e.reference.label():34s} RE={e.value:.6g}"
                )
        return "\n".join(lines)


def _replicate_rng(seed: int, n: int, design: DesignKind, replicate: int):
    ss = np.random.SeedSequence([seed, n, _DESIGN_ID[design], replicate])
    return np.random.Generator(np.random.PCG64(ss))


def _cell_result(
    cfg: ExperimentConfig, cell: Cell, truth: float, batch: SampleDraw
) -> CellResult:
    """Evaluate the cell on all replicates at once: the estimates, their
    intervals when a variance estimator exists, and the jackknife when asked
    for.  An undefined estimate counts against the estimate and the
    jackknife."""
    pop, f, kind, n = cfg.population, cell.functional, cell.estimator, batch.n
    ok, est, _ = rows_that_evaluate(
        lambda lo, hi: plug_in(f, kind, batch[lo:hi], pop), cfg.replicates, n
    )
    rows = batch if ok.size in (0, cfg.replicates) else batch[ok]  # those with an estimate
    lengths, covered = np.empty(0), 0
    if supports_variance_estimate(kind, cell.design):
        with_var, var, _ = rows_that_evaluate(
            lambda lo, hi: variance_estimate(rows[lo:hi], pop, f, kind), ok.size, n
        )
        if with_var.size:
            ci = confidence_interval(est[with_var], var, n, cfg.ci_level)
            lengths, covered = ci.length, int(np.count_nonzero(ci.contains(truth)))
    n_ok, ci_count = est.size, lengths.size
    result = CellResult(
        cell=cell,
        n=n,
        truth=truth,
        replicates=cfg.replicates,
        failures=cfg.replicates - n_ok,
        mean_estimate=float(np.mean(est)) if n_ok else nan,
        mse=empirical_mse(est, truth) if n_ok else nan,
        ci_count=ci_count,
        coverage=covered / ci_count if ci_count else nan,
        ci_mean_length=float(np.mean(lengths)) if ci_count else nan,
        ci_sd_length=float(np.std(lengths, ddof=1)) if ci_count > 1 else nan,
    )
    if cfg.jackknife:
        _, bc, _ = rows_that_evaluate(
            lambda lo, hi: jackknife_bc(rows[lo:hi], pop, f, kind), ok.size, n
        )
        result.bc_failures = cfg.replicates - bc.size
        result.bc_mean = float(np.mean(bc)) if bc.size else nan
        result.bc_mse = empirical_mse(bc, truth) if bc.size else nan
    return result


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full replicate grid and assemble the report.

    For each sample size, each design draws one batch, row r from replicate
    r's own substream, which each of its cells evaluates in one pass.
    """
    pop = cfg.population
    designs_needed = list(dict.fromkeys(c.design for c in cfg.cells))
    truths = [population_value(c.functional, pop) for c in cfg.cells]
    pairs = []
    if cfg.baseline is not None:
        pairs = [(cfg.baseline, j) for j in range(len(cfg.cells)) if j != cfg.baseline]
    report = ExperimentReport(seed=cfg.seed, replicates=cfg.replicates)

    for n in cfg.sample_sizes:
        batches = {
            design: _draw_rows(
                design, pop, n,
                [_replicate_rng(cfg.seed, n, design, r) for r in range(cfg.replicates)],
            )
            for design in designs_needed
        }
        results = [
            _cell_result(cfg, cell, truth, batches[cell.design])
            for cell, truth in zip(cfg.cells, truths)
        ]
        report.cells.extend(results)

        for a, b in pairs:
            mse_a, mse_b = results[a].mse, results[b].mse
            if not (np.isfinite(mse_a) and np.isfinite(mse_b)) or mse_a <= 0:
                value = nan
            else:
                value = relative_efficiency(mse_a, mse_b)
            report.relative_efficiencies.append(
                REEntry(n=n, subject=cfg.cells[a], reference=cfg.cells[b], value=value)
            )

    return report
