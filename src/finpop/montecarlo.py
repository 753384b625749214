"""Seeded replicate runner: empirical MSEs, relative efficiencies, interval
lengths and coverage for a grid of (design, estimator, functional) cells.

Every replicate draws one sample per design present in the grid, from a
dedicated random substream derived by mixing (seed, sample size, design id,
replicate index) through ``numpy.random.SeedSequence``, whose arithmetic a
run repeats bit for bit, for values of any size, in one vector pass; all
cells sharing a design evaluate the identical draw.  Reports are therefore
pure functions of the configuration, independent of execution order.

For each sample size each design is drawn once, as one batch of R rows,
row r being what ``draw`` (the one-row case) gives for replicate r's
substream.  Each cell evaluates all R replicates in one row-wise pass: one
``plug_in``, one ``variance_estimate``, one ``confidence_interval`` and,
when asked for, one ``jackknife_bc`` over the rows, each pass bounded in
memory by ``errors.rows_that_evaluate``; the jackknife takes the plug-in's
estimates and PEML dual roots.

Replicates where an estimate is undefined (infeasible calibration, undefined
correlation, ...) are dropped from that cell's moments and counted as
failures instead of propagating NaNs into the ratios; a failing check names
its rows in ``FinpopError.rows``, and the rest of the pass runs again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import nan
from numbers import Real

import numpy as np

from .designs import DesignKind, SampleDraw, _check_n, _draw_rows, inclusion_probabilities
from .designs import draw  # noqa: F401 - the traced benchmark patches this name
from .errors import ParameterError, rows_that_evaluate
from .estimators import EstimatorKind
from .functionals import Functional, _check_cell, plug_in, population_value
from .inference import (
    confidence_interval,
    jackknife_bc,
    supports_variance_estimate,
    variance_estimate,
)
from .population import Population, _integer

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
_OTHERS = [np.flatnonzero(np.arange(4) != src) for src in range(5)]  # the pool words but src


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
        sizes = tuple(_integer(n, "each of sample_sizes") for n in self.sample_sizes)
        object.__setattr__(self, "sample_sizes", sizes)
        for name in ("replicates", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.baseline is not None:
            object.__setattr__(self, "baseline", _integer(self.baseline, "baseline"))
        if not isinstance(self.jackknife, bool):
            raise ParameterError(f"jackknife must be true or false, got {self.jackknife!r}")
        if not self.cells:
            raise ParameterError("at least one cell is required")
        if len(set(self.cells)) != len(self.cells):
            raise ParameterError("cells must be distinct")
        if not self.sample_sizes:
            raise ParameterError("at least one of sample_sizes is required")
        if len(set(self.sample_sizes)) != len(self.sample_sizes):
            raise ParameterError("sample_sizes must be distinct")
        if not 1 <= self.replicates < 2**32:  # each replicate index is one seed word
            raise ParameterError(f"replicates must lie in [1, 2**32), got {self.replicates}")
        if self.seed < 0:
            raise ParameterError("seed must be a nonnegative integer")
        if not isinstance(self.ci_level, Real) or not 0 < self.ci_level < 1:
            raise ParameterError(f"ci_level must be a number in (0, 1), got {self.ci_level!r}")
        for n in self.sample_sizes:
            _check_n(self.population.n_units, n)
        if self.jackknife and min(self.sample_sizes) < 3:
            raise ParameterError("jackknife needs sample_sizes of at least 3")
        for cell in self.cells:
            _check_cell(cell.design, cell.estimator, cell.functional, self.population)
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


@cache
def _hash_constants(a: int, m: int, count: int) -> np.ndarray:
    """The successive hash constants a m**k mod 2**32, k = 0..count, of
    numpy's SeedSequence (bit_generator.pyx), as a read-only column."""
    consts = np.array([a * pow(m, k, 2**32) % 2**32 for k in range(count + 1)], np.uint32)
    consts.setflags(write=False)
    return consts[:, None]


def _hash(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of row k of ``v`` by hash constants k and k + 1."""
    v = (v ^ consts[:-1]) * consts[1:]
    return v ^ (v >> 16)


class _State(np.random.bit_generator.ISeedSequence):
    """Hands ``PCG64`` the four uint64 seed words it asks for, computed beforehand."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _replicate_states(seed: int, sizes, designs, R: int) -> np.ndarray:
    """The (S, D, R, 4) PCG64 seeds of ``_replicate_rng`` for every (n, design,
    r) of a run: a vector pass of ``SeedSequence``'s uint32 arithmetic on the
    words of [seed, n, design id, r], whose 8 output words pair little-endian."""
    seed_words, *n_words = (  # little-endian uint32 words, as SeedSequence splits a value
        [(v >> b) % 2**32 for b in range(0, max(v.bit_length(), 1), 32)] for v in (seed, *sizes))
    if len({len(w) for w in n_words}) > 1:  # only with N >= 2**32 units: a pass per n
        return np.concatenate([_replicate_states(seed, [n], designs, R) for n in sizes])
    entropy = [*seed_words, *np.transpose(n_words)[:, :, None, None],
               np.array([_DESIGN_ID[d] for d in designs])[:, None], np.arange(R)]
    words = np.empty((len(entropy), len(sizes), len(designs), R), np.uint32)
    for k, word in enumerate(entropy):
        words[k] = word
    pool = words.reshape(len(entropy), -1)  # its first four rows, hashed, are the pool
    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * len(entropy))  # INIT_A, MULT_A
    pool[:4] = _hash(pool[:4], consts[:5])
    for src in range(len(entropy)):  # each word into the pool words other than itself,
        dst = _OTHERS[min(src, 4)]
        at = 4 * src + max(4 - src, 0)  # by hashes 4 + 3 src on, and 4 src on past the pool
        h = _hash(pool[src], consts[at : at + len(dst) + 1])
        m = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * h
        pool[dst] = m ^ (m >> 16)
    out = _hash(np.tile(pool[:4], (2, 1)), _hash_constants(0x8B51F9DD, 0x58F38DED, 8))
    out = np.ascontiguousarray(out.T, "<u4").view("<u8").astype(np.uint64, copy=False)
    return out.reshape(len(sizes), len(designs), R, 4)


def _cell_result(
    cfg: ExperimentConfig, cell: Cell, truth: float, batch: SampleDraw
) -> CellResult:
    """Evaluate the cell on all replicates at once: the estimates, their
    intervals when a variance estimator exists, and the jackknife when asked
    for.  An undefined estimate counts against the estimate and the
    jackknife."""
    pop, f, kind, n = cfg.population, cell.functional, cell.estimator, batch.n
    roots = []  # the PEML plug-in's dual roots, which the jackknife starts from
    ok, est, _ = rows_that_evaluate(
        lambda rows: plug_in(f, kind, batch[rows], pop, _roots=roots), cfg.replicates, n
    )
    estimated = batch if ok.size in (0, cfg.replicates) else batch[ok]
    lengths, covered = np.empty(0), 0
    if supports_variance_estimate(kind, cell.design):
        with_var, var, _ = rows_that_evaluate(
            lambda rows: variance_estimate(estimated[rows], pop, f, kind), ok.size, n
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
    if cfg.jackknife:  # on the estimates and roots the cell has: no solve again
        lam = np.concatenate(roots) if roots else np.zeros_like(est)  # only PEML has roots
        _, bc, _ = rows_that_evaluate(
            lambda r: jackknife_bc(estimated[r], pop, f, kind, _plug_in=(est[r], lam[r])),
            ok.size, n,
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

    states = _replicate_states(cfg.seed, cfg.sample_sizes, designs_needed, cfg.replicates)
    for n, states_n in zip(cfg.sample_sizes, states):
        batches = {
            design: _draw_rows(
                design, pop, n, [np.random.Generator(np.random.PCG64(_State(s))) for s in rows]
            )
            for design, rows in zip(designs_needed, states_n)
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
