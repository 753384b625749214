"""The four benchmark workloads and their correctness gates.

Each workload builds its inputs from the workload seed (the set-up the
benchmark times), then runs *studies*: ``studies`` distinct reports, each
a pure function of the seed and the study index.  The timed loop cycles
through them; the gate pools the first result of every study, so what it
checks never depends on how many reports fit into the run.

Workloads and why they were chosen:

* ``re_grid`` -- the relative-efficiency grid users run, end to end through
  ``finpop.cli.main``: config parsing, population generation, the Monte
  Carlo loop, PEML solves, variance estimates, intervals and CSV output.
* ``jackknife_var`` -- one PEML variance cell with the jackknife on; nearly
  all time goes to leave-one-out ``plug_in`` calls and ``peml_weights``.
* ``exact_oracle`` -- ``exact_moments`` over whole sample spaces of tiny
  populations: design enumeration and many tiny estimator calls, with no
  random draws, variance estimates or Monte Carlo loop.
* ``pps_skewed`` -- rejective Rao-Sampford draws on strongly skewed sizes
  dominate; the estimators are cheap and there is no PEML.  Its sizes are
  the N quantiles of the gamma law, shuffled by the seed, so every seed
  gives the sampler the same acceptance rate and the cost of a report does
  not swing with the largest size a seed happens to draw.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as _clock

import numpy as np
from scipy import stats

import finpop
from finpop import cli
from finpop.inference import supports_variance_estimate

S, L, R, H = (
    finpop.DesignKind.SRSWOR,
    finpop.DesignKind.LMS,
    finpop.DesignKind.RAO_SAMPFORD,
    finpop.DesignKind.RHC,
)
E = finpop.EstimatorKind
N_POP = 5000


@dataclass
class Study:
    """One finished report: its wall time, output digest and tallies."""

    seconds: float
    digest: str
    evals: int
    attempted: int
    failed: int
    rows: dict = field(repr=False)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _tally(rows: dict, jackknife: bool) -> tuple[int, int, int]:
    """(evaluations, attempted, failed) of one Monte Carlo report.

    Attempted operations are the estimator evaluations, the intervals of
    every successful estimate whose pair has a variance estimator, and the
    jackknife runs; failures are failed replicates, dropped intervals and
    jackknife failures.
    """
    evals = attempted = failed = 0
    for (design, kind, _n), r in rows.items():
        ok = r["replicates"] - r["failures"]
        evals += r["replicates"]
        attempted += r["replicates"]
        failed += r["failures"]
        if supports_variance_estimate(E(kind), finpop.DesignKind(design)):
            attempted += ok
            failed += ok - r["ci_count"]
        if jackknife:
            attempted += r["replicates"]
            failed += r["bc_failures"]
    return evals, attempted, failed


def _report_rows(report) -> dict:
    rows = {}
    for r in report.cells:
        rows[(r.cell.design.value, r.cell.estimator.value, r.n)] = {
            "truth": r.truth, "replicates": r.replicates, "failures": r.failures,
            "mean": r.mean_estimate, "mse": r.mse, "ci_count": r.ci_count,
            "coverage": r.coverage, "ci_mean_length": r.ci_mean_length,
            "bc_failures": r.bc_failures, "bc_mean": r.bc_mean, "bc_mse": r.bc_mse,
        }
    return rows


def _pool(studies: list[Study], key) -> dict:
    """One cell's results over all studies, as if from one long run."""
    rows = [s.rows[key] for s in studies]
    ok = [r["replicates"] - r["failures"] for r in rows]
    n_ok = sum(ok)
    ci = [r["ci_count"] for r in rows]
    pooled = {
        "truth": rows[0]["truth"],
        "ok": n_ok,
        "mean": sum(w * r["mean"] for w, r in zip(ok, rows) if w) / n_ok,
        "mse": sum(w * r["mse"] for w, r in zip(ok, rows) if w) / n_ok,
        "ci_count": sum(ci),
        "coverage": (
            sum(w * r["coverage"] for w, r in zip(ci, rows) if w) / sum(ci)
            if sum(ci) else math.nan
        ),
    }
    if rows[0]["bc_failures"] is not None:
        bc_ok = [r["replicates"] - r["bc_failures"] for r in rows]
        pooled["bc_failures"] = sum(r["bc_failures"] for r in rows)
        pooled["bc_mse"] = (
            sum(w * r["bc_mse"] for w, r in zip(bc_ok, rows) if w) / sum(bc_ok)
            if sum(bc_ok) else math.nan
        )
    return pooled


class Workload:
    """``studies`` reports, run one at a time by index, and the gate over them."""

    name: str
    studies: int

    def run(self, k: int) -> Study:
        raise NotImplementedError

    def check(self, results: list[Study]) -> list[Check]:
        raise NotImplementedError


class _ApiStudies(Workload):
    """Studies run through ``finpop.run_experiment``; ``configs[k]`` is study k."""

    configs: list

    def run(self, k: int) -> Study:
        cfg = self.configs[k]
        t0 = _clock()
        report = finpop.run_experiment(cfg)
        seconds = _clock() - t0
        rows = _report_rows(report)
        evals, attempted, failed = _tally(rows, jackknife=cfg.jackknife)
        return Study(seconds, _digest(repr(sorted(rows.items())).encode()),
                     evals, attempted, failed, rows)


class ReGrid(Workload):
    """Demo-06 relative-efficiency grid through ``finpop run``."""

    name = "re_grid"
    studies = 24
    replicates = 30
    sample_sizes = (75, 100, 125)
    cells = (
        (S, E.PEML), (S, E.GREG),
        (R, E.HT), (R, E.HAJEK), (R, E.PEML), (R, E.GREG),
        (H, E.RHC_EST), (H, E.PEML), (H, E.GREG),
    )

    def __init__(self, seed: int, out_dir: Path):
        self.pop = finpop.generate_univariate(
            finpop.default_univariate_spec(), N_POP, seed
        )
        self.dirs = []
        self.configs = []
        for k in range(self.studies):
            d = out_dir / self.name / f"study{k}"
            d.mkdir(parents=True, exist_ok=True)
            config = {
                "population": {"model": "univariate", "n_pop": N_POP, "seed": seed},
                "cells": [
                    {"design": dk.value, "estimator": ek.value, "functional": "mean"}
                    for dk, ek in self.cells
                ],
                "sample_sizes": list(self.sample_sizes),
                "replicates": self.replicates,
                "seed": seed * 1000 + k,
                "baseline": 0,
            }
            path = d / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.dirs.append(d)
            self.configs.append(path)

    def run(self, k: int) -> Study:
        argv = ["run", "--config", str(self.configs[k]), "--out-dir", str(self.dirs[k])]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = _clock()
            code = cli.main(argv)
            seconds = _clock() - t0
        if code != 0:
            raise RuntimeError(f"finpop run exited with {code} on study {k}")
        files = [(self.dirs[k] / f).read_bytes() for f in ("mse.csv", "re.csv", "ci.csv")]
        rows = {}
        for rec in csv.DictReader(io.StringIO(files[0].decode())):
            rows[(rec["design"], rec["estimator"], int(rec["n"]))] = {
                "truth": float(rec["truth"]), "replicates": int(rec["replicates"]),
                "failures": int(rec["failures"]), "mean": float(rec["mean_estimate"]),
                "mse": float(rec["mse"]), "ci_count": 0, "coverage": math.nan,
                "bc_failures": None,
            }
        for rec in csv.DictReader(io.StringIO(files[2].decode())):
            row = rows[(rec["design"], rec["estimator"], int(rec["n"]))]
            row["ci_count"] = int(rec["ci_count"])
            row["coverage"] = float(rec["coverage"])
        evals, attempted, failed = _tally(rows, jackknife=False)
        return Study(seconds, _digest(*files), evals, attempted, failed, rows)

    def check(self, results: list[Study]) -> list[Check]:
        checks = []
        subject = (self.cells[0][0].value, self.cells[0][1].value)
        for n in self.sample_sizes:
            ctx = finpop.AsymptoticContext.compute(self.pop, finpop.MEAN, n)
            base = _pool(results, (*subject, n))
            base_mse = finpop.delta_sq(finpop.equivalence_class(E.PEML, S), ctx)
            for design, kind in self.cells[1:]:
                ref = _pool(results, (design.value, kind.value, n))
                re = ref["mse"] / base["mse"]
                pred = finpop.delta_sq(finpop.equivalence_class(kind, design), ctx) / base_mse
                # an empirical MSE of M near-normal estimates has relative SE
                # sqrt(2/M); allow four SEs of the log ratio of two such MSEs
                tol = 4.0 * math.sqrt(2.0 / ref["ok"] + 2.0 / base["ok"])
                checks.append(Check(
                    f"RE peml/srswor vs {kind.value}/{design.value} n={n}",
                    abs(math.log(re / pred)) <= tol,
                    f"RE {re:.4f}, class prediction {pred:.4f}, "
                    f"allowed {pred * math.exp(-tol):.4f}..{pred * math.exp(tol):.4f}",
                ))
            for design, kind in self.cells:
                cov = _pool(results, (design.value, kind.value, n))["coverage"]
                checks.append(Check(
                    f"coverage {kind.value}/{design.value} n={n}",
                    0.90 <= cov <= 0.99, f"{cov:.4f} in [0.90, 0.99]",
                ))
        return checks


class JackknifeVar(_ApiStudies):
    """Criterion-10 study: SRSWOR x PEML x variance at n=75, jackknife on."""

    name = "jackknife_var"
    studies = 20
    replicates = 12
    n = 75

    def __init__(self, seed: int, out_dir: Path):
        pop = finpop.generate_univariate(finpop.default_univariate_spec(), N_POP, seed)
        cell = finpop.Cell(S, E.PEML, finpop.VARIANCE)
        self.configs = [
            finpop.ExperimentConfig(
                population=pop, cells=(cell,), sample_sizes=(self.n,),
                replicates=self.replicates, seed=seed * 1000 + k,
                jackknife=True, baseline=None,
            )
            for k in range(self.studies)
        ]

    def check(self, results: list[Study]) -> list[Check]:
        p = _pool(results, (S.value, E.PEML.value, self.n))
        return [
            Check("jackknife bc_failures == 0", p["bc_failures"] == 0,
                  f"{p['bc_failures']} failures"),
            Check("jackknife bc_mse > mse", p["bc_mse"] > p["mse"],
                  f"bc_mse {p['bc_mse']:.6g} vs mse {p['mse']:.6g}"),
        ]


class ExactOracle(Workload):
    """Exact design moments on tiny uniform-size populations."""

    name = "exact_oracle"
    studies = 4
    pi_size = (12, 4)     # SRSWOR and LMS: C(12, 4) = 495 subsets
    rhc_size = (9, 2)     # RHC: 2520 grouping/selection outcomes
    cases = (
        [(d, k) for d in (S, L) for k in (E.HT, E.HAJEK, E.GREG, E.RATIO)]
        + [(H, E.RHC_EST), (H, E.GREG)]
    )

    def __init__(self, seed: int, out_dir: Path):
        self.pops = []
        for k in range(self.studies):
            rng = np.random.default_rng([seed, k])
            pair = []
            for size, _ in (self.pi_size, self.rhc_size):
                x = rng.uniform(0.5, 3.0, size)
                pair.append(finpop.Population(x=x, y=2.0 + 1.5 * x + rng.normal(size=size)))
            self.pops.append(pair)

    def _target(self, k: int, design):
        pop_pi, pop_rhc = self.pops[k]
        return (pop_rhc, self.rhc_size[1]) if design is H else (pop_pi, self.pi_size[1])

    def run(self, k: int) -> Study:
        t0 = _clock()
        out = []
        for design, kind in self.cases:
            pop, n = self._target(k, design)
            out.append(finpop.exact_moments(design, pop, n, kind, finpop.MEAN))
        seconds = _clock() - t0
        rows = {
            (d.value, kd.value): (s.expectation, s.mse, s.support_size, s.truth)
            for (d, kd), s in zip(self.cases, out)
        }
        points = sum(s.support_size for s in out)
        return Study(seconds, _digest(repr(sorted(rows.items())).encode()),
                     points, points, 0, rows)

    def check(self, results: list[Study]) -> list[Check]:
        checks = []
        for k, st in enumerate(results):
            for design, kind in ((S, E.HT), (L, E.HT), (H, E.RHC_EST)):
                expectation, _, _, truth = st.rows[(design.value, kind.value)]
                rel = abs(expectation - truth) / abs(truth)
                checks.append(Check(
                    f"exact bias {kind.value}/{design.value} study {k}",
                    rel <= 1e-12, f"relative bias {rel:.2e} <= 1e-12",
                ))
            pop, n = self._target(k, S)
            big_n = pop.n_units
            formula = (1 - n / big_n) * float(np.var(pop.y[:, 0], ddof=1)) / n
            mse = st.rows[(S.value, E.HT.value)][1]
            rel = abs(mse - formula) / formula
            checks.append(Check(
                f"exact mse ht/srswor == (1-n/N)S^2/n study {k}",
                rel <= 1e-10, f"relative gap {rel:.2e} <= 1e-10",
            ))
        return checks


class PpsSkewed(_ApiStudies):
    """Rejective Rao-Sampford draws on a strongly skewed size variable."""

    name = "pps_skewed"
    studies = 48
    replicates = 24
    n = 125
    cells = ((S, E.HT), (R, E.HT), (R, E.HAJEK), (L, E.HT), (L, E.RATIO))

    def __init__(self, seed: int, out_dir: Path):
        spec = finpop.LinearModelSpec(gamma_mean=1000.0, gamma_sd=1500.0)
        shape = (spec.gamma_mean / spec.gamma_sd) ** 2
        scale = spec.gamma_sd**2 / spec.gamma_mean
        rng = np.random.default_rng(seed)
        quantiles = stats.gamma.ppf((np.arange(N_POP) + 0.5) / N_POP, shape, scale=scale)
        x = rng.permutation(quantiles)
        y = spec.alphas[0] + spec.betas[0] * x + spec.sigmas[0] * rng.standard_normal(N_POP)
        pop = finpop.Population(x=x, y=y)
        cells = tuple(finpop.Cell(d, k, finpop.MEAN) for d, k in self.cells)
        self.configs = [
            finpop.ExperimentConfig(
                population=pop, cells=cells, sample_sizes=(self.n,),
                replicates=self.replicates, seed=seed * 1000 + k, baseline=0,
            )
            for k in range(self.studies)
        ]

    def check(self, results: list[Study]) -> list[Check]:
        checks = []
        for design in (R, L):
            p = _pool(results, (design.value, E.HT.value, self.n))
            var = p["mse"] - (p["mean"] - p["truth"]) ** 2
            z = (p["mean"] - p["truth"]) / math.sqrt(var / p["ok"])
            checks.append(Check(
                f"ht/{design.value} mean within 5 Monte Carlo SEs of truth",
                abs(z) <= 5.0, f"mean {p['mean']:.6g}, truth {p['truth']:.6g}, z {z:+.2f}",
            ))
        return checks


WORKLOADS = {w.name: w for w in (ReGrid, JackknifeVar, ExactOracle, PpsSkewed)}
