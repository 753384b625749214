"""Command-line front end.

Four subcommands:

  gen    generate a synthetic population and write it as CSV
  run    run a Monte Carlo benchmark described by a JSON config; writes
         mse.csv, re.csv and ci.csv plus a human-readable summary
  exact  exact design moments of one estimator on a tiny population
  asy    asymptotic diagnostics (gamma, phi, class MSEs, class table)

Exit codes: 0 success, 1 usage or configuration problem (message names the
offending flag or field), 2 computational failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .asymptotics import AsymptoticContext, delta_sq, equivalence_class, gamma_coeff
from .designs import DesignKind
from .errors import (
    CombinationError,
    FinpopError,
    IngestionError,
    ParameterError,
)
from .estimators import EstimatorKind, valid_pair
from .functionals import (
    CORRELATION,
    MEAN,
    VARIANCE,
    regression_coef,
)
from .montecarlo import Cell, ExperimentConfig, ExperimentReport, run_experiment
from .oracle import exact_moments
from .population import (
    LinearModelSpec,
    Population,
    default_bivariate_spec,
    default_univariate_spec,
    generate_bivariate,
    generate_univariate,
    load_csv,
    write_csv,
)

_FUNCTIONALS = {
    f.name: f
    for f in (MEAN, VARIANCE, CORRELATION, regression_coef(0, 1), regression_coef(1, 0))
}

_DESIGNS = {d.value: d for d in DesignKind}
_ESTIMATORS = {e.value: e for e in EstimatorKind}


class _UsageError(Exception):
    pass


_USAGE_ERRORS = (_UsageError, ParameterError, IngestionError, CombinationError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, per the interface contract
        raise _UsageError(message)


def _fmt(value: float) -> str:
    # squash float dust so exact zeros print as zeros
    if abs(value) < 5e-13:
        value = 0.0
    return f"{value:.6g}"


def _lookup(what: str, choices: dict, name: str):
    """The entry of ``choices`` named ``name``; a usage error names the choices."""
    try:
        return choices[name]
    except KeyError:
        raise _UsageError(
            f"unknown {what} {name!r}; choose from {sorted(choices)}"
        ) from None


def _generate(model, n_pop, seed, alpha, beta, sigma, gamma_mean, gamma_sd) -> Population:
    """A synthetic ``model`` population; a None parameter keeps the default
    spec's value, any other value (0 included) replaces it."""
    base = default_univariate_spec() if model == "univariate" else default_bivariate_spec()
    keep = lambda value, default: default if value is None else value  # noqa: E731
    spec = LinearModelSpec(
        alpha=keep(alpha, base.alphas.tolist()),
        beta=keep(beta, base.betas.tolist()),
        sigma_eps=keep(sigma, base.sigmas.tolist()),
        gamma_mean=keep(gamma_mean, base.gamma_mean),
        gamma_sd=keep(gamma_sd, base.gamma_sd),
    )
    gen = generate_univariate if model == "univariate" else generate_bivariate
    return gen(spec, n_pop, seed)


def _load_pop(args) -> Population:
    y_cols = args.y_columns.split(",") if args.y_columns else None
    if y_cols is None:
        # peek at the header to take every non-x column in file order
        with open(args.pop, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        y_cols = [c.strip() for c in header if c.strip() != args.x_column]
    return load_csv(args.pop, args.x_column, y_cols)


# ---------------------------------------------------------------- gen


def _cmd_gen(args) -> int:
    pop = _generate(
        args.model, args.n_pop, args.seed, args.alpha, args.beta, args.sigma,
        args.gamma_mean, args.gamma_sd,
    )
    write_csv(pop, args.out)
    print(f"wrote {pop.n_units} units (d={pop.d}) to {args.out}")
    return 0


# ---------------------------------------------------------------- run

_CONFIG_KEYS = {
    "population",
    "cells",
    "sample_sizes",
    "replicates",
    "seed",
    "ci_level",
    "jackknife",
    "baseline",
}
_POP_KEYS = {
    "model",
    "n_pop",
    "seed",
    "alpha",
    "beta",
    "sigma",
    "gamma_mean",
    "gamma_sd",
    "csv",
    "x_column",
    "y_columns",
}
_CELL_KEYS = {"design", "estimator", "functional"}


def _config_population(node: dict) -> Population:
    unknown = set(node) - _POP_KEYS
    if unknown:
        raise _UsageError(f"unknown population field(s): {sorted(unknown)}")
    if "csv" in node:
        if "y_columns" not in node:
            raise _UsageError("population.y_columns is required with population.csv")
        return load_csv(
            node["csv"], node.get("x_column", "x"), node["y_columns"]
        )
    model = node.get("model")
    if model not in ("univariate", "bivariate"):
        raise _UsageError("population.model must be 'univariate' or 'bivariate'")
    for key in ("n_pop", "seed"):
        if key not in node:
            raise _UsageError(f"population.{key} is required with population.model")
    return _generate(
        model, node["n_pop"], node["seed"],
        *(node.get(key) for key in ("alpha", "beta", "sigma", "gamma_mean", "gamma_sd")),
    )


def _config_cell(node: dict) -> Cell:
    unknown = set(node) - _CELL_KEYS
    if unknown:
        raise _UsageError(f"unknown cell field(s): {sorted(unknown)}")
    for key in _CELL_KEYS:
        if key not in node:
            raise _UsageError(f"cell is missing field {key!r}")
    return Cell(
        design=_lookup("design", _DESIGNS, node["design"]),
        estimator=_lookup("estimator", _ESTIMATORS, node["estimator"]),
        functional=_lookup("functional", _FUNCTIONALS, node["functional"]),
    )


def _parse_config(path: str) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise _UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _UsageError("config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise _UsageError(f"unknown config field(s): {sorted(unknown)}")
    for key in ("population", "cells", "sample_sizes", "replicates", "seed"):
        if key not in doc:
            raise _UsageError(f"config is missing field {key!r}")
    try:
        cells = tuple(_config_cell(c) for c in doc["cells"])
        baseline = doc.get("baseline", 0)
        if isinstance(baseline, dict):
            target = _config_cell(baseline)
            if target not in cells:
                raise _UsageError("baseline cell is not among the configured cells")
            baseline = cells.index(target)
        return ExperimentConfig(
            population=_config_population(doc["population"]),
            cells=cells,
            sample_sizes=doc["sample_sizes"],
            replicates=doc["replicates"],
            seed=doc["seed"],
            ci_level=doc.get("ci_level", 0.95),
            jackknife=doc.get("jackknife", False),
            baseline=baseline,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, _USAGE_ERRORS):
            raise
        raise _UsageError(f"malformed config value: {exc}") from None


def _write_report_csvs(report: ExperimentReport, out_dir: Path, jackknife: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "mse.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [
            "functional", "design", "estimator", "n", "truth", "replicates",
            "failures", "mean_estimate", "mse",
        ]
        if jackknife:
            header += ["bc_failures", "bc_mean", "bc_mse"]
        writer.writerow(header)
        for r in report.cells:
            row = [
                r.cell.functional.name, str(r.cell.design),
                str(r.cell.estimator), r.n, repr(r.truth), r.replicates,
                r.failures, repr(r.mean_estimate), repr(r.mse),
            ]
            if jackknife:
                row += [r.bc_failures, repr(r.bc_mean), repr(r.bc_mse)]
            writer.writerow(row)
    with (out_dir / "re.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["functional", "n", "design", "estimator", "ref_design",
             "ref_estimator", "re"]
        )
        for e in report.relative_efficiencies:
            writer.writerow(
                [e.subject.functional.name, e.n, str(e.subject.design),
                 str(e.subject.estimator), str(e.reference.design),
                 str(e.reference.estimator), repr(e.value)]
            )
    with (out_dir / "ci.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["functional", "design", "estimator", "n", "ci_count", "coverage",
             "mean_length", "sd_length"]
        )
        for r in report.cells:
            if not r.ci_count:
                continue
            writer.writerow(
                [r.cell.functional.name, str(r.cell.design),
                 str(r.cell.estimator), r.n, r.ci_count, repr(r.coverage),
                 repr(r.ci_mean_length), repr(r.ci_sd_length)]
            )


def _cmd_run(args) -> int:
    cfg = _parse_config(args.config)
    report = run_experiment(cfg)
    _write_report_csvs(report, Path(args.out_dir), cfg.jackknife)
    print(report.summary())
    print(f"\nwrote mse.csv, re.csv, ci.csv to {args.out_dir}")
    return 0


# ---------------------------------------------------------------- exact


def _cmd_exact(args) -> int:
    pop = _load_pop(args)
    design = _lookup("design", _DESIGNS, args.design)
    kind = _lookup("estimator", _ESTIMATORS, args.estimator)
    f = _lookup("functional", _FUNCTIONALS, args.functional)
    summary = exact_moments(design, pop, args.n, kind, f)
    print(f"design:       {design}")
    print(f"estimator:    {kind}")
    print(f"functional:   {f.name}")
    print(f"support size: {summary.support_size}")
    print(f"truth:        {_fmt(summary.truth)}")
    print(f"expectation:  {_fmt(summary.expectation)}")
    bias = summary.bias
    print(f"bias:         {0.0 if abs(bias) < 5e-13 else bias:.12f}")
    print(f"mse:          {_fmt(summary.mse)}")
    return 0


# ---------------------------------------------------------------- asy


def _cmd_asy(args) -> int:
    pop = _load_pop(args)
    f = _lookup("functional", _FUNCTIONALS, args.functional)
    ctx = AsymptoticContext.compute(pop, f, args.n)
    print(f"N={pop.n_units} n={args.n} lambda={_fmt(ctx.lambda_hat)}")
    print(f"gamma = {_fmt(ctx.gamma)}   n*gamma = {_fmt(args.n * ctx.gamma)}")
    print(f"phi   = {_fmt(ctx.phi)}")
    print(f"gamma_coeff check: {_fmt(gamma_coeff(pop.n_units, args.n))}")
    print("\nclass asymptotic MSEs:")
    for cid in range(1, 10):
        try:
            print(f"  class {cid}: {_fmt(delta_sq(cid, ctx))}")
        except FinpopError as exc:
            print(f"  class {cid}: undefined ({exc})")
    print("\nequivalence classes (estimator x design):")
    for design in DesignKind:
        valid = [k for k in EstimatorKind if valid_pair(k, design)]
        row = [f"{k}:{equivalence_class(k, design)}" for k in valid]
        print(f"  {str(design):8s} {'  '.join(row)}")
    return 0


# ---------------------------------------------------------------- main


def _build_parser() -> _Parser:
    parser = _Parser(prog="finpop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic population CSV")
    gen.add_argument("--model", choices=["univariate", "bivariate"], required=True)
    gen.add_argument("--n-pop", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--alpha", type=float, nargs="+")
    gen.add_argument("--beta", type=float, nargs="+")
    gen.add_argument("--sigma", type=float, nargs="+")
    gen.add_argument("--gamma-mean", type=float)
    gen.add_argument("--gamma-sd", type=float)
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="run a Monte Carlo benchmark")
    run.add_argument("--config", required=True)
    run.add_argument("--out-dir", default=".")
    run.set_defaults(func=_cmd_run)

    exact = sub.add_parser("exact", help="exact design moments on a tiny population")
    exact.add_argument("--design", required=True)
    exact.add_argument("--estimator", required=True)
    exact.add_argument("--functional", required=True)
    exact.add_argument("--n", type=int, required=True)
    exact.add_argument("--pop", required=True)
    exact.add_argument("--x-column", default="x")
    exact.add_argument("--y-columns", default=None)
    exact.set_defaults(func=_cmd_exact)

    asy = sub.add_parser("asy", help="asymptotic diagnostics for a population")
    asy.add_argument("--pop", required=True)
    asy.add_argument("--functional", required=True)
    asy.add_argument("--n", type=int, required=True)
    asy.add_argument("--x-column", default="x")
    asy.add_argument("--y-columns", default=None)
    asy.set_defaults(func=_cmd_asy)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FinpopError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
