"""Command-line front end.

Four subcommands:

  gen    generate a synthetic population and write it as CSV
  run    run a Monte Carlo benchmark described by a JSON config; writes
         mse.csv, re.csv and ci.csv plus a human-readable summary
  exact  exact design moments of one estimator on a tiny population
  asy    asymptotic diagnostics (gamma, phi, class MSEs, class table)

Exit codes: 0 success, 1 usage or configuration problem (message names the
offending flag, field or file), 2 computational failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import MISSING, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .asymptotics import AsymptoticContext, delta_sq, equivalence_class, gamma_coeff
from .designs import DesignKind
from .errors import FinpopError, InfeasibleError, IngestionError, ParameterError
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


# a file that cannot be read or written is a usage problem too
_USAGE_ERRORS = (_UsageError, ParameterError, IngestionError, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, per the interface contract
        raise _UsageError(message)


def _fmt(value: float, spec: str = ".6g") -> str:
    # squash float dust so exact zeros print as zeros
    return format(0.0 if abs(value) < 5e-13 else value, spec)


def _lookup(what: str, choices: dict, name: str):
    """The entry of ``choices`` named ``name``; a usage error names the choices."""
    try:
        return choices[name]
    except KeyError:
        raise _UsageError(
            f"unknown {what} {name!r}; choose from {sorted(choices)}"
        ) from None


# flag and config names of the LinearModelSpec fields: sigma is sigma_eps
_SPEC_KEYS = {
    "sigma" if f.name == "sigma_eps" else f.name: f.name
    for f in fields(LinearModelSpec) if f.init
}


def _generate(model, n_pop, seed, values: dict) -> Population:
    """A synthetic ``model`` population from the default spec with ``values``
    (by flag or config name) replaced; a None value keeps the default, any
    other value (0 included) replaces it."""
    base = default_univariate_spec() if model == "univariate" else default_bivariate_spec()
    spec = replace(base, **{_SPEC_KEYS[k]: v for k, v in values.items() if v is not None})
    gen = generate_univariate if model == "univariate" else generate_bivariate
    return gen(spec, n_pop, seed)


# ---------------------------------------------------------------- gen


def _cmd_gen(args) -> int:
    pop = _generate(
        args.model, args.n_pop, args.seed, {k: getattr(args, k) for k in _SPEC_KEYS}
    )
    write_csv(pop, args.out)
    print(f"wrote {pop.n_units} units (d={pop.d}) to {args.out}")
    return 0


# ---------------------------------------------------------------- run

# each JSON node's fields, mapped to whether they are required: a config
# and a cell are an ExperimentConfig and a Cell, whose fields without a
# default are required
_CONFIG_KEYS, _CELL_KEYS = (
    {f.name: f.default is MISSING for f in fields(cls)} for cls in (ExperimentConfig, Cell)
)
_POP_KEYS = dict.fromkeys(
    ["model", "n_pop", "seed", *_SPEC_KEYS, "csv", "x_column", "y_columns"], False
)


def _check_keys(what: str, node: dict, keys: dict) -> None:
    """Refuse a JSON node that is not an object or lacks or adds a field of ``keys``."""
    if not isinstance(node, dict):
        raise _UsageError(f"{what} must be a JSON object")
    unknown = set(node) - set(keys)
    if unknown:
        raise _UsageError(f"unknown {what} field(s): {sorted(unknown)}")
    for key, required in keys.items():
        if required and key not in node:
            raise _UsageError(f"{what} is missing field {key!r}")


def _config_population(node: dict) -> Population:
    _check_keys("population", node, _POP_KEYS)
    if "csv" in node:  # y_columns defaults to every column but x, as in load_csv
        return load_csv(node["csv"], node.get("x_column", "x"), node.get("y_columns"))
    model = node.get("model")
    if model not in ("univariate", "bivariate"):
        raise _UsageError("population.model must be 'univariate' or 'bivariate'")
    for key in ("n_pop", "seed"):
        if key not in node:
            raise _UsageError(f"population.{key} is required with population.model")
    return _generate(model, node["n_pop"], node["seed"], {k: node.get(k) for k in _SPEC_KEYS})


def _config_cell(node: dict) -> Cell:
    _check_keys("cell", node, _CELL_KEYS)
    return Cell(
        design=_lookup("design", _DESIGNS, node["design"]),
        estimator=_lookup("estimator", _ESTIMATORS, node["estimator"]),
        functional=_lookup("functional", _FUNCTIONALS, node["functional"]),
    )


def _parse_config(path: str) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config is not valid JSON: {exc}") from None
    _check_keys("config", doc, _CONFIG_KEYS)
    try:
        # a field left out keeps ExperimentConfig's default
        values = dict(doc, cells=tuple(_config_cell(c) for c in doc["cells"]))
        if isinstance(doc.get("baseline"), dict):
            target = _config_cell(doc["baseline"])
            if target not in values["cells"]:
                raise _UsageError("baseline cell is not among the configured cells")
            values["baseline"] = values["cells"].index(target)
        values["population"] = _config_population(doc["population"])
        return ExperimentConfig(**values)
    except InfeasibleError as exc:  # refused before any draw: a configuration problem
        raise _UsageError(str(exc)) from None
    except (TypeError, ValueError) as exc:
        if isinstance(exc, _USAGE_ERRORS):
            raise
        raise _UsageError(f"malformed config value: {exc}") from None


def _write_report_csvs(report: ExperimentReport, out_dir: Path, jackknife: bool) -> None:
    bc = ["bc_failures", "bc_mean", "bc_mse"] if jackknife else []
    tables = {
        "mse.csv": (
            ["functional", "design", "estimator", "n", "truth", "replicates",
             "failures", "mean_estimate", "mse", *bc],
            [[r.cell.functional.name, str(r.cell.design), str(r.cell.estimator),
              r.n, repr(r.truth), r.replicates, r.failures, repr(r.mean_estimate),
              repr(r.mse), *([r.bc_failures, repr(r.bc_mean), repr(r.bc_mse)] if bc else [])]
             for r in report.cells],
        ),
        "re.csv": (
            ["functional", "n", "design", "estimator", "ref_design",
             "ref_estimator", "re"],
            [[e.subject.functional.name, e.n, str(e.subject.design),
              str(e.subject.estimator), str(e.reference.design),
              str(e.reference.estimator), repr(e.value)]
             for e in report.relative_efficiencies],
        ),
        "ci.csv": (
            ["functional", "design", "estimator", "n", "ci_count", "coverage",
             "mean_length", "sd_length"],
            [[r.cell.functional.name, str(r.cell.design), str(r.cell.estimator),
              r.n, r.ci_count, repr(r.coverage), repr(r.ci_mean_length),
              repr(r.ci_sd_length)]
             for r in report.cells if r.ci_count],
        ),
    }
    for name, (header, rows) in tables.items():
        with (out_dir / name).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def _cmd_run(args) -> int:
    cfg = _parse_config(args.config)
    out_dir = Path(args.out_dir)
    made = [level for level in (out_dir, *out_dir.parents) if not level.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)  # a bad path fails before the run
    try:
        report = run_experiment(cfg)
    except BaseException:  # a failed run leaves behind no directory that it made
        for level in made:  # innermost first, each while nothing else has filled it
            if not any(level.iterdir()):
                level.rmdir()
        raise
    _write_report_csvs(report, out_dir, cfg.jackknife)
    print(report.summary())
    print(f"\nwrote mse.csv, re.csv, ci.csv to {args.out_dir}")
    return 0


# ---------------------------------------------------------------- exact


def _cmd_exact(args) -> int:
    pop = load_csv(args.pop, args.x_column, args.y_columns)
    summary = exact_moments(args.design, pop, args.n, args.estimator, args.functional)
    print(f"design:       {args.design}")
    print(f"estimator:    {args.estimator}")
    print(f"functional:   {args.functional.name}")
    print(f"support size: {summary.support_size}")
    print(f"truth:        {_fmt(summary.truth)}")
    print(f"expectation:  {_fmt(summary.expectation)}")
    print(f"bias:         {_fmt(summary.bias, '.12f')}")
    print(f"mse:          {_fmt(summary.mse)}")
    return 0


# ---------------------------------------------------------------- asy


def _cmd_asy(args) -> int:
    pop = load_csv(args.pop, args.x_column, args.y_columns)
    ctx = AsymptoticContext.compute(pop, args.functional, args.n)
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

    # exact and asy read a population; names convert to their entries as
    # argparse reads them, and an unknown one is a usage error
    pop = argparse.ArgumentParser(add_help=False)
    pop.add_argument("--pop", required=True)
    pop.add_argument(
        "--functional", type=partial(_lookup, "functional", _FUNCTIONALS), required=True
    )
    pop.add_argument("--n", type=int, required=True)
    pop.add_argument("--x-column", default="x")
    # an empty --y-columns keeps load_csv's default, every column but x
    pop.add_argument("--y-columns", type=lambda names: names.split(",") if names else None)

    exact = sub.add_parser(
        "exact", parents=[pop], help="exact design moments on a tiny population"
    )
    exact.add_argument("--design", type=partial(_lookup, "design", _DESIGNS), required=True)
    exact.add_argument(
        "--estimator", type=partial(_lookup, "estimator", _ESTIMATORS), required=True
    )
    exact.set_defaults(func=_cmd_exact)

    sub.add_parser(
        "asy", parents=[pop], help="asymptotic diagnostics for a population"
    ).set_defaults(func=_cmd_asy)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # float errors fail the command with one line, not warnings and an inf or nan
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FinpopError, ArithmeticError, MemoryError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
