"""Seeded fuzz of the ``finpop`` command line, run in this one process.

    (ulimit -v 1048576; python tests/cli_fuzz.py SEED WORKDIR)

Starts from valid ``gen``, ``exact`` and ``asy`` flag lists and a valid
``run`` config.  Every case drops one or two flags or fields, or replaces
them with a wrong type, an extreme value (2**40, -1, 1e300, NaN) or an
unknown name, and calls ``finpop.cli.main``.  Run it with its address space
capped, as ``test_cli.py`` does, so that an allocation a case should have
refused ends in ``MemoryError`` instead of exhausting the host.  It works in
WORKDIR, so every file a case writes lands there.  Prints one JSON object:
the number of cases, the count of each exit code and every case that broke
the exit-code contract: an exit code outside 0, 1, 2, an uncaught exception
(a traceback from the console script), a success that printed on stderr, or
a failure that is not one ``error:`` or ``computation failed:`` line.
"""

import contextlib
import io
import json
import os
import random
import sys
from collections import Counter
from pathlib import Path

from finpop.cli import main

FLAG_VALUES = ["abc", "2.5", str(2**40), "-1", "1e300", "nan", "bogus"]
CONFIG_VALUES = [{"wrong": 1}, "7", 2**40, -1, 1e300, float("nan"), "bogus"]


def flag_groups(work: Path) -> dict:
    """Each command's valid flags, as (flag, values) groups after its name."""
    pop, pop8 = str(work / "p30.csv"), str(work / "p8.csv")
    return {
        "gen": [("--model", ["univariate"]), ("--n-pop", ["30"]), ("--seed", ["1"]),
                ("--out", [str(work / "gen.csv")]), ("--alpha", ["1"]),
                ("--sigma", ["2"]), ("--gamma-mean", ["1000"]), ("--gamma-sd", ["200"])],
        "exact": [("--pop", [pop8]), ("--design", ["srswor"]), ("--estimator", ["ht"]),
                  ("--functional", ["mean"]), ("--n", ["2"]), ("--x-column", ["x"]),
                  ("--y-columns", ["y"])],
        "asy": [("--pop", [pop]), ("--functional", ["mean"]), ("--n", ["5"]),
                ("--x-column", ["x"]), ("--y-columns", ["y"])],
    }


def base_config() -> dict:
    return {
        "population": {"model": "univariate", "n_pop": 30, "seed": 1, "sigma": 10.0},
        "cells": [{"design": "srswor", "estimator": "ht", "functional": "mean"},
                  {"design": "rhc", "estimator": "rhc", "functional": "mean"}],
        "sample_sizes": [3], "replicates": 5, "seed": 1, "ci_level": 0.9,
        "jackknife": True, "baseline": 0,
    }


def config_paths(doc: dict) -> list:
    """The key path of every field of the config, its population and first cell."""
    return ([(k,) for k in doc] + [("population", k) for k in doc["population"]]
            + [("cells", 0, k) for k in doc["cells"][0]])


DROP = object()


def mutate_config(doc: dict, path: tuple, value) -> None:
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value


def cases(rng: random.Random, work: Path):
    """(argv, config or None) pairs: every single mutation, then random pairs."""
    groups = flag_groups(work)
    for command, flags in groups.items():
        choices = [(i, v) for i in range(len(flags)) for v in [DROP, *FLAG_VALUES]]
        picks = [[c] for c in choices] + [rng.sample(choices, 2) for _ in range(40)]
        for pick in picks:
            edited = dict(enumerate(flags))
            for i, value in pick:
                edited[i] = None if value is DROP else (flags[i][0], [value])
            argv = [command]
            for group in edited.values():
                if group is not None:
                    argv += [group[0], *group[1]]
            yield argv, None
    paths = config_paths(base_config())
    choices = [(p, v) for p in paths for v in [DROP, *CONFIG_VALUES]]
    for pick in [[c] for c in choices] + [rng.sample(choices, 2) for _ in range(80)]:
        doc = base_config()
        for path, value in sorted(pick, key=lambda c: len(c[0]), reverse=True):
            with contextlib.suppress(KeyError, IndexError, TypeError):
                mutate_config(doc, path, value)
        yield ["run", "--config", str(work / "config.json"), "--out-dir", str(work / "out")], doc


def run_case(argv: list, doc) -> tuple:
    """(exit code, stderr) of one call of ``main``; an escaped exception is
    reported as exit code None and its type."""
    if doc is not None:
        Path(argv[2]).write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - any escape breaks the contract
            return None, f"Traceback: {type(exc).__name__}: {exc}"
    return code, err.getvalue()


def broken(code, err: str) -> bool:
    """A success prints nothing on stderr, a failure one line with its prefix."""
    if code == 0:
        return err != ""
    prefix = {1: "error: ", 2: "computation failed: "}.get(code)
    return prefix is None or not err.startswith(prefix) or err.count("\n") != 1


def fuzz(seed: int, work: Path) -> dict:
    os.chdir(work)
    for n_pop, name in ((30, "p30.csv"), (8, "p8.csv")):
        code, _ = run_case(["gen", "--model", "univariate", "--n-pop", str(n_pop),
                            "--seed", "1", "--out", str(work / name)], None)
        assert code == 0
    exits, bad, total = Counter(), [], 0
    for argv, doc in cases(random.Random(seed), work):
        code, err = run_case(argv, doc)
        total += 1
        exits[str(code)] += 1
        if broken(code, err):
            bad.append({"argv": argv, "config": doc, "exit": code, "stderr": err})
    return {"cases": total, "exits": dict(exits), "bad": bad}


if __name__ == "__main__":
    print(json.dumps(fuzz(int(sys.argv[1]), Path(sys.argv[2])), default=repr))
