"""Checks of the benchmark itself; run with ``python3 -m pytest bench``.

They start ``run.py`` as a user would, so each takes seconds: the gates on
a second seed, byte-identical outputs across runs and across tracing, a
tally of operations that does not change with the run length, and the
refusal to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("output_sha256"))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_gate_holds_on_a_second_seed(workload):
    result, _ = _result(_run("--workload", workload, "--seed", "2", "--seconds", "1"))
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_outputs_repeat_exactly_and_tracing_leaves_them_unchanged():
    args = ("--workload", "exact_oracle", "--seed", "5", "--seconds", "1")
    first, d1 = _result(_run(*args, "--trace", "0"))
    again, d2 = _result(_run(*args, "--trace", "0"))
    traced, d3 = _result(_run(*args, "--trace", "1"))
    assert d1 == d2 == d3
    assert first["correct"] and again["correct"] and traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_tally_depends_on_the_seed_not_on_the_run_length():
    args = ("--workload", "re_grid", "--seed", "3", "--trace", "0")
    short, d1 = _result(_run(*args, "--seconds", "1"))
    long, d2 = _result(_run(*args, "--seconds", "4"))
    assert d1 == d2
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def test_refuses_to_run_without_library_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = _run("--workload", "re_grid", "--seed", "1", "--seconds", "1",
                    cwd=bare, script=bare / "bench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
