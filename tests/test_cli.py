import csv
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finpop
from finpop import load_csv
from finpop.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("x,y\n1.0,2.0\n2.0,1.0\n3.0,5.0\n4.0,3.0\n", encoding="utf-8")
    return path


class TestGen:
    def test_writes_loadable_population(self, tmp_path, capsys):
        out = tmp_path / "pop.csv"
        code, stdout, _ = run_cli(
            capsys, "gen", "--model", "univariate", "--n-pop", "50",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        pop = load_csv(out, "x", ["y"])
        assert pop.n_units == 50

    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run_cli(
                capsys, "gen", "--model", "bivariate", "--n-pop", "20",
                "--seed", "11", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_overrides(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(
            capsys, "gen", "--model", "univariate", "--n-pop", "30", "--seed", "1",
            "--out", str(out), "--sigma", "0", "--alpha", "7", "--beta", "2",
        )
        assert code == 0
        pop = load_csv(out, "x", ["y"])
        np.testing.assert_allclose(pop.y[:, 0], 7.0 + 2.0 * pop.x, rtol=1e-12)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--alpha", "1", "2"], "1-coordinate"),
            (["--gamma-mean", "0", "--gamma-sd", "0"], "gamma_mean"),
            (["--gamma-sd", "1e300"], "gamma shape or scale"),
        ],
        ids=["univariate_with_two_alphas", "zero_gamma_parameters", "overflowing_gamma_scale"],
    )
    def test_rejects_what_a_run_config_rejects(self, tmp_path, capsys, flags, message):
        out = tmp_path / "d.csv"
        code, _, err = run_cli(
            capsys, "gen", "--model", "univariate", "--n-pop", "30", "--seed", "1",
            "--out", str(out), *flags,
        )
        assert code == 1
        assert err.startswith("error:") and message in err
        assert not out.exists()


class TestExact:
    def test_unbiased_ht_prints_zero_bias(self, tiny_csv, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--design", "srswor", "--estimator", "ht",
            "--functional", "mean", "--n", "2", "--pop", str(tiny_csv),
        )
        assert code == 0
        assert "bias:         0.000000000000" in out
        assert "support size: 6" in out

    def test_rao_sampford_enumerates_every_subset(self, tiny_csv, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--design", "rs", "--estimator", "ht",
            "--functional", "mean", "--n", "2", "--pop", str(tiny_csv),
        )
        assert code == 0
        assert "support size: 6" in out  # C(4, 2)
        assert "bias:         0.000000000000" in out

    def test_infeasible_enumeration_exits_2(self, tmp_path, capsys):
        rows = ["x,y"] + [f"{1.0 + i * 0.01},{i}" for i in range(40)]
        big = tmp_path / "big.csv"
        big.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "exact", "--design", "srswor", "--estimator", "ht",
            "--functional", "mean", "--n", "15", "--pop", str(big),
        )
        assert code == 2

    def test_invalid_pair_exits_1(self, tiny_csv, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--design", "rhc", "--estimator", "ht",
            "--functional", "mean", "--n", "2", "--pop", str(tiny_csv),
        )
        assert code == 1
        assert "not valid" in err

    @pytest.mark.parametrize("functional,message", [
        ("correlation", "Hajek or PEML"), ("mean", "expects d=1"),
    ])
    def test_a_cell_run_would_refuse_exits_1_before_enumerating(
        self, tmp_path, capsys, functional, message
    ):
        # C(40, 10) = 847,660,528 subsets: enumerating them first exits 2
        pop = tmp_path / "bivariate.csv"
        assert run_cli(
            capsys, "gen", "--model", "bivariate", "--n-pop", "40", "--seed", "1",
            "--out", str(pop),
        )[0] == 0
        code, _, err = run_cli(
            capsys, "exact", "--design", "srswor", "--estimator", "ht",
            "--functional", functional, "--n", "10", "--pop", str(pop),
        )
        assert code == 1
        assert message in err


class TestAsy:
    def test_constant_x_phi(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("x,y\n2.0,1.0\n2.0,2.0\n2.0,3.0\n2.0,4.0\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "asy", "--pop", str(path), "--functional", "mean", "--n", "2",
        )
        assert code == 0
        # phi = xbar (1 - n/N) = 2 * 0.5 = 1
        assert "phi   = 1" in out
        assert "undefined" in out  # regression-based classes degenerate

    def test_full_population_diagnostics(self, tiny_csv, capsys):
        code, out, _ = run_cli(
            capsys, "asy", "--pop", str(tiny_csv), "--functional", "mean", "--n", "2",
        )
        assert code == 0
        assert "class 1:" in out
        assert "class 9:" in out
        assert "srswor" in out


class TestRun:
    POPULATION = {"model": "univariate", "n_pop": 60, "seed": 2, "sigma": 10.0}

    def make_config(self, tmp_path, **overrides):
        doc = {
            "population": self.POPULATION,
            "cells": [
                {"design": "srswor", "estimator": "peml", "functional": "mean"},
                {"design": "srswor", "estimator": "greg", "functional": "mean"},
                {"design": "rhc", "estimator": "rhc", "functional": "mean"},
            ],
            "sample_sizes": [8],
            "replicates": 40,
            "seed": 99,
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_writes_csvs_and_summary(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        out_dir = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir),
        )
        assert code == 0
        for name in ("mse.csv", "re.csv", "ci.csv"):
            assert (out_dir / name).exists()
        with (out_dir / "mse.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        # summary prints the same numbers the CSV holds (6 significant digits)
        mse = float(rows[0]["mse"])
        assert f"{mse:.6g}" in stdout

    def test_deterministic_outputs(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out_dir in (out_a, out_b):
            code, _, _ = run_cli(
                capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir),
            )
            assert code == 0
        for name in ("mse.csv", "re.csv", "ci.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path / "t"),
            "--threads", "4",
        )
        assert code == 1
        assert "--threads" in err
        assert not (tmp_path / "t").exists()

    def test_infeasible_rao_sampford_exits_1(self, tmp_path, capsys):
        # n = 3 puts n x_i / sum(x) >= 1 for the large unit; n = 2 is feasible.
        # The config refuses it before any draw: a usage error, not a failure
        # of the computation
        pop_csv = tmp_path / "pop.csv"
        rows = "".join(f"{x},{i}.0\n" for i, x in enumerate([1.0] * 8 + [5.0]))
        pop_csv.write_text("x,y\n" + rows, encoding="utf-8")
        cfg = self.make_config(
            tmp_path,
            population={"csv": str(pop_csv), "y_columns": ["y"]},
            cells=[{"design": "rs", "estimator": "ht", "functional": "mean"}],
            sample_sizes=[2, 3],
        )
        out_dir = tmp_path / "rs"
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir),
        )
        assert code == 1
        assert err.startswith("error:") and "infeasible" in err
        assert not out_dir.exists()

    def test_uncreatable_out_dir_exits_1_before_the_run(self, tmp_path, capsys, monkeypatch):
        # a directory under a regular file fails before any replicate runs
        runs = []
        monkeypatch.setattr("finpop.cli.run_experiment", runs.append)
        (tmp_path / "p.csv").write_text("x,y\n", encoding="utf-8")
        cfg = self.make_config(tmp_path)
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path / "p.csv" / "sub"),
        )
        assert code == 1
        assert err.startswith("error:") and "p.csv" in err
        assert runs == []

    @pytest.mark.parametrize("existing", [[], ["out"], ["out", "out/deep"]],
                             ids=["none", "out", "out-deep"])
    def test_a_failed_run_removes_only_the_directories_it_made(
        self, tmp_path, capsys, existing
    ):
        # y values near 1e300 overflow once the run squares them: exit 2
        # after out/deep was made, and the levels made for the run go again
        for level in existing:
            (tmp_path / level).mkdir()
        cfg = self.make_config(tmp_path, population={**self.POPULATION, "sigma": 1e300})
        out_dir = tmp_path / "out" / "deep"
        code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 2 and err.startswith("computation failed:")
        left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert left == ["config.json", *existing]

    @pytest.mark.parametrize("population", ["", 5, ["model"]], ids=repr)
    def test_non_object_population_exits_1(self, tmp_path, capsys, population):
        # one error line, not an AttributeError traceback
        cfg = self.make_config(tmp_path, population=population)
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: population must be")

    def test_jackknife_below_three_units_exits_1(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, sample_sizes=[2], jackknife=True)
        out_dir = tmp_path / "jk"
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir),
        )
        assert code == 1
        assert "jackknife" in err and "sample_sizes" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("field,value", [
        ("sample_sizes", "75"), ("jackknife", "false"), ("replicates", 2.5),
        ("replicates", True), ("ci_level", "0.9"), ("ci_level", True),
        ("population.n_pop", 200.9), ("population.seed", "3"), ("population.seed", True),
    ], ids=repr)
    def test_config_values_are_not_coerced(self, tmp_path, capsys, field, value):
        # "75" used to run n = 7 and n = 5, "false" to turn the jackknife on,
        # and population n_pop 200.9 to run N = 200
        section, _, key = field.rpartition(".")
        overrides = {section: {**self.POPULATION, key: value}} if section else {key: value}
        cfg = self.make_config(tmp_path, **overrides)
        out_dir = tmp_path / "coerced"
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir),
        )
        assert code == 1
        assert key in err
        assert not out_dir.exists()

    def test_unknown_functional_exits_1_and_lists_choices(self, tmp_path, capsys):
        # "regression" was an undocumented alias of regression12
        cell = {"design": "srswor", "estimator": "hajek", "functional": "regression"}
        cfg = self.make_config(tmp_path, cells=[cell])
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "'regression'" in err and "'regression12'" in err and "'regression21'" in err

    def test_unknown_config_field_exits_1(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, bogus_field=1)
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "bogus_field" in err

    def test_missing_config_field_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"cells": []}), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert "population" in err

    def test_invalid_cell_pair_exits_1(self, tmp_path, capsys):
        cfg = self.make_config(
            tmp_path,
            cells=[{"design": "rhc", "estimator": "ht", "functional": "mean"}],
        )
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1

    @pytest.mark.parametrize(
        "cells",
        [5, [{"design": ["srswor"], "estimator": "ht", "functional": "mean"}]],
    )
    def test_malformed_cells_exit_1(self, tmp_path, capsys, cells):
        cfg = self.make_config(tmp_path, cells=cells)
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error: ")

    def test_csv_population_defaults_to_every_column_but_x(self, tmp_path, capsys):
        # as in load_csv, exact and asy: leaving y_columns out names z1 and z2
        pop_csv = tmp_path / "pop.csv"
        code, _, _ = run_cli(
            capsys, "gen", "--model", "bivariate", "--n-pop", "40", "--seed", "5",
            "--out", str(pop_csv),
        )
        assert code == 0
        cells = [{"design": "srswor", "estimator": "hajek", "functional": "correlation"}]
        outputs = []
        for y_columns in ({}, {"y_columns": ["z1", "z2"]}):
            population = {"csv": str(pop_csv), **y_columns}
            cfg = self.make_config(tmp_path, population=population, cells=cells)
            out_dir = tmp_path / f"out{len(outputs)}"
            code, _, _ = run_cli(
                capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir),
            )
            assert code == 0
            outputs.append([(out_dir / name).read_bytes() for name in ("mse.csv", "ci.csv")])
        assert outputs[0] == outputs[1]

    def test_baseline_given_as_a_cell_is_that_cell(self, tmp_path, capsys):
        rhc = {"design": "rhc", "estimator": "rhc", "functional": "mean"}
        outputs = []
        for baseline in (2, rhc):
            cfg = self.make_config(tmp_path, baseline=baseline)
            out_dir = tmp_path / f"out{len(outputs)}"
            code, _, _ = run_cli(
                capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir),
            )
            assert code == 0
            outputs.append([(out_dir / n).read_bytes() for n in ("mse.csv", "re.csv", "ci.csv")])
        assert outputs[0] == outputs[1]

    def test_baseline_cell_must_be_configured(self, tmp_path, capsys):
        ht = {"design": "srswor", "estimator": "ht", "functional": "mean"}
        cfg = self.make_config(tmp_path, baseline=ht)
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert err == "error: baseline cell is not among the configured cells\n"

    @pytest.mark.parametrize("text", [None, "{"], ids=["missing", "not_json"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, text):
        # a missing config follows the rule for every unreadable file
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(path) in err if text is None else "config is not valid JSON" in err

    @pytest.mark.parametrize("population, message", [
        ({"n_pop": 60, "seed": 2}, "model must be 'univariate' or 'bivariate'"),
        ({"model": "trivariate", "n_pop": 60, "seed": 2},
         "model must be 'univariate' or 'bivariate'"),
        ({"model": "univariate", "seed": 2}, "n_pop is required with population.model"),
        ({"model": "univariate", "n_pop": 60}, "seed is required with population.model"),
    ], ids=["no_model", "unknown_model", "no_n_pop", "no_seed"])
    def test_synthetic_population_needs_model_size_and_seed(
        self, tmp_path, capsys, population, message
    ):
        cfg = self.make_config(tmp_path, population=population)
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert err == f"error: population.{message}\n"

    def test_zero_subject_mse_gives_nan_relative_efficiency(self, tmp_path, capsys):
        # y = 0 on every unit: every estimate and the truth are exactly 0
        pop_csv = tmp_path / "zero.csv"
        rows = "".join(f"{1 + i % 3}.0,0.0\n" for i in range(30))
        pop_csv.write_text("x,y\n" + rows, encoding="utf-8")
        cfg = self.make_config(tmp_path, population={"csv": str(pop_csv)})
        out_dir = tmp_path / "zero"
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        with (out_dir / "mse.csv").open() as fh:
            assert [r["mse"] for r in csv.DictReader(fh)] == ["0.0"] * 3
        with (out_dir / "re.csv").open() as fh:
            assert [r["re"] for r in csv.DictReader(fh)] == ["nan", "nan"]

    @pytest.mark.parametrize("sizes", [[], [8, 8]], ids=repr)
    def test_empty_or_repeated_sample_sizes_exit_1(self, tmp_path, capsys, sizes):
        cfg = self.make_config(tmp_path, sample_sizes=sizes)
        out_dir = tmp_path / "sizes"
        code, _, err = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir),
        )
        assert code == 1
        assert err.startswith("error:") and "sample_sizes" in err
        assert not out_dir.exists()

    def test_missing_population_csv_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "gone.csv"
        cfg = self.make_config(tmp_path, population={"csv": str(missing), "y_columns": ["y"]})
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:") and str(missing) in err

    def test_gen_then_run_pipeline(self, tmp_path, capsys):
        pop_csv = tmp_path / "pop.csv"
        code, _, _ = run_cli(
            capsys, "gen", "--model", "univariate", "--n-pop", "80",
            "--seed", "6", "--out", str(pop_csv),
        )
        assert code == 0
        cfg = self.make_config(
            tmp_path,
            population={"csv": str(pop_csv), "x_column": "x", "y_columns": ["y"]},
        )
        out_dir = tmp_path / "pipe"
        code, stdout, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir),
        )
        assert code == 0
        with (out_dir / "re.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        # baseline cell (default: first) against the two others
        assert len(rows) == 2
        assert all(float(r["re"]) > 0 for r in rows)


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--nope")
        assert code == 1
        assert err

    def test_unknown_functional_exits_1(self, tiny_csv, capsys):
        code, _, err = run_cli(
            capsys, "asy", "--pop", str(tiny_csv), "--functional", "median",
            "--n", "2",
        )
        assert code == 1
        assert "median" in err

    def test_missing_population_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.csv"
        code, _, err = run_cli(
            capsys, "exact", "--design", "srswor", "--estimator", "ht",
            "--functional", "mean", "--n", "2", "--pop", str(missing),
        )
        assert code == 1
        assert err.startswith("error:") and str(missing) in err
        assert "Traceback" not in err

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        out = tmp_path / "nonexistent" / "dir" / "p.csv"
        code, _, err = run_cli(
            capsys, "gen", "--model", "univariate", "--n-pop", "10", "--seed", "1",
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and str(out) in err
        assert "Traceback" not in err


def run_capped(argv, cwd):
    """Run ``argv`` in a child process whose address space is capped at 1 GiB,
    with this finpop importable; returns the completed process."""
    def cap():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    env = dict(os.environ, PYTHONPATH=str(Path(finpop.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120, preexec_fn=cap)


class TestExitCodes:
    @pytest.mark.parametrize("entry", ["gen", "run"])
    def test_an_allocation_the_host_refuses_exits_2(self, tmp_path, entry):
        # 2**40 units ask numpy for 8 TiB, which the capped child cannot map
        if entry == "gen":
            args = ["gen", "--model", "univariate", "--n-pop", str(2**40), "--seed", "1",
                    "--out", "p.csv"]
        else:
            doc = {"population": {"model": "univariate", "n_pop": 2**40, "seed": 1},
                   "cells": [{"design": "srswor", "estimator": "ht", "functional": "mean"}],
                   "sample_sizes": [3], "replicates": 5, "seed": 1}
            (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
            args = ["run", "--config", "config.json"]
        proc = run_capped(["-m", "finpop.cli", *args], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("computation failed: Unable to allocate")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["gen", "asy", "run"])
    def test_an_overflow_exits_2_with_one_line(self, tmp_path, capsys, command):
        # finite values whose products or squares overflow a float: numpy
        # warnings used to precede an error line, a traceback or an inf MSE
        path = tmp_path / "big.csv"
        path.write_text("x,y\n" + "".join(f"{i}.0,{i}e300\n" for i in range(1, 7)),
                        encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "population": {"csv": str(path)}, "sample_sizes": [3], "replicates": 5, "seed": 1,
            "cells": [{"design": "srswor", "estimator": "ht", "functional": "mean"}],
        }), encoding="utf-8")
        argv = {
            "gen": ["gen", "--model", "univariate", "--n-pop", "30", "--seed", "1",
                    "--out", str(tmp_path / "p.csv"), "--alpha", "1e308", "--beta", "1e308"],
            "asy": ["asy", "--pop", str(path), "--functional", "mean", "--n", "2"],
            "run": ["run", "--config", str(config), "--out-dir", str(tmp_path / "out")],
        }[command]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("computation failed: overflow") and err.count("\n") == 1

    def test_fuzzed_flags_and_configs_keep_the_exit_code_contract(self, tmp_path):
        # every case exits 0, 1 or 2: a success prints nothing on stderr and
        # a failure one line, never a traceback; the cases are in cli_fuzz.py
        proc = run_capped([str(Path(__file__).with_name("cli_fuzz.py")), "7", str(tmp_path)],
                          tmp_path)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["bad"] == []
        assert result["cases"] > 400 and set(result["exits"]) == {"0", "1", "2"}
