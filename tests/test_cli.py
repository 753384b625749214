import csv
import json

import numpy as np
import pytest

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


class TestExact:
    def test_unbiased_ht_prints_zero_bias(self, tiny_csv, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--design", "srswor", "--estimator", "ht",
            "--functional", "mean", "--n", "2", "--pop", str(tiny_csv),
        )
        assert code == 0
        assert "bias:         0.000000000000" in out
        assert "support size: 6" in out

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
    def make_config(self, tmp_path, **overrides):
        doc = {
            "population": {"model": "univariate", "n_pop": 60, "seed": 2,
                           "sigma": 10.0},
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

    def test_infeasible_rao_sampford_exits_2(self, tmp_path, capsys):
        # n = 3 puts n x_i / sum(x) >= 1 for the large unit; n = 2 is feasible
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
        assert code == 2
        assert "infeasible" in err
        assert not out_dir.exists()

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

    def test_csv_population_requires_y_columns(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, population={"csv": "whatever.csv"})
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "y_columns" in err

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
