import numpy as np
import pytest

from finpop import (
    IngestionError,
    LinearModelSpec,
    ParameterError,
    Population,
    default_bivariate_spec,
    default_univariate_spec,
    generate_bivariate,
    generate_univariate,
    load_csv,
    write_csv,
)


class TestPopulationInvariants:
    def test_basic_fields(self, pop4):
        assert pop4.n_units == 4
        assert pop4.d == 1
        assert pop4.x_bar() == pytest.approx(2.5)
        assert pop4.x_total() == pytest.approx(10.0)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ParameterError):
            Population(x=np.array([1.0, 0.0, 2.0]), y=np.zeros(3))
        with pytest.raises(ParameterError):
            Population(x=np.array([1.0, -2.0, 2.0]), y=np.zeros(3))

    def test_rejects_too_small_or_mismatched(self):
        with pytest.raises(ParameterError):
            Population(x=np.array([1.0]), y=np.array([1.0]))
        with pytest.raises(ParameterError):
            Population(x=np.array([1.0, 2.0]), y=np.zeros((3, 1)))
        with pytest.raises(ParameterError):
            Population(x=np.array([1.0, np.inf]), y=np.zeros(2))

    def test_arrays_are_read_only(self, pop4):
        with pytest.raises(ValueError):
            pop4.x[0] = 9.0
        with pytest.raises(ValueError):
            pop4.y[0, 0] = 9.0


class TestGeneration:
    def test_default_univariate_moments(self):
        # x ~ gamma(mean 1000, sd 200): the sample mean of 5000 draws stays
        # within 3 standard errors of 1000
        for seed in (0, 1, 12345):
            pop = generate_univariate(default_univariate_spec(), 5000, seed)
            assert abs(pop.x_bar() - 1000.0) < 3 * 200.0 / np.sqrt(5000)

    def test_zero_noise_is_exactly_linear(self):
        spec = LinearModelSpec(alpha=500.0, beta=1.0, sigma_eps=0.0)
        pop = generate_univariate(spec, 200, seed=7)
        np.testing.assert_array_equal(pop.y[:, 0], 500.0 + pop.x)

    def test_zero_noise_regression_slope_is_beta(self):
        spec = LinearModelSpec(alpha=250.0, beta=1.75, sigma_eps=0.0)
        pop = generate_univariate(spec, 500, seed=3)
        x, y = pop.x, pop.y[:, 0]
        slope = ((x * y).mean() - x.mean() * y.mean()) / ((x * x).mean() - x.mean() ** 2)
        assert slope == pytest.approx(1.75, abs=1e-12)

    def test_same_seed_bitwise_identical(self):
        spec = default_univariate_spec()
        a = generate_univariate(spec, 300, seed=42)
        b = generate_univariate(spec, 300, seed=42)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        c = generate_univariate(spec, 300, seed=43)
        assert not np.array_equal(a.x, c.x)

    def test_bivariate_shape_and_defaults(self):
        pop = generate_bivariate(default_bivariate_spec(), 1000, seed=5)
        assert pop.d == 2
        # intercepts 500 and 1000 on top of the same x
        assert abs(pop.y[:, 1].mean() - pop.y[:, 0].mean() - 500.0) < 40.0

    def test_bivariate_zero_noise_perfectly_correlated(self):
        spec = LinearModelSpec(
            alpha=(500.0, 1000.0), beta=(1.0, 1.0), sigma_eps=(0.0, 0.0)
        )
        pop = generate_bivariate(spec, 400, seed=2)
        corr = np.corrcoef(pop.y[:, 0], pop.y[:, 1])[0, 1]
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_bivariate_default_correlation(self):
        # with sd(x)=200 and noise sds (100, 200):
        # corr = 1 / sqrt((1 + 100^2/200^2)(1 + 200^2/200^2)) ~ 0.6325
        target = 1.0 / np.sqrt((1 + 0.25) * (1 + 1.0))
        pop = generate_bivariate(default_bivariate_spec(), 1_000_000, seed=9)
        corr = np.corrcoef(pop.y[:, 0], pop.y[:, 1])[0, 1]
        assert abs(corr - target) < 0.01

    def test_invalid_spec_parameters(self):
        with pytest.raises(ParameterError):
            LinearModelSpec(sigma_eps=-1.0)
        with pytest.raises(ParameterError):
            LinearModelSpec(gamma_mean=0.0)
        with pytest.raises(ParameterError):
            LinearModelSpec(gamma_sd=-5.0)
        with pytest.raises(ParameterError):
            LinearModelSpec(alpha=(1.0, 2.0), beta=(1.0, 2.0, 3.0))
        with pytest.raises(ParameterError):
            generate_univariate(default_univariate_spec(), 1, seed=0)
        with pytest.raises(ParameterError):
            generate_univariate(default_bivariate_spec(), 100, seed=0)
        with pytest.raises(ParameterError):
            generate_bivariate(default_univariate_spec(), 100, seed=0)

    @pytest.mark.parametrize("n_pop,seed,field", [
        (200.9, 1, "n_pop"), (200, "3", "seed"), (200, True, "seed"), (200, -1, "seed"),
    ], ids=repr)
    def test_size_and_seed_are_checked_not_coerced(self, n_pop, seed, field):
        # int() used to turn n_pop 200.9 into N = 200 and seed "3" into 3
        with pytest.raises(ParameterError, match=field):
            generate_univariate(default_univariate_spec(), n_pop, seed)


class TestCsv:
    def test_load_small_file(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("x,y\n1.5,2.0\n2.5,3.0\n3.5,4.0\n", encoding="utf-8")
        pop = load_csv(path, "x", ["y"])
        assert pop.n_units == 3
        np.testing.assert_allclose(pop.x, [1.5, 2.5, 3.5])
        np.testing.assert_allclose(pop.y[:, 0], [2.0, 3.0, 4.0])

    def test_nonpositive_x_cites_row(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("x,y\n1.0,2.0\n0.0,3.0\n2.0,4.0\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="row 2"):
            load_csv(path, "x", ["y"])

    def test_non_numeric_cites_row_and_column(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("x,y\n1.0,2.0\n2.0,oops\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="row 2.*'y'"):
            load_csv(path, "x", ["y"])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("x,y\n1.0,2.0\n2.0,3.0\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="z"):
            load_csv(path, "x", ["z"])

    def test_round_trip(self, tmp_path):
        pop = generate_bivariate(default_bivariate_spec(), 50, seed=13)
        path = tmp_path / "rt.csv"
        write_csv(pop, path)
        back = load_csv(path, "x", ["z1", "z2"])
        np.testing.assert_array_equal(back.x, pop.x)
        np.testing.assert_array_equal(back.y, pop.y)

    def test_default_y_columns_are_the_others_in_file_order(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("b, x ,a\n1.0,2.0,3.0\n4.0,5.0,6.0\n", encoding="utf-8")
        pop = load_csv(path, "x")
        np.testing.assert_array_equal(pop.x, [2.0, 5.0])
        np.testing.assert_array_equal(pop.y, [[1.0, 3.0], [4.0, 6.0]])

    def test_a_file_with_only_the_x_column_is_refused(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("x\n1.0\n2.0\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="y column"):
            load_csv(path, "x")
