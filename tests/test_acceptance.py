"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a failing assertion marks the criterion FAIL via pytest itself.

The Monte Carlo criteria use pinned seeds: with a different generator the
exact numbers move, and the stated tolerance windows absorb that spread.
"""

import time

import numpy as np
import pytest

from finpop import (
    AsymptoticContext,
    Cell,
    CORRELATION,
    DesignKind,
    EstimatorKind,
    ExperimentConfig,
    MEAN,
    Population,
    VARIANCE,
    default_bivariate_spec,
    default_univariate_spec,
    delta_sq,
    draw,
    enumerate_design,
    estimate_mean,
    generate_bivariate,
    generate_univariate,
    inclusion_probabilities,
    exact_moments,
    gamma_coeff,
    jackknife_bc,
    peml_weights,
    plug_in,
    regression_coef,
    rhc_group_sizes,
    run_experiment,
)

S, L, R, H = (
    DesignKind.SRSWOR,
    DesignKind.LMS,
    DesignKind.RAO_SAMPFORD,
    DesignKind.RHC,
)
E = EstimatorKind


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d}: PASS  ({detail})")


def random_tiny_population(rng, n_max=8):
    N = int(rng.integers(5, n_max + 1))
    x = rng.uniform(0.5, 3.0, size=N)
    y = rng.normal(size=N) * 3.0 + 5.0
    return Population(x=x, y=y)


@pytest.fixture(scope="module")
def uni_pop():
    return generate_univariate(default_univariate_spec(), 5000, seed=4)


@pytest.fixture(scope="module")
def biv_pop():
    return generate_bivariate(default_bivariate_spec(), 5000, seed=4)


def test_criterion_01_exact_design_validity():
    """Enumerated SRSWOR/LMS/RHC probabilities sum to 1 and LMS inclusion
    probabilities match the closed form, both within 1e-12, in under 1 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_total = 0.0
    worst_lms = 0.0
    for _ in range(6):
        pop = random_tiny_population(rng)
        n = int(rng.integers(2, 4))
        for design in (S, L, H):
            support = enumerate_design(design, pop, n)
            worst_total = max(worst_total, abs(sum(p for _, p in support) - 1.0))
        lms_support = enumerate_design(L, pop, n)
        freq = np.zeros(pop.n_units)
        for s, p in lms_support:
            freq[s.indices] += p
        closed = inclusion_probabilities(L, pop, n)
        worst_lms = max(worst_lms, float(np.max(np.abs(freq - closed))))
    elapsed = time.perf_counter() - t0
    assert worst_total < 1e-12
    assert worst_lms < 1e-12
    assert elapsed < 1.0
    report(1, f"prob sums off by {worst_total:.1e}, LMS pi off by "
              f"{worst_lms:.1e}, {elapsed:.2f}s")


def test_criterion_02_unbiasedness_oracle():
    """HT mean under SRSWOR and LMS, and the RHC mean under RHC, have exact
    bias below 1e-12 on 20 randomized tiny populations, in under 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        pop = random_tiny_population(rng)
        n = int(rng.integers(2, 4))
        worst = max(
            worst,
            abs(exact_moments(S, pop, n, E.HT, MEAN).bias),
            abs(exact_moments(L, pop, n, E.HT, MEAN).bias),
            abs(exact_moments(H, pop, n, E.RHC_EST, MEAN).bias),
        )
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 5.0
    report(2, f"worst |bias| {worst:.1e} over 60 design cases, {elapsed:.2f}s")


def test_criterion_03_pps_property():
    """Rao-Sampford empirical inclusion frequencies over 1e5 draws stay within
    4 standard errors of n x_i / sum(x) on an N=10 population, in under 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    x = rng.uniform(1.0, 4.0, size=10)
    pop = Population(x=x, y=np.zeros(10))
    n = 3
    pi = inclusion_probabilities(R, pop, n)
    m = 100_000
    counts = np.zeros(10)
    for _ in range(m):
        counts[draw(R, pop, n, rng).indices] += 1
    freq = counts / m
    se = np.sqrt(pi * (1 - pi) / m)
    z = np.abs(freq - pi) / se
    elapsed = time.perf_counter() - t0
    assert float(z.max()) < 4.0
    assert elapsed < 10.0
    report(3, f"max |freq - pi| = {float(z.max()):.2f} standard errors, "
              f"{elapsed:.1f}s")


def test_criterion_04_peml_correctness():
    """On 1000 random samples the calibrated weights satisfy both constraints
    to 1e-8 relative, stay positive, and beat 1000 random feasible
    competitors each, in under 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(1000):
        n = int(rng.integers(3, 30))
        x = rng.uniform(0.5, 5.0, size=n)
        span = x.max() - x.min()
        x_bar = rng.uniform(x.min() + 0.02 * span, x.max() - 0.02 * span)
        d = rng.uniform(0.1, 2.0, size=n)
        c = peml_weights(d, x, x_bar)
        assert np.all(c > 0)
        assert abs(c.sum() - 1.0) < 1e-8
        assert abs(c @ x - x_bar) < 1e-8 * max(1.0, abs(x_bar))
        dt = d / d.sum()
        objective = dt @ np.log(c)
        # competitors: random directions in the constraint null space,
        # scaled to keep every weight positive
        null = np.linalg.svd(np.vstack([np.ones(n), x]))[2][2:]
        dirs = rng.normal(size=(1000, null.shape[0])) @ null
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        t_max = np.min(np.where(dirs < 0, c / -dirs, np.inf), axis=1)
        steps = rng.uniform(0.05, 0.95, size=1000) * t_max
        competitors = c + steps[:, None] * dirs
        assert np.all(competitors > 0)
        assert np.all(objective >= np.log(competitors) @ dt - 1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, f"10^3 solves x 10^3 competitors, {elapsed:.1f}s")


def test_criterion_05_coincidence_identities():
    """HT = Hajek under SRSWOR and HT = ratio = product under Rao-Sampford,
    within 1e-12 on every draw."""
    rng = np.random.default_rng(105)
    for _ in range(200):
        N = int(rng.integers(5, 12))
        pop = Population(
            x=rng.uniform(0.5, 3.0, size=N), y=rng.normal(size=N) * 4.0
        )
        n = int(rng.integers(2, min(5, N)))
        s = draw(S, pop, n, rng)
        h = pop.y[s.indices][:, 0]
        ht = estimate_mean(E.HT, s, pop, h)
        hajek = estimate_mean(E.HAJEK, s, pop, h)
        assert abs(ht - hajek) <= 1e-12 * max(1.0, abs(ht))
        if n * pop.x.max() / pop.x_total() < 1:
            r = draw(R, pop, n, rng)
            hr = pop.y[r.indices][:, 0]
            ht = estimate_mean(E.HT, r, pop, hr)
            ra = estimate_mean(E.RATIO, r, pop, hr)
            pr = estimate_mean(E.PRODUCT, r, pop, hr)
            assert abs(ht - ra) <= 1e-12 * max(1.0, abs(ht))
            assert abs(ht - pr) <= 1e-12 * max(1.0, abs(ht))
    report(5, "200 random draws, identities hold to 1e-12")


def test_criterion_06_class_mse_algebra():
    """Class-2 minus class-1 identity to 1e-10 relative, class 1 below
    classes 2-4 on 100 random populations, and classes 8-9 vanish when the
    linearized values are proportional to x."""
    rng = np.random.default_rng(106)
    for _ in range(100):
        N = int(rng.integers(5, 15))
        pop = Population(
            x=rng.uniform(0.5, 4.0, size=N), y=rng.normal(size=N) * 2.0 + 1.0
        )
        n = int(rng.integers(2, N))
        ctx = AsymptoticContext.compute(pop, MEAN, n)
        d1, d2 = delta_sq(1, ctx), delta_sq(2, ctx)
        identity = (1 - n / N) * ctx.s_xw**2 / ctx.s2_x
        assert d2 - d1 == pytest.approx(identity, rel=1e-10, abs=1e-13)
        assert d1 <= min(delta_sq(3, ctx), delta_sq(4, ctx), d2) + 1e-12
    x = np.linspace(1.0, 9.0, 12)
    prop = Population(x=x, y=4.0 * x)
    ctx = AsymptoticContext.compute(prop, MEAN, 3)
    assert delta_sq(8, ctx) == pytest.approx(0.0, abs=1e-10)
    assert delta_sq(9, ctx) == pytest.approx(0.0, abs=1e-10)
    report(6, "identity, ordering and proportional-x degeneracy verified")


def test_criterion_07_benchmark_reproduction(uni_pop):
    """The synthetic mean-estimation benchmark (N=5000, I=1000, n=100)
    reproduces the published relative-efficiency table: the PEML/SRSWOR cell
    has the smallest MSE, RE against HT/RS lands in [1.5, 2.7], RE against
    GREG/SRSWOR in [0.98, 1.10], and all eight REs exceed 0.95.  Runs in
    under 5 minutes single-threaded."""
    t0 = time.perf_counter()
    cells = (
        Cell(S, E.PEML, MEAN), Cell(S, E.GREG, MEAN),
        Cell(R, E.HT, MEAN), Cell(R, E.HAJEK, MEAN),
        Cell(R, E.PEML, MEAN), Cell(R, E.GREG, MEAN),
        Cell(H, E.RHC_EST, MEAN), Cell(H, E.PEML, MEAN), Cell(H, E.GREG, MEAN),
    )
    cfg = ExperimentConfig(
        population=uni_pop, cells=cells, sample_sizes=(100,), replicates=1000,
        seed=1, baseline=0,
    )
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    mses = {c: rep.result_for(c, 100).mse for c in cells}
    res = {c: rep.re_for(cells[0], c, 100) for c in cells[1:]}
    re_ht_rs = res[Cell(R, E.HT, MEAN)]
    re_greg_s = res[Cell(S, E.GREG, MEAN)]
    assert 1.5 <= re_ht_rs <= 2.7
    assert 0.98 <= re_greg_s <= 1.10
    assert all(v > 0.95 for v in res.values())
    assert mses[cells[0]] == min(mses.values())
    assert elapsed < 300.0
    report(7, f"RE vs HT/RS {re_ht_rs:.3f}, vs GREG/SRSWOR {re_greg_s:.3f}, "
              f"min RE {min(res.values()):.3f}, {elapsed:.1f}s")


def test_criterion_08_functional_orderings(biv_pop):
    """On the bivariate benchmark population at n=125 (I=1000), the PEML
    plug-in under SRSWOR beats the Hajek plug-in under SRSWOR for the
    variance, the correlation coefficient and both regression coefficients
    (RE above the 0.97 noise floor)."""
    var_pop = Population(x=biv_pop.x, y=biv_pop.y[:, :1])
    cases = [
        (VARIANCE, var_pop),
        (CORRELATION, biv_pop),
        (regression_coef(0, 1), biv_pop),
        (regression_coef(1, 0), biv_pop),
    ]
    values = {}
    for f, pop in cases:
        peml = Cell(S, E.PEML, f)
        hajek = Cell(S, E.HAJEK, f)
        cfg = ExperimentConfig(
            population=pop, cells=(peml, hajek), sample_sizes=(125,),
            replicates=1000, seed=1, baseline=0,
        )
        values[f.name] = run_experiment(cfg).re_for(peml, hajek, 125)
    assert all(v > 0.97 for v in values.values()), values
    detail = " ".join(f"{k}={v:.3f}" for k, v in values.items())
    report(8, detail)


def test_criterion_09_confidence_intervals(uni_pop):
    """Mean/HT intervals under SRSWOR at n=125 cover the truth with rate in
    [0.92, 0.97]; the PEML interval (SRSWOR) is shorter on average than the
    HT interval under Rao-Sampford sampling."""
    cells = (Cell(S, E.HT, MEAN), Cell(S, E.PEML, MEAN), Cell(R, E.HT, MEAN))
    cfg = ExperimentConfig(
        population=uni_pop, cells=cells, sample_sizes=(125,), replicates=1000,
        seed=1, baseline=None,
    )
    rep = run_experiment(cfg)
    coverage = rep.result_for(cells[0], 125).coverage
    peml_len = rep.result_for(cells[1], 125).ci_mean_length
    ht_rs_len = rep.result_for(cells[2], 125).ci_mean_length
    assert 0.92 <= coverage <= 0.97
    assert peml_len < ht_rs_len
    report(9, f"coverage {coverage:.3f}, PEML length {peml_len:.1f} < "
              f"HT/RS length {ht_rs_len:.1f}")


def test_criterion_10_jackknife(uni_pop):
    """Jackknifing the Hajek mean under SRSWOR returns the original estimate
    to 1e-10 (linear statistic); bias-correcting the PEML variance plug-in
    at n=75 (I=1000) inflates its empirical MSE."""
    rng = np.random.default_rng(110)
    for _ in range(5):
        s = draw(S, uni_pop, 10, rng)
        plain = plug_in(MEAN, E.HAJEK, s, uni_pop)
        bc = jackknife_bc(s, uni_pop, MEAN, E.HAJEK)
        assert abs(bc - plain) <= 1e-10 * max(1.0, abs(plain))
    cell = Cell(S, E.PEML, VARIANCE)
    cfg = ExperimentConfig(
        population=uni_pop, cells=(cell,), sample_sizes=(75,), replicates=1000,
        seed=1, jackknife=True, baseline=None,
    )
    res = run_experiment(cfg).result_for(cell, 75)
    assert res.bc_failures == 0
    assert res.bc_mse > res.mse
    report(10, f"linearity exact; BC inflates variance MSE by "
               f"{res.bc_mse / res.mse - 1.0:+.1%}")


def test_criterion_11_gamma_closed_forms():
    """The group-size coefficient matches (N-n)/(N-1)/n whenever n divides N
    and its large-population limit at N=1000, n=100 within 2%."""
    for N, n in [(10, 5), (100, 10), (1000, 100), (24, 6)]:
        assert N % n == 0
        assert gamma_coeff(N, n) == pytest.approx(
            (N - n) / (N - 1) / n, abs=1e-15
        )
    lam = 0.1
    limit = lam * np.floor(1 / lam) * (2 - lam * np.floor(1 / lam) - lam)
    n_gamma = 100 * gamma_coeff(1000, 100)
    assert abs(n_gamma - limit) / limit < 0.02
    # the general sizes rule stays consistent with the direct definition
    for N, n in [(7, 3), (11, 4), (1003, 97)]:
        sizes = rhc_group_sizes(N, n)
        direct = float(np.sum(sizes * (sizes - 1)) / (N * (N - 1)))
        assert gamma_coeff(N, n) == pytest.approx(direct, abs=1e-15)
    report(11, f"n*gamma(1000,100) = {n_gamma:.4f} vs limit {limit:.1f}")
