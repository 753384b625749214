import gc
from collections import Counter
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from scipy import stats

from finpop import designs
from finpop import (
    DesignKind,
    DrawFailureError,
    EnumerationTooLargeError,
    InfeasibleError,
    ParameterError,
    Population,
    SampleDraw,
    UnsupportedQueryError,
    draw,
    enumerate_design,
    inclusion_probabilities,
    rhc_group_sizes,
)
from conftest import drop_unit, random_population


class TestInclusionProbabilities:
    def test_srswor_equal(self, pop5):
        pi = inclusion_probabilities(DesignKind.SRSWOR, pop5, 2)
        np.testing.assert_allclose(pi, 0.4)

    def test_lms_closed_form(self, pop4):
        pi = inclusion_probabilities(DesignKind.LMS, pop4, 2)
        np.testing.assert_allclose(pi, [0.4, 7 / 15, 8 / 15, 0.6], atol=1e-15)
        assert abs(pi.sum() - 2.0) < 1e-10

    def test_rao_sampford_pps(self, pop4):
        pi = inclusion_probabilities(DesignKind.RAO_SAMPFORD, pop4, 2)
        np.testing.assert_allclose(pi, [0.2, 0.4, 0.6, 0.8], atol=1e-15)

    def test_sums_to_n(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            pop = random_population(rng)
            n = int(rng.integers(2, pop.n_units))
            for design in (DesignKind.SRSWOR, DesignKind.LMS):
                pi = inclusion_probabilities(design, pop, n)
                assert abs(pi.sum() - n) < 1e-10

    def test_rhc_unsupported(self, pop4):
        with pytest.raises(UnsupportedQueryError):
            inclusion_probabilities(DesignKind.RHC, pop4, 2)

    def test_pps_infeasible_lists_units(self):
        pop = Population(x=np.array([1.0, 1.0, 1.0, 10.0]), y=np.zeros(4))
        with pytest.raises(InfeasibleError, match="3"):
            inclusion_probabilities(DesignKind.RAO_SAMPFORD, pop, 2)

    def test_bad_n(self, pop4):
        for n in (0, 1, 4, 5):
            with pytest.raises(ParameterError):
                inclusion_probabilities(DesignKind.SRSWOR, pop4, n)


class TestRhcGroupSizes:
    def test_integer_ratio(self):
        np.testing.assert_array_equal(rhc_group_sizes(10, 5), [2, 2, 2, 2, 2])

    def test_non_integer(self):
        np.testing.assert_array_equal(rhc_group_sizes(7, 3), [2, 2, 3])
        np.testing.assert_array_equal(rhc_group_sizes(5, 2), [2, 3])

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            N = int(rng.integers(4, 60))
            n = int(rng.integers(2, N))
            sizes = rhc_group_sizes(N, n)
            assert sizes.sum() == N
            assert len(sizes) == n
            assert np.all(np.diff(sizes) >= 0)
            assert sizes.max() - sizes.min() <= 1


class TestDraw:
    def test_srswor_uniform_over_subsets(self, pop4):
        rng = np.random.default_rng(7)
        m = 60_000
        counts = Counter()
        for _ in range(m):
            s = draw(DesignKind.SRSWOR, pop4, 2, rng)
            counts[frozenset(s.indices.tolist())] += 1
        assert len(counts) == 6
        se = np.sqrt((1 / 6) * (5 / 6) / m)
        for freq in counts.values():
            assert abs(freq / m - 1 / 6) < 3 * se

    def test_lms_sample_probability(self, pop4):
        # P({3,4}) = (xbar_s / Xbar) / C(4,2) = (3.5/2.5)/6 = 7/30
        rng = np.random.default_rng(11)
        m = 60_000
        hits = 0
        for _ in range(m):
            s = draw(DesignKind.LMS, pop4, 2, rng)
            if frozenset(s.indices.tolist()) == frozenset({2, 3}):
                hits += 1
        p = 7 / 30
        se = np.sqrt(p * (1 - p) / m)
        assert abs(hits / m - p) < 3 * se

    def test_rao_sampford_inclusion_frequencies(self, pop4):
        rng = np.random.default_rng(13)
        m = 20_000
        counts = np.zeros(4)
        for _ in range(m):
            s = draw(DesignKind.RAO_SAMPFORD, pop4, 2, rng)
            counts[s.indices] += 1
        target = np.array([0.2, 0.4, 0.6, 0.8])
        se = np.sqrt(target * (1 - target) / m)
        assert np.all(np.abs(counts / m - target) < 4 * se)

    def test_rao_sampford_sample_frequencies_match_exact(self):
        # the rejective sampler against Sampford's enumerated P(s), subset
        # by subset, at N=6, n=3 (20 subsets, smallest P(s) about 0.0016)
        pop = Population(x=np.arange(1.0, 7.0), y=np.zeros(6))
        support = enumerate_design(DesignKind.RAO_SAMPFORD, pop, 3)
        rng = np.random.default_rng(31)
        m = 10_000
        drawn = np.array([draw(DesignKind.RAO_SAMPFORD, pop, 3, rng).indices for _ in range(m)])
        # a subset's bitmask names it whatever the order of its units
        masks = (1 << drawn).sum(axis=1)
        observed = np.array([(masks == k).sum() for k in (1 << support.batch.indices).sum(axis=1)])
        assert observed.sum() == m
        expected = m * support.probs
        assert stats.chisquare(observed, expected).pvalue > 1e-3
        z = (observed - expected) / np.sqrt(expected * (1 - support.probs))
        assert np.abs(z).max() < 4.0

    def test_rhc_draw_invariants(self, pop5):
        rng = np.random.default_rng(17)
        for _ in range(200):
            s = draw(DesignKind.RHC, pop5, 2, rng)
            assert s.design is DesignKind.RHC
            assert s.n == 2
            assert np.unique(s.indices).size == 2
            # the groups partition the population
            assert s.g_totals.sum() == pytest.approx(pop5.x_total(), rel=1e-12)
            # a unit's group total includes its own x value
            assert np.all(s.g_totals >= pop5.x[s.indices] - 1e-12)

    def test_pi_draws_carry_formula_values(self, pop4):
        rng = np.random.default_rng(19)
        for design in (DesignKind.SRSWOR, DesignKind.LMS, DesignKind.RAO_SAMPFORD):
            pi_all = inclusion_probabilities(design, pop4, 2)
            s = draw(design, pop4, 2, rng)
            np.testing.assert_allclose(s.pi, pi_all[s.indices])

    def test_draw_is_deterministic_given_stream(self, pop5):
        for design in DesignKind:
            a = draw(design, pop5, 2, np.random.default_rng(23))
            b = draw(design, pop5, 2, np.random.default_rng(23))
            np.testing.assert_array_equal(a.indices, b.indices)


def _inclusion(support, N):
    """Sum of the support probabilities of the points holding each unit."""
    idx = support.batch.indices
    return np.bincount(idx.ravel(), weights=np.repeat(support.probs, idx.shape[1]), minlength=N)


def _reference_groupings(units, sizes):
    """All partitions of ``units`` into unlabeled blocks of the given sizes,
    one recursive step per partition: the smallest unassigned unit anchors a
    block of each remaining *distinct* size in turn."""
    if not sizes:
        yield ()
        return
    anchor, others = units[0], units[1:]
    for i, size in enumerate(sizes):
        if size in sizes[:i]:
            continue
        rest_sizes = sizes[:i] + sizes[i + 1 :]
        for members in combinations(others, size - 1):
            remaining = tuple(u for u in others if u not in members)
            for tail in _reference_groupings(remaining, rest_sizes):
                yield ((anchor, *members), *tail)


def _reference_support(design, pop, n):
    """The per-point enumeration: one validated draw and one float per
    support point, stacked afterwards."""
    N = pop.n_units
    out = []
    if design is not DesignKind.RHC:
        K = comb(N, n)
        pi_all = inclusion_probabilities(design, pop, n)
        for subset in combinations(range(N), n):
            idx = np.array(subset, dtype=np.intp)
            if design is DesignKind.SRSWOR:
                prob = 1.0 / K
            else:
                prob = (pop.x[idx].mean() / pop.x_bar()) / K
            out.append((SampleDraw(design, idx, pi=pi_all[idx]), prob))
    else:
        sizes = rhc_group_sizes(N, n)
        groupings = list(_reference_groupings(tuple(range(N)), tuple(sizes.tolist())))
        p_grouping = 1.0 / len(groupings)
        for grouping in groupings:
            totals = [float(pop.x[list(block)].sum()) for block in grouping]
            for picks in product(*grouping):
                prob = p_grouping
                for j, unit in enumerate(picks):
                    prob *= pop.x[unit] / totals[j]
                idx = np.array(picks, dtype=np.intp)
                out.append((SampleDraw(DesignKind.RHC, idx, g_totals=np.array(totals)), prob))
    return SampleDraw.stack(s for s, _ in out), np.array([p for _, p in out])


class TestEnumerate:
    def test_srswor_uniform(self, pop4):
        support = enumerate_design(DesignKind.SRSWOR, pop4, 2)
        assert len(support) == 6
        for p in support.probs:
            assert p == pytest.approx(1 / 6)

    def test_lms_probabilities(self, pop4):
        support = enumerate_design(DesignKind.LMS, pop4, 2)
        total = support.probs.sum()
        assert abs(total - 1.0) < 1e-12
        by_set = {
            frozenset(row.tolist()): p
            for row, p in zip(support.batch.indices, support.probs)
        }
        assert by_set[frozenset({0, 1})] == pytest.approx(0.1, abs=1e-15)
        assert by_set[frozenset({2, 3})] == pytest.approx(7 / 30, abs=1e-15)

    @pytest.mark.parametrize("design", [DesignKind.SRSWOR, DesignKind.LMS])
    def test_enumerated_inclusion_matches_formula(self, design):
        rng = np.random.default_rng(3)
        for _ in range(5):
            pop = random_population(rng, N=int(rng.integers(4, 8)))
            n = int(rng.integers(2, pop.n_units))
            support = enumerate_design(design, pop, n)
            np.testing.assert_allclose(
                _inclusion(support, pop.n_units),
                inclusion_probabilities(design, pop, n),
                atol=1e-12,
            )

    def test_rhc_support(self, pop5):
        support = enumerate_design(DesignKind.RHC, pop5, 2)
        # 10 groupings into sizes (2,3) x 6 within-group picks
        assert len(support) == 60
        assert abs(support.probs.sum() - 1.0) < 1e-12
        assert (support.probs >= 0).all()
        np.testing.assert_allclose(
            support.batch.g_totals.sum(axis=1), pop5.x_total(), atol=1e-12, rtol=0
        )

    def test_rhc_grouping_count_with_equal_sizes(self):
        pop = Population(x=np.arange(1.0, 7.0), y=np.zeros(6))
        support = enumerate_design(DesignKind.RHC, pop, 2)
        # partitions of 6 units into two unlabeled blocks of 3: 10; picks: 9
        assert len(support) == 90
        assert abs(support.probs.sum() - 1.0) < 1e-12

    def test_rao_sampford_support(self, pop4):
        # pi = (0.2, 0.4, 0.6, 0.8): P(s) is proportional to
        # (2 - pi_i - pi_j) r_i r_j with r = pi / (1 - pi)
        support = enumerate_design(DesignKind.RAO_SAMPFORD, pop4, 2)
        assert len(support) == comb(4, 2)
        np.testing.assert_array_equal(
            support.batch.indices, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        )
        pi = np.array([0.2, 0.4, 0.6, 0.8])
        r = pi / (1 - pi)
        w = np.array([(2 - pi[i] - pi[j]) * r[i] * r[j] for i, j in support.batch.indices])
        np.testing.assert_allclose(support.probs, w / w.sum(), rtol=1e-14)
        np.testing.assert_array_equal(support.batch.pi, pi[support.batch.indices])

    def test_rao_sampford_inclusion_equals_pi(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 30:
            pop = random_population(rng, N=int(rng.integers(5, 10)))
            n = int(rng.integers(2, min(5, pop.n_units)))
            if (n * pop.x / pop.x_total() >= 1).any():
                continue
            checked += 1
            support = enumerate_design(DesignKind.RAO_SAMPFORD, pop, n)
            assert len(support) == comb(pop.n_units, n)
            assert abs(support.probs.sum() - 1.0) < 1e-14
            np.testing.assert_allclose(
                _inclusion(support, pop.n_units),
                inclusion_probabilities(DesignKind.RAO_SAMPFORD, pop, n),
                atol=1e-14,
                rtol=0,
            )

    def test_rao_sampford_infeasible(self):
        pop = Population(x=np.array([1.0, 1.0, 1.0, 10.0]), y=np.zeros(4))
        with pytest.raises(InfeasibleError):
            enumerate_design(DesignKind.RAO_SAMPFORD, pop, 2)

    @pytest.mark.parametrize(
        "design, N, n, pops",
        [(d, N, n, 3) for d in (DesignKind.SRSWOR, DesignKind.LMS)
         for N, n in ((12, 4), (9, 2), (10, 3), (7, 3), (9, 8))]
        + [(DesignKind.RHC, 9, 2, 3), (DesignKind.RHC, 7, 3, 3),
           (DesignKind.RHC, 10, 3, 1), (DesignKind.RHC, 8, 4, 3),
           (DesignKind.RHC, 8, 3, 2), (DesignKind.RHC, 9, 4, 1)],
    )
    def test_support_matches_per_point_reference(self, design, N, n, pops):
        # every index, probability and pi / g_totals double of the per-point
        # enumeration; RHC groups have uneven sizes at (7, 3): 2, 2, 3,
        # (8, 3): 2, 3, 3, (9, 4): 2, 2, 2, 3 and (10, 3): 3, 3, 4
        rng = np.random.default_rng(N * 100 + n)
        for _ in range(pops):
            pop = random_population(rng, N=N)
            support = enumerate_design(design, pop, n)
            batch, probs = _reference_support(design, pop, n)
            np.testing.assert_array_equal(support.batch.indices, batch.indices)
            np.testing.assert_array_equal(support.probs, probs)
            if design.is_pi_based:
                np.testing.assert_array_equal(support.batch.pi, batch.pi)
            else:
                np.testing.assert_array_equal(support.batch.g_totals, batch.g_totals)

    def test_enumeration_cap(self):
        pop = Population(x=np.ones(40) + np.arange(40) * 0.01, y=np.zeros(40))
        assert comb(40, 15) > 1_000_000
        for design in (DesignKind.SRSWOR, DesignKind.LMS, DesignKind.RAO_SAMPFORD):
            with pytest.raises(EnumerationTooLargeError):
                enumerate_design(design, pop, 15)

    def test_rhc_enumeration_cap_is_checked_before_building(self, monkeypatch):
        # N=40, n=3 has about 3e20 outcomes: the count alone must refuse it
        pop = Population(x=np.ones(40) + np.arange(40) * 0.01, y=np.zeros(40))

        def build(*args):
            raise AssertionError("the support was built")

        monkeypatch.setattr(designs, "_groupings", build)
        with pytest.raises(EnumerationTooLargeError, match="exceed the cap"):
            enumerate_design(DesignKind.RHC, pop, 3)


class TestSampleDraw:
    def test_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            SampleDraw(DesignKind.SRSWOR, np.array([1, 1]), pi=np.array([0.5, 0.5]))

    def test_rejects_wrong_metadata(self):
        with pytest.raises(ParameterError):
            SampleDraw(DesignKind.SRSWOR, np.array([0, 1]), g_totals=np.array([1.0, 2.0]))
        with pytest.raises(ParameterError):
            SampleDraw(DesignKind.RHC, np.array([0, 1]), pi=np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            SampleDraw(DesignKind.SRSWOR, np.array([0, 1]), pi=np.array([0.5, 1.5]))

    @pytest.mark.parametrize("pi", [[0.5, np.nan], [np.nan, np.nan]])
    def test_rejects_nan_inclusion_probabilities(self, pi):
        with pytest.raises(ParameterError, match="inclusion probabilities"):
            SampleDraw(DesignKind.RAO_SAMPFORD, np.array([0, 1]), pi=np.array(pi))

    @pytest.mark.parametrize("g", [[2.0, np.nan], [np.inf, 3.0], [1.0, -np.inf]])
    def test_rejects_group_totals_that_are_not_finite(self, g):
        with pytest.raises(ParameterError, match="group totals"):
            SampleDraw(DesignKind.RHC, np.array([0, 1]), g_totals=np.array(g))

    def test_rejects_negative_indices(self):
        # -1 would read the last unit, and [-1, 9] names unit 9 twice
        for idx in ([-1, 9], [3, -2, 5]):
            with pytest.raises(ParameterError, match="nonnegative"):
                SampleDraw(DesignKind.SRSWOR, np.array(idx), pi=np.full(len(idx), 0.3))
        batch = np.array([[0, 1], [2, 3], [-1, 4], [-5, 6]])
        with pytest.raises(ParameterError, match="nonnegative") as err:
            SampleDraw(DesignKind.RHC, batch, g_totals=np.ones(batch.shape))
        assert err.value.row == 2

    def test_batch_rows_are_the_stacked_draws(self, pop5):
        rng = np.random.default_rng(5)
        for design in DesignKind:
            draws = [draw(design, pop5, 2, rng) for _ in range(6)]
            batch = SampleDraw.stack(draws)
            assert batch.indices.shape == (6, 2) and batch.n == 2
            for r, s in enumerate(draws):
                row = batch[r]
                np.testing.assert_array_equal(row.indices, s.indices)
                meta = (row.pi, s.pi) if design.is_pi_based else (row.g_totals, s.g_totals)
                np.testing.assert_array_equal(*meta)
            assert batch[:] is batch
            np.testing.assert_array_equal(batch[[4, 1]].indices[1], draws[1].indices)

    def test_batch_names_its_first_row_with_duplicates(self):
        idx = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 6], [1, 1, 2]])
        with pytest.raises(ParameterError, match="distinct") as err:
            SampleDraw(DesignKind.SRSWOR, idx, pi=np.full(idx.shape, 0.3))
        assert err.value.row == 2

    def test_distinctness_check_matches_unique(self):
        from finpop.designs import _distinct

        rng = np.random.default_rng(8)
        for _ in range(2000):
            idx = rng.integers(0, 12, size=int(rng.integers(1, 8)))
            assert bool(_distinct(idx)) == (np.unique(idx).size == idx.size)

    def test_drop(self):
        s = SampleDraw(
            DesignKind.SRSWOR, np.array([4, 7, 9]), pi=np.array([0.2, 0.3, 0.4])
        )
        t = drop_unit(s, 1)
        np.testing.assert_array_equal(t.indices, [4, 9])
        np.testing.assert_allclose(t.pi, [0.2, 0.4])


def _rejective_rao_sampford(pop, n, rng):
    """The reference sampler: Sampford's rejective loop, one attempt at a time."""
    pi = inclusion_probabilities(DesignKind.RAO_SAMPFORD, pop, n)
    p = pi / n
    q = p / (1.0 - n * p)
    cdf_p = np.cumsum(p)
    cdf_q = np.cumsum(q)

    def cut(u, cdf):
        return np.minimum(cdf.searchsorted(u * cdf[-1], side="right"), cdf.size - 1)

    for _ in range(designs.RS_RETRY_CAP):
        idx = np.concatenate((cut(rng.random(1), cdf_p), cut(rng.random(n - 1), cdf_q)))
        if np.unique(idx).size == n:
            return idx, pi[idx]
    raise DrawFailureError("reference loop exhausted its attempts")


def _same_state(a, b):
    """Whether two bit-generator states are equal (MT19937's holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


def _criterion_3_population():
    x = np.random.default_rng(103).uniform(1.0, 4.0, size=10)
    return Population(x=x, y=np.zeros(10))


def _skewed_population(N=5000):
    """Gamma(mean 1000, sd 1500) sizes: rejection accepts a few per thousand."""
    mean, sd = 1000.0, 1500.0
    x = stats.gamma.ppf((np.arange(N) + 0.5) / N, (mean / sd) ** 2, scale=sd**2 / mean)
    x = np.random.default_rng(11).permutation(x)
    return Population(x=x, y=x)


class TestRaoSampfordStream:
    """The blocked sampler returns the one-attempt loop's samples and leaves
    the generator in the state that loop leaves it in."""

    @staticmethod
    def assert_same_draws(pop, n, make_rng, seeds):
        for seed in seeds:
            rng, ref_rng = make_rng(seed), make_rng(seed)
            s = draw(DesignKind.RAO_SAMPFORD, pop, n, rng)
            idx, pi = _rejective_rao_sampford(pop, n, ref_rng)
            np.testing.assert_array_equal(s.indices, idx)
            np.testing.assert_array_equal(s.pi, pi)
            assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state)

    def test_criterion_3_population(self):
        self.assert_same_draws(_criterion_3_population(), 3, np.random.default_rng, range(200))

    def test_skewed_population(self):
        self.assert_same_draws(_skewed_population(), 125, np.random.default_rng, range(50))

    @pytest.mark.parametrize("n", [75, 100, 125])
    def test_benchmark_population(self, benchmark_pop, n):
        self.assert_same_draws(benchmark_pop, n, np.random.default_rng, range(60))

    def test_one_generator_shared_across_draws(self, benchmark_pop):
        for pop, n, m in ((_criterion_3_population(), 3, 1500), (benchmark_pop, 100, 200)):
            rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
            for _ in range(m):
                s = draw(DesignKind.RAO_SAMPFORD, pop, n, rng)
                idx, _ = _rejective_rao_sampford(pop, n, ref_rng)
                np.testing.assert_array_equal(s.indices, idx)
                assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state)

    def test_mt19937_state_is_restored(self, benchmark_pop):
        def mt(seed):
            return np.random.Generator(np.random.MT19937(seed))

        self.assert_same_draws(benchmark_pop, 125, mt, range(20))
        self.assert_same_draws(_skewed_population(), 125, mt, range(5))

    def test_retry_cap_counts_attempts(self, benchmark_pop, monkeypatch):
        # at n=500 rejection accepts nothing in practice; 5 attempts run as
        # blocks of 1, 2 and a last block cut from 4 to 2
        monkeypatch.setattr(designs, "RS_RETRY_CAP", 5)
        n = 500
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(DrawFailureError):
            draw(DesignKind.RAO_SAMPFORD, benchmark_pop, n, rng)
        twin.random(5 * n)
        assert _same_state(rng.bit_generator.state, twin.bit_generator.state)


def _sampford_weights(pop, n):
    """The first-draw weights p and the later-draw weights q of Sampford's scheme."""
    p = inclusion_probabilities(DesignKind.RAO_SAMPFORD, pop, n) / n
    return p, p / (1.0 - n * p)


class TestInverseCdf:
    """The guide-table lookup gives what a binary search of the cdf gives."""

    @staticmethod
    def assert_matches_searchsorted(w):
        cdf = np.cumsum(w)
        lookup = designs._InverseCdf([np.asarray(w)], [0])
        B = lookup.buckets
        boundaries = np.arange(B) / B
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            boundaries,
            np.nextafter(boundaries[1:], 0.0),
            np.nextafter(boundaries, 1.0),
            np.random.default_rng(len(w)).random(4000),
        ])
        expected = cdf[:-1].searchsorted(u * cdf[-1], side="right")
        got = lookup(u[:, None])
        assert got.shape == (u.size, 1)
        np.testing.assert_array_equal(got[:, 0], expected)

    @pytest.mark.parametrize("w", [
        [1.0, 3.0],
        [0.3, 0.7],
        np.ones(7),
        np.full(10, 0.1),
        [1.0, 1e-30, 1.0, 2.0],
        [1e-30, 1.0, 1.0],
        [1.0, 2.0, 1e-300],
        # the first edge lies just above the key at u = 481/1000, yet its
        # bucket index rounds down to 480: a one-bucket margin would start
        # past it
        [1.7979033368790147, 0.969970719168616, 0.969970719168616],
    ], ids=["N2", "N2-inexact", "equal", "equal-inexact", "tiny-inner",
            "tiny-first", "tiny-last", "edge-bucket-rounds-down"])
    def test_small_cdfs(self, w):
        self.assert_matches_searchsorted(np.asarray(w, dtype=float))

    @pytest.mark.parametrize("name", ["criterion_3", "skewed"])
    def test_sampford_cdfs(self, name):
        pop, n = (_criterion_3_population(), 3) if name == "criterion_3" else (
            _skewed_population(), 125)
        for w in _sampford_weights(pop, n):
            self.assert_matches_searchsorted(w)

    def test_columns_use_their_rows_cdf(self):
        pop, n = _skewed_population(), 125
        p, q = _sampford_weights(pop, n)
        lookup = designs._InverseCdf((p, q), [0] + [1] * (n - 1))
        u = np.random.default_rng(2).random((64, n))
        got = lookup(u)
        for j, w in enumerate([p] + [q] * (n - 1)):
            cdf = np.cumsum(w)
            np.testing.assert_array_equal(
                got[:, j], cdf[:-1].searchsorted(u[:, j] * cdf[-1], side="right")
            )


class TestRaoSampfordMemo:
    """One memo entry, keyed by n and a weakref to the population."""

    @staticmethod
    def assert_draw_is_reference(pop, n, rng, ref_rng):
        s = draw(DesignKind.RAO_SAMPFORD, pop, n, rng)
        idx, pi = _rejective_rao_sampford(pop, n, ref_rng)
        np.testing.assert_array_equal(s.indices, idx)
        np.testing.assert_array_equal(s.pi, pi)
        assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state)

    def test_alternating_populations_and_sizes(self):
        a = _criterion_3_population()
        b = Population(x=np.random.default_rng(7).uniform(1.0, 4.0, size=10), y=np.zeros(10))
        assert not np.array_equal(a.x, b.x)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(40):
            for pop, n in ((a, 3), (b, 3), (a, 4), (a, 3), (b, 4), (b, 4)):
                self.assert_draw_is_reference(pop, n, rng, ref_rng)

    def test_keeps_no_population_alive(self):
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        pop = Population(x=np.arange(1.0, 11.0), y=np.zeros(10))
        self.assert_draw_is_reference(pop, 3, rng, ref_rng)
        ref = designs._rs_memo[0]
        assert ref() is pop
        del pop
        gc.collect()
        assert ref() is None
        # a population built afterwards, with the same N, gets its own tables
        new = Population(x=np.arange(10.0, 0.0, -1.0), y=np.zeros(10))
        for _ in range(50):
            self.assert_draw_is_reference(new, 3, rng, ref_rng)
        assert designs._rs_memo[0]() is new
        np.testing.assert_array_equal(
            designs._rs_memo[2][0], inclusion_probabilities(DesignKind.RAO_SAMPFORD, new, 3)
        )
