import gc
import weakref
from collections import Counter
from itertools import combinations, product
from math import comb, isqrt

import numpy as np
import pytest
from scipy import stats

from finpop import designs
from finpop import (
    DesignKind,
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
from conftest import drop_unit, random_population, stack


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
        # the sampler against Sampford's enumerated P(s), subset
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
    return stack(s for s, _ in out), np.array([p for _, p in out])


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

    @pytest.mark.parametrize("design", list(DesignKind))
    def test_probabilities_are_read_only(self, pop5, design):
        support = enumerate_design(design, pop5, 2)
        with pytest.raises(ValueError, match="read-only"):
            support.probs[0] = 5.0


def _clear_skeletons():
    designs._subsets.cache_clear()
    designs._rhc_outcomes.cache_clear()


def _support_arrays(support):
    batch = support.batch
    return [a for a in (batch.indices, batch.pi, batch.g_totals, support.probs)
            if a is not None]


def _line_population(N, power=1.0):
    """x from 1 to 2, raised to ``power``: spread little enough for
    Rao-Sampford at the sizes used here (n = 3 at N = 8 with power 3)."""
    return Population(x=np.linspace(1.0, 2.0, N) ** power, y=np.arange(float(N)))


class TestSkeletonCache:
    """What depends on (N, n) alone is built once and kept for the next call
    with the same (N, n); what depends on the population is computed anew."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        _clear_skeletons()
        yield
        _clear_skeletons()

    def test_supports_equal_fresh_builds_across_alternating_sizes(self):
        rng = np.random.default_rng(41)
        pops = {N: [Population(x=rng.uniform(1.0, 2.0, N), y=rng.normal(size=N))
                    for _ in range(2)] for N in (7, 8, 9)}
        served = Counter()
        for N, n in [(7, 3), (9, 2), (7, 3), (8, 4), (8, 3), (9, 2), (7, 3)]:
            for pop in pops[N]:
                for design in DesignKind:
                    got = enumerate_design(design, pop, n)
                    cache = designs._subsets if design.is_pi_based else designs._rhc_outcomes
                    served[design.is_pi_based] += cache.cache_info().hits
                    cache.cache_clear()
                    want = enumerate_design(design, pop, n)
                    for a, b in zip(_support_arrays(got), _support_arrays(want), strict=True):
                        assert (a.dtype, a.shape) == (b.dtype, b.shape)
                        assert a.tobytes() == b.tobytes()
        # every call but the first of a size and kind came from a cache
        assert served == {True: 14 * 3 - 7, False: 14 - 7}

    @pytest.mark.parametrize("design", list(DesignKind))
    def test_populations_of_one_size_share_only_the_skeleton(self, design):
        a, b = _line_population(8), _line_population(8, power=3.0)
        first = enumerate_design(design, a, 3)
        before = [x.copy() for x in _support_arrays(first)]
        second = enumerate_design(design, b, 3)
        assert second.batch.indices is first.batch.indices
        for x, y in zip(_support_arrays(first)[1:], _support_arrays(second)[1:], strict=True):
            assert not np.shares_memory(x, y)
        for x, y in zip(_support_arrays(first), before, strict=True):
            np.testing.assert_array_equal(x, y)
        if design is not DesignKind.SRSWOR:
            assert not np.array_equal(first.probs, second.probs)

    def test_cached_index_arrays_are_read_only(self):
        pop = _line_population(8)
        for design in DesignKind:
            enumerate_design(design, pop, 3)
        idx, blocks = designs._rhc_outcomes(8, 3)
        arrays = [designs._subsets(8, 3), idx]
        arrays += [a for rows, units in blocks for a in (rows, *units)]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
        assert designs._subsets.cache_info().misses == 1
        assert designs._rhc_outcomes.cache_info().misses == 1

    def test_cap_refuses_before_building_while_a_skeleton_is_cached(self, monkeypatch):
        small = _line_population(8)
        kept = {d: enumerate_design(d, small, 3) for d in (DesignKind.SRSWOR, DesignKind.RHC)}
        subsets_before = designs._subsets.cache_info()
        big = Population(x=np.ones(40) + np.arange(40) * 0.01, y=np.zeros(40))

        def build(*args):
            raise AssertionError("a skeleton was built")

        monkeypatch.setattr(designs, "_groupings", build)
        with pytest.raises(EnumerationTooLargeError, match="exceed the cap"):
            enumerate_design(DesignKind.RHC, big, 3)
        for design in (DesignKind.SRSWOR, DesignKind.LMS, DesignKind.RAO_SAMPFORD):
            with pytest.raises(EnumerationTooLargeError, match="exceed the cap"):
                enumerate_design(design, big, 15)
        assert designs._subsets.cache_info() == subsets_before
        for design, support in kept.items():
            assert enumerate_design(design, small, 3).batch.indices is support.batch.indices

    def test_skeletons_over_the_table_bound_are_not_kept(self, monkeypatch):
        # index entries: subsets 9 x C(9, 2) = 72 and 3 x C(9, 3) = 252; RHC
        # outcomes and layouts 2 x 60 + 10 x 5 = 170 at (5, 2) and
        # 2 x 90 + 10 x 6 = 240 at (6, 2)
        monkeypatch.setattr(designs, "_FULL_TABLE", 200)
        for design, small, large in (
            (DesignKind.SRSWOR, (_line_population(9), 2), (_line_population(9), 3)),
            (DesignKind.RHC, (_line_population(5), 2), (_line_population(6), 2)),
        ):
            kept = enumerate_design(design, *small)
            support = enumerate_design(design, *large)
            gone = weakref.ref(support.batch.indices)
            del support
            gc.collect()
            assert gone() is None
            assert enumerate_design(design, *small).batch.indices is kept.batch.indices


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

    @pytest.mark.parametrize("indices, pi, message", [
        (np.array([], dtype=int), np.array([]), "nonempty"),
        (np.zeros((1, 1, 2), dtype=int), np.full((1, 1, 2), 0.5), "nonempty"),
        (np.array([0, 1]), np.array([0.5, 0.5, 0.5]), "align"),
        (np.array([[0, 1], [2, 3]]), np.array([0.5, 0.5]), "align"),
    ], ids=["empty", "3-d", "long-pi", "one-row-pi"])
    def test_rejects_malformed_indices_or_pi(self, indices, pi, message):
        with pytest.raises(ParameterError, match=message):
            SampleDraw(DesignKind.SRSWOR, indices, pi=pi)

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
            batch = stack(draws)
            assert batch.indices.shape == (6, 2) and batch.n == 2
            for r, s in enumerate(draws):
                row = batch[r]
                np.testing.assert_array_equal(row.indices, s.indices)
                meta = (row.pi, s.pi) if design.is_pi_based else (row.g_totals, s.g_totals)
                np.testing.assert_array_equal(*meta)
            np.testing.assert_array_equal(batch[:].indices, batch.indices)
            np.testing.assert_array_equal(batch[[4, 1]].indices[1], draws[1].indices)

    def test_selections_and_stacks_that_are_no_batch_are_rejected(self, pop5):
        rng = np.random.default_rng(5)
        draws = [draw(DesignKind.RHC, pop5, 2, rng) for _ in range(3)]
        batch = stack(draws)
        for rows in (slice(2, 2), np.array([], int), np.zeros(3, bool), (slice(None), 0),
                     None, [[0, 1]]):
            with pytest.raises(ParameterError, match="one or more rows of a batch"):
                batch[rows]
        with pytest.raises(ParameterError, match="one or more rows of a batch"):
            draws[0][0]

    def test_batch_names_its_first_row_with_duplicates(self):
        idx = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 6], [1, 1, 2]])
        with pytest.raises(ParameterError, match="distinct") as err:
            SampleDraw(DesignKind.SRSWOR, idx, pi=np.full(idx.shape, 0.3))
        assert err.value.row == 2

    def test_distinctness_check_matches_unique(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            idx = rng.integers(0, 12, size=int(rng.integers(1, 8)))
            if np.unique(idx).size == idx.size:
                SampleDraw(DesignKind.SRSWOR, idx, pi=np.full(idx.size, 0.3))
            else:
                with pytest.raises(ParameterError, match="distinct"):
                    SampleDraw(DesignKind.SRSWOR, idx, pi=np.full(idx.size, 0.3))

    def test_drop(self):
        s = SampleDraw(
            DesignKind.SRSWOR, np.array([4, 7, 9]), pi=np.array([0.2, 0.3, 0.4])
        )
        t = drop_unit(s, 1)
        np.testing.assert_array_equal(t.indices, [4, 9])
        np.testing.assert_allclose(t.pi, [0.2, 0.4])


def _criterion_3_population():
    x = np.random.default_rng(103).uniform(1.0, 4.0, size=10)
    return Population(x=x, y=np.zeros(10))


def _skewed_population(N=5000):
    """Gamma(mean 1000, sd 1500) sizes, pi up to about 0.6 at n=125."""
    mean, sd = 1000.0, 1500.0
    x = stats.gamma.ppf((np.arange(N) + 0.5) / N, (mean / sd) ** 2, scale=sd**2 / mean)
    x = np.random.default_rng(11).permutation(x)
    return Population(x=x, y=x)


def _rngs(seed, m):
    return [np.random.default_rng([seed, r]) for r in range(m)]


def _subset_counts(indices, support):
    """How often each support point's subset was drawn, whatever the order of
    its units: a subset's bitmask names it."""
    masks = (1 << indices).sum(axis=1)
    keys = (1 << support.batch.indices).sum(axis=1)
    return np.array([(masks == k).sum() for k in keys])


def _memo_c():
    return designs._rs_memo[2].c


def _table_rules(monkeypatch):
    """Yield each table rule in turn, with the memo emptied: the default,
    under which a table of up to 2**21 entries keeps every column, and 0,
    under which every table keeps every isqrt(n)-th column and the steps
    rebuild the others."""
    for full_table in (designs._FULL_TABLE, 0):
        monkeypatch.setattr(designs, "_FULL_TABLE", full_table)
        monkeypatch.setattr(designs, "_rs_memo", designs._NO_RS_TABLES)
        yield full_table


class TestRaoSampfordSampler:
    """Exact draws: conditional Poisson samples thinned to Sampford's P(s),
    all rows of a batch together, row r depending on its generator alone."""

    @pytest.mark.parametrize("N, n", [(6, 3), (8, 3), (10, 4), (12, 5)])
    def test_subset_frequencies_match_exact(self, N, n, monkeypatch):
        # 40 000 rows against Sampford's enumerated P(s), subset by subset,
        # under each table rule: whole tables, and every isqrt(n)-th column,
        # which is all of them at n = 3 and blocks of c = 2 at n = 4 and 5
        pop = Population(x=np.random.default_rng(N * 10 + n).uniform(1.0, 4.0, N), y=np.zeros(N))
        support = enumerate_design(DesignKind.RAO_SAMPFORD, pop, n)
        m = 40_000
        for full_table in _table_rules(monkeypatch):
            batch = designs._rao_sampford_rows(pop, n, [np.random.default_rng(n)] * m)
            assert _memo_c() == (1 if full_table else isqrt(n))
            observed = _subset_counts(batch.indices, support)
            assert observed.sum() == m
            assert stats.chisquare(observed, m * support.probs).pvalue > 1e-3

    @pytest.mark.parametrize("name, n", [("criterion_3", 3), ("skewed", 125), ("skewed", 30)])
    def test_batch_rows_are_single_draws(self, name, n, monkeypatch):
        # bit for bit, and each generator left where the single draw leaves
        # it, under the whole batch, a shuffled one and a sub-sample, and
        # under each table rule; the steps rebuild all but every isqrt(n)-th
        # column of checkpointed tables, and cumsum prefixes do not depend
        # on their length, so the rows are those of whole tables too
        pop = _criterion_3_population() if name == "criterion_3" else _skewed_population()
        m = 40
        whole = None
        for full_table in _table_rules(monkeypatch):
            batch = designs._rao_sampford_rows(pop, n, _rngs(5, m))
            assert _memo_c() == (1 if full_table else isqrt(n))
            whole = batch.indices if whole is None else whole
            np.testing.assert_array_equal(batch.indices, whole)
            order = np.random.default_rng(0).permutation(m)
            for rows in (order, order[:7], order[-1:]):
                rngs = _rngs(5, m)
                sub = designs._rao_sampford_rows(pop, n, [rngs[r] for r in rows])
                np.testing.assert_array_equal(sub.indices, batch.indices[rows])
                np.testing.assert_array_equal(sub.pi, batch.pi[rows])
                twins = _rngs(5, m)
                for k, r in enumerate(rows):
                    single = draw(DesignKind.RAO_SAMPFORD, pop, n, twins[r])
                    np.testing.assert_array_equal(single.indices, sub.indices[k])
                    assert rngs[r].random() == twins[r].random()

    @pytest.mark.parametrize("attempts", [1, 3])
    def test_attempts_per_pass_change_no_sample(self, attempts, monkeypatch):
        # attempt k of a row is the k-th chunk of n + 1 uniforms of its
        # generator, however many attempts a pass gives it
        pop = _skewed_population()
        paired = designs._rao_sampford_rows(pop, 125, _rngs(8, 60))
        monkeypatch.setattr(designs, "_ATTEMPTS", attempts)
        rngs = _rngs(8, 60)
        other = designs._rao_sampford_rows(pop, 125, rngs)
        np.testing.assert_array_equal(other.indices, paired.indices)
        if attempts == 1:  # some rows were kept only at a later attempt
            once = _rngs(8, 60)
            for r in once:
                r.random(126)
            assert any(a.random() != b.random() for a, b in zip(rngs, once))

    def test_n500_on_the_benchmark_population(self, benchmark_pop):
        # the size at which rejection accepted nothing
        n = 500
        batch = designs._rao_sampford_rows(benchmark_pop, n, _rngs(7, 30))
        pi = inclusion_probabilities(DesignKind.RAO_SAMPFORD, benchmark_pop, n)
        assert batch.indices.shape == (30, n)
        assert (np.diff(batch.indices, axis=1) > 0).all()
        np.testing.assert_array_equal(batch.pi, pi[batch.indices])
        single = draw(DesignKind.RAO_SAMPFORD, benchmark_pop, n, _rngs(7, 30)[29])
        np.testing.assert_array_equal(single.indices, batch.indices[29])

    def test_inclusion_probabilities_up_to_095(self, monkeypatch):
        N, n = 40, 20
        x = np.r_[np.full(4, 0.95), np.full(N - 4, (n - 4 * 0.95) / (N - 4))]
        pop = Population(x=x, y=x)
        pi = inclusion_probabilities(DesignKind.RAO_SAMPFORD, pop, n)
        assert pi.max() == pytest.approx(0.95)
        m = 20_000
        for full_table in _table_rules(monkeypatch):
            batch = designs._rao_sampford_rows(pop, n, [np.random.default_rng(9)] * m)
            assert _memo_c() == (1 if full_table else 4)
            idx = batch.indices
            assert (idx >= 0).all() and (idx < N).all()
            assert (np.diff(idx, axis=1) > 0).all()
            z = (np.bincount(idx.ravel(), minlength=N) / m - pi) / np.sqrt(pi * (1 - pi) / m)
            assert np.abs(z).max() < 4.5

    @pytest.mark.parametrize("full_table", [designs._FULL_TABLE, 0])
    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_extreme_uniforms_give_distinct_units(self, u, full_table, monkeypatch):
        # every step's key at the bottom or the top of its column; the
        # thinning uniform is 0, so the first attempt is kept
        class Fixed:
            def random(self, size):
                out = np.full(size, u)
                out[size // designs._ATTEMPTS - 1] = 0.0
                return out

        monkeypatch.setattr(designs, "_FULL_TABLE", full_table)
        pop = Population(x=np.random.default_rng(2).uniform(1.0, 4.0, 200), y=np.zeros(200))
        n = 30
        row = designs._rao_sampford_rows(pop, n, [Fixed()]).indices[0]
        assert _memo_c() == (1 if full_table else 5)
        expected = np.arange(200 - n, 200) if u == 0.0 else np.arange(n)
        np.testing.assert_array_equal(row, expected)


class TestRaoSampfordMemo:
    """One memo entry, keyed by n and a weakref to the population."""

    def test_alternating_populations_and_sizes(self):
        a = _criterion_3_population()
        b = Population(x=np.random.default_rng(7).uniform(1.0, 4.0, size=10), y=np.zeros(10))
        assert not np.array_equal(a.x, b.x)
        cases = ((a, 3), (b, 3), (a, 4), (a, 3), (b, 4), (b, 4))
        alternating = [
            [draw(DesignKind.RAO_SAMPFORD, pop, n, rng).indices for rng in _rngs(k, 10)]
            for k, (pop, n) in enumerate(cases)
        ]
        for k, (pop, n) in enumerate(cases):
            fresh = Population(x=pop.x.copy(), y=pop.y.copy())
            rows = designs._rao_sampford_rows(fresh, n, _rngs(k, 10)).indices
            np.testing.assert_array_equal(np.array(alternating[k]), rows)

    def test_single_draws_keep_every_column_of_larger_tables(self, monkeypatch):
        # single draws and batches keep the same columns of a 630k-entry
        # table, all of them by default and every isqrt(n)-th one under the
        # checkpointed rule, and share one table of a (population, n)
        pop = _skewed_population()
        for full_table in _table_rules(monkeypatch):
            designs._rao_sampford_rows(pop, 125, _rngs(1, 4))
            assert _memo_c() == (1 if full_table else isqrt(125))
            tables = designs._rs_memo[2]
            draw(DesignKind.RAO_SAMPFORD, pop, 125, np.random.default_rng(1))
            designs._rao_sampford_rows(pop, 125, _rngs(1, 4))
            assert designs._rs_memo[2] is tables

    def test_old_tables_are_freed_before_new_ones_are_built(self, monkeypatch):
        # at most one (population, n) is held while the next one builds
        a, b = _criterion_3_population(), _skewed_population()
        alive = []
        build = designs._SampfordTables.__init__

        def watched(self, *args):
            alive.append(None if old is None else old())
            build(self, *args)

        monkeypatch.setattr(designs._SampfordTables, "__init__", watched)
        old = None
        for pop, n in ((a, 3), (a, 4), (b, 125), (a, 3)):
            designs._rao_sampford_rows(pop, n, _rngs(2, 3))
            old = weakref.ref(designs._rs_memo[2])
        assert alive == [None] * 4

    def test_keeps_no_population_alive(self):
        pop = Population(x=np.arange(1.0, 11.0), y=np.zeros(10))
        draw(DesignKind.RAO_SAMPFORD, pop, 3, np.random.default_rng(4))
        ref = designs._rs_memo[0]
        assert ref() is pop
        del pop
        gc.collect()
        assert ref() is None
        # a population built afterwards, with the same N, gets its own tables
        new = Population(x=np.arange(10.0, 0.0, -1.0), y=np.zeros(10))
        batch = designs._rao_sampford_rows(new, 3, _rngs(4, 50))
        assert designs._rs_memo[0]() is new
        np.testing.assert_array_equal(
            batch.pi, inclusion_probabilities(DesignKind.RAO_SAMPFORD, new, 3)[batch.indices]
        )


def _parent_draw(design, pop, n, rng):
    """The per-sample SRSWOR, LMS and RHC draws the batched ones replaced,
    kept as the reference their rows must equal bit for bit."""
    N = pop.n_units
    if design is DesignKind.SRSWOR:
        idx = rng.choice(N, size=n, replace=False)
        return idx, np.full(n, n / N), None
    if design is DesignKind.LMS:
        first = int(rng.choice(N, p=pop.x / pop.x_total()))
        rest = rng.choice(np.delete(np.arange(N), first), size=n - 1, replace=False)
        idx = np.concatenate(([first], rest))
        return idx, inclusion_probabilities(DesignKind.LMS, pop, n)[idx], None
    sizes = rhc_group_sizes(N, n)
    perm = rng.permutation(N)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    cum = np.cumsum(pop.x[perm])
    lower = np.where(starts > 0, cum[starts - 1], 0.0)
    totals = cum[ends - 1] - lower
    pos = np.searchsorted(cum, lower + rng.random(n) * totals, side="right")
    return perm[np.minimum(pos, ends - 1)], None, totals


def _dominant_population():
    """One unit holds 99 % of x: LMS picks it first almost always."""
    x = np.r_[990.0, np.random.default_rng(6).uniform(0.5, 1.5, 9)]
    return Population(x=x, y=np.zeros(10))


_BATCH_CASES = {
    "N10_n3": (_criterion_3_population, 3),
    "N5000_n125": (_skewed_population, 125),
    "dominant_n3": (_dominant_population, 3),
}


class TestDrawRows:
    """Every design draws a batch in one call; row r is the single draw from
    generator r, and ``draw`` is the one-row batch."""

    @pytest.mark.parametrize("case", list(_BATCH_CASES))
    @pytest.mark.parametrize("design", [DesignKind.SRSWOR, DesignKind.LMS, DesignKind.RHC])
    def test_rows_are_the_per_sample_draws(self, design, case):
        make, n = _BATCH_CASES[case]
        pop, m = make(), 30
        rngs = _rngs(6, m)
        batch = designs._draw_rows(design, pop, n, rngs)
        assert batch.indices.shape == (m, n) and batch.indices.dtype == np.intp
        for r, twin in enumerate(_rngs(6, m)):
            idx, pi, g_totals = _parent_draw(design, pop, n, twin)
            np.testing.assert_array_equal(batch.indices[r], idx)
            for got, want in ((batch[r].pi, pi), (batch[r].g_totals, g_totals)):
                if want is None:
                    assert got is None
                else:
                    assert got.tobytes() == want.tobytes()
            assert rngs[r].bit_generator.state == twin.bit_generator.state

    # Rao-Sampford is infeasible on the dominant unit: n x / sum x >= 1
    @pytest.mark.parametrize("design, case", [
        (d, c) for d in DesignKind for c in _BATCH_CASES
        if (d, c) != (DesignKind.RAO_SAMPFORD, "dominant_n3")
    ])
    def test_draw_is_the_one_row_batch(self, design, case):
        make, n = _BATCH_CASES[case]
        pop = make()
        for seed in range(5):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            single = draw(design, pop, n, rng)
            row = designs._draw_rows(design, pop, n, [twin])[0]
            assert single.indices.ndim == 1
            for got, want in ((single.indices, row.indices), (single.pi, row.pi),
                              (single.g_totals, row.g_totals)):
                assert (got is None and want is None) or got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("make", [_skewed_population, _dominant_population])
    def test_lms_first_unit_is_the_choice_pick(self, make):
        # the inverse-cdf pick must stay Generator.choice(N, p=p): a numpy
        # change to choice would otherwise move the LMS stream silently
        pop = make()
        N, p = pop.n_units, pop.x / pop.x_total()
        firsts = designs._draw_rows(DesignKind.LMS, pop, 3, _rngs(9, 1000)).indices[:, 0]
        expected = [int(rng.choice(N, p=p)) for rng in _rngs(9, 1000)]
        np.testing.assert_array_equal(firsts, expected)


def _library_built(pop, n):
    """Every kind of draw, batch and support the library builds itself."""
    out = []
    for design in DesignKind:
        draws = [draw(design, pop, n, rng) for rng in _rngs(3, 6)]
        batch = designs._draw_rows(design, pop, n, _rngs(4, 6))
        out += [*draws, batch, batch[2], batch[1:4], batch[[4, 0]]]
        out.append(enumerate_design(design, pop, n).batch)
    return out


class TestTrustedDraws:
    """Draws, batches and supports built by the library skip the validation
    of a user-built SampleDraw; they must pass it all the same."""

    @pytest.mark.parametrize("N, n", [(7, 3), (9, 2), (8, 4)])
    def test_library_built_draws_pass_full_validation(self, N, n):
        pop = random_population(np.random.default_rng(N), N=N)
        for s in _library_built(pop, n):
            checked = SampleDraw(s.design, s.indices, pi=s.pi, g_totals=s.g_totals)
            assert s.indices.dtype == np.intp
            for got, want in ((s.indices, checked.indices), (s.pi, checked.pi),
                              (s.g_totals, checked.g_totals)):
                if want is None:
                    assert got is None
                else:
                    assert not got.flags.writeable
                    np.testing.assert_array_equal(got, want)
