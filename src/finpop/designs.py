"""Sampling designs: SRSWOR, Lahiri-Midzuno-Sen, Rao-Sampford and
Rao-Hartley-Cochran.

Each design can draw a sample (given an externally supplied random
generator), report its inclusion probabilities where those are fixed, and
enumerate its whole sample space with exact probabilities for oracle-style
verification on tiny populations, as one (K, n) batch of all K support points.

Rao-Sampford draws are rejective.  They evaluate their attempts in blocks,
many per vectorized pass, yet return the sample of the one-attempt-at-a-time
loop and leave the generator where that loop would leave it.  Their tables
(pi, both cdfs and a guide table per cdf) are built once per (population, n)
and kept in a one-entry memo keyed by n and a weakref to the population, so
the memo keeps no population alive.  Each uniform is mapped to its unit by a
guide-table lookup (Chen & Asau 1974), which finds the unit a binary search
of the cdf would find without sorting or searching the keys.

Conventions:
  * unit indices are 0-based positions into the population arrays;
  * pi-based draws carry per-unit inclusion probabilities ``pi``;
  * Rao-Hartley-Cochran draws instead carry ``g_totals``, the x-total of the
    random group each selected unit came from.
"""

from __future__ import annotations

import enum
import itertools
import weakref
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import (
    DrawFailureError,
    EnumerationTooLargeError,
    InfeasibleError,
    ParameterError,
    UnsupportedQueryError,
)
from .population import Population

__all__ = [
    "DesignKind",
    "SampleDraw",
    "Support",
    "inclusion_probabilities",
    "rhc_group_sizes",
    "draw",
    "enumerate_design",
]

ENUMERATION_CAP = 1_000_000
RS_RETRY_CAP = 1_000_000
_RS_BLOCK_MAX = 64  # rejective Rao-Sampford attempts per vectorized pass


class DesignKind(enum.Enum):
    """The four supported sampling designs."""

    SRSWOR = "srswor"
    LMS = "lms"
    RAO_SAMPFORD = "rs"
    RHC = "rhc"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_pi_based(self) -> bool:
        return self is not DesignKind.RHC


@dataclass(frozen=True)
class SampleDraw:
    """A drawn sample with its per-unit design metadata, or a batch of m
    same-size samples with one sample per row.

    ``indices`` are 0-based unit indices, (n,) for one sample or (m, n) for a
    batch, distinct within each sample.  ``pi`` holds the selected units'
    inclusion probabilities for pi-based designs (None for RHC);
    ``g_totals`` holds the selected units' group x-totals for RHC (None
    otherwise); either has the shape of ``indices``.
    """

    design: DesignKind
    indices: np.ndarray
    pi: np.ndarray | None = None
    g_totals: np.ndarray | None = None

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.intp)
        if idx.ndim not in (1, 2) or idx.size == 0:
            raise ParameterError("indices must be a nonempty (n,) or (m, n) array")
        if idx.min() < 0:
            raise ParameterError("unit indices must be nonnegative").at_row(
                int(np.argmax((idx < 0).any(axis=-1)))
            )
        distinct = _distinct(idx)
        if not distinct.all():
            raise ParameterError("sample indices must be distinct").at_row(
                int(np.argmin(distinct))
            )
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        if self.design.is_pi_based:
            if self.pi is None or self.g_totals is not None:
                raise ParameterError(f"{self.design} draws carry pi, not g_totals")
            pi = np.array(self.pi, dtype=float)
            if pi.shape != idx.shape:
                raise ParameterError("pi must align with indices")
            # written so that NaN fails it too
            if not ((pi > 0) & (pi <= 1)).all():
                raise ParameterError("inclusion probabilities must lie in (0, 1]")
            pi.setflags(write=False)
            object.__setattr__(self, "pi", pi)
        else:
            if self.g_totals is None or self.pi is not None:
                raise ParameterError("RHC draws carry g_totals, not pi")
            g = np.array(self.g_totals, dtype=float)
            if g.shape != idx.shape:
                raise ParameterError("g_totals must align with indices")
            if not ((g > 0) & np.isfinite(g)).all():
                raise ParameterError("group totals must be finite and positive")
            g.setflags(write=False)
            object.__setattr__(self, "g_totals", g)

    @classmethod
    def stack(cls, draws) -> "SampleDraw":
        """The batch whose row r is the r-th of these same-size samples."""
        draws = list(draws)
        pi_based = draws[0].design.is_pi_based
        meta = np.stack([s.pi if pi_based else s.g_totals for s in draws])
        return cls(
            draws[0].design,
            np.stack([s.indices for s in draws]),
            pi=meta if pi_based else None,
            g_totals=None if pi_based else meta,
        )

    def __getitem__(self, rows) -> "SampleDraw":
        """The sample at batch row ``rows`` (an int), or the batch of the rows
        a slice or index array selects."""
        if isinstance(rows, slice) and rows.indices(len(self.indices)) == (
            0, len(self.indices), 1
        ):
            return self  # all rows: the arrays are read-only, so share them
        return SampleDraw(
            self.design,
            self.indices[rows],
            pi=None if self.pi is None else self.pi[rows],
            g_totals=None if self.g_totals is None else self.g_totals[rows],
        )

    @property
    def n(self) -> int:
        return self.indices.shape[-1]


@dataclass(frozen=True)
class Support:
    """A design's whole sample space: row k of the (K, n) ``batch`` is a
    support point and ``probs[k]`` its exact probability."""

    batch: SampleDraw
    probs: np.ndarray

    def __len__(self) -> int:
        return len(self.probs)


def _distinct(idx: np.ndarray) -> np.ndarray:
    """Whether the indices along the last axis are distinct, per row."""
    s = np.sort(idx, axis=-1)
    return (s[..., 1:] != s[..., :-1]).all(axis=-1)


def _check_n(pop: Population, n: int) -> None:
    if not 2 <= n < pop.n_units:
        raise ParameterError(
            f"sample size must satisfy 2 <= n < N, got n={n}, N={pop.n_units}"
        )


def _pps_probs(pop: Population, n: int) -> np.ndarray:
    p = pop.x / pop.x_total()
    pi = n * p
    if (pi >= 1).any():
        bad = np.flatnonzero(pi >= 1).tolist()
        raise InfeasibleError(
            f"n * x_i / sum(x) >= 1 for unit(s) {bad}; "
            "probability-proportional-to-size sampling is infeasible"
        )
    return pi


def inclusion_probabilities(design: DesignKind, pop: Population, n: int) -> np.ndarray:
    """First-order inclusion probabilities of every population unit.

    SRSWOR: n/N everywhere.  LMS: (n-1)/(N-1) + (x_i/sum x) (N-n)/(N-1).
    Rao-Sampford: n x_i / sum x.  RHC has no fixed per-unit probabilities at
    this interface (its metadata is draw-specific), so asking is an error.
    """
    _check_n(pop, n)
    N = pop.n_units
    if design is DesignKind.SRSWOR:
        return np.full(N, n / N)
    if design is DesignKind.LMS:
        return (n - 1) / (N - 1) + (pop.x / pop.x_total()) * ((N - n) / (N - 1))
    if design is DesignKind.RAO_SAMPFORD:
        return _pps_probs(pop, n)
    raise UnsupportedQueryError(
        "RHC sampling is not characterized by fixed inclusion probabilities; "
        "use the g_totals carried by each draw"
    )


def rhc_group_sizes(N: int, n: int) -> np.ndarray:
    """Random-group sizes: all N/n when it divides evenly, else a nondecreasing
    mix of floor(N/n) and floor(N/n)+1 summing to N."""
    if not 2 <= n < N:
        raise ParameterError(f"need 2 <= n < N, got n={n}, N={N}")
    base = N // n
    if N % n == 0:
        return np.full(n, base, dtype=int)
    k = n * (base + 1) - N  # number of groups of size floor(N/n)
    return np.array([base] * k + [base + 1] * (n - k), dtype=int)


def _draw_srswor(pop: Population, n: int, rng: np.random.Generator) -> SampleDraw:
    idx = rng.choice(pop.n_units, size=n, replace=False)
    return SampleDraw(DesignKind.SRSWOR, idx, pi=np.full(n, n / pop.n_units))


def _draw_lms(pop: Population, n: int, rng: np.random.Generator) -> SampleDraw:
    # First unit proportional to x, then SRSWOR among the rest: realizes
    # P(s) = (xbar_s / Xbar) / C(N, n).
    N = pop.n_units
    p = pop.x / pop.x_total()
    first = int(rng.choice(N, p=p))
    others = np.delete(np.arange(N), first)
    rest = rng.choice(others, size=n - 1, replace=False)
    idx = np.concatenate(([first], rest))
    pi_all = inclusion_probabilities(DesignKind.LMS, pop, n)
    return SampleDraw(DesignKind.LMS, idx, pi=pi_all[idx])


class _InverseCdf:
    """Inverse-cdf lookups in the cdfs of ``weights``, k vectors of N
    nonnegative weights with positive sums, through guide tables (Chen & Asau
    1974) instead of a binary search.

    Column j of a (m, c) array of uniforms u in [0, 1) is looked up in the cdf
    of weight vector ``rows[j]``: the unit of u is the number of that cdf's
    first N-1 edges that are <= the key u * top, with top the vector's sum,
    which is what ``cdf[:-1].searchsorted(u * top, side="right")`` gives.
    Leaving the last edge out (a ``+inf`` sentinel stands in its place) caps
    the unit at N-1 when u * top rounds to top.

    Each cdf's key range is cut into B = 4N buckets, at least 1000 so that
    keys of small populations rarely need a step, and its int32 guide table
    holds, for bucket b, the number of edges whose bucket is <= b-2.  A lookup
    starts there and steps over the edges that are still <= its key.  The
    two-bucket margin keeps the start at or below the answer whichever way
    the key's and the edges' bucket indices round.
    """

    def __init__(self, weights, rows):
        k, N = len(weights), len(weights[0])
        B = self.buckets = max(4 * N, 1000)
        # all cdfs' tables end to end, so cdf r's units start at r * N
        edges = np.empty((k, N))
        guide = np.zeros((k, B + 1), np.int32)  # u * B can round up to B
        for r, w in enumerate(weights):
            cdf = np.cumsum(w, out=edges[r])
            bucket = (cdf[:-1] * (B / cdf[-1])).astype(np.intp)
            # guide[b] counts the edges in buckets <= b-2
            np.cumsum(
                np.bincount(bucket, minlength=B)[: B - 1], dtype=np.int32, out=guide[r, 2:]
            )
            guide[r] += r * N
        tops = edges[:, -1].copy()
        edges[:, -1] = np.inf
        self.edges, self.guide = edges.ravel(), guide.ravel()
        rows = np.asarray(rows, dtype=np.intp)
        self.col_top = tops[rows]
        self.col_start = rows * (B + 1)
        self.col_unit = (rows * N).astype(np.int32)
        for table in (self.edges, self.guide, self.col_top, self.col_start, self.col_unit):
            table.setflags(write=False)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """The (m, c) int32 units of the uniforms ``u``."""
        key = (u * self.col_top).ravel()
        pos = self.guide[((u * self.buckets).astype(np.intp) + self.col_start).ravel()]
        # advance only the keys whose next edge is still <= the key: keys in
        # crowded buckets take several steps, and the rest drop out at once
        live = (self.edges[pos] <= key).nonzero()[0]
        while live.size:
            pos[live] += 1
            live = live[self.edges[pos[live]] <= key[live]]
        pos = pos.reshape(u.shape)
        pos -= self.col_unit
        return pos


# The Rao-Sampford tables of the last (population, n) drawn from, as
# (weakref to the population, n, (pi, lookup)).  The weakref keeps no
# population alive and is compared with ``is``, so no other population is
# served these tables; replacing the entry is one tuple store.
_NO_RS_TABLES = (lambda: None, 0, None)
_rs_memo: tuple = _NO_RS_TABLES


def _rs_tables(pop: Population, n: int) -> tuple[np.ndarray, _InverseCdf]:
    global _rs_memo
    ref, memo_n, tables = _rs_memo
    if ref() is pop and memo_n == n:
        return tables
    # free the old tables before the new ones are built, not after
    _rs_memo = tables = _NO_RS_TABLES
    pi = _pps_probs(pop, n)
    pi.setflags(write=False)
    p = pi / n
    # column 0 of an attempt is drawn from the p-cdf, the others from the q-cdf
    tables = pi, _InverseCdf((p, p / (1.0 - n * p)), [0] + [1] * (n - 1))
    _rs_memo = weakref.ref(pop), n, tables
    return tables


def _draw_rao_sampford(pop: Population, n: int, rng: np.random.Generator) -> SampleDraw:
    # Sampford's rejective scheme: one draw proportional to p, n-1 draws with
    # replacement proportional to q = p/(1 - n p); accept only all-distinct
    # sets.  pi, both cdfs and their guide tables are built once per
    # (population, n) and kept in _rs_memo; every attempt's keys go through
    # the guide tables, which give the units a binary search of the cdfs gives.
    # Attempts run in blocks of 1, 2, 4, ... up to _RS_BLOCK_MAX rows; row k
    # of a block maps the same n uniforms, in the same order, as the k-th of
    # its attempts run one at a time.  If a row before the last is accepted,
    # the generator is rewound and advanced past the attempts used, so the
    # sample and the generator's final state are those of the one-attempt
    # loop, for any bit generator.
    pi, units = _rs_tables(pop, n)
    tried, block = 0, 1
    while tried < RS_RETRY_CAP:
        block = min(block, RS_RETRY_CAP - tried)
        state = rng.bit_generator.state if block > 1 else None
        idx = units(rng.random(block * n).reshape(block, n))
        accepted = _distinct(idx)
        j = int(accepted.argmax())
        if accepted[j]:
            if j < block - 1:
                rng.bit_generator.state = state
                rng.random((j + 1) * n)
            idx = idx[j]
            return SampleDraw(DesignKind.RAO_SAMPFORD, idx, pi=pi[idx])
        tried += block
        block = min(2 * block, _RS_BLOCK_MAX)
    raise DrawFailureError(
        f"Rao-Sampford rejection did not accept a sample in {RS_RETRY_CAP} attempts"
    )


def _draw_rhc(pop: Population, n: int, rng: np.random.Generator) -> SampleDraw:
    # Random grouping by cutting a shuffled permutation into the prescribed
    # sizes (group labels are exchangeable), then one PPS pick per group.
    N = pop.n_units
    sizes = rhc_group_sizes(N, n)
    perm = rng.permutation(N)
    x_perm = pop.x[perm]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    cum = np.cumsum(x_perm)
    lower = np.where(starts > 0, cum[starts - 1], 0.0)
    totals = cum[ends - 1] - lower
    targets = lower + rng.random(n) * totals
    pos = np.searchsorted(cum, targets, side="right")
    pos = np.minimum(pos, ends - 1)  # guard against float roundoff at group edges
    idx = perm[pos]
    return SampleDraw(DesignKind.RHC, idx, g_totals=totals)


def draw(
    design: DesignKind, pop: Population, n: int, rng: np.random.Generator
) -> SampleDraw:
    """Draw one sample of size ``n`` under ``design``."""
    _check_n(pop, n)
    if design is DesignKind.SRSWOR:
        return _draw_srswor(pop, n, rng)
    if design is DesignKind.LMS:
        return _draw_lms(pop, n, rng)
    if design is DesignKind.RAO_SAMPFORD:
        return _draw_rao_sampford(pop, n, rng)
    return _draw_rhc(pop, n, rng)


def _groupings(
    m: int, sizes: tuple[int, ...]
) -> tuple[np.ndarray, list[tuple[int, ...]], np.ndarray]:
    """All partitions of units 0..m-1 into unlabeled blocks of the given sizes,
    depth first: unit 0's block by each *distinct* size in turn, then its
    companions in lexicographic order, then the partition of the rest.

    Returns ``layout``, (G, m), each partition's units block after block, the
    distinct block-size ``orders`` and each row's position ``which`` in them.
    The tails are the same positions for every choice of companions, so there
    is one recursion per distinct anchor size, not one per partition.
    """
    if not sizes:
        return np.zeros((1, 0), np.intp), [()], np.zeros(1, np.intp)
    layouts, orders, which = [], [], []
    for s in dict.fromkeys(sizes):
        i = sizes.index(s)
        tail, tail_orders, tail_which = _groupings(m - s, sizes[:i] + sizes[i + 1 :])
        c = comb(m - 1, s - 1)
        companions = itertools.chain.from_iterable(
            itertools.combinations(range(1, m), s - 1)
        )
        head = np.zeros((c, s), np.intp)
        head[:, 1:] = np.fromiter(companions, np.intp, count=c * (s - 1)).reshape(c, s - 1)
        # the units left over, ascending, for each choice of companions
        free = np.ones((c, m), bool)
        free[np.arange(c)[:, None], head] = False
        rest = np.nonzero(free)[1].reshape(c, m - s)
        heads = np.repeat(head, len(tail), axis=0)
        layouts.append(np.hstack([heads, rest[:, tail].reshape(len(heads), m - s)]))
        which.append(len(orders) + np.tile(tail_which, c))
        orders += [(s, *order) for order in tail_orders]
    return np.concatenate(layouts), orders, np.concatenate(which)


def _count_groupings(N: int, sizes: np.ndarray) -> int:
    total = 1
    remaining = N
    for s in sizes:
        total *= comb(remaining, int(s))
        remaining -= int(s)
    mult = 1
    for s in set(sizes.tolist()):
        mult *= factorial(int(np.sum(sizes == s)))
    return total // mult


def enumerate_design(design: DesignKind, pop: Population, n: int) -> Support:
    """The full sample space of a design with exact probabilities.

    Built as arrays, with no Python step per support point or grouping.
    SRSWOR, LMS and Rao-Sampford enumerate all C(N, n) subsets in
    lexicographic order.  RHC enumerates every (grouping, within-group
    selection) outcome, groupings depth first (see ``_groupings``) and each
    grouping's picks as the product of its blocks, the first varying slowest.
    Rao-Sampford probabilities are Sampford's (1967) P(s) proportional to
    sum_{i in s} (1 - pi_i) prod_{i in s} pi_i / (1 - pi_i).
    The size is checked against ``ENUMERATION_CAP`` before anything is built.
    """
    _check_n(pop, n)
    N = pop.n_units
    if design is DesignKind.RHC:
        return _enumerate_rhc(pop, n)
    K = comb(N, n)
    if K > ENUMERATION_CAP:
        raise EnumerationTooLargeError(f"{K} subsets exceed the cap of {ENUMERATION_CAP}")
    pi_all = inclusion_probabilities(design, pop, n)
    subsets = itertools.chain.from_iterable(itertools.combinations(range(N), n))
    idx = np.fromiter(subsets, np.intp, count=K * n).reshape(K, n)
    if design is DesignKind.SRSWOR:
        probs = np.full(K, 1.0 / K)
    elif design is DesignKind.LMS:
        probs = (pop.x[idx].mean(axis=1) / pop.x_bar()) / K
    else:
        r = pi_all / (1.0 - pi_all)
        w = (1.0 - pi_all)[idx].sum(axis=1) * r[idx].prod(axis=1)
        probs = w / w.sum()
    return Support(SampleDraw(design, idx, pi=pi_all[idx]), probs)


def _enumerate_rhc(pop: Population, n: int) -> Support:
    """RHC's support: groupings sharing a block-size order share one template
    of within-layout positions, so their picks are one gather and each block's
    x-totals one row-wise sum.  An outcome's probability is 1 / G times one
    selection factor per group, multiplied in group order."""
    N = pop.n_units
    sizes = rhc_group_sizes(N, n)
    n_groupings, per_grouping = _count_groupings(N, sizes), int(np.prod(sizes))
    n_outcomes = n_groupings * per_grouping
    if n_outcomes > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"{n_outcomes} grouping/selection outcomes exceed the cap "
            f"of {ENUMERATION_CAP}"
        )
    layout, orders, which = _groupings(N, tuple(sizes.tolist()))
    idx = np.empty((n_groupings, per_grouping, n), np.intp)
    totals = np.empty((n_groupings, n))
    for k, order in enumerate(orders):
        rows = which == k
        ends = itertools.accumulate(order)
        blocks = [range(e - b, e) for b, e in zip(order, ends)]
        template = np.fromiter(
            itertools.chain.from_iterable(itertools.product(*blocks)),
            np.intp,
            count=per_grouping * n,
        ).reshape(per_grouping, n)
        units = layout[rows]
        idx[rows] = units[:, template]
        for j, block in enumerate(blocks):
            totals[rows, j] = pop.x[units[:, block.start : block.stop]].sum(axis=1)
    idx, g_totals = idx.reshape(-1, n), np.repeat(totals, per_grouping, axis=0)
    probs = np.full(n_outcomes, 1.0 / n_groupings)
    for j in range(n):
        probs *= pop.x[idx[:, j]] / g_totals[:, j]
    return Support(SampleDraw(DesignKind.RHC, idx, g_totals=g_totals), probs)
