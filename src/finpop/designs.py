"""Sampling designs: SRSWOR, Lahiri-Midzuno-Sen, Rao-Sampford and
Rao-Hartley-Cochran.

Each design can draw a sample (given an externally supplied random
generator), report its inclusion probabilities where those are fixed, and
enumerate its whole sample space with exact probabilities for oracle-style
verification on tiny populations, as one (K, n) batch of all K support points.
The population-free part of a sample space, its subsets or RHC's outcomes
and group layouts, is built once per (N, n) and kept while the next call
asks for the same (N, n): one per kind, read-only, and only when it has at
most 2**21 index entries (16 MB), so at most 32 MB stay alive.

Every design draws a batch of samples, one per generator, in one call that
computes what depends only on (population, n) once; a row is what a single
draw from its generator gives, and ``draw`` is the one-row batch.
Rao-Sampford draws are exact: thinned conditional Poisson samples, drawn in
n vector steps from elementary-symmetric tables built once per
(population, n), whole up to 2**21 entries, all rows of a batch together.
The library builds its draws, batches and supports from valid parts and
skips the checks a user-built ``SampleDraw`` goes through.

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
from functools import lru_cache
from math import comb, factorial, isqrt, prod

import numpy as np

from .errors import (
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
            raise ParameterError("unit indices must be nonnegative").at_rows(
                (idx < 0).any(axis=-1)
            )
        ordered = np.sort(idx, axis=-1)
        distinct = (ordered[..., 1:] != ordered[..., :-1]).all(axis=-1)
        if not distinct.all():
            raise ParameterError("sample indices must be distinct").at_rows(~distinct)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        pi_based = self.design.is_pi_based
        name, other = ("pi", "g_totals") if pi_based else ("g_totals", "pi")
        if getattr(self, name) is None or getattr(self, other) is not None:
            raise ParameterError(f"{self.design} draws carry {name}, not {other}")
        value = np.array(getattr(self, name), dtype=float)
        if value.shape != idx.shape:
            raise ParameterError(f"{name} must align with indices")
        # written so that NaN fails it too
        if not ((value > 0) & (value <= 1 if pi_based else value < np.inf)).all():
            raise ParameterError(
                "inclusion probabilities must lie in (0, 1]" if pi_based
                else "group totals must be finite and positive"
            )
        value.setflags(write=False)
        object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, design, indices, pi=None, g_totals=None) -> "SampleDraw":
        """A draw or batch the library built from valid parts, its arrays made
        read-only but not checked or copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "design", design)
        for name, value in (("indices", indices), ("pi", pi), ("g_totals", g_totals)):
            if value is not None:
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        return self

    def __getitem__(self, rows) -> "SampleDraw":
        """The sample at batch row ``rows`` (an int), or the batch of the rows
        a slice or index array selects, which must keep at least one row."""
        # one index on the row axis: a tuple may pick columns, None adds an axis
        if (self.indices.ndim != 2 or isinstance(rows, tuple)
                or (idx := self.indices[rows]).ndim > 2 or idx.size == 0):
            raise ParameterError("select one or more rows of a batch")
        return SampleDraw._trusted(
            self.design,
            idx,
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


def _check_n(N: int, n: int) -> None:
    if not 2 <= n < N:
        raise ParameterError(f"sample size must satisfy 2 <= n < N, got n={n}, N={N}")


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
    _check_n(pop.n_units, n)
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
    _check_n(N, n)
    base = N // n
    if N % n == 0:
        return np.full(n, base, dtype=int)
    k = n * (base + 1) - N  # number of groups of size floor(N/n)
    return np.array([base] * k + [base + 1] * (n - k), dtype=int)


# The Rao-Sampford tables of the last (population, n) drawn from, as
# (weakref to the population, n, tables).  The weakref keeps no population
# alive and is compared with ``is``, so no other population is served these
# tables; replacing the entry is one tuple store.
_NO_RS_TABLES = (lambda: None, 0, None)
_rs_memo: tuple = _NO_RS_TABLES
# The tables of one (population, n) keep every column when they hold at most
# this many entries (16 MB); larger ones keep every isqrt(n)-th column and
# rebuild the others once a pass, for all rows of the batch.
_FULL_TABLE = 2**21
_UNSCALED = (2.0**-500, 2.0**500)  # a column whose top lies here is not scaled
# Attempts per pending row and pass: a pass costs n table steps however few
# rows are left; at the thinning acceptance of skewed sizes, 0.92, 24 rows
# take 2.0 passes with one attempt and 1.15 with two (same stream chunks).
_ATTEMPTS = 2


def _column(prev: np.ndarray, rr: np.ndarray, out: np.ndarray, scale=None):
    """Column m of the table, from column m-1, over the first ``len(out)``
    entries: e_m of the last a units is e_m of the last a-1 plus r of the
    a-th unit from the end times e_{m-1} of the last a-1.  A cumsum prefix
    does not depend on its length, so ``out`` gets the leading entries of a
    longer one bit for bit.  The column is divided by ``scale``; None picks
    and returns it, 1 unless the column's top nears a double's range."""
    out[0] = 0.0
    np.multiply(rr[: len(out) - 1], prev[: len(out) - 1], out=out[1:])
    np.cumsum(out[1:], out=out[1:])
    if scale is None:
        scale = 1.0 if _UNSCALED[0] <= out[-1] <= _UNSCALED[1] else out[-1]
    if scale != 1.0:
        out /= scale
    return scale


class _SampfordTables:
    """Sampford's design of one (population, n) as thinned conditional
    Poisson sampling (CPS): s is drawn with P(s) proportional to the product
    of r_i = pi_i / (1 - pi_i) over s and kept with probability
    sum_{i in s} (1 - pi_i) / n, which leaves Sampford's (1967) P(s).

    Column m holds, at a = 0..N, e_m of the r of the last a units (Chen,
    Dempster & Liu 1994) up to a scale: ascending in a, exactly 0 for a < m.
    A CPS draw steps through the columns from m = n down to 1: with the last
    ``lim`` units free, it picks unit N - a for a = ``searchsorted(col_m,
    u * col_m[lim], side="right")``, in [m, lim] for every u in [0, 1).
    Tables of more than ``_FULL_TABLE`` entries keep only column n and every
    c-th, c = isqrt(n) (else c = 1); the steps rebuild the others a block of
    up to c columns at a time, over the prefix the rows can still reach.
    """

    def __init__(self, pop: Population, n: int):
        pi = _pps_probs(pop, n)
        pi.setflags(write=False)
        self.pi, self.one_minus, self.n = pi, 1.0 - pi, n
        self.rr = (pi / self.one_minus)[::-1].copy()
        self.c = c = 1 if (n + 1) * (len(pi) + 1) <= _FULL_TABLE else isqrt(n)
        self.scales = np.ones(n + 1)
        col = np.ones(len(pi) + 1)
        self.kept = {0: col}
        for m in range(1, n + 1):
            col, prev = np.empty_like(col), col
            self.scales[m] = _column(prev, self.rr, col)
            if m % c == 0 or m == n:
                self.kept[m] = col

    def cps(self, u: np.ndarray) -> np.ndarray:
        """One CPS sample per row of the (R, n) uniforms, units ascending;
        row r depends on u[r] alone."""
        N, n, c = len(self.pi), self.n, self.c
        steps = np.ascontiguousarray(u.T)
        picks = np.empty(steps.shape, np.intp)  # the a of each step, a row per step
        lim, block_j = N, None
        for t in range(n):
            col = self.kept.get(n - t)
            if col is None:
                j, k = divmod(n - t, c)
                if j != block_j:  # entering block j: rebuild its columns
                    block_j, base = j, j * c
                    block = np.empty((min(c, n - base), int(lim.max()) + 1))
                    block[0] = self.kept[base][: block.shape[1]]
                    for i in range(1, len(block)):
                        _column(block[i - 1], self.rr, block[i], self.scales[base + i])
                col = block[k]
            a = picks[t] = col.searchsorted(steps[t] * col[lim], side="right")
            lim = a - 1
        return N - picks.T


def _rao_sampford_rows(pop: Population, n: int, rngs) -> SampleDraw:
    """One Rao-Sampford sample per generator, as an (R, n) batch whose row r
    is what ``draw`` returns for ``rngs[r]``.  Each pass gives every pending
    row ``_ATTEMPTS`` attempts of n + 1 uniforms from its own generator, n
    for the CPS steps and one for the thinning; a row keeps its first
    accepted attempt."""
    global _rs_memo
    ref, memo_n, tables = _rs_memo
    if ref() is not pop or memo_n != n:
        _rs_memo, tables = _NO_RS_TABLES, None  # free the old tables before building new ones
        tables = _SampfordTables(pop, n)
        _rs_memo = weakref.ref(pop), n, tables
    idx = np.empty((len(rngs), n), np.intp)
    pending = np.arange(len(rngs))
    while pending.size:
        u = np.array([rngs[r].random(_ATTEMPTS * (n + 1)) for r in pending])
        u = u.reshape(-1, n + 1)
        rows = tables.cps(u[:, :n])
        kept = (u[:, n] * n < tables.one_minus[rows].sum(axis=1)).reshape(-1, _ATTEMPTS)
        done = kept.any(axis=1)
        first = kept[done].argmax(axis=1)
        idx[pending[done]] = rows.reshape(-1, _ATTEMPTS, n)[done, first]
        pending = pending[~done]
    return SampleDraw._trusted(DesignKind.RAO_SAMPFORD, idx, pi=tables.pi[idx])


def _draw_rows(design: DesignKind, pop: Population, n: int, rngs) -> SampleDraw:
    """One sample of size ``n`` per generator, as an (R, n) batch whose row r
    is what ``draw`` returns for ``rngs[r]``, with what depends only on
    (population, n) computed once for all rows."""
    _check_n(pop.n_units, n)
    if design is DesignKind.RAO_SAMPFORD:
        return _rao_sampford_rows(pop, n, rngs)
    N = pop.n_units
    idx = np.empty((len(rngs), n), np.intp)
    if design is DesignKind.SRSWOR:
        for r, rng in enumerate(rngs):
            idx[r] = rng.choice(N, size=n, replace=False)
        return SampleDraw._trusted(design, idx, pi=np.full(idx.shape, n / N))
    if design is DesignKind.LMS:
        # First unit proportional to x, then SRSWOR among the rest: realizes
        # P(s) = (xbar_s / Xbar) / C(N, n).  The first pick inverts the cdf
        # as ``rng.choice(N, p=x / sum x)`` builds it; the rest are
        # ``rng.choice`` over the other N - 1 units, numbered past the first.
        cdf = np.cumsum(pop.x / pop.x_total())
        cdf /= cdf[-1]
        for r, rng in enumerate(rngs):
            idx[r, 0] = first = cdf.searchsorted(rng.random(), side="right")
            rest = rng.choice(N - 1, size=n - 1, replace=False)
            idx[r, 1:] = rest + (rest >= first)
        pi = inclusion_probabilities(design, pop, n)
        return SampleDraw._trusted(design, idx, pi=pi[idx])
    # RHC: random grouping by cutting a shuffled permutation into the
    # prescribed sizes (group labels are exchangeable), then one PPS pick per
    # group.  Rows share no permutation, so each is drawn on its own.
    ends = np.cumsum(rhc_group_sizes(N, n))
    starts = np.r_[0, ends[:-1]]
    totals = np.empty(idx.shape)
    for r, rng in enumerate(rngs):
        perm = rng.permutation(N)
        cum = np.cumsum(pop.x[perm])
        lower = np.where(starts > 0, cum[starts - 1], 0.0)
        totals[r] = cum[ends - 1] - lower
        targets = lower + rng.random(n) * totals[r]
        pos = np.searchsorted(cum, targets, side="right")
        idx[r] = perm[np.minimum(pos, ends - 1)]  # guard against roundoff at group edges
    return SampleDraw._trusted(design, idx, g_totals=totals)


def draw(
    design: DesignKind, pop: Population, n: int, rng: np.random.Generator
) -> SampleDraw:
    """Draw one sample of size ``n`` under ``design``: the one-row batch."""
    return _draw_rows(design, pop, n, [rng])[0]


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


def _skeleton(build, N: int, n: int, entries: int):
    """``build(N, n)``, from its one-entry cache when the skeleton holds at
    most ``_FULL_TABLE`` index entries, else built afresh and not kept."""
    return (build if entries <= _FULL_TABLE else build.__wrapped__)(N, n)


@lru_cache(maxsize=1)
def _subsets(N: int, n: int) -> np.ndarray:
    """The read-only (C(N, n), n) array of all n-subsets of 0..N-1 in
    lexicographic order."""
    K = comb(N, n)
    subsets = itertools.chain.from_iterable(itertools.combinations(range(N), n))
    idx = np.fromiter(subsets, np.intp, count=K * n).reshape(K, n)
    idx.setflags(write=False)
    return idx


def enumerate_design(design: DesignKind, pop: Population, n: int) -> Support:
    """The full sample space of a design with exact probabilities.

    Built as arrays, with no Python step per support point or grouping.
    SRSWOR, LMS and Rao-Sampford enumerate all C(N, n) subsets in
    lexicographic order.  RHC enumerates every (grouping, within-group
    selection) outcome, groupings depth first (see ``_groupings``) and each
    grouping's picks as the product of its blocks, the first varying slowest.
    Rao-Sampford probabilities are Sampford's (1967) P(s) proportional to
    sum_{i in s} (1 - pi_i) prod_{i in s} pi_i / (1 - pi_i).
    The size is checked against ``ENUMERATION_CAP`` before anything is built;
    what does not depend on the population may come from the last call with
    the same (N, n) (see ``_skeleton``).
    """
    _check_n(pop.n_units, n)
    N = pop.n_units
    if design is DesignKind.RHC:
        batch, probs = _enumerate_rhc(pop, n)
    else:
        K = comb(N, n)
        if K > ENUMERATION_CAP:
            raise EnumerationTooLargeError(
                f"{K} subsets exceed the cap of {ENUMERATION_CAP}"
            )
        pi_all = inclusion_probabilities(design, pop, n)
        idx = _skeleton(_subsets, N, n, K * n)
        if design is DesignKind.SRSWOR:
            probs = np.full(K, 1.0 / K)
        elif design is DesignKind.LMS:
            probs = (pop.x[idx].mean(axis=1) / pop.x_bar()) / K
        else:
            r = pi_all / (1.0 - pi_all)
            w = (1.0 - pi_all)[idx].sum(axis=1) * r[idx].prod(axis=1)
            probs = w / w.sum()
        batch = SampleDraw._trusted(design, idx, pi=pi_all[idx])
    probs.setflags(write=False)
    return Support(batch, probs)


@lru_cache(maxsize=1)
def _rhc_outcomes(N: int, n: int) -> tuple[np.ndarray, tuple]:
    """RHC's outcomes as the read-only (G * prod(sizes), n) unit array, and
    per block-size order the rows of its groupings and each block's units,
    (G_k, size).  Groupings sharing an order share one template of
    within-layout positions, so their picks are one gather."""
    sizes = tuple(rhc_group_sizes(N, n).tolist())
    per_grouping = prod(sizes)
    layout, orders, which = _groupings(N, sizes)
    idx = np.empty((len(layout), per_grouping, n), np.intp)
    blocks = []
    for k, order in enumerate(orders):
        rows = which == k
        ends = itertools.accumulate(order)
        spans = [range(e - b, e) for b, e in zip(order, ends)]
        template = np.fromiter(
            itertools.chain.from_iterable(itertools.product(*spans)),
            np.intp,
            count=per_grouping * n,
        ).reshape(per_grouping, n)
        units = layout[rows]
        idx[rows] = units[:, template]
        units.setflags(write=False)
        rows.setflags(write=False)
        blocks.append((rows, tuple(units[:, span.start : span.stop] for span in spans)))
    idx = idx.reshape(-1, n)
    idx.setflags(write=False)
    return idx, tuple(blocks)


def _enumerate_rhc(pop: Population, n: int) -> tuple[SampleDraw, np.ndarray]:
    """RHC's support: each block's x-totals are one row-wise sum over the
    groupings of its order.  An outcome's probability is 1 / G times one
    selection factor per group, multiplied in group order."""
    N = pop.n_units
    sizes = rhc_group_sizes(N, n).tolist()
    # partitions into unlabeled blocks of these sizes: N! / (prod s_i! prod c_s!), c_s of size s
    n_groupings = factorial(N) // prod(map(factorial, [*sizes, *map(sizes.count, set(sizes))]))
    per_grouping = prod(sizes)
    n_outcomes = n_groupings * per_grouping
    if n_outcomes > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"{n_outcomes} grouping/selection outcomes exceed the cap "
            f"of {ENUMERATION_CAP}"
        )
    # the outcomes' units and, block by block, every grouping's units
    entries = n_outcomes * n + n_groupings * N
    idx, blocks = _skeleton(_rhc_outcomes, N, n, entries)
    totals = np.empty((n_groupings, n))
    for rows, units in blocks:
        for j, block in enumerate(units):
            totals[rows, j] = pop.x[block].sum(axis=1)
    g_totals = np.repeat(totals, per_grouping, axis=0)
    probs = np.full(n_outcomes, 1.0 / n_groupings)
    for j in range(n):
        probs *= pop.x[idx[:, j]] / g_totals[:, j]
    return SampleDraw._trusted(DesignKind.RHC, idx, g_totals=g_totals), probs
