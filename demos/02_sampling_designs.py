"""Draw samples under the four designs and check their inclusion behavior.

SRSWOR treats every unit alike; Lahiri-Midzuno-Sen tilts sample probability
toward large sample x means; Rao-Sampford realizes inclusion probabilities
exactly proportional to x; Rao-Hartley-Cochran forms random groups and picks
one unit per group proportional to x within it.
"""

import numpy as np

from finpop import (
    DesignKind,
    Population,
    draw,
    enumerate_design,
    inclusion_probabilities,
    rhc_group_sizes,
)

pop = Population(x=np.array([1.0, 2.0, 3.0, 4.0]), y=np.zeros(4))
n = 2

print("inclusion probabilities on x = (1, 2, 3, 4), n = 2")
for design in (DesignKind.SRSWOR, DesignKind.LMS, DesignKind.RAO_SAMPFORD):
    pi = inclusion_probabilities(design, pop, n)
    print(f"  {design.value:8s} {np.array2string(pi, precision=4)}"
          f"   sum = {pi.sum():.3f}")

print("\nRHC group sizes: N=10,n=5 ->", rhc_group_sizes(10, 5).tolist(),
      "  N=7,n=3 ->", rhc_group_sizes(7, 3).tolist())

rng = np.random.default_rng(7)
m = 50_000
counts = np.zeros(4)
for _ in range(m):
    counts[draw(DesignKind.RAO_SAMPFORD, pop, n, rng).indices] += 1
print(f"\nRao-Sampford empirical inclusion over {m} draws:",
      np.array2string(counts / m, precision=4), " target (0.2 0.4 0.6 0.8)")
rs = enumerate_design(DesignKind.RAO_SAMPFORD, pop, n)
exact = np.bincount(rs.batch.indices.ravel(), weights=np.repeat(rs.probs, n))
print(f"exact inclusion from Sampford's P(s) over all {len(rs)} subsets:",
      np.array2string(exact, precision=4))

print("\nfull LMS sample space (probability proportional to sample mean of x):")
support = enumerate_design(DesignKind.LMS, pop, n)
for units, p in zip(support.batch.indices, support.probs):
    print(f"  units {units.tolist()}  P = {p:.6f}")

s = draw(DesignKind.RHC, pop, n, rng)
print("\none RHC draw: units", s.indices.tolist(),
      "group x-totals", s.g_totals.tolist(),
      "(totals sum to", float(s.g_totals.sum()), "= population x total)")
