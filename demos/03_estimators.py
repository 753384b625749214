"""The seven mean estimators side by side, plus a close look at the
calibrated weights behind the pseudo empirical likelihood estimator.

Coincidences to notice: HT equals Hajek under SRSWOR, and HT, ratio and
product all collapse to one value when inclusion probabilities are
proportional to x.
"""

import numpy as np

from finpop import (
    DesignKind,
    EstimatorKind,
    default_univariate_spec,
    design_weights,
    draw,
    estimate_mean,
    generate_univariate,
    peml_weights,
)

pop = generate_univariate(default_univariate_spec(), 2000, seed=5)
truth = pop.y[:, 0].mean()
rng = np.random.default_rng(1)
n = 40

print(f"true mean: {truth:.3f}\n")
for design in (DesignKind.SRSWOR, DesignKind.RAO_SAMPFORD, DesignKind.RHC):
    s = draw(design, pop, n, rng)
    h = pop.y[s.indices][:, 0]
    print(f"{design.value} draw:")
    kinds = (
        (EstimatorKind.RHC_EST, EstimatorKind.GREG, EstimatorKind.PEML)
        if design is DesignKind.RHC
        else (
            EstimatorKind.HT, EstimatorKind.HAJEK, EstimatorKind.RATIO,
            EstimatorKind.PRODUCT, EstimatorKind.GREG, EstimatorKind.PEML,
        )
    )
    for kind in kinds:
        est = estimate_mean(kind, s, pop, h)
        print(f"  {kind.value:8s} {est:10.3f}   error {est - truth:+8.3f}")
    print()

s = draw(DesignKind.SRSWOR, pop, 6, rng)
d = design_weights(s, pop)
c = peml_weights(d, pop.x[s.indices], pop.x_bar())
print("calibrated weights on a 6-unit draw:")
print("  x sampled:", np.array2string(pop.x[s.indices], precision=1))
print("  weights:  ", np.array2string(c, precision=4))
print(f"  sum = {c.sum():.12f}, weighted x mean = {c @ pop.x[s.indices]:.4f}"
      f" (population x mean {pop.x_bar():.4f})")
