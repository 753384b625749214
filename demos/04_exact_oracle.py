"""Exact design expectations on a tiny population.

With the whole sample space enumerated there is no Monte Carlo noise: design
unbiasedness of the HT and RHC estimators shows up as bias zero to machine
precision (under Rao-Sampford too, through Sampford's sample probabilities),
and the Hajek estimator's small-sample bias becomes visible.
"""

import numpy as np

from finpop import (
    DesignKind,
    EstimatorKind,
    MEAN,
    Population,
    exact_moments,
    exact_vs_formula,
)

pop = Population(
    x=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
    y=np.array([2.0, 1.0, 4.0, 3.0, 6.0]),
)
n = 2
print(f"population mean: {pop.y[:, 0].mean():.4f}\n")

cases = [
    (DesignKind.SRSWOR, EstimatorKind.HT),
    (DesignKind.SRSWOR, EstimatorKind.HAJEK),
    (DesignKind.LMS, EstimatorKind.HT),
    (DesignKind.LMS, EstimatorKind.HAJEK),
    (DesignKind.LMS, EstimatorKind.RATIO),
    (DesignKind.RAO_SAMPFORD, EstimatorKind.HT),
    (DesignKind.RAO_SAMPFORD, EstimatorKind.HAJEK),
    (DesignKind.RHC, EstimatorKind.RHC_EST),
]
print(f"{'design':8s} {'estimator':10s} {'support':>7s} {'bias':>12s} {'mse':>10s}")
for design, kind in cases:
    s = exact_moments(design, pop, n, kind, MEAN)
    print(f"{design.value:8s} {kind.value:10s} {s.support_size:7d} "
          f"{s.bias:12.2e} {s.mse:10.4f}")

n_mse, d2 = exact_vs_formula(DesignKind.RHC, pop, n, MEAN, EstimatorKind.RHC_EST)
print(f"\nRHC mean estimator: exact n*MSE = {n_mse:.4f}, "
      f"class asymptotic MSE = {d2:.4f}")
print("(tiny N, so the two need not agree; they share the scale)")
