"""Confidence intervals from plug-in variance estimates, and what jackknife
bias correction does to a nonlinear plug-in estimator.

The jackknife leaves linear statistics untouched.  For the variance plug-in
it removes some bias but inflates the spread enough that its mean squared
error gets worse, which is why the benchmark reports it separately.
"""

import numpy as np

from finpop import (
    Cell,
    DesignKind,
    EstimatorKind,
    ExperimentConfig,
    MEAN,
    VARIANCE,
    confidence_interval,
    default_univariate_spec,
    draw,
    generate_univariate,
    jackknife_bc,
    plug_in,
    run_experiment,
    variance_estimate,
)

pop = generate_univariate(default_univariate_spec(), 5000, seed=4)
truth = pop.y[:, 0].mean()
rng = np.random.default_rng(3)

s = draw(DesignKind.SRSWOR, pop, 100, rng)
est = plug_in(MEAN, EstimatorKind.PEML, s, pop)
var = variance_estimate(s, pop, MEAN, EstimatorKind.PEML)
ci = confidence_interval(est, var, s.n, level=0.95)
print(f"point estimate {est:.2f}, true mean {truth:.2f}")
print(f"95% interval [{ci.lower:.2f}, {ci.upper:.2f}] "
      f"(length {ci.length:.2f}, covers truth: {ci.contains(truth)})\n")

bc = jackknife_bc(s, pop, MEAN, EstimatorKind.HAJEK)
plain = plug_in(MEAN, EstimatorKind.HAJEK, s, pop)
print(f"jackknife on the Hajek mean (linear): {bc:.10f} vs {plain:.10f}")

cell = Cell(DesignKind.SRSWOR, EstimatorKind.PEML, VARIANCE)
cfg = ExperimentConfig(
    population=pop, cells=(cell,), sample_sizes=(75,), replicates=300,
    seed=1, jackknife=True, baseline=None,
)
r = run_experiment(cfg).result_for(cell, 75)
print("\nvariance plug-in at n = 75 over 300 replicates:")
print(f"  plain:           mse {r.mse:12.4g}   mean {r.mean_estimate:12.4g}")
print(f"  bias-corrected:  mse {r.bc_mse:12.4g}   mean {r.bc_mean:12.4g}")
print(f"  true variance:   {pop.y[:, 0].var():12.4g}")
print(f"  correction moves the mean closer but costs "
      f"{r.bc_mse / r.mse - 1:+.1%} MSE")
