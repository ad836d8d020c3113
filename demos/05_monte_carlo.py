"""
Monte Carlo survival against the exact curve
============================================

Sample trajectories of the suspension flow from the invariant measure and
record the fraction that has avoided the hole at each time step. The sampled
curve sits on top of the exactly-computed one, the fitted confidence bracket
contains the true escape rate, and reruns with the same seed reproduce every
byte. All randomness flows from one seeded PCG64 stream: reruns are
byte-identical on one numpy build, and the sampled numbers also depend on
numpy's binomial algorithm, through which its multinomial draws split the
sample counts.
"""

import numpy as np

from flowescape import (
    SimulationConfig,
    build_markov_shift,
    build_suspension,
    cylinder_function,
    escape_rate_flow,
    estimate_survival,
    fit_escape_rate,
    survival_curve_flow,
)

shift = build_markov_shift([[0.5, 0.5], [1.0, 0.0]])
ceiling = cylinder_function(1, {(0,): 1.0, (1,): 2.0}, lattice=1.0)
system = build_suspension(shift, ceiling)
hole = (0, 0)

rate = escape_rate_flow(system, hole)
config = SimulationConfig(seed=42, samples=100_000, t_max=20)
estimate = estimate_survival(system, hole, config)
exact = survival_curve_flow(system, hole, config.t_max)

print(f"golden mean shift, step ceiling, hole [0,0]; exact rate {rate:.12f}")
print("  t   exact        sampled      z-score")
for t in range(2, config.t_max + 1, 2):
    z = (estimate.estimates[t] - exact[t]) / estimate.stderrs[t]
    print(f" {t:3d}  {exact[t]:.6f}   {estimate.estimates[t]:.6f}   {z:+.2f}")

# The fit turns the tail of the curve into a conservative bracket for the
# rate: each window point contributes -log(p -+ 3 se)/t and the bracket is
# the union.
fit = fit_escape_rate(estimate)
inside = fit.lower <= rate <= fit.upper
print(f"\nfitted bracket [{fit.lower:.6f}, {fit.upper:.6f}] over window {fit.window}")
print(f"contains the exact rate: {inside}; converged: {fit.converged}")

# Determinism: a rerun with the same configuration is byte-identical.
rerun = estimate_survival(system, hole, config)
print(f"rerun byte-identical: {np.array_equal(rerun.estimates, estimate.estimates)}")
