"""
Exact escape rates three independent ways
=========================================

Open the full 2-shift suspension along a cylinder hole and compute the flow
escape rate by (1) the spectral radius of the open transfer matrix, (2) the
smallest zero of the factorized dynamical determinant, and (3) the decay
slope of exactly-computed survival probabilities. All three agree to high
precision, and for these holes the answers have closed forms.
"""

import math

from flowescape import (
    build_markov_shift,
    build_suspension,
    constant_function,
    escape_rate_flow,
    escape_rate_from_survival_slope,
    escape_rate_zeta,
    format_word,
)

# The full shift on two symbols with the fair (1/2, 1/2) Markov measure,
# suspended under the constant ceiling 1 (so flow time = symbol count).
shift = build_markov_shift([[0.5, 0.5], [0.5, 0.5]])
system = build_suspension(shift, constant_function(shift, 1.0))

# Two holes with textbook closed forms: punching out the cylinder [0]
# leaves a rate of log 2, while the cylinder [0,0] leaves the golden mean
# shift behind, so the rate drops to log 2 - log((1+sqrt(5))/2).
golden = (1.0 + math.sqrt(5.0)) / 2.0
targets = {
    (0,): math.log(2.0),
    (0, 0): math.log(2.0) - math.log(golden),
}

for hole, target in targets.items():
    by_radius = escape_rate_flow(system, hole)
    by_zeta = escape_rate_zeta(system, hole)
    by_slope = escape_rate_from_survival_slope(shift, hole)
    print(f"hole [{format_word(shift, hole)}]")
    print(f"  closed form        {target:.15f}")
    print(f"  spectral radius    {by_radius:.15f}  (gap {abs(by_radius - target):.2e})")
    print(f"  zeta root          {by_zeta:.15f}  (gap {abs(by_zeta - target):.2e})")
    print(f"  survival slope     {by_slope:.15f}  (gap {abs(by_slope - target):.2e})")
