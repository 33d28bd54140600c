#!/usr/bin/env python3
"""How the supported equilibrium density concentrates as kappa grows.

For d=2, m=0.5 the branch exists for every kappa above kappa1.  Right at
the bifurcation it is indistinguishable from the uniform density; pushing
kappa up drains mass from the antipode and piles it onto the pole.  The
pole-to-antipode contrast rho(0)/rho(pi) is a convenient single number
for that trend.
"""

import math

import numpy as np

from fastsphere import critical_set, fully_supported_density, fully_supported_state

D, M = 2, 0.5
k1 = critical_set(D, M).kappa1
print(f"d={D}, m={M}: branch exists above kappa1 = {k1:.6f}\n")
print(f"{'kappa':>10} {'eta':>12} {'com norm s':>12} {'rho(0)':>12} "
      f"{'rho(pi)':>12} {'contrast':>10}")

for factor in (1.000001, 1.1, 1.5, 2.0, 3.0, 5.0):
    kappa = factor * k1
    state = fully_supported_state(kappa, D, M)
    top = fully_supported_density(state, 0.0, D, M)
    bottom = fully_supported_density(state, math.pi, D, M)
    print(
        f"{kappa:10.4f} {state.eta:12.6g} {state.s:12.6f} "
        f"{top:12.6f} {bottom:12.6f} {top / bottom:10.2f}"
    )

# a full profile for one kappa, ready for plotting
kappa = 2.0 * k1
state = fully_supported_state(kappa, D, M)
thetas = np.linspace(0.0, math.pi, 181)
print(f"\nprofile at kappa = {kappa:.4f} (theta, density):")
for theta in thetas[::30]:
    print(f"  {theta:8.5f}  {fully_supported_density(state, float(theta), D, M):.8f}")
