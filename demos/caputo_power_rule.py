"""Fractional derivatives of monomials: two routes, one closed form.

The closed form Gamma(p+1)/Gamma(p+1-alpha) t^(p-alpha) is reproduced by
adaptive quadrature of the defining convolution (to ~1e-12) and by L1
product integration on time grids, whose error shrinks like dt^(2-alpha)
below order one.  The table prints both errors across orders on either
side of 1, plus the multi-term operator combining them.
"""

import numpy as np

from fraclab import (MultiTermSpec, TimeGrid, caputo_l1, caputo_oracle,
                     caputo_power_rule, multiterm_l1)

print(__doc__)

print(f"{'alpha':>6} {'N':>6} {'L1 value':>14} {'rel err':>10} "
      f"{'quadrature':>14} {'rel err':>10}")
for alpha in (0.25, 0.5, 0.75, 1.25, 1.5, 1.75):
    exact = caputo_power_rule(2.0, alpha, 1.0)
    deriv = (lambda t: 2.0 * t) if alpha < 1 else (lambda t: 2.0)
    oracle = caputo_oracle(deriv, alpha, 1.0, tol=1e-12)
    for n in (256, 1024, 4096):
        grid = TimeGrid.from_interval(1.0, n)
        val = caputo_l1(grid.nodes**2, alpha, grid.dt)[-1]
        print(f"{alpha:6.2f} {n:6d} {val:14.8f} {abs(val-exact)/exact:10.2e} "
              f"{oracle:14.8f} {abs(oracle-exact)/exact:10.2e}")

print("\nEmpirical order of the L1 route (u = t^2.5, error slope in dt):")
for alpha in (0.3, 0.6, 0.9):
    errs = []
    for n in (256, 512, 1024):
        grid = TimeGrid.from_interval(1.0, n)
        val = caputo_l1(grid.nodes**2.5, alpha, grid.dt)[-1]
        errs.append(abs(val - caputo_power_rule(2.5, alpha, 1.0)))
    order = np.log2(errs[0] / errs[2]) / 2.0
    print(f"  alpha={alpha}: observed order {order:.2f} (theory {2-alpha})")

print("\nMulti-term operator on u = t^2 at t = 1, orders (1.0, 0.5),"
      " weights (1, 2):")
grid = TimeGrid.from_interval(1.0, 4096)
spec = MultiTermSpec(orders=(1.0, 0.5), weights=(1.0, 2.0))
value = multiterm_l1(grid.nodes**2, spec, grid.dt)[-1]
closed = sum(q * caputo_power_rule(2.0, a, 1.0)
             for q, a in zip(spec.weights, spec.orders))
print(f"  discrete {value:.8f} vs closed form {closed:.8f} "
      f"(rel err {abs(value-closed)/closed:.2e})")
