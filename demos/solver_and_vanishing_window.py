"""Manufactured-solution convergence and the vanishing-window experiment.

The implicit scheme moves the discrete fractional history to the right-hand
side and solves one sparse system per step; against u = t^2 sin(pi y) the
error decays with order about min(2 - alpha, 2) in time.  The second part
drives the equation with smooth sources supported away from an observation
window: the computed solution never vanishes on the window alone, the
discrete shadow of unique continuation (a solution vanishing there would
have to vanish everywhere).
"""

import numpy as np

from fraclab import (MultiTermSpec, SpaceTimeGrid, TimeGrid, caputo_power_rule,
                     identity_field, solve, ucp_experiment)

print(__doc__)

spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))


def exact(t, Y):
    return t**2 * np.sin(np.pi * Y[..., 0])


def source(t, Y):
    sine = np.sin(np.pi * Y[..., 0])
    return (caputo_power_rule(2.0, 0.5, np.maximum(t, 1e-300))
            + np.pi**2 * t**2) * sine


print("convergence against u = t^2 sin(pi y), order 0.5:")
prev = None
for n in (32, 64, 128, 256):
    grid = SpaceTimeGrid(bounds=((0.0, 1.0),), shape=(n,),
                         time=TimeGrid.from_interval(1.0, n))
    result = solve(spec, identity_field(1), source, grid,
                   check_residual=(n <= 64))
    ref = np.stack([exact(t, grid.mesh()) for t in grid.time.nodes])
    err = float(np.abs(result.field.values - ref).max())
    line = f"  N_t = N_y = {n:4d}: max error {err:.3e}"
    if prev is not None:
        line += f"  (order {np.log2(prev / err):.2f})"
    if "equation_residual_max" in result.diagnostics:
        line += (f"  discrete residual "
                 f"{result.diagnostics['equation_residual_max']:.1e}")
    print(line)
    prev = err

print("\nvanishing-window experiment (window (0.05, 0.25), horizon 0.5):")
grid = SpaceTimeGrid(bounds=((0.0, 1.0),), shape=(97,),
                     time=TimeGrid.from_interval(1.0, 64))
rows = ucp_experiment(spec, identity_field(1), grid, omega=(0.05, 0.25),
                      t_prime=0.5, source_centers=(0.45, 0.6, 0.75, 0.9),
                      source_width=0.08)
floor = 1e-13
print(f"{'center':>8} {'distance':>9} {'window norm':>12} {'total norm':>11} "
      f"{'ratio':>10}")
for center, dist, nw, nt, ratio in rows:
    print(f"{center:8.2f} {dist:9.2f} {nw:12.3e} {nt:11.3e} {ratio:10.3e}")
print(f"  all window/total ratios above the floor {floor:g}: "
      f"{all(row[4] > floor for row in rows)}")
