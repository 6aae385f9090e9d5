"""The staged continuation geometry: maps, slabs, and cutoffs.

Each stage tilts the flattened coordinates a bit further in time,
x_{s,n} = y_n + c|y'|^2 + s X t / T - (s-1) X, so consecutive stages differ
by exactly X t / T - X.  The slab E_s it clears shrinks linearly in time;
recentering the map laterally at any slab point drops its image below the
X level, which is what lets one stage hand off to the next.  The global
coordinate-wise stretch y -> y/sqrt(1-y^2) opens the unit cube onto all of
space while multiplying the coefficients by explicit weights.
"""

import json

import numpy as np

from fraclab import (ContinuationRegion, CutoffSpec, continuation_schedule,
                     global_diffeo_forward, global_diffeo_inverse,
                     make_cutoffs)

print(__doc__)

T, X, n = 1.0, 0.05, 2
schedule = continuation_schedule(T=T, X=X, s_max=4, n=n)
print(json.dumps([{"map": m.to_dict(), "region": r.to_dict()}
                  for m, r in schedule], indent=2))

print("\nmembership samples for the stage-3 slab:")
region = ContinuationRegion(stage=3, X=X, T=T)
for t, yn in ((0.5, 0.4 * 3 * X), (0.5, 3 * X), (0.95, 0.01), (0.2, -0.1)):
    point = np.array([0.0, yn])
    print(f"  t={t:4.2f}, y_n={yn:+7.3f}: inside = "
          f"{bool(region.contains(t, point))}")

print("\nstage recursion x_(s,n) = x_(s-1,n) + X t/T - X on random points:")
rng = np.random.default_rng(0)
t = rng.uniform(0, T, 5)
y = rng.normal(size=(5, n)) * 0.2
for s in (2, 3, 4):
    prev, curr = schedule[s - 2][0], schedule[s - 1][0]
    gap = curr.forward(t, y)[1][:, -1] - (prev.forward(t, y)[1][:, -1]
                                          + X * t / T - X)
    print(f"  stage {s}: max |defect| = {np.abs(gap).max():.2e}")

print("\nglobal stretch: y = 0.6 maps to", global_diffeo_forward(
    np.array([0.6]))[0], "and back to", global_diffeo_inverse(
    global_diffeo_forward(np.array([0.6])))[0])

kappa, chi = make_cutoffs(CutoffSpec(zeta=1, epsilon=0.5, X=X, n=n))
print("\nlayer cutoff chi: chi(0) = %.1f, chi((1-eps)X/2) = %.1f, "
      "chi(X) = %.1f, chi(2X) = %.1f"
      % (chi(0.0), chi((1 - 0.5) * X / 2), chi(X), chi(2 * X)))
print("box cutoff kappa at the box center:",
      float(kappa(np.array([0.0, X / 2]))), "and far outside:",
      float(kappa(np.array([1.0, 1.0]))))
