"""Discrete sweep of the weighted a-priori inequality on bump families.

Both sides are evaluated on compactly supported space-time bumps under the
weight exp(2 beta psi): the left side carries the beta^3 and beta blocks
(plus a time-derivative block once the order reaches 4/3), the right side
is the weighted square of the conjugated operator in the convexified
coordinates.  The ratio per (beta, bump) rises to a plateau and then
decays like 1/beta; a single constant bounding the sweep is the empirical
certificate, and monotone growth across the top of the beta grid would
refute the inequality.
"""

import numpy as np

from fraclab import (HolmgrenMap, MultiTermSpec, SpaceTimeGrid, TimeGrid,
                     beta_sweep, default_bump_family, identity_field,
                     pushforward_operator)

print(__doc__)

X = 0.3
hmap = HolmgrenMap(y_hat=np.zeros(1), c=1.0, X=X, T=1.0)
frame = pushforward_operator(identity_field(1), hmap)
grid = SpaceTimeGrid(bounds=((0.0, X),), shape=(161,),
                     time=TimeGrid.from_interval(1.0, 160))
betas = (25.0, 50.0, 100.0, 200.0, 400.0)

for alpha in (0.5, 1.5):
    spec = MultiTermSpec(orders=(alpha,), weights=(1.0,))
    bumps = default_bump_family(grid, count=3)
    result = beta_sweep(betas, spec, bumps, grid, frame)
    branch = "with time-derivative block" if alpha >= 4.0 / 3.0 else \
        "first-derivative blocks only"
    print(f"\norder alpha = {alpha} ({branch}):")
    print(f"{'beta':>8} " + " ".join(f"{'bump' + str(i):>8}"
                                     for i in range(3)))
    by_test = result.ratios_by_test()
    for j, beta in enumerate(betas):
        cols = " ".join(f"{sorted(by_test[i])[j][1]:8.4f}" for i in range(3))
        print(f"{beta:8.0f} {cols}")
    print(f"  certificate: max ratio {result.max_ratio:.4g}, "
          f"spread {result.spread:.1f}, flagged rows {result.flagged}, "
          f"top-half monotone growth {result.top_half_monotone_growth()}")
