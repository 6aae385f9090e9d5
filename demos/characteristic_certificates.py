"""Sampling the characteristic set and certifying the lower bounds.

For random base points and dual directions, the two real equations
Re p = Im p = 0 reduce to a scalar equation in tau.  Doubling brackets its
root and safeguarded Newton steps refine it to machine precision, giving
genuine characteristic points.  Three sampling certificates follow:
positivity of the spatial bracket against the anisotropic scale on those
points, its sharpened full-region variant with the elliptic compensator
taken from its closed form, and the stage-s version with globally
stretched coefficients and weighted scale.
"""

import numpy as np

from fraclab import (HolmgrenMap, MultiTermSpec, char_set_sample,
                     diagonal_variable_field, find_min_varpi,
                     full_region_sample, global_coefficients, lemma21_check,
                     lemma61_check, pushforward_operator, region_for)

print(__doc__)

X = 0.05
region = region_for(X)
field = diagonal_variable_field(2)
spec = MultiTermSpec(orders=(0.5, 0.25), weights=(1.0, 0.5))

sample = char_set_sample(region, spec, field, c=1.0, X=X, n_samples=4000,
                         tol=1e-8, rng=np.random.default_rng(0))
print(f"characteristic sample: {sample.found}/{sample.requested} points, "
      f"worst |p|/scale = {sample.residual.max():.2e}")
report = lemma21_check(sample.points, spec, field, c=1.0, X=X)
print(f"  size bound: |xi|^2 + |1+i tau|^alpha <= "
      f"{report.extras['kappa']:.2f} (sigma X)^2 on all points")
print(f"  bracket certificate: min principal/scale^1.5 = "
      f"{report.min_ratio:.4e} over {report.n_samples} points -> "
      f"{'PASS' if report.passed else 'FAIL'}")

points = full_region_sample(region, spec, 2, 50000, np.random.default_rng(1))
varpi, rep = find_min_varpi(points, spec, field, c=1.0, X=X)
print(f"\nfull-region sharpened bound: smallest multiplier {varpi:.4g} "
      f"(closed form), min ratio {rep.min_ratio:.3e} > 0")

print("\nstage certificates with stretched coefficients:")
tilde = global_coefficients(field)
spec1 = MultiTermSpec(orders=(0.5,), weights=(1.0,))
for stage in (1, 3, 5):
    hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=X, T=1.0, stage=stage)
    frame = pushforward_operator(tilde, hmap)
    s = char_set_sample(region, spec1, frame.field, hmap.c, hmap.X, 3000,
                        tol=1e-8, rng=np.random.default_rng(stage))
    rep = lemma61_check(s.points, spec1, tilde, hmap)
    print(f"  stage {stage}: min weighted ratio {rep.min_ratio:.4e}, "
          f"two-sided ellipticity margin "
          f"{rep.extras['ellipticity_margin']:.3e}")
