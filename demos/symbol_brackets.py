"""The weighted symbol, its exact derivatives, and the spatial bracket.

Shifting the normal dual by i|sigma|(x_n - 2X) turns the elliptic quadratic
form into a complex symbol whose real/imaginary bracket measures
subellipticity.  With constant coefficients and no convexification the
spatial bracket collapses to the two-term closed form
4|s|(sum a_jn xi_j)^2 + 4 a_nn^2 |s|^3 (x_n-2X)^2, checked here to machine
precision; the bracket is also exactly cubic under the anisotropic scaling
(xi, sigma) -> (rho xi, rho sigma), tau -> rho^(2/alpha) tau.
"""

import numpy as np

from fraclab import MultiTermSpec, constant_field, weighted_symbol
from fraclab.symbols import bracket_report_batch

print(__doc__)

spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
X = 0.1
field = constant_field(np.array([[1.0]]))

# every call takes a batch (t, x, tau, xi, sigma) of samples; one point here
point = (np.zeros(1), np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)),
         np.ones(1))
g = weighted_symbol(*point, spec, field, c=1.0, X=X, grads=True)
print(f"hand point (tau=0, xi_n=1, sigma=1, X=0.1): value = {g['value'][0]}")
print("  (analytically 1 + (1 - 0.2i)^2 = 1.96 - 0.4i)")
print(f"  d/dxi_n = {g['d_xi'][0, 0]}, d/dx_n = {g['d_x'][0, 0]}, "
      f"d/dtau = {g['d_tau'][0]}")

rng = np.random.default_rng(1)
print("\nClosed-form bracket, random constant coefficients (n = 2, c = 0):")
m = rng.normal(size=(2, 2))
field2 = constant_field(m @ m.T + 2.0 * np.eye(2))
a = field2.a(0.0, np.zeros(2))
draws = [(0.3, [0.0, rng.uniform(0.0, 0.1)], rng.uniform(-2, 2),
          rng.normal(size=2), rng.uniform(0.5, 3.0)) for _ in range(4)]
t, x, tau, xi, sigma = (np.array(col) for col in zip(*draws))
_, principal, _, _ = bracket_report_batch((t, x, tau, xi, sigma), spec,
                                          field2, c=0.0, X=X)
mu = sigma * (x[:, -1] - 2.0 * X)
closed = (4.0 * sigma * (xi @ a[:, -1]) ** 2
          + 4.0 * a[-1, -1] ** 2 * sigma * mu**2)
for got, want in zip(principal, closed):
    print(f"  bracket {got:16.10f}  closed {want:16.10f}  "
          f"rel dev {abs(got - want) / want:.2e}")

print("\nCubic homogeneity of bracket/rho^3 along the anisotropic scaling:")
rho = np.array([1.0, 10.0, 100.0, 1000.0])
ones = np.ones_like(rho)
scaled = (0.4 * ones, np.array([0.05, 0.02]) * ones[:, None],
          1.1 * rho ** (2.0 / spec.alpha),
          np.array([0.8, -1.2]) * rho[:, None], 1.7 * rho)
_, principal, _, _ = bracket_report_batch(scaled, spec, field2, 1.0, X)
for r, value in zip(rho[1:], principal[1:]):
    print(f"  rho = {r:6.0f}: bracket/rho^3 = {value / r**3:.12f}"
          f"  (base {principal[0]:.12f})")
