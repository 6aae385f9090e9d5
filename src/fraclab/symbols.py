"""Symbols of the conjugated operator, Poisson brackets, and lower bounds.

Everything here evaluates closed-form expressions on cotangent samples
(t, x, tau, xi, sigma).  The weighted symbol substitutes
xi_n -> xi_n + i|sigma| (x_n - 2X) into the quadratic form of the operator
written in the convexified coordinates and keeps the full multi-term
fractional sum.  Partial derivatives are analytic; finite differences are
used only by the tests, as the independent oracle.

The three lower-bound certificates (characteristic-set bracket positivity,
its sharpened full-region variant, and the globally stretched stage
version) are sampling checks: they report the minimal ratio between the
assembled left-hand side and the anisotropic scale, and the run's value is
the certificate.

- The characteristic sampler draws seeds in batches of 2n but solves only
  as many as it still needs, in draw order.  Its root-finder brackets each
  root between powers of two, walking from the leading-order root, and
  refines it by safeguarded Newton steps; a point leaves the working set
  once it has converged, so a root does not depend on which other points
  share its batch.  Rejected seeds are counted by cause.
- Certificates evaluate brackets on blocks of ``SAMPLE_BLOCK`` samples and
  keep only the per-sample scalars they need; the CLI certifies a sample
  a seeded chunk at a time, as each chunk is drawn.
- Ellipticity margins are exact eigenvalue margins, not probe vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import SAMPLE_BLOCK, EllipticCoeffField
from .fractional import MultiTermSpec
from .geometry import HolmgrenMap, pushforward_operator, stretch_weights, \
    weighted_ellipticity_margin


# ---------------------------------------------------------------------------
# elementary symbols and the two scalar constants


def c_alpha(alpha: float) -> float:
    """Classical lower-bound constant min(sqrt(2)/2, sin(pi (1 - alpha/2))).

    Intended to bound |Im (1 + i tau)^alpha| from below by
    c_alpha * |1 + i tau|^alpha for |tau| >= 1.  See :func:`c_alpha_sharp`
    for the exact infimum; for orders below 1 this value overshoots it.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    return min(math.sqrt(2.0) / 2.0, math.sin(math.pi * (1.0 - alpha / 2.0)))


def c_alpha_sharp(alpha: float) -> float:
    """Exact infimum of |sin(alpha * arctan tau)| over |tau| >= 1.

    The infimum sits at one of the two ends of the angle range
    [alpha pi/4, alpha pi/2): min(sin(alpha pi/4), sin(pi (1 - alpha/2))).
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    return min(math.sin(alpha * math.pi / 4.0),
               math.sin(math.pi * (1.0 - alpha / 2.0)))


def real_part_constant(alpha: float) -> float:
    """Lower-bound constant cos(alpha pi / 4) for Re (1+i tau)^alpha, |tau| <= 1."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    return math.cos(alpha * math.pi / 4.0)


def imag_part_margin(alpha: float, taus, constant: float | None = None) -> float:
    """min over taus of |Im (1+i tau)^alpha| / |1+i tau|^alpha - constant."""
    if constant is None:
        constant = c_alpha(alpha)
    taus = np.asarray(taus, dtype=float)
    z = (1.0 + 1j * taus) ** alpha
    return float(np.min(np.abs(z.imag) / np.abs(1.0 + 1j * taus) ** alpha) - constant)


def real_part_margin(alpha: float, taus) -> float:
    """min over taus of Re (1+i tau)^alpha / |1+i tau|^alpha - cos(alpha pi/4)."""
    taus = np.asarray(taus, dtype=float)
    z = (1.0 + 1j * taus) ** alpha
    return float(np.min(z.real / np.abs(1.0 + 1j * taus) ** alpha)
                 - real_part_constant(alpha))


def fractional_symbol(tau, spec: MultiTermSpec, derivative: bool = False):
    """Multi-term factor sum q_l (1 + i tau)^alpha_l and optionally d/dtau.

    Evaluated in polar form, (1 + i tau)^a = hypot(1, tau)^a e^(i a arctan
    tau), so no intermediate overflows for large |tau|.  The derivative is
    i / (1 + i tau) times sum a_l q_l (1 + i tau)^a_l.  Works in place on
    a few arrays of the shape of ``tau``: the root-finder calls it on every
    pass.
    """
    tau = np.asarray(tau, dtype=float)
    r = np.hypot(1.0, tau)
    theta = np.arctan(tau)
    val = np.zeros(tau.shape, dtype=complex)
    if derivative:
        acc = np.zeros(tau.shape, dtype=complex)
    im = np.empty(tau.shape)
    for q, a in zip(spec.weights, spec.orders):
        m = r**a
        m *= q
        np.multiply(theta, a, out=im)
        re = np.cos(im)
        re *= m
        np.sin(im, out=im)
        im *= m
        val.real += re
        val.imag += im
        if derivative:
            re *= a
            im *= a
            acc.real += re
            acc.imag += im
    if not derivative:
        return val
    # i / (1 + i tau) = (sin theta + i cos theta) / r with cos theta = 1 / r;
    # the last factor 1 / r comes last so that nothing underflows early
    cos = 1.0 / r
    sin = tau * cos
    der = np.empty(tau.shape, dtype=complex)
    np.multiply(acc.real, sin, out=der.real)
    der.real -= acc.imag * cos
    der.real *= cos
    np.multiply(acc.real, cos, out=der.imag)
    der.imag += acc.imag * sin
    der.imag *= cos
    return val, der


def anisotropic_scale(xi, sigma, tau, alpha: float):
    """Base scale |xi|^2 + sigma^2 + |tau|^alpha (not yet raised to 3/2)."""
    xi = np.asarray(xi, dtype=float)
    return (np.sum(xi * xi, axis=-1) + np.asarray(sigma, dtype=float) ** 2
            + np.abs(np.asarray(tau, dtype=float)) ** alpha)


# ---------------------------------------------------------------------------
# the weighted symbol and its brackets, on batched samples


def _real_contraction(subscripts, a, w):
    """``np.einsum(subscripts, a, w)`` for real ``a`` and complex ``w``.

    Two real contractions, one per part of ``w``.  The complex einsum
    promotes ``a`` to a + 0i, whose extra products are zeros that cannot
    move a sum started from +0, and adds the others in the same order, so
    the bits agree for finite ``w``, at well under half the time.
    """
    re = np.einsum(subscripts, a, w.real)
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = np.einsum(subscripts, a, w.imag)
    return out


def weighted_symbol(t, x, tau, xi, sigma, spec, coeffs, c, X, grads=False):
    """Weighted symbol: a W.W in the tilted duals W plus the fractional sum.

    Shapes: t (N,), x (N, n), tau (N,), xi (N, n), sigma (N,).  Returns a
    dict with 'value' and, when ``grads``, the analytic partials 'd_tau',
    'd_xi', 'd_x' and 'd_t'.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    tau = np.asarray(tau, dtype=float)
    xi = np.asarray(xi, dtype=float)
    sigma = np.asarray(sigma, dtype=float)

    a = np.asarray(coeffs.a(t, x), dtype=float)
    mu = np.abs(sigma) * (x[..., -1] - 2.0 * X)

    W = xi.astype(complex).copy()
    W[..., -1] = xi[..., -1] + 1j * mu
    W[..., :-1] = xi[..., :-1] + 2.0 * c * x[..., :-1] * W[..., -1:]
    G = _real_contraction("...jk,...k->...j", a, W)
    quad = np.einsum("...j,...j->...", W, G)
    if not grads:
        return {"value": fractional_symbol(tau, spec) + quad}

    S, dS = fractional_symbol(tau, spec, derivative=True)
    da_dt, da_dx = coeffs.grads(t, x)
    WW = W[..., :, None] * W[..., None, :]
    tilt = np.einsum("...j,...j->...", x[..., :-1], G[..., :-1])

    d_xi = np.empty(W.shape, dtype=complex)
    d_xi[..., :-1] = 2.0 * G[..., :-1]
    d_xi[..., -1] = 2.0 * (G[..., -1] + 2.0 * c * tilt)

    d_x = np.empty(W.shape, dtype=complex)
    d_x[..., :] = _real_contraction("...rjk,...jk->...r", da_dx, WW)
    d_x[..., :-1] += 4.0 * c * W[..., -1:] * G[..., :-1]
    d_x[..., -1] += 2j * np.abs(sigma) * (G[..., -1] + 2.0 * c * tilt)

    d_t = _real_contraction("...jk,...jk->...", da_dt, WW)
    return {"value": S + quad, "d_xi": d_xi, "d_x": d_x, "d_t": d_t,
            "d_tau": dS}


def _bracket_arrays(t, x, tau, xi, sigma, spec, coeffs, c, X):
    """Full and principal brackets of (Re, Im) of the weighted symbol."""
    out = weighted_symbol(t, x, tau, xi, sigma, spec, coeffs, c, X,
                          grads=True)
    d_xi, d_x = out["d_xi"], out["d_x"]
    principal = np.sum(d_xi.real * d_x.imag - d_x.real * d_xi.imag, axis=-1)
    extra = out["d_tau"].real * out["d_t"].imag - out["d_t"].real * out["d_tau"].imag
    return out, principal + extra, principal


# ---------------------------------------------------------------------------
# samplers


@dataclass(frozen=True)
class SampleRegion:
    """Base-point box: t range, per-coordinate |x'| bound, x_n range."""

    t_range: tuple = (0.0, 1.0)
    xn_range: tuple = (0.0, 0.05)
    xprime_halfwidth: float = 0.22

    def __post_init__(self):
        (t0, t1), (x0, x1) = self.t_range, self.xn_range
        if not (t0 <= t1 and x0 <= x1 and self.xprime_halfwidth >= 0.0):
            raise ValueError("region needs lo <= hi and xprime_halfwidth >= 0"
                             f", got {self!r}")

    def draw(self, rng, n_samples: int, n: int):
        t = rng.uniform(*self.t_range, n_samples)
        x = np.empty((n_samples, n))
        if n > 1:
            x[:, :-1] = rng.uniform(-self.xprime_halfwidth,
                                    self.xprime_halfwidth, (n_samples, n - 1))
        x[:, -1] = rng.uniform(*self.xn_range, n_samples)
        return t, x


def _log_uniform(rng, bounds, size, name):
    """``size`` log-uniform draws on ``bounds``, a pair 0 < lo <= hi."""
    lo, hi = bounds
    if not 0.0 < lo <= hi < math.inf:
        raise ValueError(
            f"{name} needs 0 < lo <= hi, got {name}={tuple(bounds)!r}")
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _check_thickness(X):
    """Raise ``ValueError`` unless the layer thickness X is in (0, inf)."""
    if not 0.0 < X < math.inf:
        raise ValueError(
            f"layer thickness X must be positive and finite, got {X!r}")


def region_for(X: float, T: float = 1.0) -> SampleRegion:
    """Default sampling box |x'| <= sqrt(X), 0 <= x_n <= X."""
    _check_thickness(X)
    return SampleRegion(t_range=(0.0, T), xn_range=(0.0, X),
                        xprime_halfwidth=math.sqrt(X))


REJECT_CAUSES = ("degenerate_b", "no_sign_change", "residual")


@dataclass(frozen=True)
class CharacteristicSample:
    """Near-zeros of the weighted symbol with their certificates.

    ``solved`` counts the seeds whose scalar equation was bracketed and
    solved; ``rejected`` counts seeds by cause: "degenerate_b" (the
    scalar equation degenerates), "no_sign_change" (g(0) >= 0, or g <= 0
    at every power of two up to 2^60) and "residual" (solved, but the
    residual exceeds the tolerance).  Seeds drawn after the last one needed
    are never examined and appear in neither.  ``root_passes`` counts the
    root-finder's passes, bracket and refinement, over all batches.
    """

    points: tuple               # arrays (t, x, tau, xi, sigma)
    residual: np.ndarray        # |p| / scale at each point
    requested: int
    solved: int = 0
    rejected: dict = field(
        default_factory=lambda: dict.fromkeys(REJECT_CAUSES, 0))
    root_passes: int = 0

    @property
    def found(self) -> int:
        return len(self.residual)


def char_set_sample(region: SampleRegion, spec: MultiTermSpec,
                    coeffs: EllipticCoeffField, c: float, X: float,
                    n_samples: int, tol: float = 1e-8,
                    rng=None, sigma_range: tuple | None = None
                    ) -> CharacteristicSample:
    """Sample the characteristic set of the weighted symbol.

    For each random base point, dual direction and sigma, the two real
    equations Re p = Im p = 0 reduce to one scalar equation in tau (the
    imaginary equation fixes the radial scaling of xi), which is bracketed
    between powers of two from its leading-order root and solved by
    safeguarded Newton steps (see :func:`_char_roots`).  Seeds are drawn
    in batches of 2 n_samples, but only as many as are still needed are
    solved, in draw order.  Seeds whose scalar equation has no root in the
    search range, or whose solved point misses the residual certificate,
    are discarded and counted by cause; the result is partial if the
    budget of 8 n_samples seeds runs out first.  A ``sigma_range`` whose
    top overflows the scalar equation raises ``ValueError`` before any
    seed is drawn.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples!r}")
    _check_thickness(X)
    n = coeffs.n
    if sigma_range is None:
        floor = math.sqrt(spec.weight_sum / coeffs.delta) / X
        sigma_range = (3.0 * floor, 30.0 * floor)
    # the root-finder forms Q R = 4 mu^4 B^2 C with mu = sigma (x_n - 2X);
    # a <= 1/delta and |x'| <= h per coordinate bound |B| and C by
    # v^2 / delta, v = 1 + 2 |c| h sqrt(n - 1)
    v = 1.0 + 2.0 * abs(c) * region.xprime_halfwidth * math.sqrt(n - 1)
    mu = sigma_range[1] * max(abs(x_n - 2.0 * X) for x_n in region.xn_range)
    try:
        top = 4.0 * mu**4 * v**6 / coeffs.delta**3
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ValueError(
            f"sigma_range={tuple(sigma_range)!r} overflows the scalar "
            "equation: its bound on Q R, 4 (hi max|x_n - 2X|)^4 v^6 / "
            f"delta^3 with v = {v!r} and delta = {coeffs.delta!r}, is not "
            "finite")

    kept = []
    found = solved = root_passes = 0
    rejected = dict.fromkeys(REJECT_CAUSES, 0)
    drawn, budget = 0, 8 * n_samples
    while found < n_samples and drawn < budget:
        batch = min(2 * n_samples, budget - drawn)
        drawn += batch
        got, counts = _char_batch(region, spec, coeffs, c, X, batch,
                                  n_samples - found, tol, rng, sigma_range)
        kept.append(got)
        found += len(got[2])
        solved += counts.pop("solved")
        root_passes += counts.pop("root_passes")
        for cause, k in counts.items():
            rejected[cause] += k

    *points, resid = (np.concatenate(col) for col in zip(*kept))
    return CharacteristicSample(points=tuple(points), residual=resid,
                                requested=n_samples, solved=solved,
                                rejected=rejected, root_passes=root_passes)


def _char_batch(region, spec, coeffs, c, X, batch, need, tol, rng,
                sigma_range):
    """Draw ``batch`` seeds and solve them in order until ``need`` pass.

    Every seed is drawn, so the random stream does not depend on ``need``.
    The seeds that pass the degeneracy and sign filters are solved a prefix
    of ``need - found`` at a time.  Returns the kept (t, x, tau, xi, sigma,
    residual) arrays and the seed counts of the examined part of the batch,
    with the root-finder's passes over it.
    """
    n = coeffs.n
    t, x = region.draw(rng, batch, n)
    xihat = rng.normal(size=(batch, n))
    xihat /= np.linalg.norm(xihat, axis=1, keepdims=True)
    sigma = _log_uniform(rng, sigma_range, batch, "sigma_range")
    mu = sigma * (x[:, -1] - 2.0 * X)

    a = np.asarray(coeffs.a(t, x), dtype=float)
    what = xihat.copy()
    what[:, :-1] += 2.0 * c * x[:, :-1] * xihat[:, -1:]
    vhat = np.concatenate([2.0 * c * x[:, :-1], np.ones((batch, 1))], axis=1)
    A = np.einsum("ij,ijk,ik->i", what, a, what)
    B = np.einsum("ij,ijk,ik->i", what, a, vhat)
    C = np.einsum("ij,ijk,ik->i", vhat, a, vhat)
    del a, what, vhat

    S0 = fractional_symbol(0.0, spec)
    nondegenerate = np.abs(B) > 1e-10 * np.sqrt(np.abs(A * C))
    # g(tau) = A Im(S)^2 - Q (R - Re S) vanishes iff (tau, rho(tau)) solves
    # Re p = Im p = 0; R > S0.real makes it negative at tau = 0
    Q = 4.0 * mu**2 * B**2
    R = mu**2 * C
    idx = np.flatnonzero(nondegenerate & (R > S0.real))

    parts = [(t[:0], x[:0], t[:0], x[:0], t[:0], t[:0])]
    counts = dict(solved=0, no_sign_change=0, residual=0, root_passes=0)
    found = pos = 0
    while found < need and pos < len(idx):
        j = idx[pos:pos + need - found]
        pos += len(j)
        tau, good, passes = _char_roots(A[j], Q[j], R[j], spec)
        counts["root_passes"] += passes
        counts["no_sign_change"] += int(np.count_nonzero(~good))
        j, tau = j[good], tau[good]
        s = fractional_symbol(tau, spec)
        rho = -s.imag / (2.0 * B[j] * mu[j])
        xi = rho[:, None] * xihat[j]
        out = weighted_symbol(t[j], x[j], tau, xi, sigma[j], spec, coeffs,
                              c, X)
        scale = anisotropic_scale(xi, sigma[j], tau, spec.alpha)
        resid = np.abs(out["value"]) / scale
        ok = resid <= tol
        counts["solved"] += len(j)
        counts["residual"] += int(np.count_nonzero(~ok))
        found += int(np.count_nonzero(ok))
        parts.append((t[j[ok]], x[j[ok]], tau[ok], xi[ok], sigma[j[ok]],
                      resid[ok]))

    examined = batch if pos == len(idx) else idx[pos - 1] + 1
    counts["degenerate_b"] = int(np.count_nonzero(~nondegenerate[:examined]))
    counts["no_sign_change"] += int(np.count_nonzero(
        nondegenerate[:examined]) - pos)
    return tuple(np.concatenate(col) for col in zip(*parts)), counts


def _bracket(A, Q, R, spec):
    """First power of two hi in [1, 2^60] with g(hi) > 0, per point.

    g(tau) = A Im(S)^2 - Q (R - Re S) with g(0) < 0.  Each point starts at
    the power of two at or below its leading-order root tau0 = (Q R / (A
    q1^2 sin^2(alpha1 pi/2)))^(1/(2 alpha1)), where A Im(S)^2 meets Q R at
    large tau (the leading weight q1 is 1); the start is found in log2, so
    Q R cannot overflow, clipped to [1, 2^60], and is 1 where tau0 is not
    finite (A = 0).  From there hi halves while g(hi/2) > 0 and doubles
    while g(hi) <= 0 and hi < 2^60, so wherever g is sign-monotone on the
    powers of two, hi is the first one with g > 0, as doubling from 1
    finds it.  Returns (hi, g_hi, g_lo, passes): g_hi <= 0 where no power
    of two up to 2^60 has g > 0, g_lo is g(hi/2) wherever g_hi > 0 and
    hi > 1 and 0 where hi = 1, and passes counts the symbol evaluations
    over the working set.
    """
    def gfun(tau, j):
        s = fractional_symbol(tau, spec)
        return A[j] * s.imag**2 - Q[j] * (R[j] - s.real)

    alpha = spec.alpha
    lead = 2.0 * math.log2(math.sin(alpha * math.pi / 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor((np.log2(Q) + np.log2(R) - np.log2(A) - lead)
                     / (2.0 * alpha))
    k = np.where(np.isfinite(k), np.clip(k, 0.0, 60.0), 0.0)
    hi = np.ldexp(1.0, k.astype(int))
    g_hi = gfun(hi, slice(None))
    g_lo = np.zeros(len(A))
    passes = 1
    act = np.flatnonzero(np.where(g_hi > 0.0, hi > 1.0, hi < 2.0**60))
    while len(act):
        passes += 1
        h, gh = hi[act], g_hi[act]
        up = gh <= 0.0
        tau = np.where(up, 2.0 * h, 0.5 * h)
        g = gfun(tau, act)
        # the upper end moves up, or down onto a positive g(hi/2); a
        # non-positive g(hi/2) is the lower end's value
        move = up | (g > 0.0)
        hi[act[move]] = tau[move]
        g_hi[act[move]] = g[move]
        g_lo[act[up]] = gh[up]
        g_lo[act[~move]] = g[~move]
        act = act[np.where(up, (g <= 0.0) & (tau < 2.0**60),
                           move & (tau > 1.0))]
    return hi, g_hi, g_lo, passes


def _char_roots(A, Q, R, spec):
    """Roots of g(tau) = A Im(S)^2 - Q (R - Re S) on [0, 2^60], per point.

    g(0) < 0 at every point.  :func:`_bracket` finds the first power of
    two hi with g(hi) > 0, walking from the leading-order root, and a
    point is kept if it finds one.  A kept point is then refined inside
    its bracket [hi/2, hi] ([0, 1] if hi = 1) by Newton steps on
    g' = 2 A Im(S) Im(S') + Q Re(S'), from the secant point of the bracket
    (the midpoint of [0, 1]).  A Newton step that leaves the bracket or
    does not halve the step before it becomes a bisection step, as in
    ``rtsafe``, so every iterate stays in the bracket.  A point stops at
    its Newton point once that step is within four ulp (g = 0 gives a zero
    step), or at the midpoint once its bracket holds no float inside.
    Returns (tau, good, passes): tau is defined where good holds,
    and passes counts the symbol evaluations over the working set,
    bracket and refinement together.
    """
    hi, g_hi, g_lo, passes = _bracket(A, Q, R, spec)
    m = len(A)
    good = g_hi > 0.0

    # one row per quantity and one column per point still refining; the
    # columns of finished points are compacted out in place, so the passes
    # reuse these two buffers rather than allocate state whose freed heap
    # the allocator keeps, which peak RSS shows
    act = np.flatnonzero(good)
    n = len(act)
    state = np.empty((7, n))
    lo, h, x, last, a, q, r = state
    h[:] = hi[act]
    halved = h > 1.0
    lo[:] = np.where(halved, 0.5 * h, 0.0)
    gl, gh = g_lo[act], g_hi[act]
    x[:] = np.where(halved, h - gh * ((h - lo) / (gh - gl)), 0.5 * h)
    x[:] = np.where((x > lo) & (x < h), x, 0.5 * (lo + h))
    np.subtract(h, lo, out=last)
    a[:], q[:], r[:] = A[act], Q[act], R[act]
    work = np.empty((4, n))
    tau = np.zeros(m)
    # halvings of [0, 1] down to the least subnormal, then 53 more bits
    for _ in range(1130):
        if n == 0:
            break
        passes += 1
        lo, h, x, last, a, q, r = state[:, :n]
        g, dg, newton, mid = work[:, :n]
        s, ds = fractional_symbol(x, spec, derivative=True)
        np.subtract(r, s.real, out=g)
        g *= -q
        g += a * s.imag**2
        np.multiply(s.imag, ds.imag, out=dg)
        dg *= 2.0 * a
        dg += q * ds.real
        del s, ds
        neg = g < 0.0
        np.copyto(lo, x, where=neg)
        np.copyto(h, x, where=~neg)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(g, dg, out=newton)
        np.subtract(x, newton, out=newton)
        step = np.abs(newton - x)
        converged = step <= 4.0 * np.spacing(x)
        np.add(lo, h, out=mid)
        mid *= 0.5
        take = (newton > lo) & (newton < h) & (step <= 0.5 * last)
        done = converged | (mid == lo) | (mid == h)
        tau[act[:n][done]] = np.where(converged, newton, mid)[done]
        np.copyto(newton, mid, where=~take)
        np.subtract(newton, x, out=last)
        np.abs(last, out=last)
        x[:] = newton
        keep = ~done
        k = int(np.count_nonzero(keep))
        if k < n:
            state[:, :k] = state[:, :n][:, keep]
            act[:k] = act[:n][keep]
        n = k
    tau[act[:n]] = state[2, :n]
    return tau, good, passes


# ---------------------------------------------------------------------------
# lower-bound certificates


@dataclass(frozen=True)
class CertificateReport:
    """Minimum assembled-ratio over a sample cloud; positive means PASS."""

    min_ratio: float
    n_samples: int
    argmin: int
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.n_samples > 0 and self.min_ratio > 0.0


def _blockwise(fn, *arrays):
    """Concatenate the arrays ``fn`` returns on sample blocks."""
    n = len(arrays[0])
    parts = [fn(*(a[s:s + SAMPLE_BLOCK] for a in arrays))
             for s in range(0, max(n, 1), SAMPLE_BLOCK)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def lemma21_check(points, spec: MultiTermSpec, coeffs: EllipticCoeffField,
                  c: float, X: float) -> CertificateReport:
    """Minimum of principal bracket / scale^(3/2) over characteristic samples.

    ``points`` is a tuple of arrays (t, x, tau, xi, sigma).
    ``extras["ratios"]`` holds the ratio of every sample and
    ``extras["kappa"]`` the size bound max (|xi|^2 + |1+i tau|^alpha) /
    (sigma X)^2 over the samples.
    """
    _check_thickness(X)
    if len(points[2]) == 0:
        raise ValueError("empty characteristic sample")

    def ratios(t, x, tau, xi, sigma):
        # the block's largest kappa, formed before the bracket's arrays so
        # that its temporaries do not add to their peak
        kappa = ((np.sum(xi**2, axis=-1)
                  + np.abs(1.0 + 1j * tau) ** spec.alpha)
                 / (sigma * X) ** 2).max(keepdims=True)
        _, _, principal = _bracket_arrays(t, x, tau, xi, sigma, spec, coeffs,
                                          c, X)
        scale = anisotropic_scale(xi, sigma, tau, spec.alpha)
        return principal / scale**1.5, kappa

    ratio, kappa = _blockwise(ratios, *points)
    i = int(np.argmin(ratio))
    return CertificateReport(min_ratio=float(ratio[i]), n_samples=len(ratio),
                             argmin=i, extras={"kappa": float(kappa.max()),
                                               "ratios": ratio})


def full_region_sample(region: SampleRegion, spec: MultiTermSpec, n: int,
                       n_samples: int, rng, magnitude_range=(1.0, 1e3)):
    """Phase samples across all of phase space, not just the zero set.

    Magnitudes are log-uniform; tau is drawn on the anisotropic scale
    rho^(2/alpha) so all three scale contributions are exercised.  A range
    whose largest tau, 1.2 hi^(2/alpha), is not a finite float raises
    ``ValueError``, and so, after that, does one that fails
    :func:`squared_scale_check`, which bounds what the symbol's terms form
    on these samples.
    """
    t, x = region.draw(rng, n_samples, n)
    rho = _log_uniform(rng, magnitude_range, n_samples, "magnitude_range")
    try:
        top = 1.2 * magnitude_range[1] ** (2.0 / spec.alpha)
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ValueError(
            f"magnitude_range={tuple(magnitude_range)!r} overflows tau: "
            f"1.2*hi^(2/alpha) is not finite at alpha={spec.alpha}")
    squared_scale_check(magnitude_range, spec.alpha)
    direction = rng.normal(size=(n_samples, n + 1))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    stretch = rng.uniform(0.2, 1.0, n_samples)
    xi = rho[:, None] * stretch[:, None] * direction[:, :n]
    sigma = rho * stretch * np.abs(direction[:, n])
    tau = (rng.choice([-1.0, 1.0], n_samples) * rho ** (2.0 / spec.alpha)
           * rng.uniform(0.0, 1.2, n_samples))
    return t, x, tau, xi, sigma


def squared_scale_check(magnitude_range, alpha: float):
    """Raise ``ValueError`` if |p|^2 can overflow on a full-region sample.

    A sample of :func:`full_region_sample` at magnitude hi has scale at
    most (1 + 1.2^alpha) hi^2; the Garding terms form its square, and
    |p|^2 is of the same order.  A range whose ((1 + 1.2^alpha) hi^2)^2 is
    not a finite float is named in the error.
    """
    try:
        top = ((1.0 + 1.2**alpha) * magnitude_range[1] ** 2) ** 2
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ValueError(
            f"magnitude_range={tuple(magnitude_range)!r} overflows |p|^2: "
            f"((1+1.2^alpha)*hi^2)^2 is not finite at alpha={alpha}")


def garding_precondition_check(points, spec: MultiTermSpec,
                               coeffs: EllipticCoeffField, c: float,
                               X: float, varpi: float) -> CertificateReport:
    """Minimum of [varpi scale^(-1/2) |p|^2 + 2 bracket] / scale^(3/2).

    ``points`` is a tuple of arrays (t, x, tau, xi, sigma); samples need not
    be characteristic.  ``extras`` holds the per-sample terms "elliptic"
    (|p|^2 / scale^2) and "negative" (2 bracket / scale^(3/2)), so the
    ratio at any other varpi is varpi * elliptic + negative.
    """
    elliptic, negative = _garding_terms(points, spec, coeffs, c, X)
    return _garding_report(elliptic, negative, varpi)


def _garding_terms(points, spec, coeffs, c, X):
    _check_thickness(X)

    def terms(t, x, tau, xi, sigma):
        out, full, _ = _bracket_arrays(t, x, tau, xi, sigma, spec, coeffs, c,
                                       X)
        scale = anisotropic_scale(xi, sigma, tau, spec.alpha)
        return np.abs(out["value"]) ** 2 / scale**2, 2.0 * full / scale**1.5

    return _blockwise(terms, *points)


def _garding_min(elliptic, negative, varpi):
    """Minimum of varpi * elliptic + negative and its index, the first as
    ``np.argmin`` picks it (a NaN before any number), formed a block of
    ``SAMPLE_BLOCK`` rows at a time, so no whole-sample column is made."""
    least, where = None, 0
    for start in range(0, max(len(elliptic), 1), SAMPLE_BLOCK):
        ratio = varpi * elliptic[start:start + SAMPLE_BLOCK]
        ratio += negative[start:start + SAMPLE_BLOCK]
        i = int(np.argmin(ratio))
        if least is None or ratio[i] < least or np.isnan(ratio[i]):
            least, where = float(ratio[i]), start + i
        if math.isnan(least):
            break
    return least, where


def _garding_report(elliptic, negative, varpi):
    least, i = _garding_min(elliptic, negative, varpi)
    return CertificateReport(min_ratio=least, n_samples=len(elliptic),
                             argmin=i, extras={"varpi": varpi,
                                               "elliptic": elliptic,
                                               "negative": negative})


def find_min_varpi(points, spec: MultiTermSpec, coeffs: EllipticCoeffField,
                   c: float, X: float, varpi_max: float = 1e8):
    """The least float varpi with a positive minimum ratio.

    varpi * elliptic + negative > 0 at every sample once varpi exceeds
    -negative / elliptic over the samples whose negative term is <= 0 (0 if
    there are none).  That closed form is moved by whole floats to the least
    float at which the rounded minimum is positive.  Returns (varpi, report
    at that varpi); the report's extras carry the per-sample terms, as in
    :func:`garding_precondition_check`.  Raises if no varpi up to
    ``varpi_max`` passes, which would refute the sharpened bound on this
    sample cloud, or if a term is NaN.
    """
    return _least_varpi(*_garding_terms(points, spec, coeffs, c, X),
                        varpi_max)


def _least_varpi(elliptic, negative, varpi_max):
    """:func:`find_min_varpi` on the per-sample terms of the cloud, read a
    block of ``SAMPLE_BLOCK`` rows at a time."""
    def passes(varpi):
        return _garding_min(elliptic, negative, varpi)[0] > 0.0

    blocks = [(elliptic[s:s + SAMPLE_BLOCK], negative[s:s + SAMPLE_BLOCK])
              for s in range(0, len(elliptic), SAMPLE_BLOCK)]
    nans = sum(int(np.count_nonzero(np.isnan(e + n))) for e, n in blocks)
    if nans:
        raise RuntimeError(
            f"the garding terms are NaN at {nans} of {len(negative)} "
            "samples, so no varpi gives a positive minimum")
    starts = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for e, n in blocks:
            need = n <= 0.0
            starts.append(np.max(-n[need] / e[need], initial=0.0))
    varpi = float(np.max(starts, initial=0.0))
    while varpi <= varpi_max and not passes(varpi):
        varpi = float(np.nextafter(varpi, math.inf))
    if not varpi <= varpi_max:
        raise RuntimeError(
            f"no varpi below {varpi_max:g} gives a positive minimum")
    while varpi > 0.0 and passes(np.nextafter(varpi, 0.0)):
        varpi = float(np.nextafter(varpi, 0.0))
    return varpi, _garding_report(elliptic, negative, varpi)


def lemma61_check(points, spec: MultiTermSpec,
                  tilde_field: EllipticCoeffField,
                  map: HolmgrenMap) -> CertificateReport:
    """Stage-s certificate with the stretched scale.

    ``points`` is a tuple of arrays (t, x, tau, xi, sigma) on the
    characteristic set.  The coefficients live on the globally stretched
    space; the base points are pulled back through the stage map to build
    the component weights (1 + yt_j^2)^(3/2).  The weighted two-sided
    ellipticity is re-verified exactly at every sample; its worst slack is
    ``extras["ellipticity_margin"]``, and ``extras["ratios"]`` holds the
    ratio of every sample.
    """
    if len(points[2]) == 0:
        raise ValueError("empty characteristic sample")
    frame = pushforward_operator(tilde_field, map)

    def ratios(t, x, tau, xi, sigma):
        _, _, principal = _bracket_arrays(t, x, tau, xi, sigma, spec,
                                          frame.field, map.c, map.X)
        _, y_tilde = map.inverse(t, x)
        w = stretch_weights(y_tilde)
        scale = anisotropic_scale(w * xi, w[..., -1] * sigma, tau, spec.alpha)
        # the block's margin: the least over blocks is the whole sample's
        margin = weighted_ellipticity_margin(tilde_field, t, y_tilde)
        return principal / (w[..., -1] * scale**1.5), np.array([margin])

    ratio, margins = _blockwise(ratios, *points)
    margin = float(np.min(margins))
    i = int(np.argmin(ratio))
    return CertificateReport(min_ratio=float(ratio[i]), n_samples=len(ratio),
                             argmin=i, extras={"ellipticity_margin": margin,
                                               "ratios": ratio})


def bracket_report_batch(points, spec: MultiTermSpec,
                         coeffs: EllipticCoeffField, c: float, X: float):
    """Arrays (bracket, principal, scale, ratio) for CSV-style listings."""
    _check_thickness(X)

    def report(t, x, tau, xi, sigma):
        _, full, principal = _bracket_arrays(t, x, tau, xi, sigma, spec,
                                             coeffs, c, X)
        scale = anisotropic_scale(xi, sigma, tau, spec.alpha) ** 1.5
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(scale > 0.0, principal / scale, np.inf)
        return full, principal, scale, ratio

    return _blockwise(report, *points)
