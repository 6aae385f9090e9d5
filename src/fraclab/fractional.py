"""Caputo derivatives of order in (0,1) or (1,2) on uniform time grids.

Two independent evaluation routes are provided.  ``caputo_oracle`` integrates
the defining convolution of the k-th classical derivative against the weakly
singular kernel after a graded substitution that removes the endpoint
singularity, by global adaptive Gauss-Kronrod quadrature (QUADPACK's
21-point rule, bisecting the interval of largest error estimate).
:func:`caputo_l1` and :func:`multiterm_l1` discretize sampled arrays with
L1-type product integration (piecewise-linear interpolation of the
integrand).  The two routes share no code, so they can be played against
each other as oracles.

The multi-term operator is the weighted sum of single-order derivatives with
unit leading weight and strictly decreasing orders.

Every L1 history is the exact direct sum, a causal convolution with a
fixed kernel.  A single series goes through ``np.convolve``; a stack of
columns goes through row blocks of the lower-triangular Toeplitz matrix of
the kernel, one matrix product per block of ``BLOCK`` time levels, which
reorders the same O(N^2) arithmetic into BLAS calls.

The solver steps with :class:`L1March` and the Carleman drift is
:func:`multiterm_lowered`, so only this module discretizes orders in time.
The march runs in blocks of ``BLOCK`` levels: a block's first step forms its
older history as one Toeplitz product per kernel, each step its recent terms.

Gamma is :func:`_gamma`, the standard library's ``math.gamma`` with inf
past its overflow, so the module imports no scipy at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BLOCK = 64
"""Time levels per Toeplitz row block of a batched history sum."""


def _gamma(x: float) -> float:
    """``math.gamma`` for x > 0, inf past its overflow (above 171.62 or
    below about 5e-309); x <= 0 or NaN, which a config can pass, raises."""
    if not x > 0.0:
        raise ValueError(f"gamma argument must be positive, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


class ConvergenceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance, or the
    solver's block factorization met a singular block."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*dt, k = 0..n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")

    @classmethod
    def from_interval(cls, t_final: float, n_steps: int) -> "TimeGrid":
        return cls(dt=t_final / n_steps, n_steps=n_steps)

    @property
    def nodes(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    @property
    def t_final(self) -> float:
        return self.dt * self.n_steps


@dataclass(frozen=True)
class MultiTermSpec:
    """Orders and weights of the multi-term fractional operator.

    Orders are strictly decreasing in (0,2); the leading weight is 1 and all
    weights are positive.
    """

    orders: tuple = field(default=(0.5,))
    weights: tuple = field(default=(1.0,))

    def __post_init__(self):
        orders = tuple(float(a) for a in self.orders)
        weights = tuple(float(q) for q in self.weights)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "weights", weights)
        if len(orders) == 0 or len(orders) != len(weights):
            raise ValueError("orders and weights must be non-empty and of equal length")
        if not all(0.0 < a < 2.0 for a in orders):
            raise ValueError("every order must lie in (0,2)")
        if any(a2 >= a1 for a1, a2 in zip(orders, orders[1:])):
            raise ValueError("orders must be strictly decreasing")
        if weights[0] != 1.0:
            raise ValueError("leading weight must equal 1")
        if not all(q > 0.0 for q in weights):
            raise ValueError("weights must be positive")

    @property
    def alpha(self) -> float:
        """Leading (largest) order."""
        return self.orders[0]

    @property
    def weight_sum(self) -> float:
        return float(sum(self.weights))


def caputo_power_rule(p: float, alpha: float, t) -> float:
    """Exact Caputo derivative of t**p for p > ceil(alpha) - 1.

    Independent closed-form reference used by the tests:
    Gamma(p+1)/Gamma(p+1-alpha) * t**(p-alpha).  Valid for any order in
    (0,2), including exactly 1.  Below that bound t**p is a polynomial the
    Caputo derivative annihilates (p = 0, or p = 1 for alpha > 1), or its
    derivative is not integrable at 0; the formula is then the
    Riemann-Liouville derivative (p > alpha - 1) or meaningless.
    """
    return (_gamma(p + 1.0) / _gamma(p + 1.0 - alpha)
            * np.asarray(t) ** (p - alpha))


# QUADPACK qk21, the 21-point Gauss-Kronrod rule on [-1, 1], by symmetry:
# the Kronrod abscissae in [0, 1), decreasing, whose odd entries are the
# 10-point Gauss nodes; their Kronrod weights; and the Gauss weights on the
# same abscissae, zero at the Kronrod-only ones
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208100046624, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0])


def _gk21(f, lo, hi):
    """``[K21, G10]`` of f on each interval [lo_i, hi_i], as lists.

    f takes the (m, 21) array of every interval's nodes at once; the sums
    run in the order of QUADPACK's qk21.
    """
    lo, hi = np.array(lo), np.array(hi)
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    offset = half[:, None] * _XGK[:10]
    nodes = np.concatenate([centre[:, None], centre[:, None] - offset,
                            centre[:, None] + offset], axis=1)
    fx = np.broadcast_to(np.asarray(f(nodes), dtype=float), nodes.shape)
    pairs = fx[:, 1:11] + fx[:, 11:]
    kronrod, gauss = _WGK[10] * fx[:, 0], 0.0
    for j in (1, 3, 5, 7, 9):
        gauss = gauss + _WG[j] * pairs[:, j]
        kronrod = kronrod + _WGK[j] * pairs[:, j]
    for j in (0, 2, 4, 6, 8):
        kronrod = kronrod + _WGK[j] * pairs[:, j]
    return np.stack([kronrod * half, gauss * half], axis=1).tolist()


def _adaptive_gk21(f, tol: float, max_subdivisions: int):
    """Integral of f over [0, 1] and its error estimate.

    Global adaptive: the interval with the largest |K21 - G10| is bisected
    until the summed estimate is within ``tol * max(1, |integral|)`` or
    ``max_subdivisions`` intervals exist.
    """
    intervals = [(0.0, 1.0)]
    (value, gauss), = _gk21(f, [0.0], [1.0])
    values, errors = [value], [abs(value - gauss)]
    while (sum(errors) > tol * max(1.0, abs(sum(values)))
           and len(values) < max_subdivisions):
        i = max(range(len(errors)), key=errors.__getitem__)
        lo, hi = intervals[i]
        mid = 0.5 * (lo + hi)
        (v1, g1), (v2, g2) = _gk21(f, [lo, mid], [mid, hi])
        intervals[i:i + 1] = [(lo, mid), (mid, hi)]
        values[i:i + 1] = [v1, v2]
        errors[i:i + 1] = [abs(v1 - g1), abs(v2 - g2)]
    return sum(values), sum(errors)


def caputo_oracle(derivative, alpha: float, t: float, tol: float = 1e-10,
                  max_subdivisions: int = 200) -> float:
    """Caputo derivative of a smooth function by adaptive quadrature.

    Parameters
    ----------
    derivative : callable
        The k-th classical derivative of the function, where k = 1 for
        orders below 1 and k = 2 above; only it enters the convolution.  It
        is called on arrays of times and may return a scalar where it is
        constant.
    alpha : float
        Order in (0,1) or (1,2).  Exactly 1 and anything outside (0,2) raise
        ``ValueError``.
    t : float
        Evaluation time, t > 0.
    tol : float
        Tolerance of the quadrature, absolute and relative, and enforced on
        its error estimate of the scaled result.
    max_subdivisions : int
        Adaptive subdivision budget; exceeding it, failing the error
        check, or a value or estimate that is not finite raises
        :class:`ConvergenceError`.

    Notes
    -----
    With k = ceil(alpha) the integral of (t-s)**(k-1-alpha) u^(k)(s) is
    mapped by the graded substitution t - s = t*v**(1/(k-alpha)) onto
    t**(k-alpha)/(k-alpha) * integral_0^1 u^(k)(t - t*v**(1/(k-alpha))) dv,
    which absorbs the kernel exactly and leaves a bounded integrand for
    :func:`_adaptive_gk21`.
    """
    # alpha = 1 is the classical derivative, which the L1 route handles
    if not 0.0 < alpha < 2.0 or alpha == 1.0:
        raise ValueError(f"order must lie in (0,1) or (1,2), got {alpha}")
    k = 1 if alpha < 1.0 else 2
    if t <= 0.0:
        raise ValueError("evaluation time must be positive")
    power = 1.0 / (k - alpha)
    value, abserr = _adaptive_gk21(lambda v: derivative(t - t * v ** power),
                                   tol, max_subdivisions)
    value *= t ** (k - alpha) / ((k - alpha) * _gamma(k - alpha))
    abserr *= t ** (k - alpha) / ((k - alpha) * _gamma(k - alpha))
    # an integrand singular at s = 0 makes both inf, and inf > inf is False
    if not (math.isfinite(value) and math.isfinite(abserr)):
        raise ConvergenceError(
            f"quadrature value {value!r} with error estimate {abserr!r} is "
            "not finite; the derivative may be singular at s = 0")
    if abserr > tol * max(1.0, abs(value)):
        raise ConvergenceError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance "
            f"{tol:.3e} within {max_subdivisions} subdivisions"
        )
    return value


def l1_weights(alpha: float, m: int) -> np.ndarray:
    """Kernel weights b_j = (j+1)^(1-alpha) - j^(1-alpha), j = 0..m-1."""
    j = np.arange(m, dtype=float)
    return (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)


def _backward_difference(values: np.ndarray, dt: float) -> np.ndarray:
    """First discrete derivative, causal; node 0 uses the zero extension."""
    v = np.zeros_like(values)
    v[1:] = np.diff(values, axis=0) / dt
    v[0] = values[0] / dt
    return v


def _toeplitz_rows(kernel: np.ndarray, rows, n_cols: int) -> np.ndarray:
    """Rows ``rows`` of the Toeplitz matrix T[k, j] = kernel[k - j].

    Columns run over j = 0..n_cols-1; entries above the diagonal (k < j) are
    zero, so T is the causal convolution with ``kernel``.  Every row index
    must be below len(kernel).
    """
    # row k is the window starting at len(kernel)-1-k of the reversed,
    # zero-padded kernel
    padded = np.concatenate([kernel[::-1], np.zeros(max(n_cols - 1, 0))])
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_cols)
    return windows[len(kernel) - 1 - np.asarray(rows)]


def causal_convolve(kernel: np.ndarray, x: np.ndarray,
                    out: np.ndarray = None) -> np.ndarray:
    """out[k] = sum_{j<=k} kernel[k-j] x[j] along axis 0 of ``x``.

    ``kernel`` needs at least len(x) entries.  A 1-D series uses
    ``np.convolve``; several columns are summed as row blocks of
    :func:`_toeplitz_rows` times the data, one product per ``BLOCK`` rows.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if out is None:
        out = np.empty_like(x)
    if x.ndim == 1:
        out[...] = np.convolve(x, kernel[:n])[:n]
        return out
    flat = x.reshape(n, -1)
    target = out.reshape(flat.shape)
    for r0 in range(0, n, BLOCK):
        r1 = min(r0 + BLOCK, n)
        np.matmul(_toeplitz_rows(kernel, range(r0, r1), r1), flat[:r1],
                  out=target[r0:r1])
    if not np.shares_memory(target, out):    # ``out`` had no 2-D view
        out[...] = target.reshape(out.shape)
    return out


def caputo_l1(values: np.ndarray, alpha: float, dt: float) -> np.ndarray:
    """L1 discrete Caputo derivative along axis 0 of ``values``.

    Orders in (0,1) use classical L1 product integration.  Order exactly 1
    falls back to the causal first difference.  Orders in (1,2) apply the L1
    scheme of order alpha-1 to the first discrete derivative, reducing the
    second-derivative kernel to the first-derivative one.  The history is
    the exact direct sum, evaluated by :func:`causal_convolve`.

    Node 0 is the zero extension to t < 0.  Below order 1 only differences
    enter, so values[0] drops out.  From order 1 up the first difference at
    node 0 is values[0] / dt, and above 1 the result is the Caputo
    derivative only of data with u(0) = u'(0) = 0.
    """
    values = np.asarray(values, dtype=float)
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"order must lie in (0,2), got {alpha}")
    if alpha == 1.0:
        return _backward_difference(values, dt)
    if alpha > 1.0:
        v = _backward_difference(values, dt)
        return caputo_l1(v, alpha - 1.0, dt)

    n = values.shape[0] - 1
    out = np.zeros_like(values)
    if n < 1:
        return out
    causal_convolve(l1_weights(alpha, n), np.diff(values, axis=0), out=out[1:])
    out[1:] /= _gamma(2.0 - alpha) * dt ** alpha
    return out


def _caputo_l1_final(values: np.ndarray, alpha: float, dt: float) -> float:
    """``caputo_l1(values, alpha, dt)[-1]`` of a 1-D series, bitwise.

    Only the sum at the last node is formed: the full-overlap dot product
    that ``np.convolve`` computes for that node.  caputo-check reads only
    that node: at 16,384 steps this takes 0.4-0.6 ms per order against
    77-79 ms for the whole convolution (2-vCPU Xeon, numpy on CPython 3.11).
    """
    values = np.asarray(values, dtype=float)
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"order must lie in (0,2), got {alpha}")
    if alpha == 1.0:
        return float(_backward_difference(values, dt)[-1])
    if alpha > 1.0:
        return _caputo_l1_final(_backward_difference(values, dt),
                                alpha - 1.0, dt)
    n = values.shape[0] - 1
    if n < 1:
        return 0.0
    history = np.convolve(np.diff(values), l1_weights(alpha, n),
                          mode="valid")[0]
    return float(history / (_gamma(2.0 - alpha) * dt ** alpha))


class L1March:
    """The multi-term L1 operator in stepping form on ``n_cols`` columns.

    From the zero state the operator at step k is lead u_k + history(k):
    sum_{0<j<k} (w_u[k-j] du_j + w_v[k-j] dv_j) - lead u_{k-1} - prev du_{k-1}
    with du_j = u_j - u_{j-1}, dv_j = (du_j - du_{j-1})/dt, and the kernels
    w_u, w_v summing the orders below and above 1.  Call ``history(k)``, then
    ``push(k, u_k)``.
    """

    def __init__(self, spec: MultiTermSpec, dt: float, n_steps: int,
                 n_cols: int):
        self.lead = self._prev = 0.0
        w_u = w_v = None
        for q, al in zip(spec.weights, spec.orders):
            if al == 1.0:
                self.lead += q * dt ** (-al)
            elif al < 1.0:
                scale = q * (1.0 / _gamma(2.0 - al)) * dt ** (-al)
                self.lead += scale
                w = scale * l1_weights(al, n_steps)
                w_u = w if w_u is None else w_u + w
            else:
                scale = q * (1.0 / _gamma(3.0 - al)) * dt ** (-al)
                self.lead += scale
                self._prev += scale
                w = scale * dt * l1_weights(al - 1.0, n_steps)
                w_v = w if w_v is None else w_v + w
        self._dt = dt
        self._last = np.zeros(n_cols)                # u_{k-1}
        self._du = np.zeros((n_steps + 1, n_cols))
        # only the kernel of the orders above 1 reads the second differences
        self._dv = None if w_v is None else np.zeros((n_steps + 1, n_cols))
        # (kernel, its lags within one block as forward-indexed rows, series)
        span = min(BLOCK, n_steps)
        self._kernels = [(w, _toeplitz_rows(w, np.arange(span), span), d)
                         for w, d in ((w_u, self._du), (w_v, self._dv))
                         if w is not None]

    def history(self, k: int) -> np.ndarray:
        """Every term of the operator at step k except ``lead * u_k``."""
        r = (k - 1) % BLOCK
        if r == 0:
            # history older than this block, one product per kernel
            rows = np.arange(k, min(k + BLOCK, len(self._du)))
            self._older = np.zeros((len(rows), self._last.size))
            for w, _, d in self._kernels:
                self._older += _toeplitz_rows(w, rows - 1, k - 1) @ d[1:k]
        hist = (self._older[r] - self.lead * self._last
                - self._prev * self._du[k - 1])
        for _, near, d in self._kernels:
            hist += near[r, :r] @ d[k - r:k]
        return hist

    def push(self, k: int, x: np.ndarray) -> None:
        """Record the solved level u_k."""
        self._du[k] = x - self._last
        if self._dv is not None:
            self._dv[k] = (self._du[k] - self._du[k - 1]) / self._dt
        self._last[...] = x


def rl_integral_l1(values: np.ndarray, mu: float, dt: float) -> np.ndarray:
    """Riemann-Liouville integral of order mu in (0,1] along axis 0.

    Piecewise-linear product integration: exact on linear interpolants of
    the data, matching the accuracy class of the L1 derivative weights.
    """
    values = np.asarray(values, dtype=float)
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"integral order must lie in (0,1], got {mu}")
    n = values.shape[0] - 1
    res = np.zeros_like(values)
    if n < 1:
        return res
    m = np.arange(1, n + 1, dtype=float)
    upper = m ** (mu + 1.0) / (mu + 1.0) - (m - 1.0) * m ** mu / mu
    lower = (m - 1.0) ** (mu + 1.0) / (mu + 1.0) - (m - 1.0) ** mu * (m - 1.0) / mu
    a_w = upper - lower                              # weight of the older node
    upper = m * m ** mu / mu - m ** (mu + 1.0) / (mu + 1.0)
    lower = m * (m - 1.0) ** mu / mu - (m - 1.0) ** (mu + 1.0) / (mu + 1.0)
    b_w = upper - lower                              # weight of the newer node
    # J w(t_k) = dt^mu/Gamma(mu) * sum_m [a_m w_{k-m} + b_m w_{k-m+1}]
    causal_convolve(a_w, values[:-1], out=res[1:])
    res[1:] += causal_convolve(b_w, values[1:])
    res *= dt ** mu / _gamma(mu)
    return res


def multiterm_lowered(values: np.ndarray, spec: MultiTermSpec, dt: float,
                      ratio: float) -> np.ndarray:
    """Sum over l of ratio q_l times the order alpha_l - 1 operator, axis 0.

    Below 1 that is :func:`rl_integral_l1` of order 1 - alpha, at 1 the
    identity, above 1 that of order 2 - alpha of the causal first difference.
    """
    flat = np.asarray(values, dtype=float).reshape(len(values), -1)
    acc = 0.0
    for q, al in zip(spec.weights, spec.orders):
        if al < 1.0:
            block = rl_integral_l1(flat, 1.0 - al, dt)
        elif al == 1.0:
            block = flat
        else:      # the first difference is zero at node 0
            d1 = np.diff(flat, axis=0, prepend=flat[:1]) / dt
            block = rl_integral_l1(d1, 2.0 - al, dt)
        acc += q * ratio * block
    return acc.reshape(np.shape(values))


def multiterm_l1(values: np.ndarray, spec: MultiTermSpec,
                 dt: float) -> np.ndarray:
    """Array-level multi-term operator along axis 0 (no support check)."""
    acc = np.zeros_like(np.asarray(values, dtype=float))
    for q, a in zip(spec.weights, spec.orders):
        acc += q * caputo_l1(values, a, dt)
    return acc
