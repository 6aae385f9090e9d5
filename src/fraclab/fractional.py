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

Every L1 history is a causal convolution with a fixed kernel.  A single
series goes through ``np.convolve``, the exact direct sum.  A stack of
columns shorter than ``FFT_LEVELS`` goes through row blocks of the
lower-triangular Toeplitz matrix of the kernel, one matrix product per
block of ``BLOCK`` time levels, which reorders the same O(N^2) arithmetic
into BLAS calls; a longer stack is convolved by FFT in O(N log N) per
column, which agrees with the direct sum to rounding but not bitwise.  The
stepping history below is always the direct sum.

:func:`caputo_l1` and :func:`rl_integral_l1` write their sum into an
``out``, or add a weight times it, through one loop, :func:`_store_or_add`,
a convolution block at a time (a Toeplitz row block, or 4 FFT columns).
So, besides its input, :func:`multiterm_l1` holds its output and one
order's differences, and :func:`multiterm_lowered` its output and one
difference quotient.

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

FFT_LEVELS = 1024
"""Time levels from which :func:`_convolved_blocks` sums a stack of columns
by FFT instead of Toeplitz row blocks: a solver check's crossover.  On a
2-vCPU Xeon (numpy 2.4.6, one BLAS thread) the direct sum is faster below
about 1,000 levels at 127 columns (6.9 against 6.3 ms at 1,024 levels) and
below about 2,000 at 1,521 columns, which pay up to 1.5x in between."""


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
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")

    @classmethod
    def from_interval(cls, t_final: float, n_steps: int) -> "TimeGrid":
        if n_steps < 1:                # before dividing by it
            raise ValueError("n_steps must be a positive integer")
        dt = t_final / n_steps
        if not 0.0 < dt < math.inf:
            raise ValueError(f"t_final={t_final!r} over n_steps={n_steps!r} "
                             f"gives dt={dt!r}; dt must be positive")
        return cls(dt=dt, n_steps=n_steps)

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
    if not t > 0.0:
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
    v = np.empty(values.shape)
    np.subtract(values[1:], values[:-1], out=v[1:])
    v[1:] /= dt
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


def _convolved_blocks(kernel: np.ndarray, n: int, width, columns):
    """Yield ``(index, block)``: the causal convolution of a stack, in pieces.

    The stack has ``n`` levels and ``width`` columns (None for a single
    series), and ``columns(index)`` returns its entries at ``index``:
    ``...`` for all of them or ``np.s_[:, c0:c1]`` for a column block, so a
    caller may form them per block.  ``block`` is the convolution at
    ``[index]`` of the (n, width) result.  A series is one ``np.convolve``.
    Fewer than ``FFT_LEVELS`` levels go as row blocks of
    :func:`_toeplitz_rows` times all columns, one product per ``BLOCK``
    rows, last block first.  From ``FFT_LEVELS`` levels on, blocks of 4
    columns are convolved by ``np.fft.rfft``/``irfft`` of a power-of-two
    length at least 2n - 1, so nothing wraps around.  The blocks are formed
    one at a time, so a caller may write each before the next one reads.
    """
    if width is None and n > 0:     # np.convolve refuses an empty series
        yield ..., np.convolve(columns(...), kernel[:n])[:n]
    elif n < FFT_LEVELS:
        x = columns(...)
        for r0 in range(BLOCK * ((n - 1) // BLOCK), -1, -BLOCK):
            r1 = min(r0 + BLOCK, n)
            yield (np.s_[r0:r1],
                   _toeplitz_rows(kernel, range(r0, r1), r1) @ x[:r1])
    else:
        size = 1 << (2 * n - 2).bit_length()
        spectrum = np.fft.rfft(kernel[:n], size)[:, None]
        for c0 in range(0, width, 4):
            index = np.s_[:, c0:c0 + 4]
            block = np.fft.rfft(columns(index), size, axis=0)
            block *= spectrum
            yield index, np.fft.irfft(block, size, axis=0)[:n]


def _as_stack(x: np.ndarray):
    """``(x as an (len, columns) stack, its width)``; a series keeps its
    shape, with width None.  A view whenever numpy can make one."""
    if x.ndim == 1:
        return x, None
    flat = x.reshape(len(x), math.prod(x.shape[1:]))
    return flat, flat.shape[1]


def _target_stack(out: np.ndarray):
    """:func:`_as_stack` of ``out[1:]``, which must be a view."""
    target, width = _as_stack(out[1:])
    if target.size and not np.shares_memory(target, out):
        raise ValueError("out must be a C-ordered array")
    return target, width


def _store_or_add(out: np.ndarray, target, blocks, finish, weight):
    """Put an L1 sum into ``out`` from :func:`_convolved_blocks`'s pairs.

    ``finish(block)`` scales a block in place, which is then written into
    ``target``, :func:`_target_stack`'s view of ``out[1:]``, or with a
    ``weight`` added there times it, as ``out + weight * sum`` would add
    it.  Each block is dropped before the next is formed.  Node 0, where
    every L1 sum is zero, is set to zero, or has zero added.
    """
    for index, block in blocks:
        finish(block)
        if weight is None:
            target[index] = block
        else:
            block *= weight
            target[index] += block
        del block       # before the next block is formed
    if weight is None:
        out[:1] = 0.0
    else:
        out[:1] += 0.0  # node 0's term: zero, added as a whole sum would
    return out


def _differences(values: np.ndarray, out: np.ndarray) -> None:
    """out[k] = values[k+1] - values[k] along axis 0, in row blocks from the
    last, so ``out`` may be ``values[1:]``: each block reads only rows that
    no block written so far has overwritten."""
    for r1 in range(len(out), 0, -BLOCK):
        r0 = max(r1 - BLOCK, 0)
        np.subtract(values[r0 + 1:r1 + 1], values[r0:r1], out=out[r0:r1])


def caputo_l1(values: np.ndarray, alpha: float, dt: float,
              out: np.ndarray = None, weight: float = None) -> np.ndarray:
    """L1 discrete Caputo derivative along axis 0 of ``values``.

    Orders in (0,1) use classical L1 product integration.  Order exactly 1
    falls back to the causal first difference.  Orders in (1,2) apply the L1
    scheme of order alpha-1 to the first discrete derivative, reducing the
    second-derivative kernel to the first-derivative one; that pass runs in
    place in the first derivative, so no second result-sized array is
    formed.  The history is :func:`_convolved_blocks`'s, the exact direct
    sum except on a stack of columns of at least ``FFT_LEVELS`` levels.

    Node 0 is the zero extension to t < 0.  Below order 1 only differences
    enter, so values[0] drops out.  From order 1 up the first difference at
    node 0 is values[0] / dt, and above 1 the result is the Caputo
    derivative only of data with u(0) = u'(0) = 0.

    The result goes into ``out`` (a new array when None), which may be
    ``values`` itself.  With a ``weight``, ``weight`` times the result is
    added into ``out`` instead.  Below order 1 ``out`` must be a C-ordered
    array of the result's shape, and :func:`_store_or_add` puts the sum
    into it one convolution block at a time: written, the differences are
    convolved in ``out``; added, only a Toeplitz sum's differences make a
    result-sized array (an FFT sum forms each column block's own from a
    2-D view of ``values``, a copy only when ``values`` has none).  From
    order 1 up that array is the first derivative.  Each element gets the
    products and sums of ``out + weight * caputo_l1(values, alpha, dt)``.
    """
    values = np.asarray(values, dtype=float)
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"order must lie in (0,2), got {alpha}")
    if alpha >= 1.0:
        v = _backward_difference(values, dt)
        if alpha > 1.0:   # through the module name, like every order below 1
            caputo_l1(v, alpha - 1.0, dt, out=v)
        if weight is not None:
            v *= weight
            out += v
        elif out is not None:
            out[...] = v
        return v if out is None else out

    n = values.shape[0] - 1
    scale = _gamma(2.0 - alpha) * dt ** alpha
    if out is None and weight is None:
        out = np.empty(values.shape)
    target, width = _target_stack(out)
    if weight is None:  # the differences, convolved where they are written
        _differences(values, out[1:])
        columns = target.__getitem__
    elif width is not None and n >= FFT_LEVELS:
        flat = _as_stack(values)[0]

        def columns(index):         # one column block's differences
            return np.subtract(flat[1:][index], flat[:-1][index])
    else:
        diffs = np.subtract(values[1:], values[:-1])
        columns = _as_stack(diffs)[0].__getitem__
    blocks = _convolved_blocks(l1_weights(alpha, n), n, width, columns)
    return _store_or_add(out, target, blocks,
                         lambda block: np.divide(block, scale, out=block),
                         weight)


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
            try:
                power = dt ** (-al)
            except OverflowError:
                raise ValueError(f"time step dt={dt!r} is too small for order "
                                 f"{al!r}: dt ** -{al!r} overflows") from None
            if al == 1.0:
                scale = q * power
            else:
                top = 2.0 if al < 1.0 else 3.0
                scale = q * (1.0 / _gamma(top - al)) * power
            self.lead += scale
            if not (math.isfinite(scale) and math.isfinite(self.lead)):
                raise ValueError(
                    f"order {al!r} with weight {q!r} at time step dt={dt!r}: "
                    f"its scaled weight {scale!r} or the leading coefficient "
                    f"{self.lead!r} is not finite")
            if al < 1.0:
                w = scale * l1_weights(al, n_steps)
                w_u = w if w_u is None else w_u + w
            elif al > 1.0:
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


def rl_integral_l1(values: np.ndarray, mu: float, dt: float,
                   out: np.ndarray = None, weight: float = None) -> np.ndarray:
    """Riemann-Liouville integral of order mu in (0,1] along axis 0.

    Piecewise-linear product integration: exact on linear interpolants of
    the data, matching the accuracy class of the L1 derivative weights.

    The result goes into ``out`` (a new array when None), a C-ordered
    array of the result's shape.  With a ``weight``, ``weight`` times the
    result is added into ``out`` instead.  Either way the two kernels' sums
    are formed one convolution block at a time from a 2-D view of
    ``values`` and put into ``out`` by :func:`_store_or_add`, so no
    result-sized array is formed unless numpy has to copy ``values`` for
    that view.
    """
    values = np.asarray(values, dtype=float)
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"integral order must lie in (0,1], got {mu}")
    n = values.shape[0] - 1
    if out is None and weight is None:
        out = np.empty(values.shape)
    m = np.arange(1, n + 1, dtype=float)
    upper = m ** (mu + 1.0) / (mu + 1.0) - (m - 1.0) * m ** mu / mu
    lower = ((m - 1.0) ** (mu + 1.0) / (mu + 1.0)
             - (m - 1.0) ** mu * (m - 1.0) / mu)
    a_w = upper - lower                          # weight of the older node
    upper = m * m ** mu / mu - m ** (mu + 1.0) / (mu + 1.0)
    lower = m * (m - 1.0) ** mu / mu - (m - 1.0) ** (mu + 1.0) / (mu + 1.0)
    b_w = upper - lower                          # weight of the newer node
    # J w(t_k) = dt^mu/Gamma(mu) * sum_m [a_m w_{k-m} + b_m w_{k-m+1}]
    scale = dt ** mu / _gamma(mu)
    target, width = _target_stack(out)
    flat = _as_stack(values)[0]
    newer = _convolved_blocks(b_w, n, width, flat[1:].__getitem__)

    def finish(block):          # the same index's newer block, scaled
        block += next(newer)[1]
        block *= scale
    blocks = _convolved_blocks(a_w, n, width, flat[:-1].__getitem__)
    return _store_or_add(out, target, blocks, finish, weight)


def multiterm_lowered(values: np.ndarray, spec: MultiTermSpec, dt: float,
                      ratio: float) -> np.ndarray:
    """Sum over l of ratio q_l times the order alpha_l - 1 operator, axis 0.

    Below 1 that is :func:`rl_integral_l1` of order 1 - alpha, at 1 the
    identity, above 1 that of order 2 - alpha of the causal first difference
    quotient, formed once for all such orders.  Every order's term is added
    into one output that starts at zeros, so besides ``values`` at most the
    output and that quotient are held.
    """
    flat = np.asarray(values, dtype=float).reshape(len(values), -1)
    out = np.zeros(flat.shape)
    quotient = None
    for q, al in zip(spec.weights, spec.orders):
        if al < 1.0:
            rl_integral_l1(flat, 1.0 - al, dt, out=out, weight=q * ratio)
        elif al == 1.0:     # in row blocks: no result-sized temporary
            for r0 in range(0, len(flat), BLOCK):
                out[r0:r0 + BLOCK] += q * ratio * flat[r0:r0 + BLOCK]
        else:
            if quotient is None:    # the first difference is zero at node 0
                quotient = _backward_difference(flat, dt)
                quotient[0] = (flat[0] - flat[0]) / dt
            rl_integral_l1(quotient, 2.0 - al, dt, out=out, weight=q * ratio)
    return out.reshape(np.shape(values))


def multiterm_l1(values: np.ndarray, spec: MultiTermSpec,
                 dt: float) -> np.ndarray:
    """Array-level multi-term operator along axis 0 (no support check).

    The first order's result, times its weight, is the output; every later
    order's term is added into it by :func:`caputo_l1` block by block, so
    besides ``values`` the output and one order's differences are held.
    The sum differs from one started at zeros only in the sign of a zero.
    """
    out = None
    for q, a in zip(spec.weights, spec.orders):
        if out is None:
            out = caputo_l1(values, a, dt)
            out *= q
        else:
            caputo_l1(values, a, dt, out=out, weight=q)
    return out
