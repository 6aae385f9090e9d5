"""Convexifying changes of variables, cutoffs, and the continuation schedule.

The local map flattens the vanishing region and tilts it in time,

    x' = y' - yhat',   x_n = y_n + c |y' - yhat'|^2 + s*X*t/T - (s-1)*X,

with stage s = 1 recovering the basic transformation.  In the new
coordinates the operator's second-order part is
``HolmgrenFrame.effective_matrix`` (M^T a M) plus the first-order
``tilt_drift``.  Both take one sample of the frame's field ``a``, so the
Carleman image's sampler for the solver's discrete operator samples the
field once per block of time levels and hands that sample to both.  The
global map sends the open unit cube onto all of space coordinate-wise,
multiplying the coefficients by explicit weights.  Both directions are
exact closed forms, so round trips are checked at machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import EllipticCoeffField, _eigen_margin


@dataclass(frozen=True)
class HolmgrenMap:
    """Parameters of the stage-s change of variables.

    ``c`` is the convexification constant.  The continuation argument uses
    c >= 1; c = 0 is accepted to switch the tilt off in flat-case checks.
    """

    y_hat: np.ndarray
    c: float
    X: float
    T: float
    stage: int = 1

    def __post_init__(self):
        y_hat = np.asarray(self.y_hat, dtype=float)
        object.__setattr__(self, "y_hat", y_hat)
        if y_hat.ndim != 1:
            raise ValueError("base point must be a vector")
        if y_hat[-1] != 0.0:
            raise ValueError("base point must sit on the interface y_n = 0")
        if not 0.0 <= self.c < math.inf:
            raise ValueError(
                "convexification constant must be nonnegative and finite")
        if not 0.0 < self.X < 1.0:
            raise ValueError("layer thickness X must lie in (0, 1)")
        if not 0.0 < self.T < math.inf:
            raise ValueError("time horizon must be positive and finite")
        if self.stage < 1:
            raise ValueError("stage must be a positive integer")

    @property
    def n(self) -> int:
        return len(self.y_hat)

    def forward(self, t, y):
        """Map (t, y) to (t, x).  Batched over leading axes."""
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        xp = y[..., :-1] - self.y_hat[:-1]
        xn = (y[..., -1] + self.c * np.sum(xp**2, axis=-1)
              + self.stage * self.X * t / self.T - (self.stage - 1) * self.X)
        return t, np.concatenate([xp, xn[..., None]], axis=-1)

    def inverse(self, t, x):
        """Map (t, x) back to (t, y).  Exact algebraic inverse."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        yp = x[..., :-1] + self.y_hat[:-1]
        yn = (x[..., -1] - self.c * np.sum(x[..., :-1] ** 2, axis=-1)
              - self.stage * self.X * t / self.T + (self.stage - 1) * self.X)
        return t, np.concatenate([yp, yn[..., None]], axis=-1)

    def to_dict(self) -> dict:
        return {"y_hat": self.y_hat.tolist(), "c": self.c, "X": self.X,
                "T": self.T, "stage": self.stage}


def _congruence(m, a):
    """M^T a M of stacked matrices, as explicit products.

    Each entry sums (m[j, i] a[j, k]) m[k, l] over j in the outer loop and
    k in the inner one, starting from 0.0.  A floating-point sum depends on
    its order: this is the order ``np.einsum`` takes for the same
    three-operand contraction on C-ordered operands, as the fields return,
    so the result is bitwise the einsum's, while ``swapaxes(m) @ a @ m``
    sums in another order and is not.
    """
    n = m.shape[-1]
    out = np.empty(np.broadcast_shapes(m.shape, a.shape))
    for i in range(n):
        for l in range(n):
            acc = np.zeros(out.shape[:-2])
            for j in range(n):
                for k in range(n):
                    acc += m[..., j, i] * a[..., j, k] * m[..., k, l]
            out[..., i, l] = acc
    return out


@dataclass(frozen=True)
class HolmgrenFrame:
    """Coefficient data of the operator rewritten in the new coordinates.

    ``field`` evaluates the original coefficients at the pulled-back point
    and differentiates them by the chain rule, so the symbol machinery can
    treat it as a plain coefficient field of (t, x).
    """

    field: EllipticCoeffField
    map: HolmgrenMap

    def _tilt_matrix(self, x):
        x = np.asarray(x, dtype=float)
        n = self.map.n
        m = np.zeros(x.shape[:-1] + (n, n))
        idx = np.arange(n)
        m[..., idx, idx] = 1.0
        m[..., :-1, -1] = 2.0 * self.map.c * x[..., :-1]
        return m

    def effective_matrix(self, x, a):
        """Quadratic-form matrix M^T a M with the tilt folded in.

        ``a`` is the sample ``field.a(t, x)``.  M maps duals by
        zeta_j = xi_j + 2 c x_j xi_n (j < n), zeta_n = xi_n.  Together with
        :meth:`tilt_drift` this rewrites the composed second-order operator
        as an ordinary non-divergence form plus a first-order term, so the
        solver's per-level operator applies them with the usual stencils.
        """
        return _congruence(self._tilt_matrix(x), np.asarray(a, dtype=float))

    def tilt_drift(self, a):
        """First-order by-product 2 c sum_{j<n} a_jj of the composed form,
        as the coefficient vector of the normal derivative, from the sample
        ``a`` of :meth:`effective_matrix`."""
        a = np.asarray(a, dtype=float)
        out = np.zeros(a.shape[:-1])
        n = self.map.n
        if n > 1:
            idx = np.arange(n - 1)
            out[..., -1] = 2.0 * self.map.c * np.sum(a[..., idx, idx],
                                                     axis=-1)
        return out


def pushforward_operator(coeffs: EllipticCoeffField,
                         map: HolmgrenMap) -> HolmgrenFrame:
    """Express a coefficient field in the coordinates of ``map``.

    The returned frame evaluates a(t, y(t, x)) together with its exact time
    and space derivatives.  With y_n = x_n - c|x'|^2 - s*X*t/T + (s-1)*X the
    chain rule gives d/dt -> d/dt - (s X / T) d/dy_n and
    d/dx_j -> d/dy_j - 2 c x_j d/dy_n for j < n, d/dx_n -> d/dy_n.
    """
    if coeffs.n != map.n:
        raise ValueError("field dimension does not match the map")
    n = coeffs.n
    slope = map.stage * map.X / map.T

    def pullback(t, x):
        return map.inverse(t, x)[1]

    def a(t, x):
        return coeffs.a(t, pullback(t, x))

    def grads(t, x):
        x = np.asarray(x, dtype=float)
        dt, dy = coeffs.grads(t, pullback(t, x))
        dx = np.array(dy, copy=True)
        # d/dx_j = d/dy_j - 2 c x_j d/dy_n for the tangential directions
        dx[..., :-1, :, :] -= (2.0 * map.c * x[..., :-1, None, None]
                               * dy[..., -1:, :, :])
        return dt - slope * dy[..., -1, :, :], dx

    pushed = EllipticCoeffField(n=n, a=a, grads=grads, delta=coeffs.delta)
    return HolmgrenFrame(field=pushed, map=map)


# ---------------------------------------------------------------------------
# global coordinate-wise diffeomorphism of the open unit cube onto R^n


def global_diffeo_forward(y):
    """Coordinate-wise map y_j -> y_j / sqrt(1 - y_j^2) on (-1, 1)^n."""
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y) >= 1.0):
        raise ValueError("point must lie in the open unit cube")
    return y / np.sqrt(1.0 - y**2)


def global_diffeo_inverse(y_tilde):
    y_tilde = np.asarray(y_tilde, dtype=float)
    return y_tilde / np.sqrt(1.0 + y_tilde**2)


def stretch_weights(y_tilde):
    """Per-coordinate weights (1 + y_tilde_j^2)^(3/2) of the stretched duals."""
    y_tilde = np.asarray(y_tilde, dtype=float)
    return (1.0 + y_tilde**2) ** 1.5


def global_coefficients(coeffs: EllipticCoeffField) -> EllipticCoeffField:
    """Coefficients of the operator carried through the global map.

    The transformed matrix is a_jk(t, y) (1+yt_j^2)^(3/2) (1+yt_k^2)^(3/2)
    evaluated at y = inverse(yt).  Its ellipticity holds in the weighted
    sense tested by :func:`weighted_ellipticity_margin`; the stored delta is
    the weighted-sense constant inherited from the base field.
    """
    n = coeffs.n

    def a(t, yt):
        yt = np.asarray(yt, dtype=float)
        w = stretch_weights(yt)
        base = coeffs.a(t, global_diffeo_inverse(yt))
        return base * w[..., :, None] * w[..., None, :]

    def grads(t, yt):
        yt = np.asarray(yt, dtype=float)
        y = global_diffeo_inverse(yt)
        w = stretch_weights(yt)
        base = np.asarray(coeffs.a(t, y), dtype=float)
        dt, dbase = coeffs.grads(t, y)
        dy_dyt = (1.0 + yt**2) ** -1.5
        dw = 3.0 * yt * np.sqrt(1.0 + yt**2)
        batch = base.shape[:-2]
        out = np.zeros(batch + (n, n, n))
        ww = w[..., :, None] * w[..., None, :]
        for r in range(n):
            term = dbase[..., r, :, :] * dy_dyt[..., r, None, None] * ww
            # product rule on the weights: only w_r depends on yt_r
            prod = np.zeros(batch + (n, n))
            prod[..., r, :] = dw[..., r, None] * w * base[..., r, :]
            prod[..., :, r] += dw[..., r, None] * w * base[..., :, r]
            out[..., r, :, :] = term + prod
        return dt * w[..., :, None] * w[..., None, :], out

    return EllipticCoeffField(n=n, a=a, grads=grads, delta=coeffs.delta)


def weighted_ellipticity_margin(tilde_field: EllipticCoeffField, t,
                                y_tilde) -> float:
    """Exact slack of delta |eta~|^2 <= a~ eta.eta <= |eta~|^2 / delta.

    ``eta~`` stretches each component by w_j = (1 + y_tilde_j^2)^(3/2), so
    the bound is the plain one for W^-1 a~ W^-1 with W = diag(w); the
    margin is min(lambda_min - delta, 1/delta - lambda_max) over every
    sample.  Values below roundoff witness a violation.
    """
    a = np.asarray(tilde_field.a(t, y_tilde), dtype=float)
    w = stretch_weights(y_tilde)
    return _eigen_margin(a / (w[..., :, None] * w[..., None, :]),
                         tilde_field.delta)


# ---------------------------------------------------------------------------
# cutoffs


def smooth_step(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, strictly monotone between."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        left = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        right = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return left / (left + right)


def _ramp_down(r, r_plateau, r_zero):
    """1 for r <= r_plateau, 0 for r >= r_zero, smooth between."""
    return smooth_step((r_zero - np.asarray(r, dtype=float)) / (r_zero - r_plateau))


@dataclass(frozen=True)
class CutoffSpec:
    """Geometry of the plateau/support boxes and of the layer cutoff."""

    zeta: int
    epsilon: float
    X: float
    n: int
    l: float = 0.5
    y_hat: np.ndarray | None = None

    def __post_init__(self):
        if self.zeta < 1:
            raise ValueError("box index must be a positive integer")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.X < 1.0:
            raise ValueError("X must lie in (0, 1)")
        if not 0.0 < self.l < math.inf:
            raise ValueError("box depth must be positive and finite")
        y_hat = (np.zeros(self.n) if self.y_hat is None
                 else np.asarray(self.y_hat, dtype=float))
        object.__setattr__(self, "y_hat", y_hat)


def make_cutoffs(spec: CutoffSpec):
    """Smooth box cutoff kappa and layer cutoff chi.

    kappa equals 1 on the inner box (|y_j - yhat_j| <= sqrt(X) tangentially,
    -l/3 < y_n <= zeta X) and 0 off the doubled box; chi(x_n) equals 1 for
    x_n <= (1 - eps) X and 0 for x_n >= X.  Both take values in [0, 1].
    """
    rX = math.sqrt(spec.X)

    def kappa(y):
        y = np.asarray(y, dtype=float)
        val = np.ones(y.shape[:-1])
        for j in range(spec.n - 1):
            val = val * _ramp_down(np.abs(y[..., j] - spec.y_hat[j]), rX, 2.0 * rX)
        yn = y[..., -1]
        val = val * smooth_step((yn + 2.0 * spec.l / 3.0) / (spec.l / 3.0))
        val = val * _ramp_down(yn, spec.zeta * spec.X, (spec.zeta + 1) * spec.X)
        return val

    def chi(x_n):
        return _ramp_down(x_n, (1.0 - spec.epsilon) * spec.X, spec.X)

    return kappa, chi


# ---------------------------------------------------------------------------
# continuation schedule


@dataclass(frozen=True)
class ContinuationRegion:
    """Stage-s slab {t in (0,T), yt_n + s X t / T < s X, |yt'| < sqrt(X)}."""

    stage: int
    X: float
    T: float

    def contains(self, t, y_tilde) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        y_tilde = np.asarray(y_tilde, dtype=float)
        sX = self.stage * self.X
        inside_t = (t > 0.0) & (t < self.T)
        inside_slab = y_tilde[..., -1] + sX * t / self.T < sX
        lateral = np.sum(y_tilde[..., :-1] ** 2, axis=-1) < self.X
        return inside_t & inside_slab & lateral

    def to_dict(self) -> dict:
        # yt_n + (s X / T) t < s X, encoded as coefficient lists
        return {
            "stage": self.stage,
            "t_open_interval": [0.0, self.T],
            "slab": {"coeff_yn": 1.0, "coeff_t": self.stage * self.X / self.T,
                     "bound": self.stage * self.X, "strict": True},
            "lateral_radius": math.sqrt(self.X),
        }


def continuation_schedule(T: float, X: float, s_max: int, n: int,
                          c: float = 1.0):
    """Stage maps and regions for s = 1..s_max.

    Consecutive stages obey x_{s,n} = x_{s-1,n} + X t / T - X identically,
    and the stage-s map centered laterally at a region point sends it below
    the x_n = X level set.
    """
    if s_max < 1:
        raise ValueError("need at least one stage")
    out = []
    for s in range(1, s_max + 1):
        holmgren = HolmgrenMap(y_hat=np.zeros(n), c=c, X=X, T=T, stage=s)
        out.append((holmgren, ContinuationRegion(stage=s, X=X, T=T)))
    return out
