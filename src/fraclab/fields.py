"""Symmetric elliptic coefficient fields with exact derivative oracles.

Every field bundles the matrix callable a(t, y) with its analytic time and
space derivatives, so downstream symbol derivatives never fall back on
finite differences.  Callables are batch-aware: ``t`` may be a scalar or a
shape (N,) array, ``y`` a shape (n,) or (N, n) array, and the matrix comes
back with matching batch axes, i.e. (n, n) or (N, n, n).  The space
derivative carries the direction as the first matrix axis: element [r, j, k]
is the derivative of a_jk along y_r.  A field declares nothing about its
time dependence: the solver samples it on blocks of time levels and lets
consecutive levels whose samples are exactly equal share one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Batched callers sample at most this many points (or one time level) per
# call, so temporaries stay small; blocks change no bit of the result.
SAMPLE_BLOCK = 8192


@dataclass(frozen=True)
class EllipticCoeffField:
    """Symmetric coefficient matrix with uniform ellipticity constant.

    Parameters
    ----------
    n : int
        Spatial dimension.
    a : callable
        ``a(t, y) -> (..., n, n)`` symmetric matrix samples.
    da_dt : callable
        ``da_dt(t, y) -> (..., n, n)`` time derivative.
    da_dy : callable
        ``da_dy(t, y) -> (..., n, n, n)`` space derivatives, direction first.
    delta : float
        Constant with delta |xi|^2 <= a xi.xi <= |xi|^2 / delta on the
        region of interest.
    """

    n: int
    a: Callable
    da_dt: Callable
    da_dy: Callable
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("ellipticity constant must lie in (0, 1]")

    def ellipticity_margin(self, t, y) -> float:
        """Worst slack of the two-sided ellipticity bound, exactly.

        Returns min(lambda_min - delta, 1/delta - lambda_max) over the
        eigenvalues of every sampled matrix; values below roundoff witness
        a violation.
        """
        return _eigen_margin(self.a(t, y), self.delta)


def _eigen_margin(a, delta: float) -> float:
    """min(lambda_min - delta, 1/delta - lambda_max) over stacked matrices."""
    eigs = np.linalg.eigvalsh(np.asarray(a, dtype=float))
    return float(min(eigs[..., 0].min() - delta,
                     1.0 / delta - eigs[..., -1].max()))


def identity_field(n: int) -> EllipticCoeffField:
    """Constant identity coefficients."""
    return constant_field(np.eye(n), delta=1.0)


def diagonal_variable_field(n: int, amplitude: float = 0.3) -> EllipticCoeffField:
    """Diagonal field a_jj = 1 + amplitude*sin(y_j)*cos(t), off-diagonal 0."""
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must lie in [0, 1)")
    delta = 1.0 - amplitude

    def a(t, y):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        diag = 1.0 + amplitude * np.sin(y) * np.cos(t)[..., None]
        out = np.zeros(diag.shape + (n,))
        idx = np.arange(n)
        out[..., idx, idx] = diag
        return out

    def da_dt(t, y):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        diag = -amplitude * np.sin(y) * np.sin(t)[..., None]
        out = np.zeros(diag.shape + (n,))
        idx = np.arange(n)
        out[..., idx, idx] = diag
        return out

    def da_dy(t, y):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        diag = amplitude * np.cos(y) * np.cos(t)[..., None]
        batch = diag.shape[:-1]
        out = np.zeros(batch + (n, n, n))
        idx = np.arange(n)
        # only a_jj depends on y_j, so d a_jj / d y_r is diagonal in (r, j)
        out[..., idx, idx, idx] = diag
        return out

    return EllipticCoeffField(n=n, a=a, da_dt=da_dt, da_dy=da_dy, delta=delta)


def rotating_anisotropic_field(n: int, ratio: float = 0.5, spin: float = 1.0,
                               shear: float = 0.5) -> EllipticCoeffField:
    """Anisotropy ratio rotated in the (y_1, y_2) plane by spin*t + shear*y_1.

    Eigenvalues are {ratio, 1}, so delta = ratio.  Requires n >= 2.
    """
    if n < 2:
        raise ValueError("rotating field needs n >= 2")
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")

    def pieces(t, y):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        theta = spin * t + shear * y[..., 0]
        return theta

    def matrix_from_theta(theta):
        ct, st = np.cos(theta), np.sin(theta)
        out = np.zeros(theta.shape + (n, n))
        idx = np.arange(2, n)
        out[..., idx, idx] = 1.0
        out[..., 0, 0] = ct**2 + ratio * st**2
        out[..., 1, 1] = st**2 + ratio * ct**2
        out[..., 0, 1] = out[..., 1, 0] = (1.0 - ratio) * ct * st
        return out

    def dmatrix_dtheta(theta):
        c2, s2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
        out = np.zeros(theta.shape + (n, n))
        out[..., 0, 0] = -(1.0 - ratio) * s2
        out[..., 1, 1] = (1.0 - ratio) * s2
        out[..., 0, 1] = out[..., 1, 0] = (1.0 - ratio) * c2
        return out

    def a(t, y):
        return matrix_from_theta(pieces(t, y))

    def da_dt(t, y):
        return spin * dmatrix_dtheta(pieces(t, y))

    def da_dy(t, y):
        theta = pieces(t, y)
        out = np.zeros(theta.shape + (n, n, n))
        out[..., 0, :, :] = shear * dmatrix_dtheta(theta)
        return out

    return EllipticCoeffField(n=n, a=a, da_dt=da_dt, da_dy=da_dy, delta=ratio)


def polynomial_field(n: int, tables, delta: float) -> EllipticCoeffField:
    """Field from monomial tables, exact derivatives by the power rule.

    ``tables`` is a list of entries ``{"j": j, "k": k, "terms": [...]}`` where
    each term is ``{"coeff": c, "t_pow": p0, "y_pows": [p1, ..., pn]}``.
    Entries are symmetrized: a term listed for (j, k) also applies to (k, j).
    The declared ``delta`` is trusted here and validated by sampling in the
    callers that care.
    """
    terms = []  # (j, k, coeff, t_pow, y_pows)
    for entry in tables:
        j, k = int(entry["j"]), int(entry["k"])
        if not (0 <= j < n and 0 <= k < n):
            raise ValueError(f"index pair ({j}, {k}) outside dimension {n}")
        for term in entry["terms"]:
            pows = tuple(int(p) for p in term["y_pows"])
            if len(pows) != n:
                raise ValueError("y_pows length must equal the dimension")
            terms.append((j, k, float(term["coeff"]), int(term["t_pow"]), pows))

    def monomial(t, y, t_pow, y_pows):
        val = np.ones(np.broadcast_shapes(np.shape(t), np.shape(y)[:-1]))
        if t_pow:
            val = val * np.asarray(t, dtype=float) ** t_pow
        for r, p in enumerate(y_pows):
            if p:
                val = val * np.asarray(y, dtype=float)[..., r] ** p
        return val

    def accumulate(t, y, kind, direction=None):
        t_arr = np.asarray(t, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        batch = np.broadcast_shapes(t_arr.shape, y_arr.shape[:-1])
        out = np.zeros(batch + (n, n))
        for j, k, c, p0, pows in terms:
            if kind == "a":
                val = c * monomial(t, y, p0, pows)
            elif kind == "dt":
                if p0 == 0:
                    continue
                val = c * p0 * monomial(t, y, p0 - 1, pows)
            else:
                p = pows[direction]
                if p == 0:
                    continue
                dp = list(pows)
                dp[direction] = p - 1
                val = c * p * monomial(t, y, p0, tuple(dp))
            out[..., j, k] += val
            if j != k:
                out[..., k, j] += val
        return out

    def a(t, y):
        return accumulate(t, y, "a")

    def da_dt(t, y):
        return accumulate(t, y, "dt")

    def da_dy(t, y):
        parts = [accumulate(t, y, "dy", r) for r in range(n)]
        return np.stack(parts, axis=-3)

    return EllipticCoeffField(n=n, a=a, da_dt=da_dt, da_dy=da_dy, delta=delta)


def constant_field(matrix, delta: float | None = None) -> EllipticCoeffField:
    """Field with a fixed symmetric positive definite matrix."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or not np.allclose(matrix, matrix.T):
        raise ValueError("matrix must be square and symmetric")
    eigs = np.linalg.eigvalsh(matrix)
    if eigs[0] <= 0.0:
        raise ValueError("matrix must be positive definite")
    if delta is None:
        delta = float(min(eigs[0], 1.0 / eigs[-1]))

    def broadcast(t, y, template):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        batch = np.broadcast_shapes(t.shape, y.shape[:-1])
        return np.broadcast_to(template, batch + template.shape).copy()

    return EllipticCoeffField(
        n=n,
        a=lambda t, y: broadcast(t, y, matrix),
        da_dt=lambda t, y: broadcast(t, y, np.zeros((n, n))),
        da_dy=lambda t, y: broadcast(t, y, np.zeros((n, n, n))),
        delta=delta,
    )


def field_from_config(config) -> EllipticCoeffField:
    """Build a field from a JSON-style preset description."""
    preset = config["preset"]
    n = int(config["n"])
    if preset == "identity":
        return identity_field(n)
    if preset == "diagonal-variable":
        return diagonal_variable_field(n, amplitude=config.get("amplitude", 0.3))
    if preset == "rotating-anisotropic":
        return rotating_anisotropic_field(
            n, ratio=config.get("ratio", 0.5),
            spin=config.get("spin", 1.0), shear=config.get("shear", 0.5))
    if preset == "polynomial":
        return polynomial_field(n, config["tables"], float(config["delta"]))
    raise ValueError(f"unknown coefficient preset {preset!r}")
