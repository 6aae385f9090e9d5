"""Symmetric elliptic coefficient fields with exact derivative oracles.

Every field bundles the matrix callable a(t, y) with one callable,
``grads``, for its analytic time and space derivatives, so downstream symbol
derivatives never fall back on finite differences.  Callables are
batch-aware: ``t`` may be a scalar or a shape (N,) array, ``y`` a shape (n,)
or (N, n) array, and the matrix comes back with matching batch axes, i.e.
(n, n) or (N, n, n).  The space derivative carries the direction as the
first matrix axis: element [r, j, k] is the derivative of a_jk along y_r.  A
field declares nothing about its time dependence: the solver samples it on
blocks of time levels and lets consecutive levels whose samples are exactly
equal share one matrix.
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
    grads : callable
        ``grads(t, y) -> (da_dt, da_dy)``: the time derivative, shape
        (..., n, n), and the space derivatives, shape (..., n, n, n),
        direction first.
    delta : float
        Constant with delta |xi|^2 <= a xi.xi <= |xi|^2 / delta on the
        region of interest.
    """

    n: int
    a: Callable
    grads: Callable
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
    idx = np.arange(n)

    def diagonal(diag, axes=2):
        out = np.zeros(diag.shape[:-1] + (n,) * axes)
        out[(...,) + (idx,) * axes] = diag
        return out

    def a(t, y):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        return diagonal(1.0 + amplitude * np.sin(y) * np.cos(t)[..., None])

    def grads(t, y):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        # only a_jj depends on y_j, so d a_jj / d y_r is diagonal in (r, j)
        return (diagonal(-amplitude * np.sin(y) * np.sin(t)[..., None]),
                diagonal(amplitude * np.cos(y) * np.cos(t)[..., None], 3))

    return EllipticCoeffField(n=n, a=a, grads=grads, delta=delta)


def rotating_anisotropic_field(n: int, ratio: float = 0.5, spin: float = 1.0,
                               shear: float = 0.5) -> EllipticCoeffField:
    """Anisotropy ratio rotated in the (y_1, y_2) plane by spin*t + shear*y_1.

    Eigenvalues are {ratio, 1}, so delta = ratio.  Requires n >= 2.
    """
    if n < 2:
        raise ValueError("rotating field needs n >= 2")
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")

    def angle(t, y):
        return (spin * np.asarray(t, dtype=float)
                + shear * np.asarray(y, dtype=float)[..., 0])

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
        return matrix_from_theta(angle(t, y))

    def grads(t, y):
        theta = angle(t, y)
        dm = dmatrix_dtheta(theta)
        dy = np.zeros(theta.shape + (n, n, n))
        dy[..., 0, :, :] = shear * dm
        return spin * dm, dy

    return EllipticCoeffField(n=n, a=a, grads=grads, delta=ratio)


def polynomial_field(n: int, tables, delta: float) -> EllipticCoeffField:
    """Field from monomial tables, exact derivatives by the power rule.

    ``tables`` is a list of entries ``{"j": j, "k": k, "terms": [...]}`` where
    each term is ``{"coeff": c, "t_pow": p0, "y_pows": [p1, ..., pn]}``.
    Entries are symmetrized: a term listed for (j, k) also applies to (k, j).
    The declared ``delta`` is trusted here and validated by sampling in the
    callers that care.
    """
    terms = []  # ((j, k), coeff, t_pow, y_pows)
    for entry in tables:
        j, k = int(entry["j"]), int(entry["k"])
        if not (0 <= j < n and 0 <= k < n):
            raise ValueError(f"index pair ({j}, {k}) outside dimension {n}")
        for term in entry["terms"]:
            pows = tuple(int(p) for p in term["y_pows"])
            if len(pows) != n:
                raise ValueError("y_pows length must equal the dimension")
            terms.append(((j, k), float(term["coeff"]), int(term["t_pow"]),
                          pows))

    def monomial(t, y, t_pow, y_pows):
        val = np.ones(np.broadcast_shapes(np.shape(t), np.shape(y)[:-1]))
        if t_pow:
            val = val * np.asarray(t, dtype=float) ** t_pow
        for r, p in enumerate(y_pows):
            if p:
                val = val * np.asarray(y, dtype=float)[..., r] ** p
        return val

    # the power rule as tables of the same form, in term order, so every
    # slot sums its monomials in the order listed
    d_t = [(jk, c * p0, p0 - 1, pows) for jk, c, p0, pows in terms if p0]
    d_y = [((r,) + jk, c * p, p0, pows[:r] + (p - 1,) + pows[r + 1:])
           for jk, c, p0, pows in terms for r, p in enumerate(pows) if p]

    def accumulate(t, y, table, shape):
        out = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(y)[:-1])
                       + shape)
        for slot, c, t_pow, y_pows in table:
            val = c * monomial(t, y, t_pow, y_pows)
            out[(...,) + slot] += val
            if slot[-2] != slot[-1]:
                out[(...,) + slot[:-2] + (slot[-1], slot[-2])] += val
        return out

    def a(t, y):
        return accumulate(t, y, terms, (n, n))

    def grads(t, y):
        return (accumulate(t, y, d_t, (n, n)),
                accumulate(t, y, d_y, (n, n, n)))

    return EllipticCoeffField(n=n, a=a, grads=grads, delta=float(delta))


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
        grads=lambda t, y: (broadcast(t, y, np.zeros((n, n))),
                            broadcast(t, y, np.zeros((n, n, n)))),
        delta=delta,
    )


# preset -> (builder of (n, **keys), the keys it reads besides preset and
# n that it may go without, and those that it requires)
_PRESETS = {
    "identity": (identity_field, (), ()),
    "diagonal-variable": (diagonal_variable_field, ("amplitude",), ()),
    "rotating-anisotropic": (rotating_anisotropic_field,
                             ("ratio", "spin", "shear"), ()),
    "polynomial": (polynomial_field, (), ("tables", "delta")),
}


def field_from_config(config) -> EllipticCoeffField:
    """Build a field from a JSON-style preset description.

    A key that the preset does not read, or one that it requires and the
    description lacks, raises ``ValueError`` naming it.
    """
    preset = config["preset"]
    if preset not in _PRESETS:
        raise ValueError(f"unknown coefficient preset {preset!r}")
    build, optional, required = _PRESETS[preset]
    keys = optional + required
    extra = [key for key in config if key not in ("preset", "n") + keys]
    if extra:
        raise ValueError(f"coefficient preset {preset!r} does not read "
                         f"{', '.join(map(repr, extra))}")
    missing = [key for key in required if key not in config]
    if missing:
        raise ValueError(f"coefficient preset {preset!r} requires "
                         f"{', '.join(map(repr, missing))}")
    return build(int(config["n"]),
                 **{key: config[key] for key in keys if key in config})
