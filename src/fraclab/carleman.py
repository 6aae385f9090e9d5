"""Discrete test of the weighted a-priori inequality on bump families.

Both sides of the inequality are evaluated on compactly supported grid
functions: the left side sums beta-weighted, exponentially weighted squares
of the function and its first space derivatives (plus a time-derivative
block on the upper order branch), the right side is the weighted square of
the conjugated operator in the convexified coordinates.  Sweeping the large
parameter records the ratio per (beta, test function); a single finite
bound over the sweep is the empirical constant, and monotone growth of the
ratio in beta would refute the inequality.  A sweep walks the per-level
operators once for all bumps; L1 history and drift stay one call per bump.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fractional import MultiTermSpec, multiterm_lowered
from .geometry import HolmgrenFrame
from .solver import (LowerOrderTerm, SpaceTimeGrid, _spatial_walk,
                     apply_discrete_operator)
from .symbols import CarlemanWeightParams

BRANCH_THRESHOLD = 4.0 / 3.0
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)   # np.exp overflows past it


@dataclass(frozen=True)
class CompactBump:
    """Separable polynomial bump, vanishing to 4th order on its edges.

    value(t, x) = (s (1-s))^4 * prod_i (1 - r_i^2)^4 with s = t/t_span and
    r_i the rescaled distance to the i-th center.  Analytic space and time
    derivatives are provided for quadrature oracles.
    """

    centers: tuple
    halfwidths: tuple
    t_span: float
    amplitude: float = 1.0

    def _pieces(self, t, mesh):
        s = np.clip(np.asarray(t, dtype=float) / self.t_span, 0.0, 1.0)
        ts = (s * (1.0 - s)) ** 4
        rs = [(mesh[..., i] - c) / w
              for i, (c, w) in enumerate(zip(self.centers, self.halfwidths))]
        xs = [np.clip(1.0 - r**2, 0.0, None) ** 4 for r in rs]
        return s, ts, rs, xs

    def values(self, times, mesh):
        """Samples of shape (len(times), *mesh.shape[:-1])."""
        xs = self._pieces(0.0, mesh)[3]     # the space factors, formed once
        s = np.clip(np.asarray(times, dtype=float) / self.t_span, 0.0, 1.0)
        # the time factor per level as a scalar power: an array ** 4
        # rounds differently
        v = np.array([self.amplitude * (si * (1.0 - si)) ** 4 for si in s])
        v = v.reshape((-1,) + (1,) * (mesh.ndim - 1))
        for xb in xs:
            v = v * xb
        return v

    def space_gradient(self, times, mesh):
        """Analytic first derivatives, shape (nt, *space, ndim)."""
        nd = mesh.shape[-1]
        out = []
        for t in np.asarray(times, dtype=float):
            _, ts, rs, xs = self._pieces(t, mesh)
            grads = []
            for i in range(nd):
                g = self.amplitude * ts
                for j in range(nd):
                    if j == i:
                        base = np.clip(1.0 - rs[j] ** 2, 0.0, None)
                        g = g * (4.0 * base**3 * (-2.0 * rs[j])
                                 / self.halfwidths[j])
                    else:
                        g = g * xs[j]
                grads.append(np.broadcast_to(g, mesh.shape[:-1]).copy())
            out.append(np.stack(grads, axis=-1))
        return np.stack(out)

    def time_derivative(self, times, mesh):
        out = []
        for t in np.asarray(times, dtype=float):
            s, _, _, xs = self._pieces(t, mesh)
            dts = 4.0 * (s * (1.0 - s)) ** 3 * (1.0 - 2.0 * s) / self.t_span
            v = self.amplitude * dts
            for xb in xs:
                v = v * xb
            out.append(np.broadcast_to(v, mesh.shape[:-1]).copy())
        return np.stack(out)


def default_bump_family(weight: CarlemanWeightParams, grid: SpaceTimeGrid,
                        count: int = 5):
    """Bumps spread across the layer, strictly inside the box."""
    nd = grid.ndim
    bumps = []
    for i in range(count):
        frac = 0.30 + 0.40 * i / max(count - 1, 1)
        centers, widths = [], []
        for d, (lo, hi) in enumerate(grid.bounds):
            span = hi - lo
            if d == nd - 1:
                centers.append(lo + frac * span)
                widths.append(0.22 * span * (1.0 + 0.25 * (i % 3)))
            else:
                centers.append(lo + span * (0.45 + 0.02 * i))
                widths.append(0.30 * span)
        bumps.append(CompactBump(centers=tuple(centers),
                              halfwidths=tuple(widths),
                              t_span=grid.time.t_final,
                              amplitude=1.0 + 0.1 * i))
    return bumps


def _weight_profiles(grid: SpaceTimeGrid, weight, betas) -> list:
    """exp(2 beta psi(x_n)) on the space grid, one per beta.

    A beta whose profile overflows a float raises ``ValueError``: its
    infinite weight times a zero density is NaN on both sides.
    """
    psi = weight.psi(grid.mesh()[..., -1])
    top = float(np.max(psi))
    for beta in betas:
        if 2.0 * beta * top > _LOG_FLOAT_MAX:
            raise ValueError(
                f"beta={beta!r} overflows the weight exp(2 beta psi) at "
                f"max psi = {top!r}; beta must stay at or below "
                f"{_LOG_FLOAT_MAX / (2.0 * top):.6g}")
    return [np.exp(2.0 * beta * psi) for beta in betas]


def _weighted_integrals(density, grid: SpaceTimeGrid, profiles) -> list:
    """Trapezoid of density * profile over the cylinder, per profile: the
    profiles do not depend on t, so time is contracted first, once."""
    w = grid.time.dt * np.r_[0.5, np.ones(len(density) - 2), 0.5]
    space = (w @ density.reshape(len(w), -1)).reshape(density.shape[1:])
    out = []
    for profile in profiles:
        integrand = space * profile
        for ax in range(integrand.ndim - 1, -1, -1):
            integrand = np.trapezoid(integrand, dx=grid.spacing[ax], axis=ax)
        out.append(float(integrand))
    return out


def carleman_lhs(values, grid: SpaceTimeGrid, beta,
                 weight: CarlemanWeightParams, alpha: float,
                 gradient=None, time_derivative=None):
    """Left side: beta^3 |v|^2 + beta |grad v|^2 blocks under the weight.

    On the branch alpha >= 4/3 the block beta^(3 - 4/alpha) |d_t v|^2 is
    added.  ``gradient``/``time_derivative`` override the centered-difference
    derivatives with exact ones (used by the quadrature oracle tests).  A
    sequence of betas gives one value per beta from each density formed once.
    """
    values = np.asarray(values, dtype=float)
    betas = [beta] if np.ndim(beta) == 0 else list(beta)
    profiles = _weight_profiles(grid, weight, betas)
    totals = [0.0] * len(betas)

    def add(power, density):    # each density is dropped once it is summed
        for n, part in enumerate(_weighted_integrals(density, grid, profiles)):
            totals[n] += betas[n] ** power * part

    add(3.0, values**2)
    for d, h in enumerate(grid.spacing):     # |grad v|^2 one axis at a time
        add(1.0, (np.gradient(values, h, axis=d + 1, edge_order=2)
                  if gradient is None else gradient[..., d]) ** 2)
    if alpha >= BRANCH_THRESHOLD:
        if time_derivative is None:
            time_derivative = np.gradient(values, grid.time.dt, axis=0,
                                          edge_order=2)
        add(3.0 - 4.0 / alpha, time_derivative**2)
    return totals[0] if np.ndim(beta) == 0 else totals


def conjugated_operator(values, grid: SpaceTimeGrid, spec: MultiTermSpec,
                        frame: HolmgrenFrame, include_drift: bool = True,
                        spatial=None) -> np.ndarray:
    """Apply the conjugated operator in the convexified coordinates.

    The composed second-order operator is rewritten as the effective
    quadratic form plus its first-order by-product; the shared
    finite-difference operator is applied to e^t times the values and its
    image scaled by e^-t, which realizes the conjugation.  The drift
    block, the trace of the time-derivative transformation, couples a
    fractional time integral of order k - alpha_l with the normal
    derivative and carries the X/T factor.  The image is set to zero on the
    boundary ring, where the test functions vanish to high order anyway.
    ``spatial`` is the values' column of the walk :func:`beta_sweep` makes
    over all bumps with :func:`_conjugated_terms`.
    """
    values = np.asarray(values, dtype=float)
    shape_t = (-1,) + (1,) * grid.ndim
    growth = np.exp(grid.time.nodes).reshape(shape_t)
    inner = (slice(None),) + grid.interior()
    drift = 0.0
    if include_drift:
        # the drift first, each part with its own e^t product, never both held
        drift = multiterm_lowered(np.gradient(
            values * growth, grid.spacing[-1], axis=grid.ndim, edge_order=2),
            spec, grid.time.dt, frame.drift_ratio)
        drift = drift[inner] * np.exp(-grid.time.nodes).reshape(shape_t)
    interior = apply_discrete_operator(values * growth, spec,
                                       *_conjugated_terms(frame), grid,
                                       spatial=spatial)
    interior *= np.exp(-grid.time.nodes).reshape(shape_t)
    interior += drift
    image = np.zeros_like(values)
    image[inner] = interior
    return image


def _conjugated_terms(frame: HolmgrenFrame):
    """Tilted matrix and tilt drift: the conjugated operator's spatial part."""
    return frame.effective_matrix, LowerOrderTerm(frame.tilt_drift)


def carleman_rhs(values, grid: SpaceTimeGrid, beta: float,
                 weight: CarlemanWeightParams, spec: MultiTermSpec,
                 frame: HolmgrenFrame, include_drift: bool = True) -> float:
    """Right side: weighted square of the conjugated operator image."""
    image = conjugated_operator(values, grid, spec, frame,
                                include_drift=include_drift)
    return _weighted_integrals(image**2, grid,
                               _weight_profiles(grid, weight, [beta]))[0]


@dataclass(frozen=True)
class BetaSweepConfig:
    """Sweep controls: betas, weight, spec (whose alpha picks the branch)."""

    betas: tuple
    weight: CarlemanWeightParams
    spec: MultiTermSpec
    include_drift: bool = True

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        object.__setattr__(self, "betas", betas)
        if any(b <= 0.0 for b in betas) or len(betas) < 2:
            raise ValueError("need at least two positive beta values")
        if sorted(betas) != list(betas):
            raise ValueError("beta grid must increase")
        if max(betas) / min(betas) < 10.0:
            raise ValueError("beta grid must span at least one decade")


@dataclass(frozen=True)
class SweepRow:
    beta: float
    test_id: int
    lhs: float
    rhs: float
    ratio: float
    flagged: bool


@dataclass
class SweepResult:
    rows: list
    max_ratio: float
    min_ratio: float
    flagged: int

    def ratios_by_test(self):
        out = {}
        for row in self.rows:
            out.setdefault(row.test_id, []).append((row.beta, row.ratio))
        return out

    def top_half_monotone_growth(self) -> bool:
        """True if any test's ratio strictly increases across the top half
        of the beta grid, the divergence signature the sweep must rule out."""
        for pairs in self.ratios_by_test().values():
            pairs = sorted(pairs)
            top = [r for _, r in pairs[(len(pairs) - 1) // 2:]]
            if len(top) >= 2 and all(b > a for a, b in zip(top, top[1:])):
                return True
        return False

    @property
    def spread(self) -> float:
        """max_ratio / min_ratio, or inf when the minimum is not positive."""
        return (self.max_ratio / self.min_ratio if self.min_ratio > 0
                else math.inf)

    def to_json(self, path=None) -> str:
        doc = {"max_ratio": self.max_ratio, "min_ratio": self.min_ratio,
               "flagged_rows": self.flagged, "spread": self.spread,
               "top_half_monotone_growth": self.top_half_monotone_growth()}
        text = json.dumps(doc, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def beta_sweep(config: BetaSweepConfig, bumps, grid: SpaceTimeGrid,
               frame: HolmgrenFrame) -> SweepResult:
    """Evaluate both sides over the (beta, bump) lattice.

    Rows with zero right side and positive left side are flagged rather
    than dropped.  A bump that is zero on every node, as every bump is on a
    grid of one time step, raises ``ValueError``.
    """
    if frame.field.n != grid.ndim:
        raise ValueError("field dimension does not match the grid")
    bumps = list(bumps)
    times, mesh = grid.time.nodes, grid.mesh()
    profiles = _weight_profiles(grid, config.weight, config.betas)
    if bumps:
        # one walk over the levels for all bumps, times e^t; each bump is
        # evaluated again below rather than held beside its L1 sums
        block = np.stack([b.values(times, mesh).reshape(len(times), -1)
                          for b in bumps], axis=-1)
        block *= np.exp(times)[:, None, None]
        spatial = _spatial_walk(grid, *_conjugated_terms(frame), block,
                                np.zeros((len(times), math.prod(
                                    s - 2 for s in grid.shape), len(bumps))))
        del block
    rows = []
    for test_id, bump in enumerate(bumps):
        values = bump.values(times, mesh)
        if not values.any():    # both sides would be 0: no ratio
            raise ValueError(
                f"bump {test_id} is zero on every grid node; the grid has "
                f"{len(times)} time levels, t = {float(times[0])!r} to "
                f"{float(times[-1])!r}")
        lhs_all = carleman_lhs(values, grid, config.betas, config.weight,
                               config.spec.alpha)
        density = conjugated_operator(values, grid, config.spec, frame,
                                      include_drift=config.include_drift,
                                      spatial=spatial[..., test_id]) ** 2
        rhs_all = _weighted_integrals(density, grid, profiles)
        del density     # not held through the next bump's operator
        for beta, lhs, rhs in zip(config.betas, lhs_all, rhs_all):
            # numerically zero right side with a nonzero left side means the
            # test function sits in the discrete kernel (both sides are
            # quadratic, so the threshold is squared solver precision)
            flagged = lhs > 0.0 and rhs <= 1e-20 * lhs
            ratio = lhs / rhs if rhs > 0.0 else math.inf
            rows.append(SweepRow(beta=beta, test_id=test_id, lhs=lhs,
                                 rhs=rhs, ratio=ratio, flagged=flagged))
    finite = [r.ratio for r in rows if math.isfinite(r.ratio)]
    return SweepResult(rows=rows,
                       max_ratio=max(finite) if finite else math.inf,
                       min_ratio=min(finite) if finite else math.inf,
                       flagged=sum(r.flagged for r in rows))


def sweep_rows_csv(result: SweepResult, path: str) -> None:
    rows = [(r.beta, r.lhs, r.rhs, r.ratio, r.test_id) for r in result.rows]
    np.savetxt(path, np.array(rows, dtype=float).reshape(-1, 5),
               fmt=["%.17g"] * 4 + ["%d"], delimiter=",",
               header="beta,lhs,rhs,ratio,test_id", comments="")
