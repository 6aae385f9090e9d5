"""Discrete test of the weighted a-priori inequality on bump families.

Both sides of the inequality are evaluated on compactly supported grid
functions: the left side sums beta-weighted, exponentially weighted squares
of the function and its first space derivatives (plus a time-derivative
block on the upper order branch), the right side is the weighted square of
the conjugated operator in the convexified coordinates.  Sweeping the large
parameter records the ratio per (beta, test function); a single finite
bound over the sweep is the empirical constant, and monotone growth of the
ratio in beta would refute the inequality.

A sweep walks the per-level operators once for all bumps, and forms the
bumps' values for that walk one block of levels at a time, so the walk
holds its output, (levels, interior nodes, bumps), and no stack of its
input.  L1 history and drift stay one call per bump, and each bump has one
workspace: its values, which become e^t times them once the left side is
summed, then its image, then the image's square.  The largest set held at
once is the drift's: the workspace, the drift's input, its difference
quotient and its output, each the size of one bump's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fractional import MultiTermSpec, multiterm_lowered
from .geometry import HolmgrenFrame
from .solver import (SpaceTimeGrid, _ellipticity_precondition, _spatial_walk,
                     apply_discrete_operator)
from .symbols import CarlemanWeightParams

BRANCH_THRESHOLD = 4.0 / 3.0
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)   # np.exp overflows past it


@dataclass(frozen=True)
class CompactBump:
    """Separable polynomial bump, vanishing to 4th order on its edges.

    value(t, x) = (s (1-s))^4 * prod_i (1 - r_i^2)^4 with s = t/t_span and
    r_i the rescaled distance to the i-th center.
    """

    centers: tuple
    halfwidths: tuple
    t_span: float
    amplitude: float = 1.0

    def factors(self, times, mesh):
        """The time factor per level, shaped to broadcast over the mesh, and
        the space factors per axis; :meth:`values` multiplies them in order.
        """
        xs = [np.clip(1.0 - ((mesh[..., i] - c) / w) ** 2, 0.0, None) ** 4
              for i, (c, w) in enumerate(zip(self.centers, self.halfwidths))]
        s = np.clip(np.asarray(times, dtype=float) / self.t_span, 0.0, 1.0)
        # the time factor per level as a scalar power: an array ** 4
        # rounds differently
        v = np.array([self.amplitude * (si * (1.0 - si)) ** 4 for si in s])
        return v.reshape((-1,) + (1,) * (mesh.ndim - 1)), xs

    def values(self, times, mesh):
        """Samples of shape (len(times), *mesh.shape[:-1])."""
        return _product(*self.factors(times, mesh))


def _product(time_factor, space_factors):
    """time_factor * space_factors[0] * ..., one new array."""
    v = time_factor * space_factors[0]
    for xb in space_factors[1:]:
        v *= xb
    return v


class _GrownLevels:
    """e^t times the bumps' values, stacked (levels, nodes, bumps) and
    formed only on indexing, a block of levels at a time.

    ``factors`` holds each bump's :meth:`CompactBump.factors` on the grid,
    and ``[start:stop]`` is bitwise those levels of the whole stack, which
    is never held.
    """

    def __init__(self, factors, grid: SpaceTimeGrid):
        self._factors = factors
        self._growth = np.exp(grid.time.nodes)
        self._nodes = math.prod(grid.shape)

    def __getitem__(self, levels):
        growth = self._growth[levels]
        block = np.empty((len(growth), self._nodes, len(self._factors)))
        for b, (time_factor, space_factors) in enumerate(self._factors):
            block[..., b] = _product(time_factor[levels], space_factors
                                     ).reshape(len(growth), -1)
        block *= growth[:, None, None]
        return block


def default_bump_family(grid: SpaceTimeGrid, count: int = 5):
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
                 weight: CarlemanWeightParams, alpha: float):
    """Left side: beta^3 |v|^2 + beta |grad v|^2 blocks under the weight.

    On the branch alpha >= 4/3 the block beta^(3 - 4/alpha) |d_t v|^2 is
    added.  The derivatives are centered differences, second order at the
    edges too.  A sequence of betas gives one value per beta from each
    density formed once.
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
        add(1.0, np.gradient(values, h, axis=d + 1, edge_order=2) ** 2)
    if alpha >= BRANCH_THRESHOLD:
        add(3.0 - 4.0 / alpha,
            np.gradient(values, grid.time.dt, axis=0, edge_order=2) ** 2)
    return totals[0] if np.ndim(beta) == 0 else totals


def conjugated_operator(values, grid: SpaceTimeGrid, spec: MultiTermSpec,
                        frame: HolmgrenFrame, include_drift: bool = True,
                        spatial=None, out=None) -> np.ndarray:
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
    over all bumps with :func:`_conjugated_terms`.  The image goes into
    ``out`` (a new array when None), which first holds e^t times the
    values and may be ``values`` itself.
    """
    values = np.asarray(values, dtype=float)
    shape_t = (-1,) + (1,) * grid.ndim
    decay = np.exp(-grid.time.nodes).reshape(shape_t)
    inner = (slice(None),) + grid.interior()
    grown = np.multiply(values, np.exp(grid.time.nodes).reshape(shape_t),
                        out=out)
    drift = 0.0
    if include_drift:   # the drift first, its full-size parts not kept
        drift = multiterm_lowered(np.gradient(
            grown, grid.spacing[-1], axis=grid.ndim, edge_order=2),
            spec, grid.time.dt, frame.map.X / frame.map.T)
        drift = drift[inner] * decay
    interior = apply_discrete_operator(grown, spec, _conjugated_terms(frame),
                                       grid, spatial=spatial)
    interior *= decay
    interior += drift
    grown.fill(0.0)
    grown[inner] = interior
    return grown


def _conjugated_terms(frame: HolmgrenFrame):
    """The sampler of the conjugated operator's spatial part.

    Each call samples the frame's field once and gives that sample to the
    tilted matrix and to the tilt drift; there is no zeroth-order term.
    """
    def terms(t, x):
        a = frame.field.a(t, x)
        return frame.effective_matrix(x, a), frame.tilt_drift(a), None

    return terms


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


def beta_sweep(betas, weight: CarlemanWeightParams, spec: MultiTermSpec,
               bumps, grid: SpaceTimeGrid, frame: HolmgrenFrame,
               include_drift: bool = True) -> SweepResult:
    """Evaluate both sides over the (beta, bump) lattice.

    ``spec``'s alpha picks the branch.  Each bump provides
    ``factors(times, mesh)`` as :class:`CompactBump` does, and its values
    are their product.  Rows with zero right side and positive left side
    are flagged rather than dropped.  ``ValueError`` is raised, betas
    first, for betas that are not two or more positive values increasing
    over a decade, a bump that is zero on every node (as every bump is on
    a grid of one time step), a frame whose field fails the solver's
    ellipticity precondition on the grid and a grid whose e^t overflows.
    """
    betas = tuple(float(b) for b in betas)
    if any(not b > 0.0 for b in betas) or len(betas) < 2:
        raise ValueError("need at least two positive beta values")
    if sorted(betas) != list(betas):
        raise ValueError("beta grid must increase")
    if max(betas) / min(betas) < 10.0:
        raise ValueError("beta grid must span at least one decade")
    _ellipticity_precondition(grid, frame.field)
    times, mesh = grid.time.nodes, grid.mesh()
    if times[-1] > _LOG_FLOAT_MAX:     # the conjugation's e^t overflows
        raise ValueError(f"t = {float(times[-1])!r} overflows e^t: t must not "
                         f"exceed ln(float max) = {_LOG_FLOAT_MAX:.6g}")
    factors = [b.factors(times, mesh) for b in bumps]
    profiles = _weight_profiles(grid, weight, betas)
    if factors:
        # one walk over the levels for all bumps, times e^t, formed a block
        # of levels at a time; each bump is evaluated again below
        spatial = _spatial_walk(grid, _conjugated_terms(frame),
                                _GrownLevels(factors, grid),
                                np.zeros((len(times), math.prod(
                                    s - 2 for s in grid.shape), len(factors))))
    rows = []
    for test_id, bump_factors in enumerate(factors):
        work = _product(*bump_factors)
        if not work.any():    # both sides would be 0: no ratio
            raise ValueError(
                f"bump {test_id} is zero on every grid node; the grid has "
                f"{len(times)} time levels, t = {float(times[0])!r} to "
                f"{float(times[-1])!r}")
        lhs_all = carleman_lhs(work, grid, betas, weight, spec.alpha)
        # the values are spent: the workspace takes e^t times them, then
        # the image, then its square
        image = conjugated_operator(work, grid, spec, frame,
                                    include_drift=include_drift,
                                    spatial=spatial[..., test_id], out=work)
        rhs_all = _weighted_integrals(np.square(image, out=image), grid,
                                      profiles)
        del work, image     # not held through the next bump's values
        for beta, lhs, rhs in zip(betas, lhs_all, rhs_all):
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
