"""Implicit finite-difference solver for the multi-term fractional equation.

Space is discretized with second-order centered stencils applied to the
non-divergence form sum a_jk d_j d_k plus a centered first-order term; time
steps with the L1 march of :mod:`fraclab.fractional`.

One per-level operator serves the solver, its residual check and the
Carleman image.  It reads the coefficients through one sampler,
``terms(t, Y) -> (a, b, b0)``, not a field: a call takes one block of time
levels and returns all three samples, b and b0 None when absent.
:func:`solve` builds
its sampler from its field's ``a`` and its ``b`` and ``b0`` callables, the
Carleman image from the Holmgren frame's tilted matrix and tilt drift,
which share one sample of the field.  A private generator calls the sampler
once per block of time levels and yields -(L + l1), rows on interior nodes
and columns on all nodes, as runs ``(matrix, count)``.  Every matrix is a
numpy array of stencil values on one array of columns, built once per walk,
and its product with a vector or a block is numpy too.  A level starts a
new run exactly when one of its samples differs from the level before it,
so reuse is decided from the samples alone.  One walk over the levels
serves a block of grid functions, as in the Carleman sweep, and applies
each run as one product per at most ``BLOCK`` levels.  Each step of
:func:`solve` folds its run's leading coefficient into the centre slot of
the interior columns once, moves the discrete history to the right-hand
side, lifts the Dirichlet data through the boundary columns and solves for
the interior unknowns with :class:`_BlockLU`, a numpy block LU of the
system, which is block-tridiagonal over slabs of the first axis.  A level
of a run whose matrix has been factorized is solved directly, with one
refinement step.  Otherwise the factor of an earlier run is kept and
iterative refinement with it runs until the residual is at most 1e-13 of
the right-hand side; a step that needs more than ``REFINE_CAP`` refinement
steps factorizes its run's matrix and solves directly, and so does a step
whose refinement contracts too slowly for the cap.  The diagnostics count
factorizations, steps solved through a stale factor (``lu_reuses``) and
stale-factor refinement steps.  The ``condition_estimate`` diagnostic is
the one-norm condition number of the first interior system: its exact
largest column sum times Higham's single-column estimate of the inverse's
norm through the factor, which draws no random numbers.  The solver output
therefore satisfies the assembled discrete equation to solver precision by
construction, which :func:`apply_discrete_operator` verifies independently,
sampling and assembling its own levels.

A callable source is sampled like the coefficients, one block of levels
per call (:func:`source_blocks`), so neither the march nor the check holds
the source of every level; the march reads one level of the current block
per step.  The Dirichlet data stay one call per step: they are sampled on
the boundary nodes alone.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .fields import SAMPLE_BLOCK, EllipticCoeffField
from .fractional import (BLOCK, ConvergenceError, L1March, MultiTermSpec,
                         TimeGrid, multiterm_l1)


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Tensor grid: per-axis bounds and node counts, plus the time grid."""

    bounds: tuple
    shape: tuple
    time: TimeGrid

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        shape = tuple(int(s) for s in self.shape)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "shape", shape)
        if len(bounds) != len(shape):
            raise ValueError("bounds and shape must agree in length")
        if any(s < 5 for s in shape):
            raise ValueError("need at least 3 interior nodes per axis")
        if any(hi <= lo for lo, hi in bounds):
            raise ValueError("bounds must be increasing")
        # the stencil divides by h_i^2 and by 4 h_i h_j, which lies between
        # 4 h_i^2 and 4 h_j^2, so checking each axis checks every pair
        for d, h in enumerate(self.spacing):
            if not (0.0 < h * h and 4.0 * h * h < math.inf):
                raise ValueError(
                    f"grid spacing h = {h!r} on axis {d}: h*h = {h * h!r} "
                    f"and 4*h*h = {4.0 * h * h!r} must be positive finite "
                    "floats")
            if not 1.0 / (h * h) < math.inf:    # a subnormal h*h
                raise ValueError(
                    f"grid spacing h = {h!r} on axis {d}: 1/(h*h) = "
                    f"{1.0 / (h * h)!r} overflows, so the stencil's "
                    "weights would")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple:
        return tuple((hi - lo) / (s - 1)
                     for (lo, hi), s in zip(self.bounds, self.shape))

    def axes(self):
        return [np.linspace(lo, hi, s)
                for (lo, hi), s in zip(self.bounds, self.shape)]

    def mesh(self) -> np.ndarray:
        """Node coordinates, shape (*shape, ndim)."""
        return np.stack(np.meshgrid(*self.axes(), indexing="ij"), axis=-1)

    def interior(self) -> tuple:
        return tuple(slice(1, -1) for _ in self.shape)


@dataclass
class SolutionField:
    """Grid function u(t_k, y_i) with its boundary and source records."""

    values: np.ndarray
    grid: SpaceTimeGrid
    bc: dict = field(default_factory=lambda: {"type": "dirichlet-zero"})
    source: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expected = (self.grid.time.n_steps + 1,) + self.grid.shape
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} != grid shape {expected}")
        self.values = v

    def norm_l2(self, t_mask=None, space_mask=None) -> float:
        """Discrete L2 norm over an optional time/space sub-cylinder."""
        v = self.values
        if t_mask is not None:
            v = v[t_mask]
        if space_mask is not None:
            v = v[(slice(None),) + np.nonzero(space_mask)]
        cell = self.grid.time.dt * np.prod(self.grid.spacing)
        return float(np.sqrt(np.sum(v**2) * cell))


_MAGIC = b"FDSF"


def save_solution(sol: SolutionField, prefix: str) -> None:
    """Flat binary layout plus a JSON sidecar.

    Header: magic, version u32, n_space u32, n_time_nodes u32, per-axis node
    count u32, dt f64, per-axis spacing f64, per-axis origin f64; payload is
    the row-major float64 array.
    """
    grid = sol.grid
    with open(prefix + ".bin", "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", 1, grid.ndim, grid.time.n_steps + 1))
        fh.write(struct.pack(f"<{grid.ndim}I", *grid.shape))
        fh.write(struct.pack("<d", grid.time.dt))
        fh.write(struct.pack(f"<{grid.ndim}d", *grid.spacing))
        fh.write(struct.pack(f"<{grid.ndim}d", *(lo for lo, _ in grid.bounds)))
        sol.values.astype("<f8", copy=False).tofile(fh)
    sidecar = {
        "n_space": grid.ndim,
        "shape": list(grid.shape),
        "n_steps": grid.time.n_steps,
        "dt": grid.time.dt,
        "bounds": [list(b) for b in grid.bounds],
        "bc": sol.bc,
        "source": sol.source,
    }
    with open(prefix + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)


def load_solution(prefix: str) -> SolutionField:
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    with open(prefix + ".bin", "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a solution file")
        _, ndim, n_time = struct.unpack("<III", fh.read(12))
        shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        (dt,) = struct.unpack("<d", fh.read(8))
        fh.read(8 * ndim)  # spacing, reconstructed from bounds
        fh.read(8 * ndim)  # origins
        payload = np.fromfile(fh, dtype="<f8").reshape((n_time,) + shape)
    grid = SpaceTimeGrid(bounds=tuple(tuple(b) for b in meta["bounds"]),
                         shape=shape, time=TimeGrid(dt=dt, n_steps=n_time - 1))
    return SolutionField(values=payload, grid=grid, bc=meta["bc"],
                         source=meta["source"])


# ---------------------------------------------------------------------------
# spatial operator assembly


def _interior_flags(grid: SpaceTimeGrid) -> np.ndarray:
    """Flat boolean mask of the interior nodes."""
    inside = np.zeros(grid.shape, dtype=bool)
    inside[grid.interior()] = True
    return inside.reshape(-1)


def _stencil_pattern(grid: SpaceTimeGrid):
    """Columns shared by every matrix of :func:`_spatial_matrix`.

    Each interior row holds one entry per stencil offset, in column order,
    whatever the coefficients (exact zeros stay stored), so the columns
    depend on the grid shape alone.  Returns ``(cols, slot)``: the
    ``(rows, slots)`` integer array of each interior row's columns, which
    every level shares, and the slot of each linear offset.  The offsets
    are symmetric about 0, so the centre is the middle slot.
    """
    nd = grid.ndim
    shape = grid.shape
    strides = [math.prod(shape[d + 1:]) for d in range(nd)]
    offsets = {0}
    for d1 in range(nd):
        offsets |= {strides[d1], -strides[d1]}
        for d2 in range(d1 + 1, nd):
            offsets |= {s1 * strides[d1] + s2 * strides[d2]
                        for s1 in (1, -1) for s2 in (1, -1)}
    ordered = np.array(sorted(offsets))
    rows_lin = np.flatnonzero(_interior_flags(grid))
    # column-major, so that each slot's columns are contiguous
    cols = np.asfortranarray(rows_lin[:, None] + ordered)
    return cols, {int(o): j for j, o in enumerate(ordered)}


@dataclass(frozen=True, eq=False)
class _StencilMatrix:
    """One level's -(L + l1): row i holds ``values[i, s]`` at ``cols[i, s]``.

    Rows run over the interior nodes and columns over ``n_nodes`` nodes:
    all nodes, with ``cols`` from the :func:`_stencil_pattern` of the walk,
    or the interior nodes alone for :func:`_interior_system`.
    """

    values: np.ndarray
    cols: np.ndarray
    n_nodes: int

    def __matmul__(self, x):
        """Product with a vector or a (nodes, K) block of vectors.

        From zeros it adds ``values[:, s] * x[cols[:, s]]`` slot by slot,
        in column order: per element the ``y += a*x`` sequence of a CSR
        product with the columns of each row sorted, for a vector and for
        every column of a block alike.
        """
        out = np.zeros((len(self.values),) + x.shape[1:])
        for s in range(self.cols.shape[1]):
            term = x.take(self.cols[:, s], axis=0)
            term *= self.values[:, s].reshape((-1,) + (1,) * (x.ndim - 1))
            out += term
        return out


def _spatial_matrix(grid: SpaceTimeGrid, a, bvec, bzero, pattern):
    """The :class:`_StencilMatrix` of -(L + l1), rows on interior nodes.

    ``a``, ``bvec`` and ``bzero`` are the coefficients sampled on the
    interior nodes (the last two may be None).  The column space runs over
    all nodes so callers can split off the boundary coupling.  ``pattern``
    is the grid's :func:`_stencil_pattern`.  The first-order term shares
    the slots of the axis neighbours; with two addends per slot the order
    of the sum cannot change it.
    """
    cols, slot = pattern
    nd = grid.ndim
    h = grid.spacing
    strides = [math.prod(grid.shape[d + 1:]) for d in range(nd)]
    data = np.empty(cols.shape, order="F")

    center = np.zeros(len(data))
    for d in range(nd):
        w2 = a[:, d, d] / h[d] ** 2
        up, down = slot[strides[d]], slot[-strides[d]]
        data[:, up] = -w2
        data[:, down] = -w2
        center += 2.0 * w2
        if bvec is not None:
            w1 = bvec[:, d] / (2.0 * h[d])
            data[:, up] -= w1
            data[:, down] += w1
    for d1 in range(nd):
        for d2 in range(d1 + 1, nd):
            w = 2.0 * a[:, d1, d2] / (4.0 * h[d1] * h[d2])
            for s1 in (1, -1):
                for s2 in (1, -1):
                    data[:, slot[s1 * strides[d1] + s2 * strides[d2]]] = (
                        -w * s1 * s2)
    if bzero is not None:
        center -= bzero
    data[:, slot[0]] = center
    return _StencilMatrix(values=data, cols=cols,
                          n_nodes=math.prod(grid.shape))


def _level_operators(grid: SpaceTimeGrid, terms, times):
    """Yield the matrices of :func:`_spatial_matrix` at ``times`` as runs.

    ``terms(t, y) -> (a, b, b0)`` samples the coefficients of one block of
    levels, at most ``SAMPLE_BLOCK`` points (or one level), in one call:
    ``t`` is flat of shape (N,) and ``y`` of shape (N, n); ``a`` is
    (..., n, n), ``b`` (..., n) and ``b0`` (...), and ``b`` and ``b0`` are
    None when absent.  Each run is ``(matrix, count)`` for ``count``
    consecutive levels, and the counts sum to ``len(times)``.  A level
    starts a new run when any of its samples differs from the level before
    it, the previous block's last level included, so each run's matrix is
    assembled once, into the :func:`_stencil_pattern` built once per walk.
    """
    y_int = grid.mesh()[grid.interior()].reshape(-1, grid.ndim)
    n_int, n = y_int.shape
    pattern = _stencil_pattern(grid)
    tails = ((n, n), (n,), ())
    per_call = max(1, SAMPLE_BLOCK // n_int)
    mat = last = None
    for s in range(0, len(times), per_call):
        t = times[s:s + per_call]
        m = len(t)
        sampled = [None if v is None else np.asarray(
            v, dtype=float).reshape((m, n_int) + tail)
            for v, tail in zip(terms(np.repeat(t, n_int),
                                     np.tile(y_int, (m, 1))), tails)]
        # one exact comparison of every level with the level before it
        flat = np.hstack([v.reshape(m, -1) for v in sampled if v is not None])
        both = np.vstack([flat[:1] if last is None else last, flat])
        new = (both[1:] != both[:-1]).any(axis=1)
        new[0] |= last is None
        last = flat[-1:]
        for i in range(m):
            if new[i]:
                if mat is not None:
                    yield mat, count
                mat, count = _spatial_matrix(grid, *(
                    None if v is None else v[i] for v in sampled),
                    pattern=pattern), 0
            count += 1
    yield mat, count


def source_blocks(source, grid: SpaceTimeGrid):
    """The source as ``(start, block)`` pairs covering every time level.

    ``block`` holds the source at the levels ``start:start + len(block)``,
    shape (m, *shape).  A callable ``f(t, Y)`` is sampled once per block
    of at most ``SAMPLE_BLOCK // nodes`` levels (at least one), with ``t``
    of shape (m, 1, ..., 1) and ``Y`` the full mesh, and each block is
    sampled only when the iteration reaches it; its result is broadcast to
    the block's shape.  An array of shape (n_steps+1, *shape) is one block.
    """
    levels = grid.time.n_steps + 1
    if not callable(source):
        f_all = np.asarray(source, dtype=float)
        if f_all.shape != (levels,) + grid.shape:
            raise ValueError("source array shape mismatch")
        return iter([(0, f_all)])
    times = grid.time.nodes.reshape((-1,) + (1,) * grid.ndim)
    mesh = grid.mesh()
    per_call = max(1, SAMPLE_BLOCK // math.prod(grid.shape))

    def sampled():
        for s in range(0, levels, per_call):
            t = times[s:s + per_call]
            yield s, np.broadcast_to(np.asarray(source(t, mesh), dtype=float),
                                     (len(t),) + grid.shape)

    return sampled()


# ---------------------------------------------------------------------------
# block-tridiagonal factorization


DENSE_1D = 128
"""Interior nodes up to which a 1-D system is one dense block; a longer
grid is cut into equal chunks of at most this many nodes."""


def _blocking(grid: SpaceTimeGrid):
    """Blocks of :class:`_BlockLU`: interior row boundaries and slab size.

    A slab is the interior nodes at one index of the first axis, and the
    stencil couples a node only with the slabs either side of its own, so
    cutting the interior rows (in natural order) between slabs gives a
    block-tridiagonal system whose off-diagonal blocks reach one slab.  A
    block is one slab in more than one dimension, and a chunk of at most
    ``DENSE_1D`` nodes in 1-D, where a slab is a single node.  Returns
    ``(edges, slab)``.
    """
    m = [s - 2 for s in grid.shape]
    if grid.ndim == 1:
        count = -(-m[0] // DENSE_1D)
        return [i * m[0] // count for i in range(count + 1)], 1
    slab = math.prod(m[1:])
    return [i * slab for i in range(m[0] + 1)], slab


def _interior_system(stencil: _StencilMatrix, inside, lead: float):
    """``lead`` times the identity plus the interior columns of ``stencil``.

    The result is a :class:`_StencilMatrix` on the interior columns, the
    one matrix of a step's factor blocks, refinement residual and
    ``linear_residual_max``.  ``lead`` is added to the centre slot once; a
    slot whose column is a boundary node keeps the value 0, pointing at the
    row's own unknown.
    """
    on = inside[stencil.cols]
    rows = np.arange(len(stencil.values))
    cols = np.where(on, (np.cumsum(inside) - 1)[stencil.cols], rows[:, None])
    values = np.where(on, stencil.values, 0.0)
    values[:, values.shape[1] // 2] += lead
    return _StencilMatrix(values=np.asfortranarray(values),
                          cols=np.asfortranarray(cols), n_nodes=len(rows))


class _BlockLU:
    """Block LU of a block-tridiagonal system, without pivoting across blocks.

    ``system`` is a :class:`_StencilMatrix` on its own rows' columns; block
    i holds the rows and columns ``edges[i]:edges[i + 1]``, and a block
    couples only with the ``slab`` columns next to it (:func:`_blocking`).
    With D_i, L_i and U_i the diagonal, lower and upper blocks, the Schur
    complements are S_0 = D_0 and S_i = D_i - L_i S_{i-1}^-1 U_{i-1}.  The
    factor keeps S_i^-1 and the nonzero columns of L_i and S_i^-1 U_i as
    dense arrays, so a solve is two sweeps of dense products over the
    blocks, for one right-hand side or a block of them.  A Schur block that
    is singular, or whose inverse has a norm that is not finite, raises
    :class:`ConvergenceError` naming the block.
    """

    def __init__(self, system: _StencilMatrix, edges, slab: int):
        self.slab = slab
        self.blocks = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        self.lower, self.inv, self.upper = [], [], []
        for i, rows in enumerate(self.blocks):
            # the block row over its own columns and a slab either side
            first = max(rows.start - slab, 0)
            last = min(rows.stop + slab, edges[-1])
            band = np.zeros((rows.stop - rows.start, last - first))
            # summed, so that the zero slots at the row's own column add 0
            np.add.at(band, (np.arange(len(band))[:, None],
                             system.cols[rows] - first), system.values[rows])
            schur = band[:, rows.start - first:rows.stop - first]
            if i:
                self.lower.append(band[:, :slab].copy())
                schur[:, :slab] -= self.lower[-1] @ self.upper[-1][-slab:]
            try:
                inv = np.linalg.inv(schur)
            except np.linalg.LinAlgError:
                inv = None
            if inv is None or not np.isfinite(np.abs(inv).sum(axis=0).max()):
                raise ConvergenceError(
                    f"Schur block {i} of the block factorization (interior "
                    f"rows {rows.start}:{rows.stop}) is singular")
            self.inv.append(inv)
            if rows.stop < last:
                self.upper.append(inv @ band[:, -slab:])

    def solve(self, b, trans: bool = False):
        """x with ``system @ x = b``, or its transpose's when ``trans``.

        ``b`` is (n,) or (n, B).  With the factor written L U, L block lower
        bidiagonal with (S_i, L_i) and U unit block upper bidiagonal with
        S_i^-1 U_i, the transpose solves U^T z = b, then L^T x = z.
        """
        blocks, slab = self.blocks, self.slab
        x = np.array(b, dtype=float)
        # ndarray.dot: BLAS like @, with less overhead on these small blocks
        if not trans:
            for i, rows in enumerate(blocks):
                rest = x[rows]
                if i:
                    rest = rest - self.lower[i - 1].dot(
                        x[rows.start - slab:rows.start])
                x[rows] = self.inv[i].dot(rest)
            for i in range(len(blocks) - 2, -1, -1):
                end = blocks[i].stop
                x[blocks[i]] -= self.upper[i].dot(x[end:end + slab])
            return x
        for i in range(1, len(blocks)):
            start = blocks[i].start
            x[start:start + slab] -= self.upper[i - 1].T.dot(x[blocks[i - 1]])
        for i in range(len(blocks) - 1, -1, -1):
            if i < len(blocks) - 1:
                end = blocks[i].stop
                x[end - slab:end] -= self.lower[i].T.dot(x[blocks[i + 1]])
            x[blocks[i]] = self.inv[i].T.dot(x[blocks[i]])
        return x


def _condition_estimate(system: _StencilMatrix, lu: _BlockLU) -> float:
    """One-norm condition number of ``system`` through its factor ``lu``.

    The norm of the system is its exact largest column sum.  The norm of
    its inverse is Higham's estimate with one column (t = 1; Hager, SIAM J.
    Sci. Stat. Comput. 5, 1984; Higham, ACM TOMS 14, 1988), started from
    the constant vector, so it draws no random numbers: alternate solves
    with the system and its transpose move a unit vector to the column of
    largest sum, and the estimate is that column's norm, a lower bound.
    It stops after at most five iterations, as scipy's ``onenormest``.
    """
    n = system.n_nodes
    norm = np.bincount(system.cols.ravel(), np.abs(system.values).ravel(),
                       minlength=n).max()
    x = np.full(n, 1.0 / n)
    sign = np.zeros(n)
    best = None
    for k in range(6):
        y = lu.solve(x)
        est = np.abs(y).sum()
        if best is not None and est <= est_old:
            break
        est_old = est
        if k == 5:
            break
        sign_old, sign = sign, np.where(y >= 0.0, 1.0, -1.0)
        if sign @ sign_old == n:
            break
        h = np.abs(lu.solve(sign, trans=True))
        if best is not None and h.max() == h[best]:
            break
        best = int(np.argmax(h))
        x = np.zeros(n)
        x[best] = 1.0
    return float(norm * est_old)


REFINE_CAP = 8
"""Refinement steps a stale LU may take at one time step before the solver
refactorizes."""


def _refine(lu, system, rhs):
    """Solve ``system x = rhs`` through the LU of an earlier matrix.

    Iterative refinement x += LU^-1 (rhs - system x) runs until
    max|rhs - system x| <= 1e-13 max|rhs|.  Returns ``(x, residual,
    steps)``, with x None when ``REFINE_CAP`` steps do not reach that.
    From the second step on it also gives up once the residual, shrunk by
    the best contraction ratio so far at each step left, would still miss
    the target: a ratio of 1 or more, or NaN, never reaches it.
    """
    x = lu.solve(rhs)
    res = rhs - system @ x
    tol = 1e-13 * np.abs(rhs).max()
    size = np.abs(res).max()
    best = np.inf
    steps = 0
    # "not <=" so that a NaN residual or ratio counts as not converging
    while not size <= tol:
        if steps == REFINE_CAP or (
                steps >= 2
                and not size * best ** (REFINE_CAP - steps) <= tol):
            return None, None, steps
        x += lu.solve(res)
        res = rhs - system @ x
        last, size = size, np.abs(res).max()
        best = np.minimum(best, size / last)   # propagates a NaN ratio
        steps += 1
    return x, res, steps


@dataclass
class SolveResult:
    field: SolutionField
    diagnostics: dict


def _ellipticity_precondition(grid, coeffs):
    """Field dimension, and the exact eigenvalue margin at t = 0, T/2, T."""
    if coeffs.n != grid.ndim:
        raise ValueError("field dimension does not match the grid")
    mesh = grid.mesh().reshape(-1, grid.ndim)
    for t in (0.0, grid.time.t_final / 2.0, grid.time.t_final):
        margin = coeffs.ellipticity_margin(t, mesh)
        if math.isnan(margin):
            raise ValueError(
                f"coefficient field's ellipticity margin is NaN at t={t:g}: "
                "a coefficient on the grid nodes is NaN or infinite")
        if margin < -1e-12:
            raise ValueError(
                f"coefficient field violates ellipticity at t={t:g} "
                f"(margin {margin:.3e})")


def solve(spec: MultiTermSpec, coeffs: EllipticCoeffField, source,
          grid: SpaceTimeGrid, b=None, b0=None, bc=None,
          check_residual: bool = True) -> SolveResult:
    """March the implicit scheme from the zero initial state.

    Parameters
    ----------
    source : callable or ndarray
        Right-hand side f(t, Y), sampled by :func:`source_blocks`: one call
        per block of at most ``SAMPLE_BLOCK // nodes`` levels, with ``t``
        of shape (m, 1, ..., 1) and ``Y`` the full mesh, returning (m,
        *shape) or a shape that broadcasts to it.  The march holds only the
        current block, and the residual check samples the blocks again.
        Or samples of shape (n_steps+1, *shape).
    grid : SpaceTimeGrid
        By keyword: ``bench/spans.py`` reads ``args[4]`` or ``kwargs["grid"]``.
    b, b0 : callable or None
        First-order term b . grad + b0, samples (..., n) and (...), or None.
    bc : callable or None
        Dirichlet data g(t, Y) on the boundary nodes, called once per step
        with a scalar ``t``: it samples the boundary nodes only, so a call
        per level holds no array of every level and needs no blocks.  None
        means homogeneous.

    Returns the solution field and diagnostics: per-step residual maximum,
    a one-norm condition estimate of the first interior step matrix, the
    leading coefficient, and the counts ``factorizations``, ``lu_reuses``
    (steps whose changed matrix was solved by refinement with an earlier
    LU) and ``refinement_steps`` (those taken with an earlier LU).  The
    initial level is identically zero, matching the support convention.
    """
    _ellipticity_precondition(grid, coeffs)

    nt = grid.time.n_steps
    inside = _interior_flags(grid)
    n_int = int(inside.sum())
    edges, slab = _blocking(grid)
    y_bnd = grid.mesh().reshape(-1, grid.ndim)[~inside]
    times = grid.time.nodes

    # the source one level at a time, sampled a block of levels at a time
    f_levels = (level for _, block in source_blocks(source, grid)
                for level in block.reshape(len(block), -1))
    next(f_levels)                 # level 0 is pinned to zero
    march = L1March(spec, grid.time.dt, nt, n_int)
    values = np.zeros((nt + 1, inside.size))

    def terms(t, y):
        return (coeffs.a(t, y), None if b is None else b(t, y),
                None if b0 is None else b0(t, y))

    cond_estimate = lu = None
    factorizations = lu_reuses = refinement_steps = 0
    step_residual = 0.0
    runs = _level_operators(grid, terms, times[1:])
    left = 0                       # levels of the current run still to go
    for k in range(1, nt + 1):
        if left == 0:
            stencil, left = next(runs)
            system = _interior_system(stencil, inside, march.lead)
            fresh = False          # whether lu factorizes this run's system
        left -= 1

        rhs = next(f_levels)[inside] - march.history(k)
        if bc is not None:
            values[k, ~inside] = bc(times[k], y_bnd)
            # the lift: the interior of values[k] is still zero
            rhs -= stencil @ values[k]
        # a run without its own LU is first solved by refinement with the
        # last LU; the first step, and a step past the cap, factorize
        x = None
        if lu is not None and not fresh:
            x, res, steps = _refine(lu, system, rhs)
            refinement_steps += steps
            if x is not None:
                lu_reuses += 1
        if x is None:
            if not fresh:
                lu = None          # one factor held, not two
                lu = _BlockLU(system, edges, slab)
                fresh = True
                factorizations += 1
                if cond_estimate is None:
                    cond_estimate = _condition_estimate(system, lu)
            x = lu.solve(rhs)
            # one refinement step: the explicit block inverses alone leave
            # a residual a few times that of a pivoted LU
            x += lu.solve(rhs - system @ x)
            res = system @ x - rhs
        march.push(k, x)
        values[k, inside] = x
        # np.maximum, unlike max(), keeps a NaN residual
        step_residual = float(np.maximum(step_residual, np.abs(res).max()))
    lead = march.lead
    del march, lu                  # before the check's arrays

    values = values.reshape((nt + 1,) + grid.shape)
    sol = SolutionField(values=values, grid=grid,
                        bc={"type": "dirichlet",
                            "homogeneous": bc is None},
                        source={"kind": "callable" if callable(source)
                                else "array"})
    diagnostics = {"condition_estimate": cond_estimate,
                   "linear_residual_max": step_residual,
                   "leading_coefficient": lead,
                   "factorizations": factorizations,
                   "lu_reuses": lu_reuses,
                   "refinement_steps": refinement_steps}
    if check_residual:
        resid = apply_discrete_operator(values, spec, terms, grid,
                                        source=source)
        np.abs(resid, out=resid)
        # level 0 is pinned to zero, never solved
        diagnostics["equation_residual_max"] = float(resid[1:].max())
    return SolveResult(field=sol, diagnostics=diagnostics)


def _spatial_walk(grid: SpaceTimeGrid, terms, work, out):
    """Add each level's spatial operator applied to ``work[k]`` to ``out[k]``.

    ``terms`` is the coefficient sampler of :func:`_level_operators`.
    ``work`` is (nt+1, nodes) or a block (nt+1, nodes, B) of B grid
    functions: a stencil product with a block rounds column by column like B
    matrix-vector products, so one walk serves a whole batch, and each run
    of :func:`_level_operators` is applied as one product per at most
    ``BLOCK`` levels.  Only ``work[start:stop]`` is read, once per such
    product, so ``work`` may be any object that forms those levels on
    demand, as the Carleman sweep's bumps do.
    """
    end = 0
    for mat, count in _level_operators(grid, terms, grid.time.nodes):
        end += count
        for start in range(end - count, end, BLOCK):
            stop = min(start + BLOCK, end)
            # levels become columns: (nodes, levels * B)
            run = np.moveaxis(work[start:stop], 0, 1)
            product = mat @ run.reshape(run.shape[0], -1)
            out[start:stop] += np.moveaxis(
                product.reshape((-1,) + run.shape[1:]), 0, 1)
    return out


def apply_discrete_operator(values, spec: MultiTermSpec, terms,
                            grid: SpaceTimeGrid, source=None,
                            spatial=None) -> np.ndarray:
    """Discrete operator (or residual) on interior nodes at every time level.

    Computes the multi-term time operator minus the spatial operators,
    minus ``source`` when given.  ``source`` is a callable or an array as
    in :func:`solve`, read through :func:`source_blocks` and subtracted a
    block of levels at a time.  ``terms(t, Y) -> (a, b, b0)`` is the
    coefficient sampler of :func:`_level_operators`.  ``spatial`` is this
    grid function's column of a :func:`_spatial_walk` over a batch, made
    with the same ``terms``; it is added in place of a walk of its own.

    Every term is added into one interior-sized output, which is the
    first order's L1 result: besides ``values`` (and an array ``source``),
    that output and :func:`multiterm_l1`'s one array of differences are
    held, and the walk's or the source's level blocks.
    """
    values = np.asarray(values, dtype=float)
    nt = grid.time.n_steps
    shape = grid.shape
    if values.shape != (nt + 1,) + shape:
        raise ValueError("values shape does not match the grid")
    # the time part reads the interior through a view, copying nothing
    out = multiterm_l1(values[(slice(None),) + grid.interior()], spec,
                       grid.time.dt).reshape(nt + 1, -1)
    if spatial is None:
        _spatial_walk(grid, terms, values.reshape(nt + 1, -1), out)
    else:
        out += spatial
    out = out.reshape((nt + 1,) + tuple(s - 2 for s in shape))
    if source is not None:
        inner = (slice(None),) + grid.interior()
        for start, block in source_blocks(source, grid):
            out[start:start + len(block)] -= block[inner]
    return out


# ---------------------------------------------------------------------------
# vanishing-subdomain experiment


def _bump(r):
    return np.clip(1.0 - r**2, 0.0, None) ** 4


def ucp_experiment(spec: MultiTermSpec, coeffs: EllipticCoeffField,
                   grid: SpaceTimeGrid, omega, t_prime: float,
                   source_centers, source_width: float) -> list:
    """Solve with sources away from the observation window and compare norms.

    ``omega`` is the observation interval on the first axis.  For each
    source center the solution norm restricted to omega x (0, t_prime) is
    compared with the norm over the whole cylinder; the rows are
    ``(center, distance, norm_omega, norm_total, ratio)``.  A ratio above
    the resolution floor for every source is the expected outcome: the
    computed fields never vanish on the window alone.  A source inside the
    window or zero on every interior node, a window holding no interior
    node, a ``t_prime`` below the first time step (the window would hold
    only the initial level, pinned to zero) and a width that is not
    positive raise ``ValueError``.
    """
    lo, hi = omega
    axis = grid.axes()[0]
    mask = np.zeros(grid.shape, dtype=bool)
    mask[(axis >= lo) & (axis <= hi)] = True
    if not mask[grid.interior()].any():
        raise ValueError(f"omega {omega} holds no interior grid node")
    if not source_width > 0.0:
        raise ValueError(f"source_width must be positive, got {source_width}")
    tmask = grid.time.nodes <= t_prime
    if not tmask[1:].any():
        raise ValueError(
            f"t_prime {t_prime} lies below the first time step "
            f"{grid.time.nodes[1]}")

    first = grid.mesh()[..., 0]
    rows = []
    for center in source_centers:
        if lo <= center <= hi:
            raise ValueError("source must be supported away from the window")
        # the ramp is positive past t = 0: the bump alone decides this
        if not _bump((first - center) / source_width)[grid.interior()].any():
            raise ValueError(f"source at {center} is zero on the interior")

        def source(t, Y, c=center):
            ramp = np.minimum(t / grid.time.t_final, 1.0) ** 2
            return ramp * _bump((Y[..., 0] - c) / source_width)
        # by keyword: bench/spans.py reads args[4] or kwargs["grid"]
        sol = solve(spec, coeffs, source, grid=grid,
                    check_residual=False).field
        n_omega = sol.norm_l2(t_mask=tmask, space_mask=mask)
        n_total = sol.norm_l2()
        distance = min(abs(center - lo), abs(center - hi))
        rows.append((center, distance, n_omega, n_total, n_omega / n_total))
    return rows
