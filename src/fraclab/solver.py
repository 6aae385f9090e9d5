"""Implicit finite-difference solver for the multi-term fractional equation.

Space is discretized with second-order centered stencils applied to the
non-divergence form sum a_jk d_j d_k plus a centered first-order term; time
uses the L1 machinery of :mod:`fraclab.fractional`.

One per-level operator serves the solver, its residual check and the
Carleman image: a private generator samples a, b and b0 on blocks of time
levels and yields -(L + l1), rows on interior nodes and columns on all
nodes, as runs ``(matrix, count)``.  Every matrix fills one CSR sparsity
pattern, built once per walk.  A level starts a new run exactly when
one of its samples differs from the level before it, so reuse is decided
from the samples alone.  One walk over the levels serves a block of grid
functions, as in the Carleman sweep, and applies each run as one product
per at most ``BLOCK`` levels.  Each step moves the discrete history to the
right-hand side, lifts the Dirichlet data through the boundary columns and
solves one sparse system for the interior unknowns.  A level of a run whose
matrix has been factorized is solved directly.  Otherwise the LU of an
earlier run is kept and iterative refinement with it runs until the
residual is at most 1e-13 of the right-hand side; a step that needs more
than ``REFINE_CAP`` refinement steps factorizes its run's matrix and solves
directly, and so does a step whose refinement contracts too slowly for
the cap.  The diagnostics count factorizations, steps solved through a
stale LU (``lu_reuses``) and refinement steps.  The ``condition_estimate``
diagnostic is the one-norm condition number of the first interior system:
its exact largest column sum times the single-column Higham estimate of
the inverse's norm through the LU factors, which draws no random numbers.
The solver output therefore satisfies the assembled discrete equation to
solver precision by construction, which :func:`apply_discrete_operator`
verifies independently, sampling and assembling its own levels.

The history is the exact direct L1 sum, kept in two combined kernels: one
over the first differences (all orders below 1) and one over the second
differences (orders above 1).  The stepping loop runs in blocks of
``fractional.BLOCK`` levels: at a block's first step the history older
than the block is one Toeplitz matrix product per kernel, and each step
then adds its at most ``BLOCK`` recent terms.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .fields import SAMPLE_BLOCK, EllipticCoeffField
from .fractional import (BLOCK, MultiTermSpec, TimeGrid, l1_weights,
                         multiterm_l1, toeplitz_rows)


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


@dataclass(frozen=True)
class LowerOrderTerm:
    """First-order term b . grad + b0 with grid-sampled coefficients."""

    b: object = None     # callable (t, Y) -> (..., n) or None
    b0: object = None    # callable (t, Y) -> (...)   or None

    @classmethod
    def zero(cls) -> "LowerOrderTerm":
        return cls()


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
        sol.values.astype("<f8").tofile(fh)
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


def export_time_slice_csv(sol: SolutionField, k: int, path: str) -> None:
    mesh = sol.grid.mesh().reshape(-1, sol.grid.ndim)
    vals = sol.values[k].reshape(-1)
    header = ",".join([f"y{i + 1}" for i in range(sol.grid.ndim)] + ["u"])
    np.savetxt(path, np.column_stack([mesh, vals]), fmt="%.17g",
               delimiter=",", header=header, comments="")


# ---------------------------------------------------------------------------
# spatial operator assembly


def _interior_flags(grid: SpaceTimeGrid) -> np.ndarray:
    """Flat boolean mask of the interior nodes."""
    inside = np.zeros(grid.shape, dtype=bool)
    inside[grid.interior()] = True
    return inside.reshape(-1)


def _stencil_pattern(grid: SpaceTimeGrid):
    """CSR structure shared by every matrix of :func:`_spatial_matrix`.

    Each interior row holds one entry per stencil offset, in column order,
    whatever the coefficients (exact zeros stay stored), so the structure
    depends on the grid shape alone.  Returns ``(template, slot)``: a CSR
    matrix whose ``indices`` and ``indptr`` every level shares, and the
    position in a row of each linear offset.
    """
    import scipy.sparse as sp
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
    indices = (rows_lin[:, None] + ordered).reshape(-1)
    indptr = np.arange(0, indices.size + 1, len(ordered))
    # scipy picks the index dtype here, once; each level reuses the arrays
    template = sp.csr_matrix((np.zeros(indices.size), indices, indptr),
                             shape=(len(rows_lin), math.prod(shape)))
    return template, {int(o): j for j, o in enumerate(ordered)}


def _spatial_matrix(grid: SpaceTimeGrid, a, bvec, bzero, pattern=None):
    """Sparse matrix of -(L + l1), rows on interior nodes, columns on all.

    ``a``, ``bvec`` and ``bzero`` are the coefficients sampled on the
    interior nodes (the last two may be None).  The column space runs over
    all nodes so callers can split off the boundary coupling.  ``pattern``
    is the grid's :func:`_stencil_pattern`, built here when not given.  The
    first-order term shares the slots of the axis neighbours; with two
    addends per slot the order of the sum cannot change it.
    """
    import scipy.sparse as sp
    template, slot = _stencil_pattern(grid) if pattern is None else pattern
    nd = grid.ndim
    h = grid.spacing
    strides = [math.prod(grid.shape[d + 1:]) for d in range(nd)]
    data = np.empty((template.shape[0], len(slot)))

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

    return sp.csr_matrix((data.reshape(-1), template.indices,
                          template.indptr), shape=template.shape)


def _level_operators(grid: SpaceTimeGrid, coeffs: EllipticCoeffField,
                     lower: LowerOrderTerm, times):
    """Yield the matrices of :func:`_spatial_matrix` at ``times`` as runs.

    Each run is ``(matrix, count)`` for ``count`` consecutive levels, and
    the counts sum to ``len(times)``.  ``a``, ``b`` and ``b0`` are sampled
    on a block of levels per call, at most ``SAMPLE_BLOCK`` points (or one
    level), as flat ``t`` of shape (N,) and ``y`` of shape (N, n).  A level
    starts a new run when any of its samples differs from the level before
    it, the previous block's last level included, so each run's matrix is
    assembled once, into the :func:`_stencil_pattern` built once per walk.
    """
    y_int = grid.mesh()[grid.interior()].reshape(-1, grid.ndim)
    n_int, n = y_int.shape
    pattern = _stencil_pattern(grid)
    terms = ((coeffs.a, (n, n)), (lower.b, (n,)), (lower.b0, ()))
    per_call = max(1, SAMPLE_BLOCK // n_int)
    mat = last = None
    for s in range(0, len(times), per_call):
        t = times[s:s + per_call]
        m = len(t)
        sampled = [None if f is None else np.asarray(
            f(np.repeat(t, n_int), np.tile(y_int, (m, 1))),
            dtype=float).reshape((m, n_int) + tail) for f, tail in terms]
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


def _source_levels(source, grid: SpaceTimeGrid) -> np.ndarray:
    """Source samples of shape (n_steps+1, *shape) from a callable or array."""
    if callable(source):
        mesh = grid.mesh()
        return np.stack([np.asarray(source(t, mesh), dtype=float)
                         for t in grid.time.nodes])
    f_all = np.asarray(source, dtype=float)
    if f_all.shape != (grid.time.n_steps + 1,) + grid.shape:
        raise ValueError("source array shape mismatch")
    return f_all


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
    """Exact eigenvalue margin of the two-sided bound at t = 0, T/2, T."""
    mesh = grid.mesh().reshape(-1, grid.ndim)
    for t in (0.0, grid.time.t_final / 2.0, grid.time.t_final):
        margin = coeffs.ellipticity_margin(t, mesh)
        if margin < -1e-12:
            raise ValueError(
                f"coefficient field violates ellipticity at t={t:g} "
                f"(margin {margin:.3e})")


def _history_weights(spec: MultiTermSpec, dt: float, n_steps: int):
    """Combined L1 kernels and local coefficients of the stepping loop.

    Returns ``(c_lead, c_prev, w_u, w_v)``.  The history at step k is

        sum_{0<j<k} (w_u[k-j] du_j + w_v[k-j] dv_j)
            - c_lead u_{k-1} - c_prev du_{k-1}

    with du_j = u_j - u_{j-1} and dv_j = (du_j - du_{j-1})/dt.  ``w_u``
    gathers the orders below 1 and ``w_v`` the orders above 1 (None when
    there are none), each with its q dt^(...)/Gamma factor folded in;
    ``c_lead`` is also the diagonal the step matrix adds.
    """
    from scipy.special import gamma
    c_lead = c_prev = 0.0
    w_u = w_v = None
    for q, al in zip(spec.weights, spec.orders):
        if al == 1.0:
            c_lead += q * dt ** (-al)
        elif al < 1.0:
            scale = q * (1.0 / gamma(2.0 - al)) * dt ** (-al)
            c_lead += scale
            w = scale * l1_weights(al, n_steps)
            w_u = w if w_u is None else w_u + w
        else:
            scale = q * (1.0 / gamma(3.0 - al)) * dt ** (-al)
            c_lead += scale
            c_prev += scale
            w = scale * dt * l1_weights(al - 1.0, n_steps)
            w_v = w if w_v is None else w_v + w
    return c_lead, c_prev, w_u, w_v


def solve(spec: MultiTermSpec, coeffs: EllipticCoeffField,
          lower: LowerOrderTerm, source, grid: SpaceTimeGrid,
          bc=None, check_residual: bool = True) -> SolveResult:
    """March the implicit scheme from the zero initial state.

    Parameters
    ----------
    source : callable or ndarray
        Right-hand side f(t, Y) -> (...), or samples of shape
        (n_steps+1, *shape).
    bc : callable or None
        Dirichlet data g(t, Y) on boundary nodes; None means homogeneous.

    Returns the solution field and diagnostics: per-step residual maximum,
    a one-norm condition estimate of the first interior step matrix, the
    leading coefficient, and the counts ``factorizations``, ``lu_reuses``
    (steps whose changed matrix was solved by refinement with an earlier
    LU) and ``refinement_steps``.  The initial level is identically zero,
    matching the support convention.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    if coeffs.n != grid.ndim:
        raise ValueError("field dimension does not match the grid")
    _ellipticity_precondition(grid, coeffs)

    nt = grid.time.n_steps
    dt = grid.time.dt
    shape = grid.shape
    inside = _interior_flags(grid)
    n_int = int(inside.sum())
    y_bnd = grid.mesh().reshape(-1, grid.ndim)[~inside]
    times = grid.time.nodes

    f_all = _source_levels(source, grid)
    f_int = f_all.reshape(nt + 1, -1)[:, inside]
    c_lead, c_prev, w_u, w_v = _history_weights(spec, dt, nt)

    values = np.zeros((nt + 1, inside.size))
    u = np.zeros((nt + 1, n_int))            # interior unknowns
    du = np.zeros((nt + 1, n_int))           # du[j] = u_j - u_{j-1}
    dv = np.zeros((nt + 1, n_int))           # dv[j] = v_j - v_{j-1}
    # (kernel, its lags within one block as forward-indexed rows, series)
    span = min(BLOCK, nt)
    kernels = [(w, toeplitz_rows(w, np.arange(span), span), d)
               for w, d in ((w_u, du), (w_v, dv)) if w is not None]

    cond_estimate = lu = None
    factorizations = lu_reuses = refinement_steps = 0
    step_residual = 0.0
    runs = _level_operators(grid, coeffs, lower, times[1:])
    left = 0                       # levels of the current run still to go
    for k in range(1, nt + 1):
        if left == 0:
            mat, left = next(runs)
            system = (sp.eye(n_int, format="csr") * c_lead
                      + mat[:, inside]).tocsc()
            lift = mat[:, ~inside]
            fresh = False          # whether lu factorizes this run's system
        left -= 1

        r = (k - 1) % BLOCK
        if r == 0:
            # history older than this block, one product per kernel
            k0 = k
            rows = np.arange(k0, min(k0 + BLOCK, nt + 1))
            older = np.zeros((len(rows), n_int))
            for w, _, d in kernels:
                older += toeplitz_rows(w, rows - 1, k0 - 1) @ d[1:k0]
        hist = older[r] - c_lead * u[k - 1] - c_prev * du[k - 1]
        for _, near, d in kernels:
            hist += near[r, :r] @ d[k0:k]

        rhs = f_int[k] - hist
        if bc is not None:
            g_k = np.asarray(bc(times[k], y_bnd), dtype=float)
            values[k, ~inside] = g_k
            rhs -= lift @ g_k
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
                lu = spla.splu(system)
                fresh = True
                factorizations += 1
                if cond_estimate is None:
                    op = spla.LinearOperator(
                        (n_int, n_int), matvec=lu.solve,
                        rmatvec=lambda b: lu.solve(b, trans="T"))
                    # exact column-sum norm of A; t=1 makes the estimate
                    # of the inverse's norm draw no random start columns
                    cond_estimate = float(abs(system).sum(axis=0).max()
                                          * spla.onenormest(op, t=1))
            x = lu.solve(rhs)
            res = system @ x - rhs
        u[k] = x
        du[k] = u[k] - u[k - 1]
        dv[k] = (du[k] - du[k - 1]) / dt
        step_residual = max(step_residual, float(np.abs(res).max()))

    values[:, inside] = u
    values = values.reshape((nt + 1,) + shape)
    sol = SolutionField(values=values, grid=grid,
                        bc={"type": "dirichlet",
                            "homogeneous": bc is None},
                        source={"kind": "callable" if callable(source)
                                else "array"})
    diagnostics = {"condition_estimate": cond_estimate,
                   "linear_residual_max": step_residual,
                   "leading_coefficient": c_lead,
                   "factorizations": factorizations,
                   "lu_reuses": lu_reuses,
                   "refinement_steps": refinement_steps}
    if check_residual:
        resid = apply_discrete_operator(values, spec, coeffs, lower, grid,
                                        source=f_all)
        # level 0 is pinned to zero, never solved
        diagnostics["equation_residual_max"] = float(np.abs(resid[1:]).max())
    return SolveResult(field=sol, diagnostics=diagnostics)


def _spatial_walk(grid: SpaceTimeGrid, coeffs: EllipticCoeffField,
                  lower: LowerOrderTerm, work, out):
    """Add each level's spatial operator applied to ``work[k]`` to ``out[k]``.

    ``work`` is (nt+1, nodes) or a block (nt+1, nodes, B) of B grid
    functions: a CSR product with a block rounds column by column like B
    matrix-vector products, so one walk serves a whole batch, and each run
    of :func:`_level_operators` is applied as one product per at most
    ``BLOCK`` levels.
    """
    end = 0
    for mat, count in _level_operators(grid, coeffs, lower, grid.time.nodes):
        end += count
        for start in range(end - count, end, BLOCK):
            stop = min(start + BLOCK, end)
            # levels become columns: (nodes, levels * B)
            run = np.moveaxis(work[start:stop], 0, 1)
            product = mat @ run.reshape(run.shape[0], -1)
            out[start:stop] += np.moveaxis(
                product.reshape((-1,) + run.shape[1:]), 0, 1)
    return out


def apply_discrete_operator(values, spec: MultiTermSpec,
                            coeffs: EllipticCoeffField,
                            lower: LowerOrderTerm, grid: SpaceTimeGrid,
                            source=None, spatial=None) -> np.ndarray:
    """Discrete operator (or residual) on interior nodes at every time level.

    Computes the multi-term time operator minus the spatial operators,
    minus ``source`` when given.  ``spatial`` is this grid function's column
    of a :func:`_spatial_walk` over a batch, made with the same ``coeffs``
    and ``lower``; it is added in place of a walk of its own.
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
        _spatial_walk(grid, coeffs, lower, values.reshape(nt + 1, -1), out)
    else:
        out += spatial
    out = out.reshape((nt + 1,) + tuple(s - 2 for s in shape))
    if source is not None:
        out -= _source_levels(source, grid)[(slice(None),) + grid.interior()]
    return out


# ---------------------------------------------------------------------------
# vanishing-subdomain experiment


@dataclass(frozen=True)
class UcpConfig:
    """Geometry and sources for the vanishing-subdomain demonstration."""

    spec: MultiTermSpec
    coeffs: EllipticCoeffField
    grid: SpaceTimeGrid
    omega: tuple                  # observation interval on the first axis
    t_prime: float
    source_centers: tuple
    source_width: float = 0.08
    source_amplitude: float = 1.0


@dataclass
class UcpReport:
    rows: list                    # (center, distance, norm_omega, norm_total, ratio)
    floor: float

    @property
    def min_ratio(self) -> float:
        return min(r[4] for r in self.rows) if self.rows else float("nan")

    @property
    def all_above_floor(self) -> bool:
        return all(r[4] > self.floor for r in self.rows if r[3] > 0.0)


def _bump(r):
    return np.clip(1.0 - r**2, 0.0, None) ** 4


def ucp_experiment(config: UcpConfig, floor: float = 1e-13) -> UcpReport:
    """Solve with sources away from the observation window and compare norms.

    For each source center the solution norm restricted to
    omega x (0, t_prime) is compared with the norm over the whole cylinder.
    A ratio above the resolution floor for every nonzero source is the
    expected outcome: the computed fields never vanish on the window alone.
    """
    grid = config.grid
    lo, hi = config.omega
    axis = grid.axes()[0]
    mask = np.zeros(grid.shape, dtype=bool)
    mask[(axis >= lo) & (axis <= hi)] = True
    tmask = grid.time.nodes <= config.t_prime

    # the time ramp on a broadcast time axis, times the bump of each center
    ramp = (config.source_amplitude
            * np.minimum(grid.time.nodes / grid.time.t_final, 1.0) ** 2)
    ramp = ramp.reshape((-1,) + (1,) * grid.ndim)
    first = grid.mesh()[..., 0]
    rows = []
    for center in config.source_centers:
        if lo <= center <= hi:
            raise ValueError("source must be supported away from the window")
        f = ramp * _bump((first - center) / config.source_width)
        result = solve(config.spec, config.coeffs, LowerOrderTerm.zero(), f,
                       grid, check_residual=False)
        sol = result.field
        n_omega = sol.norm_l2(t_mask=tmask, space_mask=mask)
        n_total = sol.norm_l2()
        distance = min(abs(center - lo), abs(center - hi))
        ratio = n_omega / n_total if n_total > 0.0 else 0.0
        rows.append((center, distance, n_omega, n_total, ratio))
    return UcpReport(rows=rows, floor=floor)
