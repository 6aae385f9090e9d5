import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fraclab import (CarlemanWeightParams, HolmgrenFrame,
                     HolmgrenMap, MultiTermSpec, SpaceTimeGrid,
                     CompactBump, TimeGrid, apply_discrete_operator,
                     beta_sweep, carleman_lhs, conjugated_operator,
                     default_bump_family,
                     diagonal_variable_field, identity_field,
                     pushforward_operator, sweep_rows_csv)
from fraclab import carleman, solver
from fraclab.carleman import BRANCH_THRESHOLD, _conjugated_terms

X = 0.1


def layer_grid(n_steps, n_nodes):
    return SpaceTimeGrid(bounds=((0.0, X),), shape=(n_nodes,),
                         time=TimeGrid.from_interval(1.0, n_steps))


def setup(alpha=0.5, m=1):
    orders = (alpha,) if m == 1 else (alpha, alpha / 2.0)
    weights = (1.0,) if m == 1 else (1.0, 0.5)
    spec = MultiTermSpec(orders=orders, weights=weights)
    hmap = HolmgrenMap(y_hat=np.zeros(1), c=1.0, X=X, T=1.0)
    frame = pushforward_operator(identity_field(1), hmap)
    weight = CarlemanWeightParams(X=X)
    return spec, frame, weight


class ShiftedWeight(CarlemanWeightParams):
    """psi plus a constant: both sides pick up the same exponential factor,
    so ratios must not move."""

    def psi(self, x_n):
        return super().psi(x_n) + 0.005


def single_bump(grid):
    return CompactBump(centers=(X / 2.0,), halfwidths=(X / 3.0,),
                    t_span=grid.time.t_final)


def carleman_rhs(values, grid, beta, weight, spec, frame):
    """Right side: the weighted square of the conjugated operator's image,
    integrated as the sweep integrates it."""
    image = conjugated_operator(values, grid, spec, frame)
    return carleman._weighted_integrals(
        image**2, grid, carleman._weight_profiles(grid, weight, [beta]))[0]


def bump_pieces(bump, times, mesh):
    """s = t / t_span per level, shaped to broadcast over the mesh, and per
    axis the rescaled distance r and the base 1 - r^2, clipped at 0."""
    s = np.clip(np.asarray(times, dtype=float) / bump.t_span, 0.0, 1.0)
    rs = [(mesh[..., i] - c) / w
          for i, (c, w) in enumerate(zip(bump.centers, bump.halfwidths))]
    bases = [np.clip(1.0 - r**2, 0.0, None) for r in rs]
    return s.reshape((-1,) + (1,) * (mesh.ndim - 1)), rs, bases


def exact_gradient(bump, times, mesh):
    """Analytic first space derivatives, shape (nt, *space, ndim)."""
    s, rs, bases = bump_pieces(bump, times, mesh)
    grads = []
    for i in range(mesh.shape[-1]):
        g = bump.amplitude * (s * (1.0 - s)) ** 4
        for j, (r, base) in enumerate(zip(rs, bases)):
            g = g * (4.0 * base**3 * (-2.0 * r) / bump.halfwidths[j]
                     if j == i else base**4)
        grads.append(g)
    return np.stack(grads, axis=-1)


def exact_time_derivative(bump, times, mesh):
    """Analytic time derivative, shape (nt, *space)."""
    s, _, bases = bump_pieces(bump, times, mesh)
    v = (bump.amplitude * 4.0 * (s * (1.0 - s)) ** 3 * (1.0 - 2.0 * s)
         / bump.t_span)
    for base in bases:
        v = v * base**4
    return v


def exact_lhs(values, gradient, time_derivative, grid, beta, weight, alpha):
    """:func:`carleman_lhs` with the given derivatives in place of its
    centered differences, integrated as it integrates."""
    profiles = carleman._weight_profiles(grid, weight, [beta])

    def part(density):
        return carleman._weighted_integrals(density, grid, profiles)[0]

    total = beta**3 * part(values**2)
    for d in range(grid.ndim):
        total += beta * part(gradient[..., d] ** 2)
    if alpha >= BRANCH_THRESHOLD:
        total += beta ** (3.0 - 4.0 / alpha) * part(time_derivative**2)
    return total


class TestSides:
    def test_zero_function(self):
        spec, frame, weight = setup()
        grid = layer_grid(32, 33)
        v = np.zeros((33, 33))
        assert carleman_lhs(v, grid, 50.0, weight, spec.alpha) == 0.0
        assert carleman_rhs(v, grid, 50.0, weight, spec, frame) == 0.0

    def test_rhs_quadratic_scaling(self):
        spec, frame, weight = setup()
        grid = layer_grid(48, 49)
        v = single_bump(grid).values(grid.time.nodes, grid.mesh())
        r1 = carleman_rhs(v, grid, 50.0, weight, spec, frame)
        r2 = carleman_rhs(2.0 * v, grid, 50.0, weight, spec, frame)
        assert abs(r2 - 4.0 * r1) < 1e-10 * abs(r1)

    def test_lhs_against_dense_quadrature_oracle(self):
        # exact-derivative dense-grid evaluation vs the centered-difference
        # pipeline; agreement at 1e-6 needs a fine pipeline grid
        spec, frame, weight = setup()
        beta = 50.0
        grid = layer_grid(192, 8193)
        bump = single_bump(grid)
        mesh = grid.mesh()
        v = bump.values(grid.time.nodes, mesh)
        pipeline = carleman_lhs(v, grid, beta, weight, spec.alpha)

        fine = layer_grid(384, 4097)
        mesh_f = fine.mesh()
        v_f = bump.values(fine.time.nodes, mesh_f)
        grads = exact_gradient(bump, fine.time.nodes, mesh_f)
        oracle = exact_lhs(v_f, grads, None, fine, beta, weight, spec.alpha)
        assert abs(pipeline - oracle) / oracle < 1e-6

    def test_upper_branch_time_block_against_exact_derivatives(self):
        # the block beta^(3 - 4/alpha) |d_t v|^2 is what alpha = 1.5 adds
        # to alpha = 0.5; its centered time differences converge to the
        # analytic time derivative at order 2 (errors 4.9e-4 .. 3.1e-5)
        _, _, weight = setup()
        beta = 50.0
        errs = []
        for n in (192, 384, 768):
            grid = layer_grid(n, 4097)
            bump = single_bump(grid)
            t, mesh = grid.time.nodes, grid.mesh()
            v = bump.values(t, mesh)
            exact = (exact_gradient(bump, t, mesh),
                     exact_time_derivative(bump, t, mesh))
            block = (carleman_lhs(v, grid, beta, weight, 1.5)
                     - carleman_lhs(v, grid, beta, weight, 0.5))
            oracle = (exact_lhs(v, *exact, grid, beta, weight, 1.5)
                      - exact_lhs(v, *exact, grid, beta, weight, 0.5))
            errs.append(abs(block - oracle) / oracle)
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 2.0) <= 0.05)
        # v = T(t) S(x) separates, T = (t (1 - t))^4: the exact block is
        # beta^(3 - 4/1.5) times the polynomial integral of T'^2 times
        # the weighted space integral of S^2, which pins the power of beta
        s = np.polynomial.Polynomial([0.0, 1.0, -1.0])
        t_int = ((4.0 * s**3 * np.polynomial.Polynomial([1.0, -2.0])) ** 2
                 ).integ()(1.0)
        space = (256.0 * bump.values([0.5], mesh)[0]) ** 2    # T(1/2) = 1/256
        x_int = np.trapezoid(np.exp(2.0 * beta * weight.psi(mesh[..., 0]))
                             * space, dx=grid.spacing[0])
        closed = beta ** (3.0 - 4.0 / 1.5) * t_int * x_int
        assert abs(oracle - closed) <= 1e-9 * closed

    def test_weight_shift_cancels_in_ratio(self):
        spec, frame, weight = setup()
        grid = layer_grid(40, 41)
        v = single_bump(grid).values(grid.time.nodes, grid.mesh())
        beta = 50.0
        base = (carleman_lhs(v, grid, beta, weight, spec.alpha)
                / carleman_rhs(v, grid, beta, weight, spec, frame))
        shifted_weight = ShiftedWeight(X=X)
        shifted = (carleman_lhs(v, grid, beta, shifted_weight, spec.alpha)
                   / carleman_rhs(v, grid, beta, shifted_weight, spec, frame))
        assert abs(shifted - base) / base < 1e-12

    def test_quadrature_convergence(self):
        spec, frame, weight = setup()
        vals = []
        for n in (64, 128):
            grid = layer_grid(n, n + 1)
            v = single_bump(grid).values(grid.time.nodes, grid.mesh())
            lhs = carleman_lhs(v, grid, 100.0, weight, spec.alpha)
            rhs = carleman_rhs(v, grid, 100.0, weight, spec, frame)
            vals.append((lhs, rhs))
        assert abs(vals[1][0] - vals[0][0]) / vals[1][0] < 0.01
        assert abs(vals[1][1] - vals[0][1]) / vals[1][1] < 0.01

    def test_upper_branch_adds_time_block(self):
        _, frame, weight = setup()
        grid = layer_grid(40, 41)
        v = single_bump(grid).values(grid.time.nodes, grid.mesh())
        low = carleman_lhs(v, grid, 30.0, weight, alpha=0.5)
        high = carleman_lhs(v, grid, 30.0, weight, alpha=1.5)
        assert high > low

    def test_drift_block_is_small_perturbation(self):
        spec, frame, weight = setup()
        grid = layer_grid(48, 49)
        v = single_bump(grid).values(grid.time.nodes, grid.mesh())
        with_drift = conjugated_operator(v, grid, spec, frame,
                                         include_drift=True)
        without = conjugated_operator(v, grid, spec, frame,
                                      include_drift=False)
        delta = np.abs(with_drift - without).max()
        assert 0.0 < delta < 0.5 * np.abs(without).max()

    @pytest.mark.parametrize("in_place", [False, True])
    def test_image_into_a_workspace_is_bitwise_the_new_image(self, in_place):
        spec, frame, _, grid = sweep_case(2, 1.5)
        v = np.random.default_rng(6).normal(size=(21, 13, 17))
        expected = conjugated_operator(v, grid, spec, frame)
        work = v if in_place else np.full_like(v, 7.0)
        image = conjugated_operator(v, grid, spec, frame, out=work)
        assert image is work
        assert image.tobytes() == expected.tobytes()

    def test_image_does_not_depend_on_memory_layout(self):
        # the boundary ring of the drift is zeroed for any layout of values
        spec, frame, _, grid = sweep_case(2, 1.5)
        v = np.random.default_rng(4).normal(size=(21, 13, 17))
        c_order = conjugated_operator(v, grid, spec, frame)
        f_order = conjugated_operator(np.asfortranarray(v), grid, spec, frame)
        ring = ~solver._interior_flags(grid).reshape(grid.shape)
        assert np.abs(c_order[:, ring]).max() == 0.0
        assert (np.ascontiguousarray(f_order).tobytes()
                == c_order.tobytes())


class TestConjugation:
    """The conjugated operator is e^-t times the shared operator of e^t v.

    In one dimension the frame of the identity field has the identity as
    its effective field and a zero tilt drift."""

    def test_conjugation_is_pre_post_multiplication(self):
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        _, frame, _ = setup()
        grid = layer_grid(24, 17)
        rng = np.random.default_rng(5)
        u = rng.normal(size=(25, 17))
        u[0] = 0.0
        field = identity_field(1)
        times = grid.time.nodes
        direct = conjugated_operator(u, grid, spec, frame,
                                     include_drift=False)[:, 1:-1]
        manual = apply_discrete_operator(
            u * np.exp(times)[:, None], spec,
            lambda t, y: (field.a(t, y), None, None), grid)
        manual *= np.exp(-times)[:, None]
        assert np.abs(direct - manual).max() < 1e-10 * max(1.0, np.abs(manual).max())

    def test_conjugated_first_order_limit(self):
        # for order one the conjugated operator is (d_t + 1 - L) up to the
        # backward-difference error O(dt)
        spec = MultiTermSpec(orders=(1.0,), weights=(1.0,))
        _, frame, _ = setup()
        grid = SpaceTimeGrid(bounds=((0.0, 1.0),), shape=(17,),
                             time=TimeGrid.from_interval(1.0, 256))
        mesh = grid.mesh()
        times = grid.time.nodes
        u = np.stack([t**3 * np.sin(np.pi * mesh[..., 0]) for t in times])
        conj = conjugated_operator(u, grid, spec, frame,
                                   include_drift=False)[:, 1:-1]
        y = mesh[grid.interior()][..., 0]
        expected = np.stack([
            3.0 * t**2 * np.sin(np.pi * y) + t**3 * np.sin(np.pi * y)
            + np.pi**2 * t**3 * np.sin(np.pi * y) for t in times])
        err = np.abs(conj - expected)[1:].max()
        assert err < 0.1  # dominated by O(dt) of the causal difference

    @pytest.mark.parametrize("include_drift", [True, False])
    def test_walked_spatial_part_is_bitwise_the_own_walk(self, include_drift):
        spec, frame, _, grid = sweep_case(2, 1.5)
        batch = np.random.default_rng(2).normal(size=(21, 13, 17, 3))
        # one walk over the levels for the whole batch, of e^t times each
        block = batch.reshape(21, -1, 3) * np.exp(grid.time.nodes)[:, None,
                                                                     None]
        walked = solver._spatial_walk(grid, _conjugated_terms(frame), block,
                                      np.zeros((21, 11 * 15, 3)))
        for b in range(3):
            own = conjugated_operator(batch[..., b], grid, spec, frame,
                                      include_drift=include_drift)
            given = conjugated_operator(batch[..., b], grid, spec, frame,
                                        include_drift=include_drift,
                                        spatial=walked[..., b])
            assert given.tobytes() == own.tobytes()

    def test_sampler_samples_the_field_once_per_call(self):
        # the tilted matrix and the tilt drift share one sample of the
        # frame's field: one call of field.a per sampler call, so one per
        # block of levels in a walk
        _, frame, _, grid = sweep_case(2, 1.5, n_steps=60)
        calls = []

        def counted(t, x):
            calls.append(len(t))
            return frame.field.a(t, x)

        terms = _conjugated_terms(HolmgrenFrame(
            field=dataclasses.replace(frame.field, a=counted),
            map=frame.map))
        y = grid.mesh()[grid.interior()].reshape(-1, 2)
        t = np.repeat(grid.time.nodes[:3], len(y))
        y = np.tile(y, (3, 1))
        matrix, drift, b0 = terms(t, y)
        assert calls == [len(t)]
        base = frame.field.a(t, y)
        assert matrix.tobytes() == frame.effective_matrix(y, base).tobytes()
        assert drift.tobytes() == frame.tilt_drift(base).tobytes()
        assert b0 is None
        # 165 interior nodes: 49 levels per call, 61 levels in 2 calls
        calls.clear()
        runs = list(solver._level_operators(grid, terms, grid.time.nodes))
        assert sum(count for _, count in runs) == 61
        assert calls == [49 * 165, 12 * 165]


class TestBumpShapes:
    def test_supported_inside(self):
        grid = layer_grid(32, 65)
        mesh = grid.mesh()
        for bump in default_bump_family(grid):
            v = bump.values(grid.time.nodes, mesh)
            assert v[0].max() == 0.0              # vanishes at t = 0
            assert abs(v[:, 0]).max() == 0.0      # vanishes on the wall
            assert abs(v[:, -1]).max() == 0.0
            assert v.max() > 0.0

    def test_gradient_matches_finite_differences(self):
        grid = layer_grid(64, 257)
        mesh = grid.mesh()
        bump = single_bump(grid)
        v = bump.values(grid.time.nodes, mesh)
        g_exact = exact_gradient(bump, grid.time.nodes, mesh)[..., 0]
        g_fd = np.gradient(v, grid.spacing[0], axis=1, edge_order=2)
        assert np.abs(g_exact - g_fd).max() < 2e-3 * np.abs(g_exact).max()

    def test_time_derivative_matches(self):
        grid = layer_grid(256, 33)
        mesh = grid.mesh()
        bump = single_bump(grid)
        v = bump.values(grid.time.nodes, mesh)
        d_exact = exact_time_derivative(bump, grid.time.nodes, mesh)
        d_fd = np.gradient(v, grid.time.dt, axis=0, edge_order=2)
        assert np.abs(d_exact - d_fd).max() < 2e-3 * np.abs(d_exact).max()


    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_values_equal_per_level_products_bitwise(self, ndim):
        grid = SpaceTimeGrid(bounds=((0.0, X),) * ndim,
                             shape=(9,) * (ndim - 1) + (17,),
                             time=TimeGrid.from_interval(1.3, 37))
        mesh = grid.mesh()
        bump = CompactBump(centers=(0.4 * X,) * ndim,
                           halfwidths=(0.35 * X,) * ndim, t_span=1.1,
                           amplitude=1.7)
        xs = [np.clip(1.0 - ((mesh[..., i] - c) / w) ** 2, 0.0, None) ** 4
              for i, (c, w) in enumerate(zip(bump.centers, bump.halfwidths))]
        levels = []
        for t in grid.time.nodes:
            s = min(max(t / bump.t_span, 0.0), 1.0)
            v = bump.amplitude * np.float64(s * (1.0 - s)) ** 4
            for xb in xs:
                v = v * xb
            levels.append(v)
        got = bump.values(grid.time.nodes, mesh)
        assert got.tobytes() == np.stack(levels).tobytes()


class TestSweep:
    def test_config_validation(self):
        spec, frame, weight = setup()
        grid = layer_grid(8, 9)
        bumps = default_bump_family(grid, count=1)
        for betas, message in [
                ((25.0,), "need at least two positive beta values"),
                ((-25.0, 250.0), "need at least two positive beta values"),
                ((400.0, 25.0), "beta grid must increase"),
                ((25.0, 50.0), "beta grid must span at least one decade")]:
            with pytest.raises(ValueError, match=message):
                beta_sweep(betas, weight, spec, bumps, grid, frame)

    def test_betas_are_checked_before_the_frame(self):
        # a 2-D frame on a 1-D grid, with a bad beta grid: the betas are
        # named, as the CLI named them when it checked them first
        spec, _, weight = setup()
        frame = pushforward_operator(
            identity_field(2), HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=X,
                                           T=1.0))
        grid = layer_grid(8, 9)
        bumps = default_bump_family(grid, count=1)
        with pytest.raises(ValueError, match="beta grid must increase"):
            beta_sweep((400.0, 25.0), weight, spec, bumps, grid, frame)
        with pytest.raises(ValueError, match="field dimension"):
            beta_sweep((25.0, 250.0), weight, spec, bumps, grid, frame)

    def test_small_sweep_bounded(self):
        # thickness 0.3 puts the whole beta decade inside the concentration
        # regime where the ratio plateaus and then decays
        X_wide = 0.3
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        hmap = HolmgrenMap(y_hat=np.zeros(1), c=1.0, X=X_wide, T=1.0)
        frame = pushforward_operator(identity_field(1), hmap)
        weight = CarlemanWeightParams(X=X_wide)
        grid = SpaceTimeGrid(bounds=((0.0, X_wide),), shape=(81,),
                             time=TimeGrid.from_interval(1.0, 64))
        bumps = default_bump_family(grid, count=2)
        result = beta_sweep((25.0, 50.0, 100.0, 200.0, 400.0), weight, spec,
                            bumps, grid, frame)
        assert result.flagged == 0
        assert math.isfinite(result.max_ratio)
        assert result.max_ratio / result.min_ratio <= 100.0
        assert not result.top_half_monotone_growth()

    def test_discrete_kernel_element_is_flagged(self):
        # a boundary-forced homogeneous solution of the effective equation,
        # times e^{-t}, lies in the discrete kernel of the conjugated
        # operator (drift off); the sweep must flag such rows, not average
        # them into the certificate; in 1-D the tilt matrix is [[1]], so the
        # frame's field has the effective matrix bitwise
        from fraclab import solve
        spec, frame, weight = setup()
        grid = layer_grid(32, 33)
        result = solve(spec, frame.field,
                       lambda t, Y: np.zeros(Y.shape[:-1]), grid,
                       b=lambda t, Y: frame.tilt_drift(frame.field.a(t, Y)),
                       b0=None,
                       bc=lambda t, Yb: t**2 * np.ones(Yb.shape[0]),
                       check_residual=False)
        w = result.field.values * np.exp(-grid.time.nodes)[:, None]

        class Premade:
            def factors(self, times, mesh):
                return w, [np.ones(mesh.shape[:-1])]

        result = beta_sweep((25.0, 250.0), weight, spec, [Premade()], grid,
                            frame, include_drift=False)
        assert result.flagged == len(result.rows)

    def test_two_dimensional_operator_application(self):
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=X, T=1.0)
        frame = pushforward_operator(identity_field(2), hmap)
        weight = CarlemanWeightParams(X=X)
        grid = SpaceTimeGrid(bounds=((-0.1, 0.1), (0.0, X)),
                             shape=(21, 21),
                             time=TimeGrid.from_interval(1.0, 24))
        bumps = default_bump_family(grid, count=1)
        result = beta_sweep((25.0, 250.0), weight, spec, bumps, grid, frame)
        assert result.flagged == 0
        assert all(math.isfinite(r.ratio) and r.ratio > 0.0
                   for r in result.rows)

    def test_zero_image_rows_flagged(self, monkeypatch):
        spec, frame, weight = setup()
        grid = layer_grid(24, 25)
        bumps = default_bump_family(grid, count=1)
        monkeypatch.setattr(carleman, "conjugated_operator",
                            lambda values, *_, **__: np.zeros_like(values))
        result = beta_sweep((25.0, 250.0), weight, spec, bumps, grid, frame)
        assert result.flagged == len(result.rows)

    def test_csv_rows(self, tmp_path):
        spec, frame, weight = setup()
        grid = layer_grid(32, 41)
        result = beta_sweep((25.0, 250.0), weight, spec,
                            default_bump_family(grid, count=1), grid, frame)
        csv_path = tmp_path / "rows.csv"
        sweep_rows_csv(result, str(csv_path))
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "beta,lhs,rhs,ratio,test_id"
        assert len(lines) == 1 + len(result.rows)


def sweep_case(ndim, alpha, n_steps=20):
    """A small sweep setup with a time-dependent field in ``ndim`` dims."""
    spec = MultiTermSpec(orders=(alpha, alpha / 2.0), weights=(1.0, 0.5))
    hmap = HolmgrenMap(y_hat=np.zeros(ndim), c=1.0, X=0.3, T=1.0)
    frame = pushforward_operator(diagonal_variable_field(ndim), hmap)
    weight = CarlemanWeightParams(X=0.3)
    bounds = ((-0.3, 0.3),) * (ndim - 1) + ((0.0, 0.3),)
    grid = SpaceTimeGrid(bounds=bounds, shape=(13,) * (ndim - 1) + (17,),
                         time=TimeGrid.from_interval(1.0, n_steps))
    return spec, frame, weight, grid


def reference_rows(betas, weight, spec, bumps, grid, frame, include_drift):
    """(lhs, rhs, ratio) per row, one conjugated_operator call per bump and
    each side's weighted integrals formed per beta, in the production
    order: over time first, by the trapezoid weights' contraction, then
    over space under the weight; |grad v|^2 one axis at a time."""
    mesh = grid.mesh()
    psi = weight.psi(mesh[..., -1])
    w = np.full(grid.time.n_steps + 1, grid.time.dt)
    w[[0, -1]] /= 2.0

    def weighted(density, beta):
        integrand = ((w @ density.reshape(len(w), -1)).reshape(grid.shape)
                     * np.exp(2.0 * beta * psi))
        for ax in range(grid.ndim - 1, -1, -1):
            integrand = np.trapezoid(integrand, dx=grid.spacing[ax], axis=ax)
        return float(integrand)

    rows = []
    for bump in bumps:
        v = bump.values(grid.time.nodes, mesh)
        image = conjugated_operator(v, grid, spec, frame,
                                    include_drift=include_drift)
        for beta in betas:
            lhs = beta**3 * weighted(v**2, beta)
            for d, h in enumerate(grid.spacing):
                lhs += beta * weighted(
                    np.gradient(v, h, axis=d + 1, edge_order=2) ** 2, beta)
            if spec.alpha >= BRANCH_THRESHOLD:
                dt_v = np.gradient(v, grid.time.dt, axis=0, edge_order=2)
                lhs += beta ** (3.0 - 4.0 / spec.alpha) * weighted(
                    dt_v**2, beta)
            rhs = weighted(image**2, beta)
            rows.append((lhs, rhs, lhs / rhs))
    return rows


class TestNonFiniteGuards:
    # NaN fails every comparison, so "b <= 0" let a NaN beta through and
    # the sweep returned an unflagged row with ratio inf
    @pytest.mark.parametrize("betas", [(25.0, math.nan, 400.0),
                                       (math.nan, 25.0, 400.0)],
                             ids=["middle", "first"])
    def test_a_nan_beta_fails_the_positivity_guard(self, betas):
        spec, frame, weight = setup()
        grid = layer_grid(8, 9)
        bumps = default_bump_family(grid, count=1)
        with pytest.raises(ValueError,
                           match="need at least two positive beta values"):
            beta_sweep(betas, weight, spec, bumps, grid, frame)


class TestSweepBatching:
    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("include_drift", [True, False])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("count", [1, 5])
    def test_rows_equal_per_bump_reference_bitwise(self, ndim, include_drift,
                                                   alpha, count):
        spec, frame, weight, grid = sweep_case(ndim, alpha)
        betas = (25.0, 100.0, 400.0)
        bumps = default_bump_family(grid, count=count)
        result = beta_sweep(betas, weight, spec, bumps, grid, frame,
                            include_drift=include_drift)
        got = [(r.lhs, r.rhs, r.ratio) for r in result.rows]
        assert got == reference_rows(betas, weight, spec, bumps, grid, frame,
                                     include_drift)

    @pytest.mark.parametrize("count", [1, 4])
    def test_one_walk_over_the_levels_per_sweep(self, count, monkeypatch):
        spec, frame, weight, grid = sweep_case(2, 1.5)
        assembled = []
        original = solver._spatial_matrix

        def counting(*args, **kwargs):
            assembled.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "_spatial_matrix", counting)
        beta_sweep((25.0, 250.0), weight, spec,
                   default_bump_family(grid, count=count), grid, frame)
        # the field depends on time, so each level is assembled once
        assert len(assembled) == grid.time.n_steps + 1

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_walked_levels_are_bitwise_the_stacked_bumps(self, ndim):
        *_, grid = sweep_case(ndim, 1.5)
        times, mesh = grid.time.nodes, grid.mesh()
        bumps = default_bump_family(grid, count=3)
        stack = np.stack([b.values(times, mesh).reshape(len(times), -1)
                          for b in bumps], axis=-1)
        stack *= np.exp(times)[:, None, None]
        levels = carleman._GrownLevels(
            [b.factors(times, mesh) for b in bumps], grid)
        for start, stop in ((0, 1), (3, 11), (0, len(times))):
            assert (levels[start:stop].tobytes()
                    == stack[start:stop].tobytes())

    def test_sweep_holds_its_walk_and_a_few_bump_arrays(self):
        # beside the walk's output (levels, interior nodes, bumps): one
        # bump's workspace and the drift's input, difference quotient and
        # output, plus two Toeplitz row blocks of 64 of the 161 levels, 5.1
        # arrays of one bump's values; the parent held 7.7
        _, frame, weight, grid = sweep_case(2, 1.5, n_steps=160)
        grid = SpaceTimeGrid(bounds=grid.bounds, shape=(21, 21),
                             time=grid.time)
        spec = MultiTermSpec((1.5, 0.5), (1.0, 0.5))
        bumps = default_bump_family(grid, count=3)
        one = 8 * (grid.time.n_steps + 1) * math.prod(grid.shape)
        walk = 8 * (grid.time.n_steps + 1) * 19 * 19 * len(bumps)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            beta_sweep((25.0, 250.0), weight, spec, bumps, grid, frame)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - walk <= 5.5 * one


def space_first(density, grid, beta, weight):
    """The nested trapezoid over space under the weight, then over time."""
    integrand = density * np.exp(2.0 * beta * weight.psi(grid.mesh()[..., -1]))
    for ax in range(integrand.ndim - 1, 0, -1):
        integrand = np.trapezoid(integrand, dx=grid.spacing[ax - 1], axis=ax)
    return float(np.trapezoid(integrand, dx=grid.time.dt, axis=0))


class TestIntegrationOrder:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("n_steps", [2, 64])
    def test_sides_match_the_space_first_oracle(self, ndim, alpha, n_steps):
        # time first reorders the sums only: both sides agree with the
        # space-first nested trapezoid to a few ulps over the beta decades
        spec, frame, weight, grid = sweep_case(ndim, alpha, n_steps)
        betas = (25.0, 50.0, 100.0, 200.0, 400.0)
        v = default_bump_family(grid, count=1)[0].values(
            grid.time.nodes, grid.mesh())
        grads = np.stack([np.gradient(v, h, axis=d + 1, edge_order=2)
                          for d, h in enumerate(grid.spacing)], axis=-1)
        dt_v = np.gradient(v, grid.time.dt, axis=0, edge_order=2)
        image = conjugated_operator(v, grid, spec, frame)
        lhs = carleman_lhs(v, grid, betas, weight, alpha)
        for beta, got in zip(betas, lhs):
            oracle = (beta**3 * space_first(v**2, grid, beta, weight)
                      + beta * space_first(np.sum(grads**2, axis=-1),
                                           grid, beta, weight))
            if alpha >= BRANCH_THRESHOLD:
                oracle += beta ** (3.0 - 4.0 / alpha) * space_first(
                    dt_v**2, grid, beta, weight)
            assert abs(got - oracle) <= 1e-14 * oracle
            rhs = carleman_rhs(v, grid, beta, weight, spec, frame)
            oracle = space_first(image**2, grid, beta, weight)
            assert abs(rhs - oracle) <= 1e-14 * oracle
