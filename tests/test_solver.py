import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fraclab import cli, solver
from fraclab.fractional import ConvergenceError, _gamma
from fraclab import (EllipticCoeffField, MultiTermSpec,
                     SpaceTimeGrid, TimeGrid, apply_discrete_operator,
                     caputo_power_rule, constant_field,
                     diagonal_variable_field,
                     identity_field, rotating_anisotropic_field, solve,
                     ucp_experiment)


def grid_1d(n_steps, n_nodes, t_final=1.0):
    return SpaceTimeGrid(bounds=((0.0, 1.0),), shape=(n_nodes,),
                         time=TimeGrid.from_interval(t_final, n_steps))


def manufactured_1d(spec):
    def exact(t, Y):
        return t**2 * np.sin(np.pi * Y[..., 0])

    def source(t, Y):
        sine = np.sin(np.pi * Y[..., 0])
        tfrac = sum(q * caputo_power_rule(2.0, al, np.maximum(t, 1e-300))
                    for q, al in zip(spec.weights, spec.orders))
        return (tfrac + np.pi**2 * t**2) * sine

    return exact, source


def sampler(a, b=None, b0=None):
    """The coefficient sampler that ``solve`` builds from a matrix callable
    and its ``b`` and ``b0`` keywords: ``(a, b, b0)`` from one call."""
    def terms(t, y):
        return (a(t, y), None if b is None else b(t, y),
                None if b0 is None else b0(t, y))

    return terms


def csr(mat):
    """The scipy CSR matrix of a ``solver._StencilMatrix``: row i holds
    ``values[i, s]`` at ``cols[i, s]``."""
    rows, slots = mat.values.shape
    return sp.csr_matrix((mat.values.reshape(-1), mat.cols.reshape(-1),
                          np.arange(0, rows * slots + 1, slots)),
                         shape=(rows, mat.n_nodes))


def marched_reference(spec, field, source, grid):
    """The solve for one order below 1, level by level with a fresh LU.

    The discrete operator at level k is c u_k + A_k u_k plus terms in the
    earlier levels, so with u_k = 0 it gives the rest, and the step solves
    (c + A_k) u_k = -rest through ``spla.splu``.
    """
    (alpha,) = spec.orders
    dt = grid.time.dt
    c = 1.0 / (_gamma(2.0 - alpha) * dt ** alpha)
    inside = np.zeros(grid.shape, dtype=bool)
    inside[grid.interior()] = True
    inside = inside.reshape(-1)
    mats = [mat for mat, count in solver._level_operators(
        grid, sampler(field.a), grid.time.nodes)
        for _ in range(count)]
    u = np.zeros((grid.time.n_steps + 1,) + grid.shape)
    for k in range(1, grid.time.n_steps + 1):
        rest = apply_discrete_operator(u, spec, sampler(field.a), grid,
                                       source=source)[k].reshape(-1)
        system = (c * sp.eye(int(inside.sum()))
                  + csr(mats[k])[:, inside]).tocsc()
        u[k][grid.interior()] = spla.splu(system).solve(-rest).reshape(
            tuple(s - 2 for s in grid.shape))
    return u


def capped_refine(lu, system, rhs):
    """``solver._refine`` without its contraction stop: it runs until the
    target or ``REFINE_CAP`` steps."""
    x = lu.solve(rhs)
    res = rhs - system @ x
    tol = 1e-13 * np.abs(rhs).max()
    steps = 0
    while not np.abs(res).max() <= tol:
        if steps == solver.REFINE_CAP:
            return None, None, steps
        x += lu.solve(res)
        res = rhs - system @ x
        steps += 1
    return x, res, steps


class TestSolve:
    def test_zero_data_zero_solution(self):
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        grid = grid_1d(16, 17)
        result = solve(spec, identity_field(1),
                       lambda t, Y: np.zeros(Y.shape[:-1]), grid)
        assert np.all(result.field.values == 0.0)

    def test_manufactured_accuracy(self):
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        exact, source = manufactured_1d(spec)
        grid = grid_1d(64, 65)
        result = solve(spec, identity_field(1), source, grid)
        ref = np.stack([exact(t, grid.mesh()) for t in grid.time.nodes])
        err = np.abs(result.field.values - ref).max()
        assert err < 2e-2
        assert result.diagnostics["equation_residual_max"] <= 1e-10
        assert result.diagnostics["condition_estimate"] > 1.0

    def test_refinement_halves_error(self):
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        exact, source = manufactured_1d(spec)
        errs = []
        for n in (32, 64):
            grid = grid_1d(n, n + 1)
            result = solve(spec, identity_field(1),
                           source, grid, check_residual=False)
            ref = np.stack([exact(t, grid.mesh()) for t in grid.time.nodes])
            errs.append(np.abs(result.field.values - ref).max())
        assert errs[1] <= errs[0] / 2.0

    # both history kernels and the order-1 term, with the last stepping
    # block full (128) and partial (133)
    @pytest.mark.parametrize("n_steps", [128, 133])
    @pytest.mark.parametrize("orders,weights", [
        ((1.5, 0.5), (1.0, 0.5)),
        ((1.5, 1.0, 0.5), (1.0, 0.4, 0.5)),
    ], ids=["two-orders", "with-order-one"])
    def test_multiterm_with_first_order_term(self, orders, weights, n_steps):
        spec = MultiTermSpec(orders=orders, weights=weights)
        lower = dict(b=lambda t, Y: 0.3 * np.ones(Y.shape),
                     b0=lambda t, Y: -0.2 * np.ones(Y.shape[:-1]))

        def exact(t, Y):
            return t**2 * np.sin(np.pi * Y[..., 0])

        def source(t, Y):
            s = np.sin(np.pi * Y[..., 0])
            c = np.cos(np.pi * Y[..., 0])
            tfrac = sum(q * caputo_power_rule(2.0, al, np.maximum(t, 1e-300))
                        for q, al in zip(spec.weights, spec.orders))
            return (tfrac * s + np.pi**2 * t**2 * s
                    - 0.3 * np.pi * t**2 * c + 0.2 * t**2 * s)

        grid = grid_1d(n_steps, 65)
        result = solve(spec, identity_field(1), source, grid, **lower)
        ref = np.stack([exact(t, grid.mesh()) for t in grid.time.nodes])
        err = np.abs(result.field.values - ref).max()
        assert err < 5e-2
        assert result.diagnostics["equation_residual_max"] <= 1e-10

    def test_observed_time_order_upper_branch(self):
        # alpha = 1.5: the difference of successive halvings on one space
        # grid cancels the spatial error and needs no reference solution.
        # The branch applies L1 of order alpha - 1 to a backward difference
        # and reaches order 1.00 (0.987 at N = 128 -> 512); 3 - alpha, the
        # order of the L1-2 scheme of Sun & Wu, is the target of its next
        # step, which must change the expected order, not the tolerance
        spec = MultiTermSpec(orders=(1.5,), weights=(1.0,))
        _, source = manufactured_1d(spec)
        finals = []
        for n in (128, 256, 512):
            result = solve(spec, identity_field(1),
                           source, grid_1d(n, 17), check_residual=False)
            finals.append(result.field.values[::n // 128])
        order = math.log2(np.abs(finals[0] - finals[1]).max()
                          / np.abs(finals[1] - finals[2]).max())
        assert abs(order - 1.0) <= 0.05

    def test_two_dimensional_cross_terms(self):
        theta = math.pi / 5.0
        q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        a = q @ np.diag([1.0, 0.4]) @ q.T
        field = constant_field(a)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))

        def exact(t, Y):
            return t**2 * np.sin(np.pi * Y[..., 0]) * np.sin(np.pi * Y[..., 1])

        def source(t, Y):
            s1 = np.sin(np.pi * Y[..., 0])
            s2 = np.sin(np.pi * Y[..., 1])
            c1 = np.cos(np.pi * Y[..., 0])
            c2 = np.cos(np.pi * Y[..., 1])
            tfrac = caputo_power_rule(2.0, 0.5, np.maximum(t, 1e-300))
            lap = np.pi**2 * t**2 * (2.0 * a[0, 1] * c1 * c2
                                     - (a[0, 0] + a[1, 1]) * s1 * s2)
            return tfrac * s1 * s2 - lap

        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)),
                             shape=(33, 33),
                             time=TimeGrid.from_interval(1.0, 32))
        result = solve(spec, field, source, grid)
        ref = np.stack([exact(t, grid.mesh()) for t in grid.time.nodes])
        err = np.abs(result.field.values - ref).max()
        assert err < 5e-2
        assert result.diagnostics["equation_residual_max"] <= 1e-10

    def test_inhomogeneous_dirichlet(self):
        # u* = t^2 cos(pi y) has nonzero boundary traces on both walls
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))

        def exact(t, Y):
            return t**2 * np.cos(np.pi * Y[..., 0])

        def source(t, Y):
            cos = np.cos(np.pi * Y[..., 0])
            return (caputo_power_rule(2.0, 0.5, np.maximum(t, 1e-300))
                    + np.pi**2 * t**2) * cos

        def bc(t, Yb):
            return t**2 * np.cos(np.pi * Yb[..., 0])

        grid = grid_1d(96, 65)
        result = solve(spec, identity_field(1), source, grid, bc=bc)
        ref = np.stack([exact(t, grid.mesh()) for t in grid.time.nodes])
        err = np.abs(result.field.values - ref).max()
        assert err < 2e-2
        # the boundary lift keeps the interior equation exact
        assert result.diagnostics["equation_residual_max"] <= 1e-10
        # prescribed values are honored at every step to solver precision
        assert np.abs(result.field.values[:, 0] - ref[:, 0]).max() < 1e-12
        assert np.abs(result.field.values[:, -1] - ref[:, -1]).max() < 1e-12

    def test_nonelliptic_precondition(self):
        bad = EllipticCoeffField(
            n=1,
            a=lambda t, y: np.broadcast_to(
                np.array([[0.5]]), np.shape(y)[:-1] + (1, 1)).copy(),
            grads=lambda t, y: (np.zeros(np.shape(y)[:-1] + (1, 1)),
                                np.zeros(np.shape(y)[:-1] + (1, 1, 1))),
            delta=1.0)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        with pytest.raises(ValueError):
            solve(spec, bad,
                  lambda t, Y: np.zeros(Y.shape[:-1]), grid_1d(8, 9))

    def test_periodic_field_is_refactorized(self):
        # a(0) == a(T) for a full turn, yet a changes in between
        field = rotating_anisotropic_field(2, spin=2.0 * math.pi, shear=0.0)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(9, 9),
                             time=TimeGrid.from_interval(1.0, 16))
        result = solve(spec, field,
                       lambda t, Y: t * np.ones(Y.shape[:-1]), grid)
        assert result.diagnostics["equation_residual_max"] <= 1e-10

    @pytest.mark.parametrize("make_field, factorizations", [
        (identity_field, 1), (diagonal_variable_field, 2)])
    def test_factorization_count(self, monkeypatch, make_field,
                                 factorizations):
        calls = []

        class Counting(solver._BlockLU):
            def __init__(self, *args):
                calls.append(1)
                super().__init__(*args)

        monkeypatch.setattr(solver, "_BlockLU", Counting)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(7, 7),
                             time=TimeGrid.from_interval(1.0, 12))
        result = solve(spec, make_field(2),
                       lambda t, Y: np.ones(Y.shape[:-1]), grid)
        assert len(calls) == factorizations
        assert result.diagnostics["factorizations"] == factorizations

    @pytest.mark.parametrize("lower", [
        {}, dict(b0=lambda t, Y: -t * np.cos(Y[..., 0]))],
        ids=["no-lower", "time-dependent-b0"])
    @pytest.mark.parametrize("shape", [(33,), (9, 8)], ids=["1d", "2d"])
    def test_unflagged_constant_field_matches_identity_bitwise(self, shape,
                                                               lower):
        flagged = identity_field(len(shape))
        plain = EllipticCoeffField(n=flagged.n, a=flagged.a,
                                   grads=flagged.grads, delta=flagged.delta)
        spec = MultiTermSpec(orders=(1.5, 0.5), weights=(1.0, 0.5))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0),) * len(shape), shape=shape,
                             time=TimeGrid.from_interval(1.0, 2 * 64 + 3))
        # b0 changes at every level, so only the field without it is one run
        counts = [count for _, count in solver._level_operators(
            grid, sampler(plain.a, **lower), grid.time.nodes)]
        assert counts == ([132] if "b0" not in lower else [1] * 132)
        source = lambda t, Y: t * np.sin(np.pi * Y[..., 0])
        results = [solve(spec, field, source, grid, **lower)
                   for field in (flagged, plain)]
        assert (results[0].field.values.tobytes()
                == results[1].field.values.tobytes())
        assert (results[0].diagnostics["equation_residual_max"]
                == results[1].diagnostics["equation_residual_max"])

    def test_residual_skips_the_pinned_initial_level(self):
        # f(0) = 1 is never solved for: u_0 is pinned to zero
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(7, 7),
                             time=TimeGrid.from_interval(1.0, 12))
        result = solve(spec, diagonal_variable_field(2),
                       lambda t, Y: np.ones(Y.shape[:-1]), grid)
        assert result.diagnostics["equation_residual_max"] <= 1e-10

    def test_nan_step_reaches_the_residual_maxima(self):
        # a NaN in one level's source makes that step and every later one
        # NaN; a maximum that dropped NaN would report the earlier steps
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        source = np.zeros((9, 9))
        source[3, 4] = np.nan
        result = solve(spec, identity_field(1), source, grid_1d(8, 9))
        assert math.isnan(result.diagnostics["linear_residual_max"])
        assert math.isnan(result.diagnostics["equation_residual_max"])

    def test_time_independent_field_is_sampled_once(self):
        calls = []
        field = identity_field(1)

        def counting(t, y):
            calls.append(1)
            return field.a(t, y)

        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        grid = grid_1d(64, 17)
        result = solve(spec, dataclasses.replace(field, a=counting),
                       lambda t, Y: t * np.ones(Y.shape[:-1]), grid)
        assert result.diagnostics["equation_residual_max"] <= 1e-10
        # three for the ellipticity precondition, one for the solve and one
        # for its residual check, not one per level in each
        assert len(calls) <= 5

    def test_stale_lu_matches_per_step_factorization(self):
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(9, 9),
                             time=TimeGrid.from_interval(1.0, 24))
        field = diagonal_variable_field(2)
        times = grid.time.nodes.reshape(-1, 1, 1)
        mesh = grid.mesh()
        source = (np.sin(np.pi * mesh[..., 0]) * (1.0 + mesh[..., 1])
                  * times ** 1.5)
        result = solve(spec, field, source, grid)
        assert result.diagnostics["lu_reuses"] > 0
        assert result.diagnostics["equation_residual_max"] <= 1e-10
        reference = marched_reference(spec, field, source, grid)
        scale = np.abs(reference).max()
        assert np.abs(result.field.values - reference).max() <= 1e-11 * scale

    def test_fast_rotating_field_passes_the_cap(self):
        # a quarter of a radian per step: refinement with the last LU
        # converges too slowly, so every step refactorizes
        field = rotating_anisotropic_field(2, spin=2.0 * math.pi, shear=0.0)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(9, 9),
                             time=TimeGrid.from_interval(1.0, 24))
        result = solve(spec, field,
                       lambda t, Y: t * np.ones(Y.shape[:-1]), grid)
        diag = result.diagnostics
        assert diag["factorizations"] == 24
        assert diag["lu_reuses"] == 0
        # each step gives up after the two steps its contraction rate needs
        assert diag["refinement_steps"] == 2 * 23
        assert diag["equation_residual_max"] <= 1e-10

    # every step refactorizes at spin 2 pi and 50; at spin 2 a rule that
    # judged the rate from one ratio would also give up on converging steps
    @pytest.mark.parametrize("spin", [2.0 * math.pi, 50.0, 2.0, 0.3])
    def test_refinement_stops_when_it_cannot_converge(self, monkeypatch,
                                                      spin):
        field = rotating_anisotropic_field(2, spin=spin, shear=0.5)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(25, 25),
                             time=TimeGrid.from_interval(1.0, 32))

        def run():
            return solve(spec, field,
                         lambda t, Y: t * np.ones(Y.shape[:-1]), grid,
                         check_residual=False)

        result = run()
        monkeypatch.setattr(solver, "_refine", capped_refine)
        reference = run()
        assert (result.field.values.tobytes()
                == reference.field.values.tobytes())
        diag, ref = result.diagnostics, reference.diagnostics
        for key in ("factorizations", "lu_reuses", "condition_estimate"):
            assert diag[key] == ref[key]
        assert diag["refinement_steps"] < ref["refinement_steps"]

    @pytest.mark.parametrize("make_field, shape", [
        (identity_field, (33,)), (diagonal_variable_field, (15, 15))],
        ids=["1d", "2d"])
    def test_condition_estimate_is_exact_and_seed_free(self, monkeypatch,
                                                       make_field, shape):
        systems = []

        class Capturing(solver._BlockLU):
            def __init__(self, system, *args):
                systems.append(system)
                super().__init__(system, *args)

        monkeypatch.setattr(solver, "_BlockLU", Capturing)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0),) * len(shape), shape=shape,
                             time=TimeGrid.from_interval(1.0, 8))
        # a random start column would make the estimate follow numpy's
        # global state
        estimates = []
        state = np.random.get_state()
        try:
            for seed in (1, 2):
                np.random.seed(seed)
                result = solve(spec, make_field(len(shape)),
                               lambda t, Y: np.ones(Y.shape[:-1]), grid,
                               check_residual=False)
                estimates.append(result.diagnostics["condition_estimate"])
        finally:
            np.random.set_state(state)
        exact = np.linalg.cond(csr(systems[0]).toarray(), 1)
        assert estimates[0] == estimates[1]
        assert abs(estimates[0] - exact) <= 1e-12 * exact

    def test_maximum_principle_sanity(self):
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        grid = grid_1d(64, 33)
        result = solve(spec, identity_field(1),
                       lambda t, Y: np.ones(Y.shape[:-1]), grid,
                       check_residual=False)
        assert result.field.values.min() >= -1e-12


class TestSourceBlocks:
    @pytest.mark.parametrize("shape, n_steps, bc", [
        ((33,), 40, None),
        ((9, 8), 30, lambda t, Yb: t * Yb[..., 0]),
        # more nodes than SAMPLE_BLOCK: one level per call
        ((100, 100), 3, None)], ids=["1d", "2d-dirichlet", "one-level"])
    def test_callable_equals_its_block_samples_bitwise(self, monkeypatch,
                                                       shape, n_steps, bc):
        # 7 levels per call where a grid allows it: full blocks and a
        # partial one
        nodes = math.prod(shape)
        monkeypatch.setattr(solver, "SAMPLE_BLOCK", min(7 * nodes + 2, 8192))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0),) * len(shape), shape=shape,
                             time=TimeGrid.from_interval(1.0, n_steps))
        spec = MultiTermSpec(orders=(1.5, 0.5), weights=(1.0, 0.5))
        lower = dict(b0=lambda t, Y: -t * np.cos(Y[..., 0]))
        calls = []

        def source(t, Y):
            calls.append(t.shape)
            return np.sin(np.pi * Y[..., 0]) * np.exp(t * Y[..., -1])

        blocks = list(solver.source_blocks(source, grid))
        per_call = max(1, solver.SAMPLE_BLOCK // nodes)
        levels = n_steps + 1
        assert [start for start, _ in blocks] == list(
            range(0, levels, per_call))
        assert calls == [(min(per_call, levels - s),) + (1,) * len(shape)
                         for s in range(0, levels, per_call)]
        stack = np.concatenate([block for _, block in blocks])
        field = diagonal_variable_field(len(shape))
        results = [solve(spec, field, f, grid, bc=bc, **lower)
                   for f in (source, stack)]
        assert (results[0].field.values.tobytes()
                == results[1].field.values.tobytes())
        assert results[0].diagnostics == results[1].diagnostics
        assert results[0].diagnostics["equation_residual_max"] <= 1e-10
        # the march and the check each sample every block once more
        assert len(calls) == 3 * len(blocks)

    def test_an_array_of_the_wrong_shape_is_rejected(self):
        grid = grid_1d(8, 9)
        with pytest.raises(ValueError, match="source array shape mismatch"):
            solver.source_blocks(np.zeros((8, 9)), grid)


class TestDiscreteOperator:
    def test_solver_output_residual(self):
        spec = MultiTermSpec(orders=(1.5, 0.5), weights=(1.0, 0.5))
        _, source = manufactured_1d(spec)
        grid = grid_1d(48, 33)
        result = solve(spec, identity_field(1),
                       source, grid, check_residual=False)
        resid = apply_discrete_operator(result.field.values, spec,
                                        sampler(identity_field(1).a), grid,
                                        source=source)
        assert np.abs(resid).max() <= 1e-10

    def test_residual_linearity(self):
        spec = MultiTermSpec(orders=(0.7,), weights=(1.0,))
        grid = grid_1d(16, 17)
        rng = np.random.default_rng(3)
        u = rng.normal(size=(17, 17))
        v = rng.normal(size=(17, 17))
        u[0] = v[0] = 0.0
        field = identity_field(1)
        op = lambda w: apply_discrete_operator(w, spec, sampler(field.a),
                                               grid)
        lhs = op(2.0 * u - 3.0 * v)
        rhs = 2.0 * op(u) - 3.0 * op(v)
        assert np.abs(lhs - rhs).max() < 1e-11

    def test_level_matrix_on_a_block_equals_matvecs_bitwise(self):
        # the batched walk relies on this: CSR @ (n x B) rounds column by
        # column exactly like B matrix-vector products
        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(9, 11),
                             time=TimeGrid.from_interval(1.0, 3))
        lower = dict(b=lambda t, Y: np.stack(
            [np.cos(Y[..., 0] + t), Y[..., 1]], axis=-1))
        block = np.random.default_rng(7).normal(size=(99, 5))
        for mat, _ in solver._level_operators(
                grid, sampler(diagonal_variable_field(2).a, **lower),
                grid.time.nodes):
            product = mat @ block
            for b in range(block.shape[1]):
                assert (product[:, b].tobytes()
                        == (mat @ block[:, b]).tobytes())

    @pytest.mark.parametrize("trailing", [(), (3,)], ids=["rows", "block"])
    def test_runs_of_one_matrix_equal_per_level_products_bitwise(self,
                                                                 trailing):
        # a constant field gives one run for every level; the walk applies
        # its matrix to up to BLOCK levels in one product
        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(9, 11),
                             time=TimeGrid.from_interval(1.0, 2 * 64 + 3))
        field = constant_field(np.array([[1.0, 0.3], [0.3, 0.8]]))
        rng = np.random.default_rng(11)
        work = rng.normal(size=(132, 99) + trailing)
        start = rng.normal(size=(132, 63) + trailing)
        walked = solver._spatial_walk(grid, sampler(field.a), work,
                                      start.copy())
        ((mat, count),) = solver._level_operators(
            grid, sampler(field.a), grid.time.nodes)
        assert count == 132
        for k in range(count):
            assert (walked[k].tobytes()
                    == (start[k] + mat @ work[k]).tobytes())

    def test_walked_spatial_part_is_bitwise_the_own_walk(self):
        spec = MultiTermSpec(orders=(1.5, 0.5), weights=(1.0, 0.5))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(7, 8),
                             time=TimeGrid.from_interval(1.0, 12))
        field = diagonal_variable_field(2)
        lower = dict(b0=lambda t, Y: np.sin(Y[..., 0] * t))
        batch = np.random.default_rng(2).normal(size=(13, 7, 8, 3))
        # one walk over the levels for the whole batch
        block = batch.reshape(13, -1, 3)
        terms = sampler(field.a, **lower)
        walked = solver._spatial_walk(grid, terms, block,
                                      np.zeros((13, 30, 3)))
        for b in range(3):
            own = apply_discrete_operator(batch[..., b], spec, terms, grid)
            given = apply_discrete_operator(batch[..., b], spec, terms, grid,
                                            spatial=walked[..., b])
            assert given.tobytes() == own.tobytes()


def switching_field(t_on, t_off):
    """1D field a = 0.5 on [t_on, t_off) and 1 elsewhere."""
    def a(t, y):
        t = np.asarray(t, dtype=float)
        level = np.where((t >= t_on) & (t < t_off), 0.5, 1.0)[..., None, None]
        batch = np.broadcast_shapes(t.shape, np.shape(y)[:-1])
        return np.broadcast_to(level, batch + (1, 1)).copy()

    return EllipticCoeffField(
        n=1, a=a, grads=lambda t, y: (np.zeros(np.shape(y)[:-1] + (1, 1)),
                                      np.zeros(np.shape(y)[:-1] + (1, 1, 1))),
        delta=0.5)


def per_level_runs(grid, terms, times):
    """Runs from one sample and one _spatial_matrix per level, merged while
    consecutive samples are exactly equal."""
    y_int = grid.mesh()[grid.interior()].reshape(-1, grid.ndim)
    pattern = solver._stencil_pattern(grid)
    runs = []
    for t in times:
        sampled = [None if v is None else np.asarray(v, dtype=float)
                   for v in terms(t, y_int)]
        if runs and all(s is None or np.array_equal(s, p)
                        for s, p in zip(sampled, runs[-1][2])):
            runs[-1][1] += 1
        else:
            runs.append([solver._spatial_matrix(grid, *sampled, pattern), 1,
                         sampled])
    for mat, count, _ in runs:
        yield mat, count


class TestLevelRuns:
    def test_switch_at_a_sampling_block_boundary(self, monkeypatch):
        # 128 interior nodes: 64 levels per sampling call, so level 64 (A->B)
        # opens the walk's second block and closes the solve's first
        n_steps = 130
        grid = grid_1d(n_steps, 130)
        dt = grid.time.dt
        assert solver.SAMPLE_BLOCK // 128 == 64
        field = switching_field(63.5 * dt, 99.5 * dt)
        times = grid.time.nodes
        for levels, counts in ((times, [64, 36, 31]),
                               (times[1:], [63, 36, 31])):
            runs = list(solver._level_operators(grid, sampler(field.a),
                                                levels))
            assert [count for _, count in runs] == counts
        spec = MultiTermSpec(orders=(1.5, 0.5), weights=(1.0, 0.5))
        source = lambda t, Y: t * np.sin(np.pi * Y[..., 0])
        result = solve(spec, field, source, grid)
        monkeypatch.setattr(solver, "_level_operators", per_level_runs)
        reference = solve(spec, field, source, grid)
        assert (result.field.values.tobytes()
                == reference.field.values.tobytes())
        assert result.diagnostics == reference.diagnostics
        assert result.diagnostics["equation_residual_max"] <= 1e-10

    @pytest.mark.parametrize("shape, n_steps", [
        ((130,), 130), ((9, 9), 400), ((93, 93), 3)],
        ids=["1d", "2d", "one-level-per-call"])
    def test_sampler_is_called_once_per_block_of_levels(self, shape,
                                                        n_steps):
        # a block is max(1, SAMPLE_BLOCK // interior nodes) levels, and all
        # of a block's coefficients come from one call
        grid = SpaceTimeGrid(bounds=((0.0, 1.0),) * len(shape), shape=shape,
                             time=TimeGrid.from_interval(1.0, n_steps))
        n_int = math.prod(s - 2 for s in shape)
        per_call = max(1, solver.SAMPLE_BLOCK // n_int)
        lower = dict(
            b=lambda t, Y: np.cos(Y + np.asarray(t)[..., None]),
            b0=lambda t, Y: np.sin(Y[..., 0] * t))
        terms = sampler(diagonal_variable_field(len(shape)).a, **lower)
        calls = []

        def counting(t, y):
            calls.append(len(t))
            return terms(t, y)

        for times in (grid.time.nodes, grid.time.nodes[1:]):
            calls.clear()
            runs = list(solver._level_operators(grid, counting, times))
            assert sum(count for _, count in runs) == len(times)
            assert calls == [min(per_call, len(times) - s) * n_int
                             for s in range(0, len(times), per_call)]

    def test_time_constant_terms_assemble_once_per_walk(self, monkeypatch):
        identity = identity_field(2)
        field = EllipticCoeffField(n=2, a=identity.a, grads=identity.grads,
                                   delta=1.0)
        lower = dict(b0=lambda t, Y: -0.5 * np.cos(Y[..., 0]))
        # 49 interior nodes: 167 levels per sampling call, three calls
        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(9, 9),
                             time=TimeGrid.from_interval(1.0, 400))
        calls = []
        assemble = solver._spatial_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(solver, "_spatial_matrix", counting)
        work = np.random.default_rng(1).normal(size=(401, 81))
        terms = sampler(field.a, **lower)
        solver._spatial_walk(grid, terms, work, np.zeros((401, 49)))
        assert len(calls) == 1
        ((_, count),) = solver._level_operators(grid, terms, grid.time.nodes)
        assert count == 401

    @pytest.mark.parametrize("make_field, shape, n_steps", [
        (lambda: identity_field(1), (33,), 200),
        (lambda: diagonal_variable_field(2), (9, 9), 400),
        (lambda: rotating_anisotropic_field(2, spin=0.0), (9, 9), 400),
        (lambda: switching_field(0.3, 0.6), (17,), 1000),
        # more interior nodes than SAMPLE_BLOCK: one level per call
        (lambda: diagonal_variable_field(2), (93, 93), 3),
    ], ids=["identity", "diagonal", "rotating-still", "switching", "large"])
    def test_run_counts_sum_to_the_levels(self, make_field, shape, n_steps):
        grid = SpaceTimeGrid(bounds=((0.0, 1.0),) * len(shape), shape=shape,
                             time=TimeGrid.from_interval(1.0, n_steps))
        lower = dict(
            b=lambda t, Y: np.cos(Y + np.asarray(t)[..., None]))
        for times in (grid.time.nodes, grid.time.nodes[1:]):
            for term in ({}, lower):
                counts = [count for _, count in solver._level_operators(
                    grid, sampler(make_field().a, **term), times)]
                assert sum(counts) == len(times)
                assert min(counts) >= 1


def coo_spatial_matrix(grid, a, bvec, bzero):
    """-(L + l1) assembled term by term as COO triplets, summed by tocsr."""
    nd = grid.ndim
    shape = grid.shape
    h = grid.spacing
    strides = np.array([int(np.prod(shape[d + 1:])) for d in range(nd)])
    rows_lin = np.flatnonzero(solver._interior_flags(grid))
    row_ids = np.arange(len(rows_lin))
    rows, cols, vals = [], [], []

    def add(offsets, weight):
        rows.append(row_ids)
        cols.append(rows_lin + offsets @ strides)
        vals.append(weight)

    center = np.zeros(len(rows_lin))
    for d in range(nd):
        off = np.zeros(nd, dtype=int)
        off[d] = 1
        w2 = a[:, d, d] / h[d] ** 2
        add(off, -w2)
        add(-off, -w2)
        center += 2.0 * w2
        if bvec is not None:
            w1 = bvec[:, d] / (2.0 * h[d])
            add(off, -w1)
            add(-off, w1)
    for d1 in range(nd):
        for d2 in range(d1 + 1, nd):
            w = 2.0 * a[:, d1, d2] / (4.0 * h[d1] * h[d2])
            for s1 in (1, -1):
                for s2 in (1, -1):
                    off = np.zeros(nd, dtype=int)
                    off[d1], off[d2] = s1, s2
                    add(off, -w * s1 * s2)
    if bzero is not None:
        center -= bzero
    add(np.zeros(nd, dtype=int), center)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(rows_lin), int(np.prod(shape)))).tocsr()


class TestGrid:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_a_subnormal_spacing_square_is_named(self, axis):
        # h = 1e-161: h*h = 1e-322 is positive, but a / h**2 overflows
        bounds = [(0.0, 1.0), (0.0, 1.0)]
        bounds[axis] = (0.0, 8e-161)
        with pytest.raises(ValueError,
                           match=rf"on axis {axis}: 1/\(h\*h\) = inf"):
            SpaceTimeGrid(bounds=tuple(bounds), shape=(9, 9),
                          time=TimeGrid.from_interval(1.0, 4))


class TestAssembly:
    @pytest.mark.parametrize("with_b0", [False, True], ids=["", "b0"])
    @pytest.mark.parametrize("with_b", [False, True], ids=["", "b"])
    @pytest.mark.parametrize("shape", [(9,), (7, 8), (5, 6, 7)],
                             ids=["1d", "2d", "3d"])
    def test_pattern_assembly_equals_coo_reference(self, shape, with_b,
                                                   with_b0):
        rng = np.random.default_rng(len(shape) + 3 * with_b + 7 * with_b0)
        # spacing 1/8, so b = 16 a makes b/(2h) equal a/h^2 exactly
        grid = SpaceTimeGrid(bounds=tuple((0.0, (s - 1) / 8.0)
                                          for s in shape),
                             shape=shape, time=TimeGrid.from_interval(1.0, 4))
        n_int, n = math.prod(s - 2 for s in shape), len(shape)
        # exact zeros of both signs, stored and from cancelling addends
        a = rng.normal(size=(n_int, n, n))
        a[rng.random(a.shape) < 0.3] = 0.0
        a[::4] *= -0.0
        b = rng.normal(size=(n_int, n)) if with_b else None
        if with_b:
            b[rng.random(b.shape) < 0.3] = 0.0
            b[1::4] = 16.0 * a[1::4, range(n), range(n)]
        b0 = np.where(rng.random(n_int) < 0.3, 0.0,
                      rng.normal(size=n_int)) if with_b0 else None
        got = csr(solver._spatial_matrix(grid, a, b, b0,
                                         solver._stencil_pattern(grid)))
        want = coo_spatial_matrix(grid, a, b, b0)
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            mine, theirs = getattr(got, name), getattr(want, name)
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("shape", [(9,), (7, 8), (5, 6, 7)],
                             ids=["1d", "2d", "3d"])
    def test_stencil_product_is_the_csr_product_bitwise(self, shape):
        # the walk's numpy product adds slot by slot in column order from
        # zeros, as scipy's csr_matvec and csr_matvecs do per element
        rng = np.random.default_rng(len(shape))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0),) * len(shape), shape=shape,
                             time=TimeGrid.from_interval(1.0, 4))
        n_int, n = math.prod(s - 2 for s in shape), len(shape)
        nodes = math.prod(shape)
        a = rng.normal(size=(n_int, n, n))
        a[::4] *= -0.0
        b = rng.normal(size=(n_int, n))
        b0 = rng.normal(size=n_int)
        # magnitudes over 16 decades and zeros of both signs
        block = (rng.normal(size=(nodes, 4))
                 * 10.0 ** rng.integers(-8, 8, size=(nodes, 4)))
        block[::5] = -0.0
        block[1::7, 1] = 0.0
        # a = -0.0 stores +0.0 in 1-D, and a sum of -0.0 products is +0.0
        zero = np.full((n_int, n, n), -0.0)
        pattern = solver._stencil_pattern(grid)
        for mat in (solver._spatial_matrix(grid, a, b, b0, pattern),
                    solver._spatial_matrix(grid, zero, None, None, pattern)):
            oracle = csr(mat)
            for x in (block, block[:, 0], block[:, 1].copy(), block[:, :1],
                      np.full(nodes, -0.0)):
                assert (mat @ x).shape == (oracle @ x).shape
                assert (mat @ x).tobytes() == (oracle @ x).tobytes()

    def test_pattern_is_built_once_per_walk(self, monkeypatch):
        grid = SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(9, 9),
                             time=TimeGrid.from_interval(1.0, 400))
        lower = dict(
            b=lambda t, Y: np.cos(Y + np.asarray(t)[..., None]))
        built, assembled = [], []
        pattern, assemble = solver._stencil_pattern, solver._spatial_matrix

        def counting_pattern(*args):
            built.append(1)
            return pattern(*args)

        def counting_assembly(*args, **kwargs):
            assembled.append(kwargs.get("pattern"))
            return assemble(*args, **kwargs)

        monkeypatch.setattr(solver, "_stencil_pattern", counting_pattern)
        monkeypatch.setattr(solver, "_spatial_matrix", counting_assembly)
        work = np.random.default_rng(2).normal(size=(401, 81))
        solver._spatial_walk(grid, sampler(diagonal_variable_field(2).a,
                                           **lower), work, np.zeros((401, 49)))
        # the field and b change at every level: 401 runs, one pattern
        assert len(assembled) == 401
        assert len(built) == 1
        assert all(p is assembled[0] for p in assembled)


class TestBlockFactorization:
    @pytest.mark.parametrize("make_field, shape", [
        (lambda: identity_field(1), (129,)),
        # more interior nodes than DENSE_1D: chunks of the first axis
        (lambda: identity_field(1), (301,)),
        (lambda: diagonal_variable_field(2), (17, 15)),
        (lambda: rotating_anisotropic_field(2, spin=1.0, shear=0.5),
         (16, 13)),
        (lambda: diagonal_variable_field(3), (6, 7, 8)),
    ], ids=["1d", "1d-chunks", "2d-diagonal", "2d-anisotropic", "3d"])
    def test_block_solve_matches_superlu(self, make_field, shape):
        grid = SpaceTimeGrid(bounds=((0.0, 1.0),) * len(shape), shape=shape,
                             time=TimeGrid.from_interval(1.0, 4))
        # a first-order term makes the system unsymmetric
        lower = dict(b=lambda t, Y: np.cos(3.0 * Y),
                     b0=lambda t, Y: np.sin(Y[..., 0]))
        stencil, _ = next(solver._level_operators(
            grid, sampler(make_field().a, **lower), grid.time.nodes[1:]))
        inside = solver._interior_flags(grid)
        system = solver._interior_system(stencil, inside, 2.5)
        oracle = (2.5 * sp.eye(int(inside.sum()))
                  + csr(stencil)[:, inside]).tocsc()
        assert abs(csr(system) - oracle).max() == 0.0
        lu = solver._BlockLU(system, *solver._blocking(grid))
        reference = spla.splu(oracle)
        rhs = np.random.default_rng(len(shape)).normal(size=(oracle.shape[0],
                                                             3))
        for b in (rhs, rhs[:, 0]):
            for trans in (False, True):
                want = reference.solve(b, trans="T" if trans else "N")
                got = lu.solve(b, trans=trans)
                assert got.shape == want.shape
                assert (np.abs(got - want).max()
                        <= 1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("centre, neighbour, block", [
        # S_1 = I - I I^-1 I = 0 exactly
        (1.0, 1.0, 1),
        # S_0 = 1e-310 I, whose inverse overflows
        (1e-310, 0.0, 0)], ids=["singular", "overflow"])
    def test_guard_names_the_failing_schur_block(self, centre, neighbour,
                                                 block):
        grid = SpaceTimeGrid(bounds=((0.0, 1.0),) * 2, shape=(5, 5),
                             time=TimeGrid.from_interval(1.0, 4))
        cols, slot = solver._stencil_pattern(grid)
        values = np.zeros(cols.shape, order="F")
        values[:, slot[0]] = centre
        values[:, slot[5]] = values[:, slot[-5]] = neighbour
        stencil = solver._StencilMatrix(values=values, cols=cols, n_nodes=25)
        system = solver._interior_system(
            stencil, solver._interior_flags(grid), 0.0)
        with pytest.raises(ConvergenceError, match=f"Schur block {block} "):
            solver._BlockLU(system, *solver._blocking(grid))


def run_solve(tmp_path, shape, tag):
    """``solve`` through the CLI on the unit cube, 4 steps to t = 1."""
    ndim = len(shape)
    config = {"spec": {"orders": [0.5], "weights": [1.0]},
              "coeffs": {"preset": "identity", "n": ndim},
              "grid": {"bounds": [[0.0, 1.0]] * ndim, "shape": list(shape),
                       "n_steps": 4, "t_final": 1.0}}
    cfg = tmp_path / f"{tag}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / tag
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestSerialization:
    def test_round_trip(self, tmp_path, monkeypatch):
        # solution.npy holds the solved values bitwise, in the grid's shape
        solved = []

        def recording(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(solver, "solve", recording)
        for shape in ((9,), (5, 7)):
            out = run_solve(tmp_path, shape, f"run{len(shape)}")
            values = np.load(out / "solution.npy", allow_pickle=False)
            assert values.shape == (5,) + shape
            assert values.dtype == "<f8"
            assert np.array_equal(values.view(np.uint64),
                                  solved[-1].field.values.view(np.uint64))
            meta = json.loads((out / "solution.json").read_text())
            assert list(meta) == ["n_space", "shape", "n_steps", "dt",
                                  "bounds", "bc", "source"]
            assert meta == {"n_space": len(shape), "shape": list(shape),
                            "n_steps": 4, "dt": 0.25,
                            "bounds": [[0.0, 1.0]] * len(shape),
                            "bc": {"type": "dirichlet", "homogeneous": True},
                            "source": {"kind": "callable"}}

    def test_time_slice_csv(self, tmp_path):
        # solve's final_slice.csv: mesh and last level, the bytes of
        # np.savetxt with "%.17g"
        for shape in ((9,), (5, 7)):
            ndim = len(shape)
            out = run_solve(tmp_path, shape, f"out{ndim}")
            meta = json.loads((out / "solution.json").read_text())
            grid = SpaceTimeGrid(
                bounds=meta["bounds"], shape=meta["shape"],
                time=TimeGrid(dt=meta["dt"], n_steps=meta["n_steps"]))
            values = np.load(out / "solution.npy")
            header = ",".join([f"y{i + 1}" for i in range(ndim)] + ["u"])
            ref = tmp_path / f"ref{ndim}.csv"
            np.savetxt(ref, np.column_stack(
                [grid.mesh().reshape(-1, ndim), values[-1].reshape(-1)]),
                fmt="%.17g", delimiter=",", header=header, comments="")
            slice_csv = (out / "final_slice.csv").read_bytes()
            assert slice_csv == ref.read_bytes()
            lines = slice_csv.decode().splitlines()
            assert lines[0] == header
            assert len(lines) == 1 + math.prod(shape)


class TestUcp:
    WIDTH = 0.08

    def run(self, centers):
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        return ucp_experiment(spec, identity_field(1), grid_1d(48, 65),
                              omega=(0.05, 0.25), t_prime=0.5,
                              source_centers=centers, source_width=self.WIDTH)

    def test_window_norm_stays_above_floor(self):
        rows = self.run((0.5, 0.7, 0.9))
        ratios = [row[4] for row in rows]
        assert all(r > 1e-13 for r in ratios)
        assert min(ratios) > 1e-13
        # farther sources leak less into the window, but never nothing
        assert ratios[0] > ratios[1] > ratios[2] > 0.0

    def test_source_inside_window_rejected(self):
        with pytest.raises(ValueError):
            self.run((0.1,))

    @pytest.mark.parametrize("center", [0.3, 0.0], ids=["right", "left"])
    def test_source_whose_bump_meets_the_window_rejected(self, center):
        # centre 0.3's bump covers (0.22, 0.38), which meets (0.05, 0.25)
        # though the centre lies outside it; checked by its centre alone,
        # the source ran and its row read ratio 0.076
        with pytest.raises(ValueError, match=f"source at {center} of "
                           "half-width 0.08 meets the window"):
            self.run((0.6, center))

    def test_source_off_the_grid_rejected(self):
        # a centre at 1.5 leaves the bump zero on every node of [0, 1]; the
        # ratio 0/0 would otherwise be reported as a ratio of 0
        with pytest.raises(ValueError, match="1.5"):
            self.run((0.5, 1.5))

    def test_sources_are_the_per_level_stack(self, monkeypatch):
        # each centre's source is a callable; sampled in blocks of 7 levels
        # (and a partial one) it is the scalar per-level stack, bitwise
        sources = []
        original = solver.solve

        def recording(spec, coeffs, source, **kwargs):
            sources.append(source)
            return original(spec, coeffs, source, **kwargs)

        monkeypatch.setattr(solver, "solve", recording)
        centers = (0.5, 0.7, 0.9)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        for grid in (grid_1d(48, 65),
                     SpaceTimeGrid(bounds=((0.0, 1.0), (0.0, 0.5)),
                                   shape=(33, 9),
                                   time=TimeGrid.from_interval(2.0, 24))):
            sources.clear()
            monkeypatch.setattr(solver, "SAMPLE_BLOCK",
                                7 * math.prod(grid.shape) + 2)
            ucp_experiment(spec, identity_field(grid.ndim), grid,
                           omega=(0.05, 0.25), t_prime=0.5,
                           source_centers=centers, source_width=self.WIDTH)
            assert len(sources) == len(centers)
            mesh = grid.mesh()
            for center, source in zip(centers, sources):
                def f(t, Y):
                    r = (Y[..., 0] - center) / self.WIDTH
                    return (min(t / grid.time.t_final, 1.0) ** 2
                            * np.clip(1.0 - r**2, 0.0, None) ** 4)
                expected = np.stack([f(t, mesh) for t in grid.time.nodes])
                blocks = list(solver.source_blocks(source, grid))
                assert len(blocks) > 1
                sampled = np.concatenate([block for _, block in blocks])
                assert sampled.tobytes() == expected.tobytes()


class TestMemory:
    def test_solve_with_its_check_holds_few_level_arrays(self):
        # the solution, the march's series while stepping, and during the
        # check the residual and one order's term, about 3.4 level arrays
        # with the temporaries; the source is the input.  One more level
        # array, as a copy of the source or a march kept through the
        # check, crosses 4
        spec = MultiTermSpec(orders=(0.5, 0.25), weights=(1.0, 0.5))
        grid = grid_1d(2048, 129)
        _, source = manufactured_1d(spec)
        mesh = grid.mesh()
        f = np.stack([source(t, mesh) for t in grid.time.nodes])
        field = identity_field(1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = solve(spec, field, f, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.diagnostics["equation_residual_max"] <= 1e-10
        assert peak - base < 4.0 * f.nbytes

    def test_callable_source_is_sampled_a_block_at_a_time(self):
        # as above with the source sampled by solve: about 2.8 level
        # arrays, since no level array of the source is held; a source
        # stack built in the march or the check crosses 3
        spec = MultiTermSpec(orders=(0.5, 0.25), weights=(1.0, 0.5))
        grid = grid_1d(2048, 129)
        _, source = manufactured_1d(spec)
        level = (grid.time.n_steps + 1) * 129 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = solve(spec, identity_field(1), source, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.diagnostics["equation_residual_max"] <= 1e-10
        assert peak - base < 3.0 * level

    def test_refactorizing_solve_holds_one_factor(self, monkeypatch):
        # on 79 x 79 interior nodes the factor is about 25 times the
        # solution, and every step of this field factorizes its own
        # matrix: a stale factor kept while the next one is built adds a
        # whole factor to the peak
        factors = []

        class Measured(solver._BlockLU):
            def __init__(self, *args):
                super().__init__(*args)
                factors.append(sum(a.nbytes for a in
                                   self.inv + self.lower + self.upper))

        monkeypatch.setattr(solver, "_BlockLU", Measured)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        grid = SpaceTimeGrid(bounds=((0.0, 1.0),) * 2, shape=(81, 81),
                             time=TimeGrid.from_interval(1.0, 8))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = solve(spec, diagonal_variable_field(2),
                           lambda t, Y: t * np.ones(Y.shape[:-1]), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.diagnostics["factorizations"] >= 2
        assert result.diagnostics["equation_residual_max"] <= 1e-10
        # the solution and one more level array
        levels = 2 * result.field.values.nbytes
        assert peak - base < 1.5 * factors[0] + levels
