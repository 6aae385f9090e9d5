import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from fraclab import (ConvergenceError, MultiTermSpec, TimeGrid, caputo_l1,
                     caputo_oracle, caputo_power_rule, multiterm_l1,
                     rl_integral_l1)
from fraclab import fractional
from fraclab.fractional import (BLOCK, FFT_LEVELS, L1March, _caputo_l1_final,
                                _convolved_blocks, _gamma, l1_weights,
                                multiterm_lowered)

SQRT_PI = math.sqrt(math.pi)


def grid(n, t_final=1.0):
    return TimeGrid.from_interval(t_final, n)


def ulps_from_mpmath(x):
    """|_gamma(x) - Gamma(x)| in units of the last place of Gamma(x),
    Gamma from mpmath at 40 digits."""
    with mpmath.workdps(40):
        exact = mpmath.gamma(mpmath.mpf(x))
        return float(abs(mpmath.mpf(_gamma(x)) - exact)
                     / math.ulp(float(exact)))


class TestGamma:
    def test_within_8_ulp_at_every_argument_the_module_passes(self,
                                                              monkeypatch):
        seen = []

        def recording(x):
            seen.append(x)
            return _gamma(x)

        monkeypatch.setattr(fractional, "_gamma", recording)
        g = grid(8)
        u = g.nodes ** 2
        orders = [0.25, 0.5, 0.75, 1.25, 1.5, 1.75,
                  *np.linspace(0.01, 0.99, 50), *np.linspace(1.01, 1.99, 50)]
        for alpha in orders:
            spec = MultiTermSpec(orders=(alpha,), weights=(1.0,))
            caputo_l1(u, alpha, g.dt)                    # 2 - alpha
            _caputo_l1_final(u, alpha, g.dt)
            L1March(spec, g.dt, 8, 1)                    # 2 or 3 - alpha
            multiterm_lowered(u, spec, g.dt, 1.0)        # mu = 1 or 2 - alpha
            for p in (1.0, 2.0, 2.5):                    # p + 1, p + 1 - alpha
                caputo_power_rule(p, alpha, 1.0)
        for alpha in (0.5, 1.5):                         # k - alpha
            caputo_oracle(lambda t, a=alpha: 2.0 * t if a < 1.0 else 2.0,
                          alpha, 1.0)
        assert len(set(seen)) >= 200
        assert max(ulps_from_mpmath(x) for x in set(seen)) <= 8.0

    def test_within_8_ulp_on_a_dense_grid(self):
        x = np.concatenate([np.geomspace(1e-3, 171.0, 4001),
                            np.linspace(1e-3, 171.0, 4001)])
        assert max(ulps_from_mpmath(v) for v in x.tolist()) <= 8.0

    @pytest.mark.parametrize("x", [171.7, 5e-324])
    def test_overflow_is_inf(self, x):
        assert _gamma(x) == math.inf

    @pytest.mark.parametrize("x", [0.0, -0.0, -0.5, -1.0, -40.0, math.nan])
    def test_nonpositive_argument_raises(self, x):
        with pytest.raises(ValueError, match="positive"):
            _gamma(x)


class TestTimeGrid:
    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_from_interval_names_a_step_count_below_one(self, n_steps):
        # 0 divided t_final by zero before the step count was checked
        for make in (lambda: TimeGrid.from_interval(1.0, n_steps),
                     lambda: TimeGrid(dt=0.1, n_steps=n_steps)):
            with pytest.raises(ValueError) as info:
                make()
            assert str(info.value) == "n_steps must be a positive integer"


class TestNonFiniteGuards:
    # NaN fails every comparison, so a guard written x <= 0 let it through
    @pytest.mark.parametrize("make, message", [
        (lambda: TimeGrid(dt=math.nan, n_steps=2), "dt must be positive"),
        (lambda: TimeGrid(dt=math.inf, n_steps=2), "dt must be positive"),
        (lambda: TimeGrid.from_interval(math.nan, 4), "dt must be positive"),
        (lambda: TimeGrid.from_interval(math.inf, 4), "dt must be positive"),
        (lambda: caputo_oracle(lambda t: 1.0, 0.5, math.nan),
         "evaluation time must be positive"),
    ], ids=["dt-nan", "dt-inf", "interval-nan", "interval-inf", "oracle-t"])
    def test_nan_and_inf_fail_the_positivity_guards(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestOracle:
    def test_constant_vanishes(self):
        val = caputo_oracle(lambda t: 0.0, 0.5, 1.0)
        assert val == 0.0

    def test_linear_power_rule(self):
        # d^0.5 t at t=1 equals 2/sqrt(pi)
        val = caputo_oracle(lambda t: 1.0, 0.5, 1.0, tol=1e-12)
        assert abs(val - 2.0 / SQRT_PI) < 1e-10

    def test_quadratic_upper_branch(self):
        # d^1.5 t^2 at t=1 equals 4/sqrt(pi), second-derivative kernel
        val = caputo_oracle(lambda t: 2.0, 1.5, 1.0, tol=1e-12)
        assert abs(val - 4.0 / SQRT_PI) < 1e-10

    @pytest.mark.parametrize("p,alpha,t", [(1.5, 0.3, 0.7), (2.5, 0.8, 1.3),
                                           (2.5, 1.7, 0.9), (3.0, 1.2, 2.0)])
    def test_against_power_rule(self, p, alpha, t):
        k = 1 if alpha < 1 else 2
        if k == 1:
            deriv = lambda s: p * s ** (p - 1.0)
        else:
            deriv = lambda s: p * (p - 1.0) * s ** (p - 2.0)
        val = caputo_oracle(deriv, alpha, t, tol=1e-11)
        ref = caputo_power_rule(p, alpha, t)
        assert abs(val - ref) / abs(ref) < 1e-9

    @pytest.mark.parametrize("alpha", [1.0, 0.0, 2.0, -0.3, 2.5])
    def test_domain_errors(self, alpha):
        with pytest.raises(ValueError):
            caputo_oracle(lambda t: 1.0, alpha, 1.0)

    def test_nonconvergence_raises(self):
        with pytest.raises(ConvergenceError):
            # u = sin(200 / (t + 1e-3))
            caputo_oracle(lambda t: -200.0 * np.cos(200.0 / (t + 1e-3))
                          / (t + 1e-3) ** 2,
                          0.5, 1.0, tol=1e-12, max_subdivisions=2)

    @pytest.mark.parametrize("p", [1.2, 0.8])
    def test_singular_derivative_raises(self, p):
        # u'' = p (p - 1) s^(p - 2) is infinite at s = 0, where the
        # adaptive rule bisects; its value and estimate come out infinite
        with np.errstate(divide="ignore"):
            with pytest.raises(ConvergenceError, match="not finite"):
                caputo_oracle(lambda s: p * (p - 1.0) * s ** (p - 2.0),
                              1.5, 1.0)


class TestQuadrature:
    """The Gauss-Kronrod 21 / Gauss 10 pair behind ``caputo_oracle``."""

    @staticmethod
    def rule(weights):
        """Nodes and weights on [-1, 1] of the rule given on [0, 1)."""
        nodes = np.concatenate([-fractional._XGK, fractional._XGK[-2::-1]])
        return nodes, np.concatenate([weights, weights[-2::-1]])

    @pytest.mark.parametrize("weights, degree", [("_WGK", 31), ("_WG", 19)])
    def test_exact_up_to_its_degree(self, weights, degree):
        # a mistyped digit in a node or a weight breaks one of these
        nodes, w = self.rule(getattr(fractional, weights))
        for d in range(degree + 1):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(w @ nodes**d - exact) <= 4e-16, d
        # and the next degree is out of reach, so the degree is the rule's
        assert abs(w @ nodes**(degree + 1) - 2.0 / (degree + 2)) > 1e-13

    def test_gauss_part_is_numpy_legendre(self):
        nodes, w = self.rule(fractional._WG)
        order = np.argsort(nodes)
        nodes, w = nodes[order][w[order] > 0], w[order][w[order] > 0]
        x, wx = np.polynomial.legendre.leggauss(10)
        assert np.allclose(nodes, x, rtol=0, atol=1e-15)
        assert np.allclose(w, wx, rtol=0, atol=1e-15)

    def test_adaptive_stops_at_tolerance(self):
        # sqrt has an endpoint singularity: the estimate must be met by
        # bisection, and the value must be at least as good as the estimate
        value, err = fractional._adaptive_gk21(np.sqrt, 1e-10, 200)
        assert err <= 1e-10
        assert abs(value - 2.0 / 3.0) <= err

    def test_subdivision_budget_is_kept(self):
        calls = []

        def f(v):
            calls.append(v.shape)
            return np.sqrt(v)

        _, err = fractional._adaptive_gk21(f, 1e-15, 5)
        assert err > 1e-15
        # one rule on [0, 1], then one call per bisection, 4 of them
        assert calls == [(1, 21)] + [(2, 21)] * 4


class TestL1:
    def test_zero_series(self):
        g = grid(64)
        out = caputo_l1(np.zeros(65), 0.7, g.dt)
        assert np.all(out == 0.0)

    def test_linear_series_power_rule(self):
        g = grid(1024)
        out = caputo_l1(g.nodes, 0.5, g.dt)
        ref = 2.0 * math.sqrt(1.0 / math.pi)
        assert abs(out[-1] - ref) / ref < 1e-2

    def test_quadratic_upper_branch(self):
        g = grid(4096)
        out = caputo_l1(g.nodes**2, 1.5, g.dt)
        ref = 4.0 / SQRT_PI
        assert abs(out[-1] - ref) / ref < 5e-2

    def test_linearity_machine_precision(self):
        g = grid(128)
        rng = np.random.default_rng(3)
        u = rng.normal(size=129)
        v = rng.normal(size=129)
        u[0] = v[0] = 0.0
        a, b = 1.7, -0.4
        lhs = caputo_l1(a * u + b * v, 0.6, g.dt)
        rhs = a * caputo_l1(u, 0.6, g.dt) + b * caputo_l1(v, 0.6, g.dt)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_constant_annihilation(self):
        g = grid(80)
        series = np.full(81, 3.25) - 3.25
        for alpha in (0.4, 1.0, 1.6):
            out = caputo_l1(series, alpha, g.dt)
            assert np.max(np.abs(out)) == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5])
    def test_convergence_order_lower_branch(self, alpha, p):
        errs = []
        sizes = [256, 512, 1024]
        for n in sizes:
            g = grid(n)
            out = caputo_l1(g.nodes**p, alpha, g.dt)
            ref = caputo_power_rule(p, alpha, 1.0)
            errs.append(abs(out[-1] - ref) / abs(ref))
        if errs[-1] < 1e-13:   # linear data is reproduced exactly
            return
        order = np.log2(errs[0] / errs[-1]) / 2.0
        assert order >= 2.0 - alpha - 0.2

    @pytest.mark.parametrize("alpha", [0.4, 0.8, 1.3, 1.7])
    def test_two_routes_agree_off_monomials(self, alpha):
        # the quadrature route and the L1 route share no code; on a
        # transcendental function their agreement is the real cross-check.
        # u = 1 - cos(t) is compatible with the zero extension (both u and
        # u' vanish at 0), which the upper-branch reduction assumes.
        u = lambda t: 1.0 - np.cos(t)
        deriv = np.sin if alpha < 1 else np.cos
        ref = caputo_oracle(deriv, alpha, 1.0, tol=1e-12)
        g = grid(2048)
        val = caputo_l1(u(g.nodes), alpha, g.dt)[-1]
        assert abs(val - ref) / abs(ref) < 5e-3

    # the ids keep each case named by its order alone
    @pytest.mark.parametrize("alpha,order", [
        (0.25, 1.75), (0.5, 1.5), (0.75, 1.25),
        (1.25, 1.0), (1.5, 1.0), (1.75, 1.0)],
        ids=["0.25", "0.5", "0.75", "1.25", "1.5", "1.75"])
    def test_observed_order_lower_branch(self, alpha, order):
        # u = t^2 at t = 1: the L1 scheme's order is 2 - alpha below 1.  Above
        # 1 it is L1 of order alpha - 1 on a backward difference, whose first
        # order caps the scheme at 1; the L1-2 scheme of Sun & Wu reaches
        # 3 - alpha there and is the target of the upper branch's next step.
        ref = caputo_power_rule(2.0, alpha, 1.0)
        errs = []
        for n in (512, 1024, 2048, 4096):
            g = grid(n)
            errs.append(abs(caputo_l1(g.nodes**2, alpha, g.dt)[-1] - ref))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - order) <= 0.05)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 1.75])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 4096])
    def test_final_node_is_the_last_entry_bitwise(self, alpha, n):
        g = grid(n)
        t = g.nodes
        for u in (t**2, np.sin(3.0 * t), 1.0 - np.cos(t) + t**1.5):
            final = _caputo_l1_final(u, alpha, g.dt)
            assert (np.float64(final).tobytes()
                    == caputo_l1(u, alpha, g.dt)[-1].tobytes())

    def test_order_sweep_tracks_power_rule(self):
        g = grid(2048)
        u = g.nodes**2
        for alpha in (0.25, 0.5, 0.75, 1.25, 1.5, 1.75):
            ref = caputo_power_rule(2.0, alpha, 1.0)
            val = caputo_l1(u, alpha, g.dt)[-1]
            assert abs(val - ref) / abs(ref) < 0.05


class TestMultiTerm:
    def test_single_term_reduces(self):
        g = grid(200)
        series = g.nodes**2
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        a = multiterm_l1(series, spec, g.dt)
        b = caputo_l1(series, 0.5, g.dt)
        assert np.array_equal(a, b)

    def test_mixed_orders_power_rule(self):
        # orders (1.0, 0.5) with weights (1, 2) on t^2 at t=1:
        # Gamma(3)/Gamma(2) + 2 Gamma(3)/Gamma(2.5) = 5.009011112254701
        g = grid(4096)
        spec = MultiTermSpec(orders=(1.0, 0.5), weights=(1.0, 2.0))
        val = multiterm_l1(g.nodes**2, spec, g.dt)[-1]
        assert abs(val - 5.009011112254701) < 2e-3

    def test_scaling(self):
        g = grid(64)
        series = g.nodes**1.5
        spec = MultiTermSpec(orders=(0.9, 0.4), weights=(1.0, 0.5))
        one = multiterm_l1(series, spec, g.dt)
        three = multiterm_l1(3.0 * series, spec, g.dt)
        assert np.allclose(three, 3.0 * one, rtol=1e-14, atol=1e-14)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MultiTermSpec(orders=(0.5, 0.7), weights=(1.0, 1.0))  # increasing
        with pytest.raises(ValueError):
            MultiTermSpec(orders=(2.0,), weights=(1.0,))          # out of range
        with pytest.raises(ValueError):
            MultiTermSpec(orders=(0.5,), weights=(2.0,))          # leading weight
        with pytest.raises(ValueError):
            MultiTermSpec(orders=(1.5, 0.5), weights=(1.0, -1.0))


class TestFractionalIntegral:
    def test_order_one_is_trapezoid(self):
        g = grid(50)
        w = np.sin(g.nodes)
        out = rl_integral_l1(w, 1.0, g.dt)
        ref = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) / 2.0 * g.dt)])
        assert np.allclose(out, ref, rtol=1e-13, atol=1e-15)

    def test_linear_data_exact(self):
        # product integration is exact on linear interpolants
        g = grid(64)
        w = 2.0 * g.nodes
        mu = 0.5
        out = rl_integral_l1(w, mu, g.dt)
        ref = (2.0 * g.nodes ** (1.0 + mu) * math.gamma(2.0)
               / math.gamma(2.0 + mu))
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-14)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            rl_integral_l1(np.zeros(5), 1.5, 0.1)


def per_column_convolve(kernel, x):
    """Reference: one np.convolve per column along axis 0."""
    n = x.shape[0]
    flat = x.reshape(n, -1)
    cols = [np.convolve(flat[:, j], kernel)[:n] for j in range(flat.shape[1])]
    return np.stack(cols, axis=1).reshape(x.shape)


def convolved(kernel, x):
    """The causal convolution of ``x`` along axis 0, assembled from
    :func:`_convolved_blocks`'s blocks."""
    flat = x if x.ndim == 1 else x.reshape(len(x), -1)
    width = None if x.ndim == 1 else flat.shape[1]
    out = np.empty(flat.shape)
    for index, block in _convolved_blocks(kernel, len(x), width,
                                          flat.__getitem__):
        out[index] = block
    return out.reshape(x.shape)


class TestConvolvedBlocks:
    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 3])
    @pytest.mark.parametrize("trailing", [(3,), (2, 3)], ids=["2d", "3d"])
    def test_matches_per_column_convolve(self, n, trailing):
        rng = np.random.default_rng(n)
        kernel = rng.normal(size=n)
        x = rng.normal(size=(n,) + trailing)
        ref = per_column_convolve(kernel, x)
        out = convolved(kernel, x)
        assert out.shape == x.shape
        assert np.allclose(out, ref, rtol=1e-13, atol=1e-13)

    def test_caputo_overwrites_a_given_output(self):
        n = 2 * BLOCK + 3
        values = np.random.default_rng(7).normal(size=(n + 1, 2, 3))
        buf = np.full(values.shape, 5.0)
        result = caputo_l1(values, 0.5, 0.01, out=buf)
        assert result is buf
        assert buf.tobytes() == caputo_l1(values, 0.5, 0.01).tobytes()

    def test_single_series_is_np_convolve(self):
        rng = np.random.default_rng(9)
        kernel = rng.normal(size=BLOCK + 5)
        x = rng.normal(size=BLOCK + 5)
        assert np.array_equal(convolved(kernel, x),
                              np.convolve(x, kernel)[:BLOCK + 5])

    @pytest.mark.parametrize("n", [FFT_LEVELS - 1, FFT_LEVELS,
                                   FFT_LEVELS + 1, 4096])
    def test_fft_path_matches_the_toeplitz_path(self, n, monkeypatch):
        # 19 columns: four full FFT column blocks and a partial one
        rng = np.random.default_rng(n)
        kernel = l1_weights(0.5, n)
        x = rng.normal(size=(n, 19))
        fast = convolved(kernel, x)
        monkeypatch.setattr(fractional, "FFT_LEVELS", n + 1)
        direct = convolved(kernel, x)
        if n < FFT_LEVELS:
            assert np.array_equal(fast, direct)
        scale = np.max(np.abs(direct), axis=0)
        assert np.all(np.max(np.abs(fast - direct), axis=0) <= 1e-12 * scale)

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3,
                                   FFT_LEVELS])
    def test_caputo_in_place_equals_out_of_place_bitwise(self, n):
        # the sum over n differences is convolved where it is written
        values = np.random.default_rng(n + 1).normal(size=(n + 1, 2, 5))
        ref = caputo_l1(values, 0.5, 0.01)
        result = caputo_l1(values, 0.5, 0.01, out=values)
        assert result is values
        assert np.array_equal(values, ref)

    @pytest.mark.parametrize("op,order", [(caputo_l1, 0.4), (caputo_l1, 1.6),
                                          (rl_integral_l1, 0.5),
                                          (rl_integral_l1, 1.0)])
    def test_stacked_columns_match_single_series(self, op, order):
        g = grid(2 * BLOCK + 3)
        t = g.nodes
        cols = np.stack([t**2, np.sin(3.0 * t), 1.0 - np.cos(t), t**1.5],
                        axis=1)
        stacked = op(cols, order, g.dt)
        for j in range(cols.shape[1]):
            single = op(cols[:, j], order, g.dt)
            scale = np.max(np.abs(single))
            assert np.max(np.abs(stacked[:, j] - single)) <= 1e-14 * scale


def parent_history_weights(spec, dt, n_steps):
    """The solver's combined kernels before the march owned them."""
    c_lead = c_prev = 0.0
    w_u = w_v = None
    for q, al in zip(spec.weights, spec.orders):
        if al == 1.0:
            c_lead += q * dt ** (-al)
        elif al < 1.0:
            scale = q * (1.0 / _gamma(2.0 - al)) * dt ** (-al)
            c_lead += scale
            w = scale * l1_weights(al, n_steps)
            w_u = w if w_u is None else w_u + w
        else:
            scale = q * (1.0 / _gamma(3.0 - al)) * dt ** (-al)
            c_lead += scale
            c_prev += scale
            w = scale * dt * l1_weights(al - 1.0, n_steps)
            w_v = w if w_v is None else w_v + w
    return c_lead, c_prev, w_u, w_v


def parent_toeplitz_rows(kernel, rows, n_cols):
    """Rows of the causal Toeplitz matrix of ``kernel``, as the solver had."""
    padded = np.concatenate([kernel[::-1], np.zeros(max(n_cols - 1, 0))])
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_cols)
    return windows[len(kernel) - 1 - np.asarray(rows)]


def parent_stepping(spec, dt, levels):
    """The solver's inline blocked history, fed ``levels`` as solved steps.

    Returns the leading coefficient and the history at every step.
    """
    nt, n_int = levels.shape[0] - 1, levels.shape[1]
    c_lead, c_prev, w_u, w_v = parent_history_weights(spec, dt, nt)
    u = np.zeros((nt + 1, n_int))
    du = np.zeros((nt + 1, n_int))
    dv = np.zeros((nt + 1, n_int))
    span = min(BLOCK, nt)
    kernels = [(w, parent_toeplitz_rows(w, np.arange(span), span), d)
               for w, d in ((w_u, du), (w_v, dv)) if w is not None]
    hists = []
    for k in range(1, nt + 1):
        r = (k - 1) % BLOCK
        if r == 0:
            k0 = k
            rows = np.arange(k0, min(k0 + BLOCK, nt + 1))
            older = np.zeros((len(rows), n_int))
            for w, _, d in kernels:
                older += parent_toeplitz_rows(w, rows - 1, k0 - 1) @ d[1:k0]
        hist = older[r] - c_lead * u[k - 1] - c_prev * du[k - 1]
        for _, near, d in kernels:
            hist += near[r, :r] @ d[k0:k]
        hists.append(hist)
        u[k] = levels[k]
        du[k] = u[k] - u[k - 1]
        dv[k] = (du[k] - du[k - 1]) / dt
    return c_lead, hists


def parent_drift(dn, spec, dt, ratio, inner):
    """The Carleman drift's own per-order loop before it moved here."""
    nt = dn.shape[0] - 1
    drift = 0.0
    for q, al in zip(spec.weights, spec.orders):
        if al < 1.0:
            block = rl_integral_l1(dn.reshape(nt + 1, -1), 1.0 - al, dt)
        elif al == 1.0:
            block = dn
        else:
            block = np.zeros_like(dn)
            block[1:] = np.diff(dn, axis=0) / dt
            block = rl_integral_l1(block.reshape(nt + 1, -1), 2.0 - al, dt)
        drift += q * ratio * block.reshape(dn.shape)[inner]
    return drift


SPECS = [MultiTermSpec((0.5,), (1.0,)), MultiTermSpec((1.0,), (1.0,)),
         MultiTermSpec((1.5,), (1.0,)), MultiTermSpec((1.5, 0.5), (1.0, 0.5)),
         MultiTermSpec((1.75, 1.0, 0.25), (1.0, 0.7, 0.3))]


class TestL1March:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: str(s.orders))
    @pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 131])
    def test_matches_the_solver_stepping_bitwise(self, spec, n_steps):
        dt = 1.0 / n_steps
        levels = np.random.default_rng(n_steps).standard_normal(
            (n_steps + 1, 5))
        levels[0] = 0.0
        lead, expected = parent_stepping(spec, dt, levels)
        march = L1March(spec, dt, n_steps, 5)
        assert np.float64(march.lead).tobytes() == np.float64(lead).tobytes()
        for k in range(1, n_steps + 1):
            assert march.history(k).tobytes() == expected[k - 1].tobytes()
            march.push(k, levels[k])

    def test_lead_plus_history_is_the_whole_series_operator(self):
        # the two forms sum in different orders: allow rounding of the
        # largest addend, lead * max|u|
        spec = SPECS[-1]
        g = grid(131)
        u = np.sin(3.0 * g.nodes)[:, None] * np.array([1.0, -2.0])
        u[0] = 0.0
        whole = multiterm_l1(u, spec, g.dt)
        march = L1March(spec, g.dt, g.n_steps, 2)
        tol = 1e-14 * march.lead * np.abs(u).max()
        for k in range(1, g.n_steps + 1):
            step = march.lead * u[k] + march.history(k)
            assert np.abs(step - whole[k]).max() <= tol
            march.push(k, u[k])


class TestLoweredOrders:
    @pytest.mark.parametrize("orders,weights", [
        ((0.5,), (1.0,)), ((1.0,), (1.0,)), ((1.5,), (1.0,)),
        ((1.5, 1.0, 0.5), (1.0, 0.6, 0.3))])
    @pytest.mark.parametrize("space", [(9,), (7, 6)])
    def test_matches_the_drift_loop_bitwise(self, orders, weights, space):
        # a Toeplitz stack and an FFT one: the sums run over levels - 1
        spec = MultiTermSpec(orders, weights)
        inner = (slice(None),) + tuple(slice(1, -1) for _ in space)
        for levels in (41, FFT_LEVELS + 1):
            dn = np.random.default_rng(len(space)).standard_normal(
                (levels,) + space)
            got = multiterm_lowered(dn, spec, 0.025, 0.37)
            assert got.shape == dn.shape
            assert (got[inner].tobytes()
                    == parent_drift(dn, spec, 0.025, 0.37, inner).tobytes())


def per_order_sum(values, spec, dt):
    """Sum over the orders of q times caputo_l1, each term formed whole."""
    acc = None
    for q, a in zip(spec.weights, spec.orders):
        term = caputo_l1(values, a, dt)
        term *= q
        if acc is None:
            acc = term
        else:
            acc += term
    return acc


def traced_peak(fn, *args):
    """``(fn(*args), the traced bytes it held at its peak)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


ACCUMULATED_SPECS = [MultiTermSpec((0.75, 0.25), (1.0, 0.4)),
                     MultiTermSpec((1.0, 0.5), (1.0, 0.3)),
                     MultiTermSpec((1.5, 1.0, 0.5), (1.0, 0.6, 0.3)),
                     MultiTermSpec((1.75, 1.25, 1.0, 0.25),
                                   (1.0, 0.7, 0.5, 0.2))]


class TestAccumulation:
    @pytest.mark.parametrize("spec", ACCUMULATED_SPECS,
                             ids=lambda s: str(s.orders))
    @pytest.mark.parametrize("levels", [2 * BLOCK + 3, FFT_LEVELS + 1],
                             ids=["toeplitz", "fft"])
    @pytest.mark.parametrize("interior", [False, True],
                             ids=["stack", "interior"])
    def test_multiterm_equals_the_per_order_sum_bitwise(self, spec, levels,
                                                        interior):
        # every later order is added into the output block by block; the
        # L1 sums run over levels - 1 differences; a 2-D stack has column
        # views, an interior view of a grid none
        rng = np.random.default_rng(levels)
        if interior:
            values = rng.standard_normal((levels, 7, 8))[:, 1:-1, 1:-1]
        else:
            values = rng.standard_normal((levels, 9))
        got = multiterm_l1(values, spec, 0.01)
        assert got.tobytes() == per_order_sum(values, spec, 0.01).tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_caputo_adds_its_weighted_term(self, alpha):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((2 * BLOCK + 3, 4))
        start = rng.standard_normal(values.shape)
        expected = start + 0.3 * caputo_l1(values, alpha, 0.01)
        got = caputo_l1(values, alpha, 0.01, out=start.copy(), weight=0.3)
        assert got.tobytes() == expected.tobytes()

    def test_caputo_in_place_equals_out_of_place_bitwise(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((2 * BLOCK + 3, 4))
        expected = caputo_l1(values, 0.5, 0.01)
        assert caputo_l1(values, 0.5, 0.01, out=values) is values
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("op,order", [(caputo_l1, 0.5),
                                          (rl_integral_l1, 0.5)])
    @pytest.mark.parametrize("shape", [(1,), (1, 3)],
                             ids=["series", "stack"])
    def test_one_level_is_node_zero_alone(self, op, order, shape):
        # no differences to sum: written, node 0 is zero; added, a zero is
        # added, which turns -0.0 into 0.0 as out + weight * result would
        values = np.full(shape, 2.0)
        assert op(values, order, 0.1).tobytes() == np.zeros(shape).tobytes()
        start = np.full(shape, -0.0)
        assert op(values, order, 0.1, out=start, weight=0.3) is start
        assert start.tobytes() == np.zeros(shape).tobytes()

    @pytest.mark.parametrize("op,order", [(caputo_l1, 0.5),
                                          (rl_integral_l1, 0.5)])
    @pytest.mark.parametrize("weight", [None, 1.0], ids=["write", "add"])
    def test_a_strided_output_is_refused(self, op, order, weight):
        values = np.ones((9, 2, 2))
        out = np.zeros((9, 2, 2), order="F")
        with pytest.raises(ValueError, match="C-ordered"):
            op(values, order, 0.1, out=out, weight=weight)


class TestMemory:
    """Traced peaks in arrays of the result's size, beyond the inputs.

    A Toeplitz sum also forms BLOCK rows of the kernel's matrix and a
    BLOCK-row block at a time: on 640 levels of a 23 x 23 grid together
    about a quarter of a result."""

    @pytest.mark.parametrize("spec", [ACCUMULATED_SPECS[2],
                                      ACCUMULATED_SPECS[3]],
                             ids=lambda s: str(s.orders))
    def test_multiterm_holds_the_output_and_one_array_of_differences(
            self, spec):
        # at the parent an order above 1 after the first held its first
        # difference, its inner output and the sum: 3.25 results
        values = np.random.default_rng(5).standard_normal((640, 23, 23))
        result, peak = traced_peak(multiterm_l1, values[:, 1:-1, 1:-1],
                                   spec, 0.01)
        assert peak <= 2.4 * result.nbytes

    def test_multiterm_on_an_fft_stack_holds_the_output_alone(self):
        # each 4-column block forms its own differences and transforms;
        # the parent held a second order's whole term (2.1 results)
        values = np.random.default_rng(6).standard_normal(
            (FFT_LEVELS + 1, 513))
        result, peak = traced_peak(multiterm_l1, values,
                                   ACCUMULATED_SPECS[0], 0.01)
        assert peak <= 1.2 * result.nbytes

    @pytest.mark.parametrize("spec", [MultiTermSpec((0.5,), (1.0,)),
                                      ACCUMULATED_SPECS[0],
                                      MultiTermSpec((1.5, 0.5), (1.0, 0.5)),
                                      SPECS[4]],
                             ids=lambda s: str(s.orders))
    def test_lowered_holds_the_output_and_the_quotient(self, spec):
        # the output, for orders above 1 their one difference quotient, and
        # two row blocks; whole-array terms held 2.2 to 5.2 results, and an
        # order of exactly 1 added as one whole-array product held 3.0
        values = np.random.default_rng(7).standard_normal((640, 23, 23))
        result, peak = traced_peak(multiterm_lowered, values, spec, 0.01,
                                   0.37)
        limit = 2.5 if max(spec.orders) > 1.0 else 1.5
        assert peak <= limit * result.nbytes
