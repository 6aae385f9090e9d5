import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from fraclab import (HolmgrenMap, MultiTermSpec, SampleRegion,
                     anisotropic_scale, c_alpha, c_alpha_sharp,
                     char_set_sample, constant_field, diagonal_variable_field,
                     find_min_varpi, full_region_sample,
                     garding_precondition_check, global_coefficients,
                     identity_field, imag_part_margin, lemma21_check,
                     lemma61_check, pushforward_operator, real_part_constant,
                     real_part_margin, region_for, rotating_anisotropic_field,
                     weighted_symbol)
from fraclab import geometry, symbols
from fraclab.symbols import (SAMPLE_BLOCK, _char_batch, _char_roots,
                             _garding_terms, bracket_report_batch,
                             fractional_symbol)

RNG = np.random.default_rng(20240817)


def random_spd_field(n, rng):
    m = rng.normal(size=(n, n))
    return constant_field(m @ m.T + n * np.eye(n))


def batch(*points):
    """Arrays (t, x, tau, xi, sigma) of points given as such tuples."""
    return tuple(np.array(col, dtype=float) for col in zip(*points))


def random_points(n, rng, count=1, sigma=None):
    """``count`` points drawn one after another, stacked into a batch."""
    return batch(*((rng.uniform(0.1, 0.9),
                    np.concatenate([rng.uniform(-0.2, 0.2, n - 1),
                                    [rng.uniform(0.0, 0.05)]]),
                    rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]),
                    rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n),
                    rng.uniform(0.5, 3.0) if sigma is None else sigma)
                   for _ in range(count)))


class TestElementary:
    def test_c_alpha_values(self):
        assert abs(c_alpha(1.0) - math.sqrt(2.0) / 2.0) < 1e-15
        assert abs(c_alpha(1.8) - 0.3090169943749474) < 1e-15
        assert abs(c_alpha(0.5) - math.sqrt(2.0) / 2.0) < 1e-15

    def test_sharp_constant_is_valid_everywhere(self):
        taus = np.concatenate([np.logspace(0.0, 6.0, 4000),
                               -np.logspace(0.0, 6.0, 4000)])
        for alpha in np.linspace(0.1, 1.9, 19):
            margin = imag_part_margin(alpha, taus,
                                      constant=c_alpha_sharp(alpha))
            assert margin >= -1e-12

    def test_classical_constant_valid_only_above_one(self):
        # the min(sqrt(2)/2, .) constant overestimates the infimum of
        # |sin(alpha arctan tau)| for alpha < 1, whose value is sin(alpha pi/4)
        taus = np.logspace(0.0, 6.0, 4000)
        assert imag_part_margin(1.25, taus) >= 0.0
        assert imag_part_margin(0.5, taus) < 0.0

    def test_real_part_bound(self):
        taus = np.linspace(-1.0, 1.0, 2001)
        for alpha in (0.3, 1.0, 1.7):
            assert real_part_margin(alpha, taus) >= -1e-12
            assert 0.0 < real_part_constant(alpha) < 1.0


class TestFractionalSymbol:
    """The polar form of sum q_l (1 + i tau)^alpha_l and its derivative."""

    orders = (0.01, 0.25, 0.5, 0.99, 1.0, 1.01, 1.5, 1.99)
    taus = np.concatenate([[0.0], np.logspace(-300.0, 300.0, 121),
                           -np.logspace(-300.0, 300.0, 121)])

    def test_matches_complex_power(self):
        # numpy's complex power is exp(alpha log z), whose own error grows
        # like alpha log|z| ulp (about 1e-13 at |tau| = 1e300), so it is the
        # oracle up to |tau| = 1e3; the 40-digit test below covers the rest
        tau = self.taus[np.abs(self.taus) <= 1e3]
        z = 1.0 + 1j * tau
        for alpha in self.orders:
            spec = MultiTermSpec(orders=(alpha,), weights=(1.0,))
            val, der = fractional_symbol(tau, spec, derivative=True)
            ref = z**alpha
            dref = alpha * 1j * z ** (alpha - 1.0)
            assert np.all(np.abs(val - ref) <= 2e-15 * np.abs(ref))
            assert np.all(np.abs(der - dref) <= 2e-15 * np.abs(dref))

    def test_matches_forty_digits_over_the_whole_range(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for alpha in self.orders:
                # only the taus whose value |tau|^alpha is a double
                limit = 1e300 ** (1.0 / max(alpha, 1.0))
                tau = self.taus[np.abs(self.taus) <= limit]
                spec = MultiTermSpec(orders=(alpha,), weights=(1.0,))
                val, der = fractional_symbol(tau, spec, derivative=True)
                a = mpmath.mpf(alpha)
                for t, v, d in zip(tau, val, der):
                    z = mpmath.mpc(1.0, t)
                    ref = z**a
                    dref = a * 1j * z ** (a - 1)
                    assert abs(mpmath.mpc(v) - ref) <= 2e-15 * abs(ref)
                    assert abs(mpmath.mpc(d) - dref) <= 2e-15 * abs(dref)

    def test_finite_for_large_tau(self):
        spec = MultiTermSpec(orders=(1.5, 0.5), weights=(1.0, 0.5))
        val, der = fractional_symbol(np.array([1e200, -1e200]), spec,
                                     derivative=True)
        assert np.all(np.isfinite(val)) and np.all(np.isfinite(der))


class TestTotalSymbol:
    """The total symbol without drift: the weighted symbol at sigma = 0."""

    def test_hand_value_without_drift(self):
        points = batch((0.0, [0.0], 0.0, [2.0], 0.0))
        spec = MultiTermSpec(orders=(1.0,), weights=(1.0,))
        val = weighted_symbol(*points, spec, identity_field(1), c=1.0,
                              X=0.0)["value"]
        assert abs(val[0] - 5.0) < 1e-15

    def test_zero_duals_give_weight_sum(self):
        spec = MultiTermSpec(orders=(1.5, 0.5), weights=(1.0, 0.7))
        points = batch((0.2, [0.1, 0.0], 0.0, [0.0, 0.0], 0.0))
        val = weighted_symbol(*points, spec, identity_field(2), c=1.0,
                              X=0.0)["value"]
        assert abs(val[0] - 1.7) < 1e-15

    def test_quadratic_homogeneity(self):
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        field = random_spd_field(2, np.random.default_rng(5))
        x = [0.1, 0.02]
        xi = np.array([0.7, -1.1])
        p1, p2 = weighted_symbol(*batch((0.0, x, 0.0, xi, 0.0),
                                        (0.0, x, 0.0, 2 * xi, 0.0)),
                                 spec, field, c=1.0, X=0.0)["value"]
        assert abs((p2 - 1.0) - 4.0 * (p1 - 1.0)) < 1e-12


class TestWeightedSymbol:
    def test_hand_value(self):
        points = batch((0.0, [0.0], 0.0, [1.0], 1.0))
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        val = weighted_symbol(*points, spec, identity_field(1), c=1.0,
                              X=0.1)["value"]
        assert abs(val[0] - (1.96 - 0.4j)) < 1e-15

    def test_sigma_zero_matches_driftless_total(self):
        # at sigma = 0 the layer thickness X drops out of the symbol
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            spec = MultiTermSpec(orders=(1.2, 0.4), weights=(1.0, 0.5))
            field = random_spd_field(n, rng)
            points = random_points(n, rng, sigma=0.0)
            a = weighted_symbol(*points, spec, field, c=1.5, X=0.0)["value"]
            b = weighted_symbol(*points, spec, field, c=1.5, X=0.05)["value"]
            assert np.all(np.abs(a - b) < 1e-12 * np.maximum(1.0, np.abs(a)))


class TestDerivativeSamples:
    # one symbol with gradients samples the base field's derivatives once
    # through the Holmgren map and the global stretch, and its values once
    # more only where the stretch's product rule needs them
    @pytest.mark.parametrize("stretched, expected", [
        (False, {"a": 1, "grads": 1, "map": 2, "stretch": 0}),
        (True, {"a": 2, "grads": 1, "map": 2, "stretch": 2}),
    ], ids=["pushed-forward", "stretched"])
    def test_samples_per_symbol_with_gradients(self, monkeypatch, stretched,
                                               expected):
        counts = dict.fromkeys(expected, 0)

        def counting(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)
            return counted

        base = diagonal_variable_field(2)
        base = dataclasses.replace(base, a=counting("a", base.a),
                                   grads=counting("grads", base.grads))
        monkeypatch.setattr(HolmgrenMap, "inverse",
                            counting("map", HolmgrenMap.inverse))
        monkeypatch.setattr(geometry, "global_diffeo_inverse",
                            counting("stretch", geometry.global_diffeo_inverse))
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.05, T=1.0,
                           stage=5 if stretched else 1)
        frame = pushforward_operator(
            global_coefficients(base) if stretched else base, hmap)
        weighted_symbol(*random_points(2, np.random.default_rng(9), 8),
                        MultiTermSpec(orders=(0.5,), weights=(1.0,)),
                        frame.field, 1.0, 0.05, grads=True)
        assert counts == expected


def signed_zero_data(rng, shape, zeros=0.3):
    """Normal draws with about ``zeros`` of the entries set to +0 or -0."""
    values = rng.normal(size=shape)
    hit = rng.random(shape) < zeros
    values[hit] = np.copysign(0.0, rng.choice([-1.0, 1.0], shape))[hit]
    return values


def same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.uint64), want.view(np.uint64)))


class TestRealContraction:
    """Two real einsums give the complex einsum's bits."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_complex_einsum(self, n):
        rng = np.random.default_rng(40 + n)
        m = 1001
        w = signed_zero_data(rng, (m, n)) + 1j * signed_zero_data(rng, (m, n))
        ww = w[..., :, None] * w[..., None, :]
        for subscripts, a, b in (
                ("...jk,...k->...j", signed_zero_data(rng, (m, n, n)), w),
                ("...rjk,...jk->...r",
                 signed_zero_data(rng, (m, n, n, n), 0.6), ww),
                ("...jk,...jk->...", signed_zero_data(rng, (m, n, n)), ww)):
            assert same_bits(symbols._real_contraction(subscripts, a, b),
                             np.einsum(subscripts, a, b))

    @pytest.mark.parametrize("field", [
        identity_field(2), diagonal_variable_field(2), identity_field(3),
        diagonal_variable_field(3), rotating_anisotropic_field(2)],
        ids=["identity-2", "diagonal-2", "identity-3", "diagonal-3",
             "rotating-2"])
    def test_weighted_symbol_matches_complex_einsum(self, field, monkeypatch):
        # the derivative tensors of the identity and diagonal fields are
        # mostly structural zeros; x', xi and sigma hold exact zeros of
        # both signs
        rng = np.random.default_rng(7)
        n, m = field.n, 600
        spec = MultiTermSpec(orders=(1.3, 0.6), weights=(1.0, 0.4))
        t = rng.uniform(0.0, 1.0, m)
        x = np.empty((m, n))
        x[:, :-1] = 0.2 * signed_zero_data(rng, (m, n - 1))
        x[:, -1] = rng.uniform(0.0, 0.05, m)
        tau = signed_zero_data(rng, m)
        xi = signed_zero_data(rng, (m, n))
        sigma = signed_zero_data(rng, m)
        points = (t, x, tau, xi, sigma)
        got = weighted_symbol(*points, spec, field, 1.0, 0.05, grads=True)
        monkeypatch.setattr(symbols, "_real_contraction", np.einsum)
        want = weighted_symbol(*points, spec, field, 1.0, 0.05, grads=True)
        assert sorted(got) == sorted(want)
        for key in got:
            assert same_bits(got[key], want[key]), key


class TestGradients:
    def test_tau_derivative_at_origin(self):
        spec = MultiTermSpec(orders=(0.7,), weights=(1.0,))
        points = batch((0.1, [0.0], 0.0, [1.0], 0.5))
        g = weighted_symbol(*points, spec, identity_field(1), c=1.0, X=0.1,
                            grads=True)
        assert abs(g["d_tau"][0] - 0.7j) < 1e-14

    def test_sigma_zero_kills_leading_imaginary_normal_slope(self):
        # sigma = 0 leaves the tilted duals real, so the x_n slope is real
        rng = np.random.default_rng(2)
        field = random_spd_field(2, rng)
        points = random_points(2, rng, sigma=0.0)
        g = weighted_symbol(*points,
                            MultiTermSpec(orders=(0.5,), weights=(1.0,)),
                            field, c=1.0, X=0.1, grads=True)
        assert g["d_x"][0, -1].imag == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_finite_difference_consistency(self, n):
        rng = np.random.default_rng(100 + n)
        spec = MultiTermSpec(orders=(1.3, 0.6), weights=(1.0, 0.4))
        field = (rotating_anisotropic_field(n) if n >= 2
                 else diagonal_variable_field(1))
        X = 0.05
        _assert_gradients_match(random_points(n, rng, 40), spec, field,
                                1.0, X, rtol=1e-6)


def _assert_gradients_match(points, spec, field, c, X, rtol):
    t, x, tau, xi, sigma = points
    g = weighted_symbol(*points, spec, field, c, X, grads=True)

    def value(t, x, tau, xi):
        return weighted_symbol(t, x, tau, xi, sigma, spec, field, c,
                               X)["value"]

    floor = 1e-4 * (1.0 + np.abs(g["value"]))

    def check(analytic, plus, minus, h):
        fd = (plus - minus) / (2.0 * h)
        denom = np.maximum(np.abs(analytic), floor)
        assert np.all(np.abs(fd - analytic) / denom < rtol)

    h = 1e-5
    for r in range(xi.shape[1]):
        e = np.zeros(xi.shape)
        e[:, r] = h * np.maximum(1.0, np.abs(xi[:, r]))
        check(g["d_xi"][:, r], value(t, x, tau, xi + e),
              value(t, x, tau, xi - e), e[:, r])
        e[:, r] = h * np.maximum(1.0, np.abs(x[:, r]))
        check(g["d_x"][:, r], value(t, x + e, tau, xi),
              value(t, x - e, tau, xi), e[:, r])
    ht = h * np.maximum(1.0, np.abs(tau))
    check(g["d_tau"], value(t, x, tau + ht, xi), value(t, x, tau - ht, xi),
          ht)
    check(g["d_t"], value(t + h, x, tau, xi), value(t - h, x, tau, xi), h)


def poisson_bracket_generic(grads_f, grads_g):
    """Bracket of two real symbols from their gradient bundles, per sample.

    Each bundle is a dict with 'd_xi', 'd_x' (shape (N, n)) and 'd_tau',
    'd_t' (shape (N,)), as the real or imaginary parts of the partials of
    :func:`weighted_symbol`.  Used by the algebra tests and as an oracle
    for the specialized bracket.
    """
    spatial = np.sum(np.asarray(grads_f["d_xi"]) * np.asarray(grads_g["d_x"])
                     - np.asarray(grads_f["d_x"]) * np.asarray(grads_g["d_xi"]),
                     axis=-1)
    return spatial + grads_f["d_tau"] * grads_g["d_t"] \
        - grads_f["d_t"] * grads_g["d_tau"]


class TestBracket:
    def test_line_case_hand_value(self):
        # 4*1*1 + 4*1*1*(0.2)^2 = 4.16 at xi_n = sigma = 1, x_n = 0, X = 0.1
        _, principal, _, _ = bracket_report_batch(
            batch((0.0, [0.0], 0.0, [1.0], 1.0)),
            MultiTermSpec(orders=(0.5,), weights=(1.0,)), identity_field(1),
            c=1.0, X=0.1)
        assert abs(principal[0] - 4.16) < 1e-14

    def test_antisymmetry_and_self_bracket(self):
        rng = np.random.default_rng(4)
        points = random_points(2, rng)
        spec = MultiTermSpec(orders=(0.8,), weights=(1.0,))
        field = diagonal_variable_field(2)
        X = 0.05
        g = weighted_symbol(*points, spec, field, 1.0, X, grads=True)
        keys = ("d_xi", "d_x", "d_tau", "d_t")
        re = {k: g[k].real for k in keys}
        im = {k: g[k].imag for k in keys}
        assert np.all(poisson_bracket_generic(re, re) == 0.0)
        ab = poisson_bracket_generic(re, im)
        ba = poisson_bracket_generic(im, re)
        assert np.all(np.abs(ab + ba) < 1e-12 * np.maximum(1.0, np.abs(ab)))
        # the generic bracket is the oracle of the specialized full bracket
        full = bracket_report_batch(points, spec, field, 1.0, X)[0]
        assert np.all(np.abs(ab - full) < 1e-12 * np.maximum(1.0, np.abs(ab)))

    def test_bilinearity_on_random_polynomial_symbols(self):
        rng = np.random.default_rng(13)
        def bundle():
            return {"d_xi": rng.normal(size=3), "d_x": rng.normal(size=3),
                    "d_tau": rng.normal(), "d_t": rng.normal()}
        f, g, h = bundle(), bundle(), bundle()
        a, b = 2.3, -0.7
        fg = {k: a * np.asarray(f[k]) + b * np.asarray(g[k]) for k in f}
        lhs = poisson_bracket_generic(fg, h)
        rhs = (a * poisson_bracket_generic(f, h)
               + b * poisson_bracket_generic(g, h))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_constant_coefficients(self, n):
        # with the convexification off the principal bracket collapses to
        # 4|s|(sum a_jn xi_j)^2 + 4 a_nn^2 |s|^3 (x_n - 2X)^2 exactly
        rng = np.random.default_rng(40 + n)
        field = random_spd_field(n, rng)
        a = field.a(0.0, np.zeros(n))
        X = 0.1
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        points = random_points(n, rng, 200)
        _, principal, _, _ = bracket_report_batch(points, spec, field,
                                                  c=0.0, X=X)
        _, x, _, xi, sigma = points
        mu = np.abs(sigma) * (x[:, -1] - 2.0 * X)
        closed = (4.0 * np.abs(sigma) * (xi @ a[:, -1]) ** 2
                  + 4.0 * a[-1, -1] ** 2 * np.abs(sigma) * mu**2)
        assert np.all(np.abs(principal - closed) <= 1e-12 * np.abs(closed))

    def test_closed_form_line_case_any_tilt(self):
        rng = np.random.default_rng(77)
        field = constant_field(np.array([[1.7]]))
        X = 0.1
        spec = MultiTermSpec(orders=(1.5,), weights=(1.0,))
        points = random_points(1, rng, 100)
        _, principal, _, _ = bracket_report_batch(points, spec, field,
                                                  c=3.0, X=X)
        _, x, _, xi, sigma = points
        mu = np.abs(sigma) * (x[:, -1] - 2.0 * X)
        closed = (4.0 * np.abs(sigma) * (1.7 * xi[:, 0]) ** 2
                  + 4.0 * 1.7**2 * np.abs(sigma) * mu**2)
        assert np.all(np.abs(principal - closed) <= 1e-12 * np.abs(closed))

    def test_full_equals_principal_for_static_coefficients(self):
        rng = np.random.default_rng(6)
        points = random_points(2, rng)
        spec = MultiTermSpec(orders=(0.9,), weights=(1.0,))
        full, principal, _, _ = bracket_report_batch(
            points, spec, random_spd_field(2, rng), 1.0, 0.05)
        assert full[0] == principal[0]

    def test_full_differs_for_time_dependent_coefficients(self):
        rng = np.random.default_rng(8)
        points = random_points(2, rng)
        spec = MultiTermSpec(orders=(0.9,), weights=(1.0,))
        full, principal, _, _ = bracket_report_batch(
            points, spec, rotating_anisotropic_field(2), 1.0, 0.05)
        assert full[0] != principal[0]

    def test_sympy_oracle_variable_coefficients(self):
        sympy = pytest.importorskip("sympy")
        t_s, x_s, tau_s, xi_s, sig_s = sympy.symbols(
            "t x tau xi sigma", real=True)
        X = 0.1
        amp = 0.3
        a_s = 1.0 + amp * sympy.sin(x_s) * sympy.cos(t_s)
        mu_s = sig_s * (x_s - 2 * X)        # sigma kept positive below
        alpha = sympy.Rational(1, 2)
        p_s = (1 + sympy.I * tau_s) ** alpha + a_s * (xi_s + sympy.I * mu_s) ** 2
        re, im = sympy.re(p_s.rewrite(sympy.exp)), sympy.im(p_s.rewrite(sympy.exp))
        bracket_s = (sympy.diff(re, xi_s) * sympy.diff(im, x_s)
                     - sympy.diff(re, x_s) * sympy.diff(im, xi_s)
                     + sympy.diff(re, tau_s) * sympy.diff(im, t_s)
                     - sympy.diff(re, t_s) * sympy.diff(im, tau_s))
        fn = sympy.lambdify((t_s, x_s, tau_s, xi_s, sig_s), bracket_s, "numpy")

        field = diagonal_variable_field(1, amplitude=amp)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        rng = np.random.default_rng(21)
        points = random_points(1, rng, 25)
        full = bracket_report_batch(points, spec, field, 1.0, X)[0]
        t, x, tau, xi, sigma = points
        ref = np.array([float(fn(*p)) for p in
                        zip(t, x[:, 0], tau, xi[:, 0], sigma)])
        assert np.all(np.abs(full - ref) < 1e-9 * np.maximum(1.0, np.abs(ref)))

    def test_exact_anisotropic_homogeneity(self):
        rng = np.random.default_rng(30)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        field = diagonal_variable_field(2)
        X = 0.05
        t, x, tau, xi, sigma = random_points(2, rng)
        rho = np.array([1.0, 10.0, 100.0, 1000.0])
        scaled = (np.repeat(t, 4), np.repeat(x, 4, axis=0),
                  tau * rho ** (2.0 / spec.alpha), xi * rho[:, None],
                  sigma * rho)
        _, principal, _, _ = bracket_report_batch(scaled, spec, field,
                                                  1.0, X)
        assert np.all(np.abs(principal / rho**3 - principal[0])
                      < 1e-10 * abs(principal[0]))


class TestNonFiniteGuards:
    # NaN fails every comparison, so a guard written x <= 0 let it through;
    # a NaN tol rejected every solved seed as "residual"
    @pytest.mark.parametrize("make, message", [
        (lambda: char_set_sample(
            region_for(0.05), MultiTermSpec(orders=(0.5,), weights=(1.0,)),
            identity_field(2), 1.0, 0.05, 50, tol=math.nan),
         "tolerance must be positive"),
    ], ids=["sample-tol"])
    def test_nan_fails_the_positivity_guards(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestCharacteristicSampling:
    def setup_method(self):
        self.spec = MultiTermSpec(orders=(0.5, 0.25), weights=(1.0, 0.5))
        self.field = random_spd_field(2, np.random.default_rng(1))
        self.X = 0.05
        self.region = region_for(self.X)

    def test_certificate_holds_by_construction(self):
        sample = char_set_sample(self.region, self.spec, self.field,
                                 1.0, self.X, 500, tol=1e-8,
                                 rng=np.random.default_rng(3))
        assert sample.found == 500
        assert sample.residual.max() <= 1e-8
        report = lemma21_check(sample.points, self.spec, self.field,
                               1.0, self.X)
        assert np.isfinite(report.extras["kappa"])

    def test_small_sigma_returns_partial(self):
        sample = char_set_sample(self.region, self.spec, self.field,
                                 1.0, self.X, 50, tol=1e-8,
                                 rng=np.random.default_rng(3),
                                 sigma_range=(0.05, 0.1))
        assert sample.found == 0
        assert sample.requested == 50

    def test_no_requested_points_is_an_error(self):
        with pytest.raises(ValueError, match="n_samples must be positive"):
            char_set_sample(self.region, self.spec, self.field, 1.0,
                            self.X, 0)

    @pytest.mark.parametrize("X", [0.0, -0.05, math.nan, math.inf])
    def test_a_layer_thickness_that_is_not_positive_is_an_error(self, X):
        # X = 0 divided sigma's floor and kappa by zero, X = -0.05 was named
        # as a reversed sigma_range, made region_for take a negative square
        # root and let lemma21_check certify a negative layer, and X = inf
        # raised invalid-value warnings in the brackets
        points = random_points(2, np.random.default_rng(4), 5)
        args = (self.spec, self.field, 1.0, X)
        for check in (lambda: region_for(X),
                      lambda: char_set_sample(self.region, *args, 10),
                      lambda: lemma21_check(points, *args),
                      lambda: bracket_report_batch(points, *args),
                      lambda: garding_precondition_check(points, *args, 1.0),
                      lambda: find_min_varpi(points, *args)):
            with pytest.raises(ValueError, match="layer thickness X must be "
                               f"positive and finite, got {X!r}"):
                check()

    def test_lemma21_positive(self):
        sample = char_set_sample(self.region, self.spec, self.field,
                                 1.0, self.X, 2000, tol=1e-8,
                                 rng=np.random.default_rng(5))
        report = lemma21_check(sample.points, self.spec, self.field,
                               1.0, self.X)
        assert report.passed
        assert report.min_ratio > 0.0
        assert report.extras["kappa"] < 50.0

    def test_lemma21_empty_errors(self):
        sample = char_set_sample(self.region, self.spec, self.field,
                                 1.0, self.X, 10, tol=1e-8,
                                 rng=np.random.default_rng(3),
                                 sigma_range=(0.05, 0.1))
        with pytest.raises(ValueError):
            lemma21_check(sample.points, self.spec, self.field, 1.0,
                          self.X)

    def test_ratio_scaling_invariance(self):
        sample = char_set_sample(self.region, self.spec, self.field,
                                 1.0, self.X, 200, tol=1e-8,
                                 rng=np.random.default_rng(7))
        _, _, _, ratio = bracket_report_batch(sample.points, self.spec,
                                              self.field, 1.0, self.X)
        rho = 100.0
        t, x, tau, xi, sigma = sample.points
        scaled = (t, x, tau * rho ** (2.0 / self.spec.alpha), xi * rho,
                  sigma * rho)
        _, _, _, ratio2 = bracket_report_batch(scaled, self.spec, self.field,
                                               1.0, self.X)
        assert np.max(np.abs(ratio2 - ratio) / np.abs(ratio)) < 1e-9


def reference_g(tau, A, Q, R, spec):
    s = fractional_symbol(tau, spec)
    return A * s.imag**2 - Q * (R - s.real)


def doubling_bracket(A, Q, R, spec):
    """The first bracket by doubling from 1, as :func:`symbols._bracket`
    returns it: the upper end doubles while g <= 0 there, at most 60 times,
    over the points still doubling.  Returns (hi, g_hi, g_lo, passes) with
    g_lo = g(hi/2) where hi > 1."""
    hi = np.ones(len(A))
    g_hi = np.empty(len(A))
    g_lo = np.zeros(len(A))
    act = np.arange(len(A))
    passes = 0
    for step in range(61):
        passes += 1
        g_hi[act] = reference_g(hi[act], A[act], Q[act], R[act], spec)
        act = act[g_hi[act] <= 0.0]
        if step == 60 or len(act) == 0:
            break
        g_lo[act] = g_hi[act]
        hi[act] *= 2.0
    return hi, g_hi, g_lo, passes


def reference_roots(A, Q, R, spec):
    """Bisection over all points: the doubling bracket, then bisection
    passes with np.where until every bracket holds no float inside."""
    hi, g_hi, _, _ = doubling_bracket(A, Q, R, spec)
    good = g_hi > 0.0
    lo = np.zeros(np.count_nonzero(good))
    hi, A, Q, R = hi[good], A[good], Q[good], R[good]
    # [0, 1] halves down to the least subnormal in 1074 passes
    for _ in range(1200):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        gm = reference_g(mid, A, Q, R, spec)
        lo = np.where(gm < 0.0, mid, lo)
        hi = np.where(gm < 0.0, hi, mid)
    return 0.5 * (lo + hi), good


def reference_char_batch(region, spec, coeffs, c, X, batch, tol, rng,
                         sigma_range):
    """Every filtered seed of a batch solved, in draw order, with the
    reference root-finder; returns the passing points and the full mask."""
    n = coeffs.n
    t, x = region.draw(rng, batch, n)
    xihat = rng.normal(size=(batch, n))
    xihat /= np.linalg.norm(xihat, axis=1, keepdims=True)
    sigma = np.exp(rng.uniform(math.log(sigma_range[0]),
                               math.log(sigma_range[1]), batch))
    mu = sigma * (x[:, -1] - 2.0 * X)
    a = coeffs.a(t, x)
    what = xihat.copy()
    what[:, :-1] += 2.0 * c * x[:, :-1] * xihat[:, -1:]
    vhat = np.concatenate([2.0 * c * x[:, :-1], np.ones((batch, 1))], axis=1)
    A = np.einsum("ij,ijk,ik->i", what, a, what)
    B = np.einsum("ij,ijk,ik->i", what, a, vhat)
    C = np.einsum("ij,ijk,ik->i", vhat, a, vhat)
    S0 = fractional_symbol(np.zeros(batch), spec)
    keep = (np.abs(B) > 1e-10 * np.sqrt(np.abs(A * C))) & \
        (mu**2 * C > S0.real)
    idx = np.nonzero(keep)[0]
    tau, good = reference_roots(A[idx], 4.0 * mu[idx]**2 * B[idx]**2,
                                mu[idx]**2 * C[idx], spec)
    idx = idx[good]
    s = fractional_symbol(tau, spec)
    xi = (-s.imag / (2.0 * B[idx] * mu[idx]))[:, None] * xihat[idx]
    out = weighted_symbol(t[idx], x[idx], tau, xi, sigma[idx], spec, coeffs,
                          c, X)
    resid = np.abs(out["value"]) / anisotropic_scale(xi, sigma[idx], tau,
                                                     spec.alpha)
    ok = resid <= tol
    return ((t[idx][ok], x[idx][ok], tau[ok], xi[ok], sigma[idx][ok],
             resid[ok]), resid, keep)


class TestRootFinder:
    spec = MultiTermSpec(orders=(0.5, 0.25), weights=(1.0, 0.5))

    LADDER = (0.05, 0.3, 0.5, 1.0, 1.3, 1.5, 1.7, 1.85, 1.9, 1.95, 1.99)

    def reference_points(self):
        """3,000 random (A, Q, R) and four edge cases, for ``self.spec``.

        Two roots far below the upper end 1 (g ~ 0.39 tau^2 - Q (R - 1.5)
        near 0: 1.96e-100 and 5.8e-8); with A = 0, g = Q (Re S - R) and
        Re S ~ 0.7 tau^(1/2), so a root beyond 2^60 is dropped and one
        between 2^59 and 2^60 takes all 60 doublings.
        """
        rng = np.random.default_rng(17)
        m = 3000
        A = 10.0 ** rng.uniform(-3.0, 2.0, m)
        Q = 10.0 ** rng.uniform(-2.0, 8.0, m)
        R = self.spec.weight_sum * (1.0 + 10.0 ** rng.uniform(-4.0, 4.0, m))
        ws = self.spec.weight_sum
        A = np.concatenate([A, [1.0, 1.0, 0.0, 0.0]])
        Q = np.concatenate([Q, [1e-200, 1.0, 1.0, 1.0]])
        R = np.concatenate([R, [2.0 * ws, ws * (1.0 + 1e-15), 1e12, 7e8]])
        return A, Q, R

    @staticmethod
    def ladder_points(spec):
        """Random (A, Q, R) whose roots run from below 1 past 2^60, with
        A = 0 (start at 1), a tiny A (start at 2^60) and a zero Q."""
        rng = np.random.default_rng(19)
        m = 3000
        A = 10.0 ** rng.uniform(-3.0, 2.0, m)
        Q = 10.0 ** rng.uniform(-2.0, 14.0, m)
        R = spec.weight_sum * (1.0 + 10.0 ** rng.uniform(-4.0, 6.0, m))
        ws = spec.weight_sum
        A = np.concatenate([A, [0.0, 0.0, 1e-300, 1e-300, 1.0]])
        Q = np.concatenate([Q, [1.0, 1.0, 1.0, 1e10, 0.0]])
        R = np.concatenate([R, [2.0 * ws, 1e30, 2.0 * ws, 1e10, 2.0 * ws]])
        return A, Q, R

    @pytest.mark.parametrize("alpha", (None, *LADDER))
    def test_bracket_and_roots_match_doubling(self, alpha, monkeypatch):
        # the walk from the leading-order root ends where doubling from 1
        # ends, with the same g at both ends, so the roots keep their bits
        if alpha is None:
            spec = self.spec
            A, Q, R = self.reference_points()
        else:
            spec = MultiTermSpec(orders=(alpha,), weights=(1.0,))
            A, Q, R = self.ladder_points(spec)
        hi, g_hi, g_lo, _ = symbols._bracket(A, Q, R, spec)
        ref_hi, ref_g_hi, ref_g_lo, _ = doubling_bracket(A, Q, R, spec)
        assert same_bits(hi, ref_hi) and same_bits(g_hi, ref_g_hi)
        good = g_hi > 0.0
        assert good.any() and (hi[good] > 1.0).any()
        halved = good & (hi > 1.0)
        assert same_bits(g_lo[halved], ref_g_lo[halved])
        tau, good, _ = _char_roots(A, Q, R, spec)
        monkeypatch.setattr(symbols, "_bracket", doubling_bracket)
        ref_tau, ref_good, _ = _char_roots(A, Q, R, spec)
        assert np.array_equal(good, ref_good)
        assert same_bits(tau[good], ref_tau[good])

    def test_bracket_walks_fewer_passes_than_doubling(self, monkeypatch):
        # lemma21's geometry at 2,000 samples: the median root sits near
        # 2^17, which doubling climbs to from 1 and the walk starts beside;
        # the points and seed counts stay the same
        X = 0.05

        def sample():
            return char_set_sample(region_for(X), self.spec,
                                   diagonal_variable_field(2), 1.0, X,
                                   2000, rng=np.random.default_rng(3))

        walked = sample()
        monkeypatch.setattr(symbols, "_bracket", doubling_bracket)
        doubled = sample()
        assert (walked.root_passes, doubled.root_passes) == (10, 34)
        for mine, ref in zip((*walked.points, walked.residual),
                             (*doubled.points, doubled.residual)):
            assert same_bits(mine, ref)
        assert (walked.solved, walked.rejected) == (doubled.solved,
                                                    doubled.rejected)

    def test_roots_match_reference(self):
        A, Q, R = self.reference_points()
        tau_ref, good_ref = reference_roots(A, Q, R, self.spec)
        assert good_ref[-4:].tolist() == [True, True, False, True]
        # tau_ref lists the good points only
        assert 1.9e-100 < tau_ref[-3] < 2e-100
        assert 5.8e-8 < tau_ref[-2] < 5.9e-8
        assert 2.0**59 < tau_ref[-1] < 2.0**60
        tau, good, _ = _char_roots(A, Q, R, self.spec)
        assert np.array_equal(good, good_ref)
        assert np.all(np.abs(tau[good] - tau_ref) <= 1e-12 * tau_ref)

    @staticmethod
    def assert_same_points(got, ref, tol):
        """t, x and sigma bitwise, tau and xi within 1e-12 relative of the
        reference, and every residual within ``tol``."""
        t, x, tau, xi, sigma, resid = got
        for mine, want in ((t, ref[0]), (x, ref[1]), (sigma, ref[4])):
            assert np.array_equal(mine, want)
        assert np.all(np.abs(tau - ref[2]) <= 1e-12 * ref[2])
        assert np.all(np.abs(xi - ref[3]) <= 1e-12 * np.abs(ref[3]))
        assert np.all(resid <= tol)

    def _batch_setup(self, seed):
        field = diagonal_variable_field(2)
        X = 0.05
        return (region_for(X), self.spec, field, 1.0, X, 400,
                np.random.default_rng(seed))

    def test_prefix_matches_reference(self):
        region, spec, field, c, X, batch, _ = self._batch_setup(0)
        sr = (15.0, 150.0)
        pts, resid, keep = reference_char_batch(
            region, spec, field, c, X, batch, 1e-8,
            np.random.default_rng(23), sr)
        need = 100
        assert keep.sum() > need and len(pts[2]) >= need
        got, counts = _char_batch(region, spec, field, c, X, batch, need,
                                  1e-8, np.random.default_rng(23), sr)
        self.assert_same_points(got, [col[:need] for col in pts], 1e-8)
        assert counts["solved"] == need and counts["residual"] == 0

    def test_residual_rejection_solves_a_second_prefix(self):
        region, spec, field, c, X, batch, _ = self._batch_setup(0)
        sr = (15.0, 150.0)
        need = 100
        # every solved seed, in draw order: the residuals are rounding
        # noise, so the tolerance comes from this root-finder's own
        every, _ = _char_batch(region, spec, field, c, X, batch, batch, 1.0,
                               np.random.default_rng(29), sr)
        resid = every[5]
        tol = np.sort(resid[:need])[need - 10]   # rejects a few of the first
        pts, _, _ = reference_char_batch(
            region, spec, field, c, X, batch, 1.0,
            np.random.default_rng(29), sr)
        ok = np.flatnonzero(resid <= tol)
        assert len(ok) >= need
        got, counts = _char_batch(region, spec, field, c, X, batch, need,
                                  tol, np.random.default_rng(29), sr)
        self.assert_same_points(got, [col[ok[:need]] for col in pts], tol)
        assert counts["residual"] > 0
        assert counts["solved"] == need + counts["residual"]
        examined = (counts["degenerate_b"] + counts["no_sign_change"]
                    + counts["solved"])
        assert examined < batch

    def test_exhausted_batch_counts_every_seed(self):
        region, spec, field, c, X, batch, _ = self._batch_setup(0)
        sr = (10.0, 60.0)
        pts, resid, keep = reference_char_batch(
            region, spec, field, c, X, batch, 1e-8,
            np.random.default_rng(31), sr)
        got, counts = _char_batch(region, spec, field, c, X, batch, batch,
                                  1e-8, np.random.default_rng(31), sr)
        self.assert_same_points(got, pts, 1e-8)
        assert counts["solved"] == len(resid)
        assert counts["no_sign_change"] == batch - len(resid) > 0
        assert counts["degenerate_b"] == counts["residual"] == 0

    def test_sample_counts_add_up(self):
        X = 0.05
        sample = char_set_sample(region_for(X), self.spec,
                                 diagonal_variable_field(2), 1.0, X,
                                 300, tol=2e-18, rng=np.random.default_rng(3),
                                 sigma_range=(10.0, 60.0))
        assert sample.rejected["no_sign_change"] > 0
        assert sample.rejected["residual"] > 0
        assert sample.solved == sample.found + sample.rejected["residual"]


class TestBlockedReductions:
    """Each blocked reduction equals one unblocked call, bit for bit."""

    @pytest.mark.parametrize("m", [SAMPLE_BLOCK - 1, SAMPLE_BLOCK,
                                   SAMPLE_BLOCK + 1])
    def test_blocked_equals_unblocked(self, m, monkeypatch):
        spec = MultiTermSpec(orders=(0.5, 0.25), weights=(1.0, 0.5))
        base = diagonal_variable_field(2)
        X = 0.05
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.05, T=1.0, stage=3)
        tilde = global_coefficients(base)
        pts = full_region_sample(region_for(X), spec, 2, m,
                                 np.random.default_rng(m))

        def reductions():
            lemma21 = lemma21_check(pts, spec, base, 1.0, X).extras
            lemma61 = lemma61_check(pts, spec, tilde, hmap)
            return [*bracket_report_batch(pts, spec, base, 1.0, X),
                    *_garding_terms(pts, spec, base, 1.0, X),
                    lemma21["ratios"], lemma21["kappa"], lemma61.min_ratio,
                    lemma61.extras["ratios"],
                    lemma61.extras["ellipticity_margin"]]

        blocked = reductions()
        monkeypatch.setattr(symbols, "SAMPLE_BLOCK", 10 * m)
        single = reductions()
        assert len(blocked) == len(single) == 11
        for got, ref in zip(blocked, single):
            assert np.array_equal(got, ref)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


class TestGarding:
    def setup_method(self):
        self.spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        self.field = random_spd_field(2, np.random.default_rng(2))
        self.X = 0.05
        self.region = region_for(self.X)
        self.points = full_region_sample(self.region, self.spec, 2, 20000,
                                         np.random.default_rng(10))

    def test_reduces_to_bracket_on_characteristic_points(self):
        sample = char_set_sample(self.region, self.spec, self.field,
                                 1.0, self.X, 300, tol=1e-10,
                                 rng=np.random.default_rng(11))
        with_term = garding_precondition_check(sample.points, self.spec,
                                               self.field, 1.0, self.X,
                                               varpi=1e3)
        report = lemma21_check(sample.points, self.spec, self.field,
                               1.0, self.X)
        assert abs(with_term.min_ratio - 2.0 * report.min_ratio) \
            < 1e-4 * abs(report.min_ratio) + 1e-12

    @pytest.mark.parametrize("orders, weights", [
        ((1.9,), (1.0,)), ((0.5,), (1.0,)), ((0.5, 0.25), (1.0, 0.5))],
        ids=["1.9", "0.5", "0.5-0.25"])
    @pytest.mark.parametrize("preset", [diagonal_variable_field,
                                        identity_field],
                             ids=["diagonal-variable", "identity"])
    def test_negative_term_is_the_lemma21_ratio_on_the_char_set(
            self, orders, weights, preset):
        # on the characteristic set |p| <= tol scale, so Garding's ratio
        # is its negative term 2 full / scale^(3/2): twice lemma21's ratio
        # plus the time bracket's part, which vanishes when a is constant
        spec = MultiTermSpec(orders=orders, weights=weights)
        X, tol = 0.05, 1e-8
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=X, T=1.0)
        field = pushforward_operator(preset(2), hmap).field
        sample = char_set_sample(region_for(X), spec, field, 1.0, X, 400,
                                 tol=tol, rng=np.random.default_rng(3))
        assert sample.found == 400
        points = sample.points
        elliptic, negative = _garding_terms(points, spec, field, 1.0, X)
        ratio = lemma21_check(points, spec, field, 1.0, X).extras["ratios"]
        _, full, principal = symbols._bracket_arrays(*points, spec, field,
                                                     1.0, X)
        _, _, tau, xi, sigma = points
        scale = anisotropic_scale(xi, sigma, tau, spec.alpha)
        time_part = 2.0 * (full - principal) / scale**1.5
        assert np.all(np.abs(negative - (2.0 * ratio + time_part))
                      <= 1e-12 * (np.abs(2.0 * ratio) + np.abs(time_part)))
        if preset is identity_field:
            assert negative.tobytes() == (2.0 * ratio).tobytes()
        assert np.all(elliptic <= tol**2)

    def test_monotone_in_varpi(self):
        r1 = garding_precondition_check(self.points, self.spec, self.field,
                                        1.0, self.X, varpi=1.0)
        r2 = garding_precondition_check(self.points, self.spec, self.field,
                                        1.0, self.X, varpi=2.0)
        assert r2.min_ratio >= r1.min_ratio

    def test_varpi_is_the_least_passing_float(self):
        varpi, report = find_min_varpi(self.points, self.spec, self.field,
                                       1.0, self.X)
        elliptic, negative = (report.extras["elliptic"],
                              report.extras["negative"])
        assert report.extras["varpi"] == varpi
        assert report.min_ratio == np.min(varpi * elliptic + negative) > 0.0
        below = np.nextafter(varpi, 0.0)
        assert np.min(below * elliptic + negative) <= 0.0
        # within a few floats of the closed form
        mask = negative <= 0.0
        exact = np.max(-negative[mask] / elliptic[mask])
        assert abs(varpi - exact) <= 4.0 * np.spacing(exact)
        with pytest.raises(RuntimeError, match="no varpi below"):
            find_min_varpi(self.points, self.spec, self.field, 1.0,
                           self.X, varpi_max=below)

    @pytest.mark.parametrize("block", [7, 4096, SAMPLE_BLOCK])
    def test_blocked_search_matches_whole_columns(self, block, monkeypatch):
        # the search, its report and the minima read the two terms a block
        # of rows at a time; the whole-column formulas give the same floats
        # and the same first argmin
        elliptic, negative = _garding_terms(self.points, self.spec,
                                            self.field, 1.0, self.X)

        def whole(varpi):
            ratio = varpi * elliptic + negative
            i = int(np.argmin(ratio))
            return float(ratio[i]), i

        monkeypatch.setattr(symbols, "SAMPLE_BLOCK", block)
        varpi, report = symbols._least_varpi(elliptic, negative, 1e8)
        assert (report.min_ratio, report.argmin) == whole(varpi)
        assert whole(varpi)[0] > 0.0 >= whole(np.nextafter(varpi, 0.0))[0]
        for v in (0.0, 0.25 * varpi, 4.0 * varpi):
            assert symbols._garding_min(elliptic, negative, v) == whole(v)

    def test_blocked_minimum_takes_the_first_tie_and_nan(self, monkeypatch):
        monkeypatch.setattr(symbols, "SAMPLE_BLOCK", 16)
        elliptic = np.ones(100)
        negative = np.random.default_rng(3).uniform(0.0, 1.0, 100)
        negative[[30, 70]] = -5.0
        assert symbols._garding_min(elliptic, negative, 1.0) == (-4.0, 30)
        negative[[50, 90]] = np.nan
        least, i = symbols._garding_min(elliptic, negative, 1.0)
        assert math.isnan(least) and i == 50 == np.argmin(negative)
        with pytest.raises(ValueError):
            symbols._garding_min(elliptic[:0], negative[:0], 1.0)

    def test_search_holds_no_whole_sample_temporary(self):
        rng = np.random.default_rng(4)
        m = 40 * SAMPLE_BLOCK
        elliptic = rng.uniform(0.5, 1.0, m)
        negative = rng.uniform(-1.0, 1.0, m)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            varpi, _ = symbols._least_varpi(elliptic, negative, 1e8)
            for f in (0.25, 0.5, 1.0, 2.0, 4.0):
                symbols._garding_min(elliptic, negative, f * varpi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a column is 8 m bytes; a block's temporaries, a few 8-byte
        # values per row of SAMPLE_BLOCK, are a few hundred KB at most
        assert peak - base < 8 * m // 4

    def test_nan_terms_are_named(self):
        # a tau past the float range, which full_region_sample refuses
        t, x, tau, xi, sigma = (np.array(a, dtype=float, copy=True)
                                for a in self.points)
        tau[:3] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError,
                               match="terms are NaN at 3 of 20000 samples"):
                find_min_varpi((t, x, tau, xi, sigma), self.spec, self.field,
                               1.0, self.X)

    @pytest.mark.parametrize("alpha,hi", [(0.5, 1e77), (1.5, 1e230)])
    def test_largest_finite_tau_is_sampled(self, alpha, hi, monkeypatch):
        # the tau bound alone; the |p|^2 bound, which the sampler checks
        # after it and which refuses both ranges, is tested below
        monkeypatch.setattr(symbols, "squared_scale_check",
                            lambda magnitude_range, alpha: None)
        spec = MultiTermSpec(orders=(alpha,), weights=(1.0,))
        _, _, tau, _, _ = full_region_sample(
            self.region, spec, 2, 100, np.random.default_rng(4),
            magnitude_range=(1.0, hi))
        assert np.all(np.isfinite(tau))

    @pytest.mark.parametrize("alpha,hi", [(0.5, 1e78), (1.5, 1e233),
                                          (0.5, 1e200)])
    def test_overflowing_tau_names_the_range(self, alpha, hi):
        spec = MultiTermSpec(orders=(alpha,), weights=(1.0,))
        message = (f"magnitude_range=(1.0, {hi!r}) overflows tau: "
                   f"1.2*hi^(2/alpha) is not finite at alpha={alpha}")
        with pytest.raises(ValueError, match=re.escape(message)):
            full_region_sample(self.region, spec, 2, 100,
                               np.random.default_rng(4),
                               magnitude_range=(1.0, hi))

    @pytest.mark.parametrize("alpha,hi", [(0.5, 1e76), (1.5, 1e76)])
    def test_finite_squared_scale_passes(self, alpha, hi):
        symbols.squared_scale_check((1.0, hi), alpha)

    @pytest.mark.parametrize("alpha,hi", [(0.5, 1e77), (1.5, 1e77),
                                          (1.5, 1e230)])
    def test_overflowing_squared_scale_names_the_range(self, alpha, hi):
        # tau is finite at each of these (see above), |p|^2 is not; the
        # sampler checks both
        message = (f"magnitude_range=(1.0, {hi!r}) overflows |p|^2: "
                   f"((1+1.2^alpha)*hi^2)^2 is not finite at alpha={alpha}")
        with pytest.raises(ValueError, match=re.escape(message)):
            symbols.squared_scale_check((1.0, hi), alpha)
        spec = MultiTermSpec(orders=(alpha,), weights=(1.0,))
        with pytest.raises(ValueError, match=re.escape(message)):
            full_region_sample(self.region, spec, 2, 100,
                               np.random.default_rng(4),
                               magnitude_range=(1.0, hi))


class TestStageCertificate:
    def test_reduces_to_flat_ratio_on_axis(self):
        # points with vanishing stretched coordinates: weights collapse to 1
        base = identity_field(2)
        tilde = global_coefficients(base)
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.05, T=1.0, stage=1)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        frame = pushforward_operator(tilde, hmap)
        region = region_for(hmap.X)
        sample = char_set_sample(region, spec, frame.field, hmap.c, hmap.X,
                                 300, tol=1e-8, rng=np.random.default_rng(3))
        report = lemma61_check(sample.points, spec, tilde, hmap)
        assert report.passed
        assert report.extras["ellipticity_margin"] >= -1e-12

    def test_stage_weight_factor_formula(self):
        from fraclab import stretch_weights
        X = 0.05
        yn = 4.0 * X
        assert abs(stretch_weights(np.array([yn]))[0]
                   - (1.0 + yn**2) ** 1.5) < 1e-15

    def test_stage5_positive(self):
        base = diagonal_variable_field(2)
        tilde = global_coefficients(base)
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.05, T=1.0, stage=5)
        spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
        frame = pushforward_operator(tilde, hmap)
        region = region_for(hmap.X)
        sample = char_set_sample(region, spec, frame.field, hmap.c, hmap.X,
                                 500, tol=1e-8, rng=np.random.default_rng(9))
        report = lemma61_check(sample.points, spec, tilde, hmap)
        assert report.passed
        assert report.extras["ellipticity_margin"] > 0.0


class TestScaleHelpers:
    def test_anisotropic_scale(self):
        val = anisotropic_scale(np.array([3.0, 4.0]), 2.0, -8.0, 0.5)
        assert abs(val - (25.0 + 4.0 + 8.0**0.5)) < 1e-13
