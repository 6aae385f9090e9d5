"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the certificate values; the printed PASS/FAIL line appears
before the assertion so failures still report their measured margins.
"""

import math

import numpy as np
import pytest

from fraclab import (HolmgrenMap, MultiTermSpec, SpaceTimeGrid, TimeGrid,
                     beta_sweep, c_alpha_sharp, caputo_l1, caputo_oracle,
                     caputo_power_rule, char_set_sample, constant_field,
                     default_bump_family, diagonal_variable_field,
                     find_min_varpi, full_region_sample, global_coefficients,
                     identity_field, imag_part_margin, lemma21_check,
                     lemma61_check, pushforward_operator, real_part_margin,
                     region_for, rotating_anisotropic_field, solve,
                     weighted_symbol)
from fraclab.symbols import bracket_report_batch

X_LAYER = 0.05


def verdict(number, name, ok, detail):
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} "
          f"{name}: {detail}")
    return ok


def spec_for(alpha, m):
    if m == 1:
        return MultiTermSpec(orders=(alpha,), weights=(1.0,))
    return MultiTermSpec(orders=(alpha, alpha / 2.0), weights=(1.0, 0.5))


def field_for(n):
    return identity_field(1) if n == 1 else diagonal_variable_field(n)


def test_criterion_01_caputo_power_rule():
    alphas = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
    n_steps = 4096
    grid_t = np.linspace(0.0, 1.0, n_steps + 1)
    u = grid_t**2
    worst_l1 = 0.0
    worst_oracle = 0.0
    for alpha in alphas:
        exact = caputo_power_rule(2.0, alpha, 1.0)
        approx = caputo_l1(u, alpha, 1.0 / n_steps)[-1]
        worst_l1 = max(worst_l1, abs(approx - exact) / exact)
        k1 = alpha < 1.0
        oracle = caputo_oracle((lambda t: 2.0 * t) if k1 else (lambda t: 2.0),
                               alpha, 1.0, tol=1e-12)
        worst_oracle = max(worst_oracle, abs(oracle - exact) / exact)
    ok = worst_l1 <= 0.05 and worst_oracle <= 1e-8
    verdict(1, "Caputo power rule", ok,
            f"max rel err: L1 {worst_l1:.3e} (tol 5e-2), "
            f"quadrature {worst_oracle:.3e} (tol 1e-8)")
    assert ok


def stack(draws):
    """Arrays (t, x, tau, xi, sigma) from per-point draws, in draw order."""
    return tuple(np.array(col) for col in zip(*draws))


def test_criterion_02_gradient_consistency():
    rng = np.random.default_rng(7)
    rels = []
    for n in (1, 2, 3):
        spec = MultiTermSpec(orders=(1.3, 0.6), weights=(1.0, 0.4))
        field = (rotating_anisotropic_field(n) if n >= 2
                 else diagonal_variable_field(1))
        t, x, tau, xi, sigma = stack(
            (rng.uniform(0.1, 0.9),
             np.concatenate([rng.uniform(-0.2, 0.2, n - 1),
                             [rng.uniform(0.0, X_LAYER)]]),
             rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]),
             rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n),
             rng.uniform(0.5, 3.0)) for _ in range(1000))
        g = weighted_symbol(t, x, tau, xi, sigma, spec, field, 1.0,
                            X_LAYER, grads=True)

        def value(t, x, tau, xi):
            return weighted_symbol(t, x, tau, xi, sigma, spec, field, 1.0,
                                   X_LAYER)["value"]

        h = 1e-5
        pairs = []
        for r in range(n):
            e = np.zeros(xi.shape)
            e[:, r] = h * np.maximum(1.0, np.abs(xi[:, r]))
            fd = (value(t, x, tau, xi + e) - value(t, x, tau, xi - e)) \
                / (2.0 * e[:, r])
            pairs.append((g["d_xi"][:, r], fd))
            e[:, r] = h * np.maximum(1.0, np.abs(x[:, r]))
            fd = (value(t, x + e, tau, xi) - value(t, x - e, tau, xi)) \
                / (2.0 * e[:, r])
            pairs.append((g["d_x"][:, r], fd))
        ht = h * np.maximum(1.0, np.abs(tau))
        fd = (value(t, x, tau + ht, xi) - value(t, x, tau - ht, xi)) \
            / (2.0 * ht)
        pairs.append((g["d_tau"], fd))
        fd = (value(t + h, x, tau, xi) - value(t - h, x, tau, xi)) / (2.0 * h)
        pairs.append((g["d_t"], fd))
        # a partial that is incidentally near zero cannot carry a pure
        # relative comparison (the difference quotient resolves it only
        # to truncation level), so the denominator is floored at a small
        # multiple of the symbol scale at that point
        floor = 1e-4 * (1.0 + np.abs(g["value"]))
        for analytic, fd in pairs:
            rels.append(np.abs(fd - analytic)
                        / np.maximum(np.abs(analytic), floor))
    rels = np.concatenate(rels)
    worst, checked = float(np.max(rels)), rels.size
    ok = worst < 1e-6
    verdict(2, "gradient consistency", ok,
            f"{checked} partials over n in (1,2,3); worst rel err "
            f"{worst:.3e} (tol 1e-6)")
    assert ok


def test_criterion_03_closed_form_bracket():
    rng = np.random.default_rng(12)
    rels = []
    X = 0.1
    spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
    for n in (1, 2, 3):
        m = rng.normal(size=(n, n))
        field = constant_field(m @ m.T + n * np.eye(n))
        a = field.a(0.0, np.zeros(n))
        # the convexification is switched off so the tilt terms vanish and
        # the spatial bracket collapses to its two-term closed form
        points = stack(
            (rng.uniform(0.0, 1.0),
             np.concatenate([np.zeros(n - 1), [rng.uniform(0.0, 0.1)]]),
             rng.uniform(-3.0, 3.0),
             rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n),
             rng.uniform(0.5, 3.0)) for _ in range(1000))
        _, principal, _, _ = bracket_report_batch(points, spec, field,
                                                  c=0.0, X=X)
        _, x, _, xi, sigma = points
        mu = sigma * (x[:, -1] - 2.0 * X)
        closed = (4.0 * sigma * (xi @ a[:, -1]) ** 2
                  + 4.0 * a[-1, -1] ** 2 * sigma * mu**2)
        rels.append(np.abs(principal - closed) / np.abs(closed))
    worst = float(np.max(np.concatenate(rels)))
    ok = worst <= 1e-12
    verdict(3, "closed-form spatial bracket", ok,
            f"3000 constant-coefficient points with x'=0; worst rel dev "
            f"{worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_04_characteristic_bracket_bound():
    region = region_for(X_LAYER)
    results = []
    for n in (1, 2):
        field = field_for(n)
        for m in (1, 2):
            for alpha in (0.3, 0.5, 1.0, 1.5):
                spec = spec_for(alpha, m)
                sample = char_set_sample(region, spec, field, 1.0, X_LAYER,
                                         10000, tol=1e-8,
                                         rng=np.random.default_rng(42))
                rep = lemma21_check(sample.points, spec, field, 1.0, X_LAYER)
                results.append((n, m, alpha, sample.found, rep.min_ratio))
    ok = all(found == 10000 and ratio > 0.0
             for _, _, _, found, ratio in results)
    certificate = min(r[4] for r in results)
    verdict(4, "characteristic-set bracket bound", ok,
            f"16 configs x 10^4 samples; certificate min ratio "
            f"{certificate:.6e} (> 0 required)")
    assert ok


def test_criterion_05_sharpened_full_region_bound():
    region = region_for(X_LAYER)
    results = []
    for n in (1, 2):
        field = field_for(n)
        for m in (1, 2):
            for alpha in (0.3, 0.5, 1.0, 1.5):
                spec = spec_for(alpha, m)
                pts = full_region_sample(region, spec, n, 100000,
                                         np.random.default_rng(5))
                varpi, rep = find_min_varpi(pts, spec, field, 1.0, X_LAYER)
                results.append((n, m, alpha, varpi, rep.min_ratio))
    ok = all(r[4] > 0.0 for r in results)
    max_varpi = max(r[3] for r in results)
    verdict(5, "sharpened full-region bound", ok,
            f"16 configs x 10^5 samples; least multipliers up to "
            f"{max_varpi:.4g}; min ratios all positive: {ok}")
    assert ok


def test_criterion_06_stage_certificates():
    region = region_for(X_LAYER)
    spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
    tilde = global_coefficients(diagonal_variable_field(2))
    results = []
    for stage in (1, 3, 5):
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=X_LAYER, T=1.0,
                           stage=stage)
        frame = pushforward_operator(tilde, hmap)
        sample = char_set_sample(region, spec, frame.field, hmap.c, hmap.X,
                                 10000, tol=1e-8,
                                 rng=np.random.default_rng(stage))
        rep = lemma61_check(sample.points, spec, tilde, hmap)
        results.append((stage, sample.found, rep.min_ratio,
                        rep.extras["ellipticity_margin"]))
    ok = all(found == 10000 and ratio > 0.0 and margin > 0.0
             for _, found, ratio, margin in results)
    verdict(6, "stage certificates with stretched scale", ok,
            "; ".join(f"s={s}: min ratio {r:.4e}, ellipticity margin "
                      f"{m:.3e}" for s, _, r, m in results))
    assert ok


def test_criterion_07_bracket_homogeneity():
    rng = np.random.default_rng(23)
    spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))
    field = diagonal_variable_field(2)
    t, x, tau, xi, sigma = stack(
        (rng.uniform(0.1, 0.9),
         np.array([rng.uniform(-0.2, 0.2), rng.uniform(0.0, X_LAYER)]),
         rng.uniform(-2.0, 2.0),
         rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2),
         rng.uniform(0.5, 3.0)) for _ in range(100))
    scaled = {}
    for rho in (100.0, 1000.0):
        points = (t, x, tau * rho ** (2.0 / spec.alpha), xi * rho,
                  sigma * rho)
        _, principal, _, _ = bracket_report_batch(points, spec, field,
                                                  1.0, X_LAYER)
        scaled[rho] = principal / rho**3
    worst = float(np.max(np.abs(scaled[1000.0] - scaled[100.0])
                         / np.abs(scaled[100.0])))
    ok = worst < 0.05
    verdict(7, "anisotropic scaling of the bracket", ok,
            f"100 base points; worst rel variation of bracket/rho^3 between "
            f"rho=1e2 and 1e3: {worst:.3e} (tol 5e-2)")
    assert ok


def test_criterion_08_scalar_constants_certificates():
    rng = np.random.default_rng(31)
    alphas = np.linspace(0.1, 1.9, 20)
    worst_imag = math.inf
    worst_imag_alpha = None
    worst_real = math.inf
    imag_sharp_worst = math.inf
    for alpha in alphas:
        taus = (rng.choice([-1.0, 1.0], 10000)
                * 10.0 ** rng.uniform(0.0, 6.0, 10000))
        margin = imag_part_margin(alpha, taus)
        if margin < worst_imag:
            worst_imag, worst_imag_alpha = margin, alpha
        imag_sharp_worst = min(imag_sharp_worst, imag_part_margin(
            alpha, taus, constant=c_alpha_sharp(alpha)))
        small = rng.uniform(-1.0, 1.0, 10000)
        worst_real = min(worst_real, real_part_margin(alpha, small))
    ok_imag = worst_imag >= -1e-12
    ok_real = worst_real >= -1e-12
    ok = ok_imag and ok_real
    verdict(8, "imaginary/real part lower-bound constants", ok,
            f"imaginary-part constant min(sqrt2/2, sin(pi(1-a/2))): worst "
            f"margin {worst_imag:.3e} at alpha={worst_imag_alpha:.3f} "
            f"(the constant exceeds the true infimum sin(a*pi/4) for "
            f"orders below 1; sharp-constant margin {imag_sharp_worst:.2e}); "
            f"real-part constant cos(a*pi/4): worst margin {worst_real:.3e}")
    assert ok, (
        "the imaginary-part certificate fails for orders below 1: "
        f"measured margin {worst_imag:.3e} at alpha={worst_imag_alpha:.3f}; "
        "the sharp constant min(sin(a*pi/4), sin(pi(1-a/2))) passes "
        f"(margin {imag_sharp_worst:.3e})")


def test_criterion_09_manufactured_convergence():
    spec = MultiTermSpec(orders=(0.5,), weights=(1.0,))

    def exact(t, Y):
        return t**2 * np.sin(np.pi * Y[..., 0])

    def source(t, Y):
        sine = np.sin(np.pi * Y[..., 0])
        return (caputo_power_rule(2.0, 0.5, np.maximum(t, 1e-300))
                + np.pi**2 * t**2) * sine

    errors = []
    for n in (64, 128, 256):
        grid = SpaceTimeGrid(bounds=((0.0, 1.0),), shape=(n,),
                             time=TimeGrid.from_interval(1.0, n))
        result = solve(spec, identity_field(1), source, grid,
                       check_residual=False)
        ref = np.stack([exact(t, grid.mesh()) for t in grid.time.nodes])
        errors.append(float(np.abs(result.field.values - ref).max()))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = (errors[0] > errors[1] > errors[2] and min(orders) >= 1.2
          and errors[-1] <= 1e-2)
    verdict(9, "manufactured-solution convergence", ok,
            f"max errors {['%.3e' % e for e in errors]}, observed orders "
            f"{['%.2f' % o for o in orders]} (need >= 1.2, decreasing)")
    assert ok


def test_criterion_10_weighted_inequality_sweep():
    X_wide = 0.3
    hmap = HolmgrenMap(y_hat=np.zeros(1), c=1.0, X=X_wide, T=1.0)
    frame = pushforward_operator(identity_field(1), hmap)
    grid = SpaceTimeGrid(bounds=((0.0, X_wide),), shape=(161,),
                         time=TimeGrid.from_interval(1.0, 160))
    details = []
    ok = True
    for alpha in (0.5, 1.5):
        spec = MultiTermSpec(orders=(alpha,), weights=(1.0,))
        result = beta_sweep((25.0, 50.0, 100.0, 200.0, 400.0), spec,
                            default_bump_family(grid, 5), grid, frame)
        spread = result.max_ratio / result.min_ratio
        branch_ok = (result.flagged == 0
                     and math.isfinite(result.max_ratio)
                     and spread <= 100.0
                     and not result.top_half_monotone_growth())
        ok = ok and branch_ok
        details.append(f"alpha={alpha}: max ratio {result.max_ratio:.4g}, "
                       f"spread {spread:.2f}, monotone growth "
                       f"{result.top_half_monotone_growth()}")
    verdict(10, "weighted inequality beta sweep", ok, "; ".join(details))
    assert ok


def test_criterion_11_geometry_round_trips():
    rng = np.random.default_rng(4)
    worst_rt = 0.0
    worst_stage = 0.0
    X, T = 0.05, 1.0
    t = rng.uniform(0.0, T, 10000)
    y = rng.normal(size=(10000, 3))
    for stage in (1, 2, 3, 4, 5):
        hmap = HolmgrenMap(y_hat=np.array([0.1, -0.2, 0.0]), c=1.5, X=X, T=T,
                           stage=stage)
        _, x = hmap.forward(t, y)
        _, back = hmap.inverse(t, x)
        worst_rt = max(worst_rt, float(np.abs(back - y).max()))
        if stage > 1:
            prev = HolmgrenMap(y_hat=np.array([0.1, -0.2, 0.0]), c=1.5, X=X,
                               T=T, stage=stage - 1)
            x_prev = prev.forward(t, y)[1][:, -1]
            gap = x[:, -1] - (x_prev + X * t / T - X)
            worst_stage = max(worst_stage, float(np.abs(gap).max()))
    ok = worst_rt <= 1e-14 and worst_stage <= 1e-14
    verdict(11, "round trips and stage recursion", ok,
            f"10^4 points, stages 1..5: round-trip error {worst_rt:.2e}, "
            f"stage-identity error {worst_stage:.2e} (tol 1e-14)")
    assert ok
