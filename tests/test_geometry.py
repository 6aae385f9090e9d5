import json
import math

import numpy as np
import pytest

from fraclab import (ContinuationRegion, CutoffSpec, HolmgrenMap,
                     constant_field, continuation_schedule,
                     diagonal_variable_field, global_coefficients,
                     global_diffeo_forward, global_diffeo_inverse,
                     identity_field, make_cutoffs, polynomial_field,
                     pushforward_operator, rotating_anisotropic_field,
                     smooth_step, stretch_weights,
                     weighted_ellipticity_margin)


def polynomial_preset(n):
    tables = [{"j": j, "k": j, "terms": [
        {"coeff": 1.5, "t_pow": 0, "y_pows": [0] * n},
        {"coeff": 0.2, "t_pow": 1, "y_pows": [2] + [0] * (n - 1)}]}
        for j in range(n)]
    if n > 1:
        tables.append({"j": 0, "k": n - 1, "terms": [
            {"coeff": 0.1, "t_pow": 1, "y_pows": [1] + [0] * (n - 2) + [1]}]})
    return polynomial_field(n, tables, delta=0.5)


FIELD_PRESETS = {
    "identity": identity_field,
    "diagonal": diagonal_variable_field,
    "rotating": lambda n: rotating_anisotropic_field(n, spin=0.7, shear=1.1),
    "polynomial": polynomial_preset,
    "constant": lambda n: constant_field(
        np.eye(n) + 0.2 * np.ones((n, n)), delta=0.5),
}


class TestHolmgrenMap:
    def test_forward_hand_value(self):
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.1, T=1.0)
        _, x = hmap.forward(0.5, np.array([0.2, 0.05]))
        assert abs(x[0] - 0.2) < 1e-15
        assert abs(x[1] - 0.14) < 1e-15

    def test_stage_two_hand_value(self):
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.1, T=1.0, stage=2)
        _, x = hmap.forward(0.5, np.array([0.2, 0.05]))
        assert abs(x[1] - 0.09) < 1e-15

    @pytest.mark.parametrize("stage", [1, 2, 3, 5])
    def test_round_trip(self, stage):
        rng = np.random.default_rng(stage)
        hmap = HolmgrenMap(y_hat=np.array([0.3, -0.1, 0.0]), c=2.0, X=0.05,
                           T=2.0, stage=stage)
        t = rng.uniform(0.0, 2.0, 10000)
        y = rng.normal(size=(10000, 3))
        _, x = hmap.forward(t, y)
        _, back = hmap.inverse(t, x)
        assert np.max(np.abs(back - y)) < 1e-14

    def test_stage_recursion(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0.0, 1.0, 1000)
        y = rng.normal(size=(1000, 2))
        for s in range(2, 6):
            prev = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.05, T=1.0,
                               stage=s - 1)
            curr = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.05, T=1.0, stage=s)
            x_prev = prev.forward(t, y)[1][:, -1]
            x_curr = curr.forward(t, y)[1][:, -1]
            gap = x_curr - (x_prev + 0.05 * t / 1.0 - 0.05)
            assert np.max(np.abs(gap)) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            HolmgrenMap(y_hat=np.array([0.0, 0.5]), c=1.0, X=0.1, T=1.0)
        with pytest.raises(ValueError):
            HolmgrenMap(y_hat=np.zeros(2), c=-1.0, X=0.1, T=1.0)
        with pytest.raises(ValueError):
            HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=1.5, T=1.0)
        with pytest.raises(ValueError):
            HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.1, T=1.0, stage=0)


class TestNonFiniteGuards:
    # NaN fails every comparison, so a guard written x <= 0 let it through,
    # and +inf passes a guard written x > 0
    @pytest.mark.parametrize("make, message", [
        (lambda: HolmgrenMap(y_hat=np.zeros(2), c=math.nan, X=0.1, T=1.0),
         "convexification constant must be nonnegative"),
        (lambda: HolmgrenMap(y_hat=np.zeros(2), c=math.inf, X=0.1, T=1.0),
         "convexification constant must be nonnegative and finite"),
        (lambda: HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=math.nan, T=1.0),
         r"layer thickness X must lie in \(0, 1\)"),
        (lambda: HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.1, T=math.nan),
         "time horizon must be positive"),
        (lambda: HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.1, T=math.inf),
         "time horizon must be positive and finite"),
        (lambda: CutoffSpec(zeta=1, epsilon=0.5, X=0.1, n=2, l=math.nan),
         "box depth must be positive"),
        (lambda: CutoffSpec(zeta=1, epsilon=0.5, X=0.1, n=2, l=math.inf),
         "box depth must be positive and finite"),
    ], ids=["map-c", "map-c-inf", "map-X", "map-T", "map-T-inf", "cutoff-l",
            "cutoff-l-inf"])
    def test_nan_fails_the_positivity_guards(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestPushforward:
    def test_identity_at_flat_points(self):
        # with x' = 0 the tilt is inactive, so the effective form is the
        # original matrix whatever the convexification constant is
        field = diagonal_variable_field(2)
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=3.0, X=0.05, T=1.0)
        frame = pushforward_operator(field, hmap)
        x = np.array([0.0, 0.02])
        base = frame.field.a(0.4, x)
        eff = frame.effective_matrix(x, base)
        assert np.allclose(eff, base, rtol=0.0, atol=1e-15)

    def test_normal_coefficient_gains_tilt_square(self):
        field = identity_field(2)
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.05, T=1.0)
        frame = pushforward_operator(field, hmap)
        x = np.array([0.2, 0.01])
        eff = frame.effective_matrix(x, frame.field.a(0.0, x))
        assert abs(eff[1, 1] - (1.0 + 4.0 * x[0] ** 2)) < 1e-14

    def test_effective_matrix_symmetric(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 3))
        field = constant_field(m @ m.T + 3.0 * np.eye(3))
        hmap = HolmgrenMap(y_hat=np.zeros(3), c=2.0, X=0.05, T=1.0)
        frame = pushforward_operator(field, hmap)
        x = rng.normal(size=3) * 0.1
        eff = frame.effective_matrix(x, frame.field.a(0.3, x))
        assert np.allclose(eff, eff.T, atol=1e-15)

    @pytest.mark.parametrize("maker", [diagonal_variable_field,
                                       lambda n: identity_field(n)])
    def test_chain_rule_derivatives(self, maker):
        field = maker(2)
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.5, X=0.05, T=1.0, stage=3)
        frame = pushforward_operator(field, hmap)
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(20):
            t = rng.uniform(0.1, 0.9)
            x = rng.normal(size=2) * 0.2
            fd_t = (frame.field.a(t + h, x) - frame.field.a(t - h, x)) / (2 * h)
            dt, dx = frame.field.grads(t, x)
            assert np.max(np.abs(fd_t - dt)) < 1e-7
            for r in range(2):
                e = np.zeros(2)
                e[r] = h
                fd = (frame.field.a(t, x + e) - frame.field.a(t, x - e)) / (2 * h)
                assert np.max(np.abs(fd - dx[r])) < 1e-7

    def test_pushforward_preserves_ellipticity(self):
        field = diagonal_variable_field(3)
        hmap = HolmgrenMap(y_hat=np.zeros(3), c=2.0, X=0.05, T=1.0, stage=2)
        frame = pushforward_operator(field, hmap)
        rng = np.random.default_rng(11)
        for _ in range(30):
            t = rng.uniform(0.0, 1.0)
            x = rng.normal(size=(5, 3)) * 0.3
            assert frame.field.ellipticity_margin(t, x) > -1e-12

    def test_support_pushes_into_upper_half(self):
        # a bump supported in {y_n >= 0}, vanishing for t <= 0, pushes
        # forward to a function supported in {x_n >= 0}
        hmap = HolmgrenMap(y_hat=np.zeros(2), c=1.0, X=0.1, T=1.0)

        def bump(t, y):
            ramp = np.clip(t, 0.0, None) ** 2
            yn = np.clip(y[..., -1], 0.0, None)
            core = np.clip(1.0 - ((y[..., 0]) / 0.4) ** 2, 0.0, None) ** 2
            return ramp * np.clip(1.0 - (yn / 0.3 - 0.5) ** 2, 0.0, None) ** 2 \
                * core * (y[..., -1] >= 0.0)

        rng = np.random.default_rng(4)
        t = rng.uniform(0.0, 1.0, 4000)
        x = np.column_stack([rng.uniform(-0.5, 0.5, 4000),
                             rng.uniform(-0.5, 0.5, 4000)])
        _, y = hmap.inverse(t, x)
        pushed = bump(t, y)
        assert np.all(pushed[x[:, -1] < 0.0] == 0.0)


class TestCongruence:
    @pytest.mark.parametrize("c", [0.0, 1.5])
    @pytest.mark.parametrize("preset, n", [
        (preset, n) for preset in sorted(FIELD_PRESETS) for n in (1, 2, 3)
        # the rotating field needs two dimensions
        if (preset, n) != ("rotating", 1)])
    def test_effective_forms_equal_einsum_bitwise(self, preset, n, c):
        hmap = HolmgrenMap(y_hat=np.zeros(n), c=c, X=0.05, T=1.0)
        frame = pushforward_operator(FIELD_PRESETS[preset](n), hmap)
        rng = np.random.default_rng(n)
        points = [(rng.uniform(0.0, 1.0, 500), rng.normal(size=(500, n))),
                  (0.3, rng.normal(size=(7, 9, n))),
                  (0.8, rng.normal(size=n))]
        for t, x in points:
            m = frame._tilt_matrix(x)
            got = frame.effective_matrix(x, frame.field.a(t, x))
            want = np.einsum("...ji,...jk,...kl->...il", m,
                             np.asarray(frame.field.a(t, x), dtype=float), m)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestGlobalDiffeo:
    def test_fixed_point(self):
        assert np.allclose(global_diffeo_forward(np.zeros(3)), 0.0)

    def test_hand_value(self):
        assert abs(global_diffeo_forward(np.array([0.6]))[0] - 0.75) < 1e-14

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(-0.99, 0.99, size=(5000, 3))
        yt = global_diffeo_forward(y)
        assert np.max(np.abs(global_diffeo_inverse(yt) - y)) < 1e-12

    def test_jacobian_positive(self):
        # the Jacobian diagonal (1 - y^2)^(-3/2) is the stretch weight of
        # the image point
        rng = np.random.default_rng(3)
        y = rng.uniform(-0.999, 0.999, size=(2000, 2))
        jac = stretch_weights(global_diffeo_forward(y))
        assert np.all(jac > 0.0)
        assert np.allclose(jac, (1.0 - y**2) ** -1.5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            global_diffeo_forward(np.array([1.0]))

    def test_transformed_matrix_weights(self):
        field = diagonal_variable_field(2)
        tilde = global_coefficients(field)
        rng = np.random.default_rng(5)
        for _ in range(20):
            yt = rng.normal(size=2)
            y = global_diffeo_inverse(yt)
            w = stretch_weights(yt)
            expected = field.a(0.3, y) * np.outer(w, w)
            assert np.allclose(tilde.a(0.3, yt), expected, rtol=1e-13)

    def test_transformed_derivatives(self):
        tilde = global_coefficients(diagonal_variable_field(2))
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(20):
            t = rng.uniform(0.1, 0.9)
            yt = rng.normal(size=2)
            fd_t = (tilde.a(t + h, yt) - tilde.a(t - h, yt)) / (2 * h)
            dt, dyt = tilde.grads(t, yt)
            assert np.max(np.abs(fd_t - dt)) < 1e-6
            for r in range(2):
                e = np.zeros(2)
                e[r] = h
                fd = (tilde.a(t, yt + e) - tilde.a(t, yt - e)) / (2 * h)
                assert np.max(np.abs(fd - dyt[r])) < 1e-6

    def test_weighted_ellipticity_sampled(self):
        tilde = global_coefficients(diagonal_variable_field(3))
        rng = np.random.default_rng(7)
        for _ in range(50):
            yt = rng.normal(size=3) * 2.0
            margin = weighted_ellipticity_margin(tilde, rng.uniform(0, 1), yt)
            assert margin > 0.0

    def test_weighted_margin_closed_form(self):
        # W^-1 a~ W^-1 is diag(1 + 0.3 sin(y_j) cos t) at y = inverse(yt),
        # and delta = 0.7; on these samples the lower side binds
        tilde = global_coefficients(diagonal_variable_field(3))
        rng = np.random.default_rng(12)
        t = rng.uniform(0.0, 3.0, 400)
        yt = rng.normal(size=(400, 3)) * 2.0
        y = global_diffeo_inverse(yt)
        lam = 1.0 + 0.3 * np.sin(y) * np.cos(t)[:, None]
        assert lam.min() - 0.7 < 1.0 / 0.7 - lam.max()
        margin = weighted_ellipticity_margin(tilde, t, yt)
        assert abs(margin - (lam.min() - 0.7)) < 1e-13


class TestCutoffs:
    def test_step_endpoints(self):
        s = smooth_step(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
        assert s[0] == 0.0 and s[1] == 0.0
        assert s[3] == 1.0 and s[4] == 1.0
        assert 0.0 < s[2] < 1.0

    def test_layer_cutoff_plateau_and_support(self):
        spec = CutoffSpec(zeta=1, epsilon=0.5, X=0.1, n=2)
        _, chi = make_cutoffs(spec)
        assert chi((1.0 - spec.epsilon) * spec.X / 2.0) == 1.0
        assert chi(2.0 * spec.X) == 0.0
        mid = chi(np.linspace(0.0, 0.2, 101))
        assert np.all((0.0 <= mid) & (mid <= 1.0))

    def test_box_cutoff(self):
        spec = CutoffSpec(zeta=1, epsilon=0.5, X=0.04, n=2)
        kappa, _ = make_cutoffs(spec)
        center = np.array([0.0, spec.X / 2.0])
        assert kappa(center) == 1.0
        outside = np.array([3.0 * math.sqrt(spec.X), spec.X / 2.0])
        assert kappa(outside) == 0.0
        below = np.array([0.0, -spec.l])
        assert kappa(below) == 0.0
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(500, 2)) * 0.5
        vals = kappa(pts)
        assert np.all((0.0 <= vals) & (vals <= 1.0))


class TestContinuation:
    def test_membership_hand_value(self):
        region = ContinuationRegion(stage=3, X=0.05, T=1.0)
        y = np.array([0.0, 0.4 * 3 * 0.05])
        assert region.contains(0.5, y)

    def test_membership_monotone_in_time(self):
        region = ContinuationRegion(stage=2, X=0.05, T=1.0)
        rng = np.random.default_rng(2)
        for _ in range(200):
            y = np.array([rng.uniform(-0.1, 0.1), rng.uniform(-0.2, 0.1)])
            t2 = rng.uniform(0.0, 1.0)
            t1 = rng.uniform(0.0, t2)
            if region.contains(t2, y) and t1 > 0.0:
                assert region.contains(t1, y)

    def test_early_time_limit(self):
        region = ContinuationRegion(stage=1, X=0.05, T=1.0)
        eps = 1e-9
        inside = np.array([0.0, 0.05 - 1e-6])
        outside = np.array([0.0, 0.05 + 1e-6])
        assert region.contains(eps, inside)
        assert not region.contains(eps, outside)

    def test_schedule_covers_regions(self):
        schedule = continuation_schedule(T=1.0, X=0.05, s_max=4, n=2)
        rng = np.random.default_rng(5)
        for hmap, region in schedule:
            pts_t = rng.uniform(0.0, 1.0, 3000)
            pts_y = np.column_stack([
                rng.uniform(-math.sqrt(0.05), math.sqrt(0.05), 3000),
                rng.uniform(-0.4, 0.3, 3000)])
            member = region.contains(pts_t, pts_y)
            # recenter the map laterally at each member point: the image of
            # the normal coordinate must drop below the X level
            centered = pts_y.copy()
            centered[:, :-1] = 0.0
            xn = hmap.forward(pts_t, centered)[1][:, -1]
            assert np.all(xn[member] < hmap.X)

    def test_schedule_json(self):
        # each stage's map and region as standard JSON, as in schedule.json
        schedule = continuation_schedule(T=1.0, X=0.05, s_max=3, n=2)
        doc = [{"map": m.to_dict(), "region": r.to_dict()}
               for m, r in schedule]
        assert json.loads(json.dumps(doc, allow_nan=False),
                          parse_constant=pytest.fail) == doc
        assert len(doc) == 3
        assert doc[2]["map"]["stage"] == 3
        assert doc[0]["region"]["slab"]["bound"] == 0.05
