import numpy as np
import pytest

from fraclab import (constant_field, diagonal_variable_field,
                     field_from_config, identity_field, polynomial_field,
                     rotating_anisotropic_field)

PRESETS = [
    identity_field(2),
    diagonal_variable_field(2),
    rotating_anisotropic_field(2),
    rotating_anisotropic_field(3, ratio=0.4, spin=0.7, shear=1.1),
    constant_field(np.array([[2.0, 0.3], [0.3, 1.0]])),
]


@pytest.mark.parametrize("field", PRESETS)
def test_symmetry(field):
    rng = np.random.default_rng(0)
    for _ in range(10):
        t = rng.uniform(0.0, 2.0)
        y = rng.normal(size=(7, field.n))
        a = np.asarray(field.a(t, y), dtype=float)
        assert np.max(np.abs(a - np.swapaxes(a, -1, -2))) == 0.0


@pytest.mark.parametrize("field", PRESETS)
def test_declared_delta_holds(field):
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = rng.uniform(0.0, 2.0)
        y = rng.normal(size=(9, field.n))
        assert field.ellipticity_margin(t, y) > -1e-12


def test_ellipticity_margin_is_exact():
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 3.0, 200)
    y = rng.normal(size=(200, 2))
    lam = 1.0 + 0.3 * np.sin(y) * np.cos(t)[:, None]
    expected = min(lam.min() - 0.7, 1.0 / 0.7 - lam.max())
    margin = diagonal_variable_field(2).ellipticity_margin(t, y)
    assert abs(margin - expected) < 1e-13
    # eigenvalues {ratio, 1} with delta = ratio: the lower bound is attained
    rotating = rotating_anisotropic_field(2, ratio=0.5)
    assert abs(rotating.ellipticity_margin(t, y)) < 1e-14


@pytest.mark.parametrize("field", PRESETS)
def test_derivative_oracles(field):
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(10):
        t = rng.uniform(0.1, 1.9)
        y = rng.normal(size=field.n)
        fd_t = (field.a(t + h, y) - field.a(t - h, y)) / (2.0 * h)
        dt, dy = field.grads(t, y)
        assert np.max(np.abs(fd_t - dt)) < 1e-7
        for r in range(field.n):
            e = np.zeros(field.n)
            e[r] = h
            fd = (field.a(t, y + e) - field.a(t, y - e)) / (2.0 * h)
            assert np.max(np.abs(fd - dy[r])) < 1e-7


@pytest.mark.parametrize("field", PRESETS)
def test_batch_shape_contract(field):
    n = field.n
    y1 = np.zeros(n)
    assert field.a(0.5, y1).shape == (n, n)
    assert [g.shape for g in field.grads(0.5, y1)] == [(n, n), (n, n, n)]
    yb = np.zeros((11, n))
    tb = np.linspace(0.0, 1.0, 11)
    assert field.a(tb, yb).shape == (11, n, n)
    assert [g.shape for g in field.grads(tb, yb)] == [(11, n, n),
                                                     (11, n, n, n)]


class TestPolynomial:
    def make(self):
        tables = [
            {"j": 0, "k": 0, "terms": [
                {"coeff": 1.5, "t_pow": 0, "y_pows": [0, 0]},
                {"coeff": 0.2, "t_pow": 1, "y_pows": [2, 0]}]},
            {"j": 1, "k": 1, "terms": [
                {"coeff": 1.0, "t_pow": 0, "y_pows": [0, 0]}]},
            {"j": 0, "k": 1, "terms": [
                {"coeff": 0.1, "t_pow": 0, "y_pows": [1, 1]}]},
        ]
        return polynomial_field(2, tables, delta=0.5)

    def test_values_and_symmetrization(self):
        field = self.make()
        t, y = 2.0, np.array([0.5, -1.0])
        a = field.a(t, y)
        assert abs(a[0, 0] - (1.5 + 0.2 * 2.0 * 0.25)) < 1e-15
        assert abs(a[0, 1] - 0.1 * 0.5 * -1.0) < 1e-15
        assert a[0, 1] == a[1, 0]

    def test_exact_derivatives(self):
        field = self.make()
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(10):
            t = rng.uniform(0.1, 1.9)
            y = rng.normal(size=2)
            fd_t = (field.a(t + h, y) - field.a(t - h, y)) / (2.0 * h)
            dt, dy = field.grads(t, y)
            assert np.max(np.abs(fd_t - dt)) < 1e-8
            for r in range(2):
                e = np.zeros(2)
                e[r] = h
                fd = (field.a(t, y + e) - field.a(t, y - e)) / (2.0 * h)
                assert np.max(np.abs(fd - dy[r])) < 1e-8

    def test_index_validation(self):
        with pytest.raises(ValueError):
            polynomial_field(2, [{"j": 0, "k": 5, "terms": []}], delta=0.5)
        with pytest.raises(ValueError):
            polynomial_field(2, [{"j": 0, "k": 0, "terms": [
                {"coeff": 1.0, "t_pow": 0, "y_pows": [0]}]}], delta=0.5)


class TestConstructors:
    def test_constant_field_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            constant_field(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_constant_field_rejects_indefinite(self):
        with pytest.raises(ValueError):
            constant_field(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rotating_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            rotating_anisotropic_field(1)

    def test_diagonal_amplitude_bounds(self):
        with pytest.raises(ValueError):
            diagonal_variable_field(2, amplitude=1.0)

    def test_from_config(self):
        assert field_from_config({"preset": "identity", "n": 3}).n == 3
        assert field_from_config({"preset": "rotating-anisotropic", "n": 2,
                                  "ratio": 0.25}).delta == 0.25
        with pytest.raises(ValueError):
            field_from_config({"preset": "nope", "n": 2})

    # each preset once ran, ignoring the keys that only other presets read
    @pytest.mark.parametrize("config, extra", [
        ({"preset": "identity", "n": 2, "amplitude": 0.9, "ratio": 0.1,
          "tables": []}, "'amplitude', 'ratio', 'tables'"),
        ({"preset": "diagonal-variable", "n": 2, "amplitude": 0.3,
          "shear": 0.5}, "'shear'"),
        ({"preset": "rotating-anisotropic", "n": 2, "ratio": 0.5,
          "delta": 0.5}, "'delta'"),
        ({"preset": "polynomial", "n": 1, "tables": [], "delta": 0.5,
          "amplitude": 0.3, "spin": 1.0}, "'amplitude', 'spin'"),
    ], ids=["identity", "diagonal-variable", "rotating-anisotropic",
            "polynomial"])
    def test_from_config_refuses_keys_its_preset_does_not_read(self, config,
                                                              extra):
        with pytest.raises(ValueError, match=(
                f"coefficient preset '{config['preset']}' does not read "
                f"{extra}$")):
            field_from_config(config)

    # a library caller reached polynomial_field's TypeError on a missing
    # argument; the CLI's schema requires both keys
    @pytest.mark.parametrize("missing", ["tables", "delta"])
    def test_from_config_names_a_key_its_preset_requires(self, missing):
        config = {"preset": "polynomial", "n": 1, "tables": [], "delta": 0.5}
        del config[missing]
        with pytest.raises(ValueError, match=(
                f"coefficient preset 'polynomial' requires '{missing}'$")):
            field_from_config(config)
