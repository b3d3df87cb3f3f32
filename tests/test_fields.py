"""Tensor diffusion fields and the field mini-language."""

import math

import numpy as np
import pytest

import festab as fs


def test_constant_scalar_becomes_identity_multiple():
    f = fs.Constant(2.5, dim=2)
    out = f(np.array([[0.3, 0.4]]))
    assert np.allclose(out[0], 2.5 * np.eye(2))


def test_constant_rejects_non_spd():
    with pytest.raises(ValueError):
        fs.Constant(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError):
        fs.Constant(np.array([[1.0, 0.5], [0.4, 1.0]]))  # nonsymmetric
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="Constant field: matrix 0 has "
                                             "a non-finite entry"):
            fs.Constant(value, dim=2)


def test_per1d_closed_form():
    eps = 2.0 ** -4
    f = fs.per1d(eps)
    for x in (0.0, 0.1, 0.37, 0.92):
        expected = 1.0 / (2.0 - math.sin(2.0 * math.pi * x / eps))
        assert f(np.array([[x]]))[0, 0, 0] == pytest.approx(expected,
                                                            rel=1e-14)


def test_nonper1d_closed_form():
    eps = 2.0 ** -4
    f = fs.nonper1d(eps)
    for x in (0.0, 0.25, 0.5, 0.99):
        arg = 2.0 * math.pi * math.tan((1.0 - eps) * math.pi * x / 2.0)
        expected = 1.0 / (2.0 - math.sin(arg))
        assert f(np.array([[x]]))[0, 0, 0] == pytest.approx(expected,
                                                            rel=1e-14)


def test_aniso2d_eigenstructure():
    kappa = 1000.0
    f = fs.aniso2d(kappa)
    pts = np.array([[0.2, 0.7], [1.1, -0.4], [0.0, 0.0]])
    mats = f(pts)
    for p, D in zip(pts, mats):
        ev = np.linalg.eigvalsh(D)
        assert ev[0] == pytest.approx(1.0, rel=1e-12)
        assert ev[1] == pytest.approx(kappa, rel=1e-12)
        th = math.pi * math.sin(p[0]) * math.cos(p[1])
        v = np.array([math.cos(th), math.sin(th)])
        # v is the principal axis
        assert np.allclose(D @ v, kappa * v, atol=1e-9 * kappa)


def test_inverse_of_pointwise():
    f = fs.aniso2d(10.0)
    inv = fs.InverseOf(f)
    pts = np.array([[0.3, 0.3]])
    assert np.allclose(inv(pts)[0] @ f(pts)[0], np.eye(2), atol=1e-12)


def test_adapted_weight_inverse_root():
    f = fs.per1d()
    w = fs.adapted_weight(f)
    for x in (0.05, 0.61):
        d = f(np.array([[x]]))[0, 0, 0]
        assert w(x) == pytest.approx(d ** -0.5, rel=1e-13)
    with pytest.raises(ValueError):
        fs.adapted_weight(fs.aniso2d(10.0))


def test_adapted_weight_float_and_array_agree():
    w = fs.adapted_weight(fs.nonper1d(0.125))
    xs = np.linspace(0.0, 1.0, 37)
    scalars = [w(float(x)) for x in xs]
    assert all(type(v) is float for v in scalars)
    np.testing.assert_allclose(w(xs), scalars, rtol=1e-15, atol=0.0)
    assert w(xs.reshape(37, 1)).shape == (37, 1)


def test_piecewise_field_and_loader(tmp_path):
    field = fs.PiecewiseConstantPerElement(
        {0: np.eye(2), 1: np.array([[2.0, 0.5], [0.5, 1.0]])}, dim=2)
    assert np.allclose(field.matrix_for(1),
                       np.array([[2.0, 0.5], [0.5, 1.0]]))
    path = tmp_path / "regions.txt"
    path.write_text("# tag then upper-triangle entries\n"
                    "0 1.0 0.0 1.0\n"
                    "1 2.0 0.5 1.0\n")
    loaded = fs.load_piecewise(str(path), dim=2)
    assert np.allclose(loaded.matrix_for(1), field.matrix_for(1))
    with pytest.raises(ValueError):
        field(np.array([[0.5, 0.5]]))  # pointwise evaluation undefined


def test_parse_field_spec():
    f = fs.parse_field_spec("per1d:eps=0.0625")
    assert f(np.array([[0.25]]))[0, 0, 0] == pytest.approx(
        1.0 / (2.0 - math.sin(2.0 * math.pi * 4.0)), rel=1e-12)
    assert fs.parse_field_spec("identity", dim=3).dim == 3
    k = fs.parse_field_spec("aniso2d:kappa=50", dim=2)
    assert np.linalg.eigvalsh(k(np.array([[0.1, 0.1]]))[0])[1] == \
        pytest.approx(50.0, rel=1e-12)


def test_parse_field_spec_errors():
    with pytest.raises(ValueError, match="unknown field"):
        fs.parse_field_spec("heat")
    with pytest.raises(ValueError, match="parameter"):
        fs.parse_field_spec("per1d:sigma=2")
    with pytest.raises(ValueError, match="needs the mesh dimension"):
        fs.parse_field_spec("identity")
    with pytest.raises(ValueError, match="1D"):
        fs.parse_field_spec("per1d", dim=2)


def test_check_spd_catches_bad_matrices():
    good = np.tile(np.eye(2), (3, 1, 1))
    fs.check_spd(good, "ok")
    bad = good.copy()
    bad[1, 0, 1] = 0.5
    bad[1, 1, 0] = -0.5
    with pytest.raises(ValueError, match="symmetr"):
        fs.check_spd(bad, "asym")
    neg = good.copy()
    neg[2] = -np.eye(2)
    with pytest.raises(ValueError, match="positive"):
        fs.check_spd(neg, "negative")
    for value in (math.nan, math.inf, -math.inf):
        nonfinite = good.copy()
        nonfinite[1, 1, 1] = value
        with pytest.raises(ValueError,
                           match="nonfinite: matrix 1 has a non-finite"):
            fs.check_spd(nonfinite, "nonfinite")
