"""Tensor diffusion fields and the field mini-language."""

import math

import numpy as np
import pytest

import festab as fs
from festab.fields import SPD_RTOL, _clearly_spd, _inv
from conftest import check_spd_by_eigvalsh, jittered_mesh_3d


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


def _loop_element_values(field, tags):
    """Oracle: the (ne, d, d) element matrices as the per-tag mask loop
    behind (values, index) built them, one copy per element."""
    if isinstance(field, fs.InverseOf):
        return _inv(_loop_element_values(field.inner, tags))
    if isinstance(field, fs.Constant):
        return np.broadcast_to(field.matrix,
                               (len(tags),) + field.matrix.shape).copy()
    out = np.empty((len(tags), field.dim, field.dim))
    for tag in np.unique(tags):
        out[tags == tag] = field.matrix_for(tag)
    return out


def _random_spd(d, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    m = (q * rng.uniform(0.5, 50.0, d)) @ q.T
    return 0.5 * (m + m.T)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_element_values_spread_to_the_tag_loop(d):
    """values[index] is bit for bit the per-element matrices of the tag
    loop, with one row per distinct matrix: 1 for a constant, one per tag
    present for a per-region table whose tags are unsorted, have gaps and
    include one the mesh never uses."""
    rng = np.random.default_rng(d)
    table = {tag: _random_spd(d, rng) for tag in (7, 0, 3, 99)}
    tags = rng.permutation(np.repeat(np.array([7, 0, 3]), 17))
    piecewise = fs.PiecewiseConstantPerElement(table)
    for field, rows in ((fs.Constant(_random_spd(d, rng)), 1),
                        (piecewise, 3)):
        for f in (field, fs.InverseOf(field)):
            values, index = f.element_values(tags)
            assert values.shape == (rows, d, d)
            assert index.shape == tags.shape
            want = _loop_element_values(f, tags)
            assert values[index].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="no matrix for region tag 5"):
        piecewise.element_values(np.array([0, 5, 0]))


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


# ---------------------------------------------------------------------------
# closed-form Sylvester screen of check_spd
# ---------------------------------------------------------------------------

def _rotated(rng, ev, count=1):
    """`count` matrices Q diag(ev) Q^T with random orthogonal Q."""
    d = len(ev)
    q, _ = np.linalg.qr(rng.standard_normal((count, d, d)))
    return (q * np.asarray(ev, dtype=float)) @ np.swapaxes(q, 1, 2)


def _outcome(check, mats):
    try:
        check(mats, "case")
    except ValueError as exc:
        return str(exc)
    return None


SCREEN_CASES = {
    "2d-1e-15": (1e-15, 1.0),
    "2d-below-rtol": (SPD_RTOL * (1 - 1e-3), 1.0),
    "2d-above-rtol": (SPD_RTOL * (1 + 1e-3), 1.0),
    "2d-1e-9": (1e-9, 1.0),
    "2d-negative": (-1.0, 2.0),
    "3d-1e-15": (1e-15, 0.5, 1.0),
    "3d-below-rtol": (SPD_RTOL * (1 - 1e-3), 0.5, 1.0),
    "3d-above-rtol": (SPD_RTOL * (1 + 1e-3), 0.5, 1.0),
    "3d-1e-9": (1e-9, 0.5, 1.0),
    "3d-double-small-1e-15": (1e-15, 1e-15, 1.0),
    "3d-double-small-1e-9": (1e-9, 1e-9, 1.0),
    "3d-double-large-1e-15": (1e-15, 1.0, 1.0),
    "3d-double-large-1e-9": (1e-9, 1.0, 1.0),
    "3d-two-negative": (-1.0, -2.0, 3.0),     # determinant +6
}


@pytest.mark.parametrize("name", list(SCREEN_CASES))
@pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
def test_check_spd_screen_keeps_decisions_and_messages(name, rotate):
    """Each case, alone and at index 5 of a stack of well-conditioned SPD
    matrices, also with an asymmetry inside the tolerance and with a
    non-finite or a too asymmetric matrix after it, gets the decision and
    message of `eigvalsh` on every matrix."""
    ev = SCREEN_CASES[name]
    d = len(ev)
    rng = np.random.default_rng(len(name))
    case = _rotated(rng, ev) if rotate else np.diag(ev)[None]
    good = _rotated(rng, np.geomspace(1.0, 1000.0, d), 10)
    assert _clearly_spd(good).all()
    assert not _clearly_spd(case).any()
    stack = np.concatenate([good[:5], case, good[5:]])
    skewed = stack.copy()
    skewed[:, 0, -1] += 3e-10                   # 3e-13 of the largest entry
    nonfinite, asymmetric = stack.copy(), stack.copy()
    nonfinite[7, -1, 0] = np.nan
    asymmetric[7, -1, 0] += 1.0
    for mats in (case, stack, skewed, nonfinite, asymmetric):
        assert _outcome(fs.check_spd, mats) == \
            _outcome(check_spd_by_eigvalsh, mats)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_screen_clears_only_matrices_eigvalsh_finds_well_conditioned(d):
    """Drawn symmetric matrices: definite and indefinite, eigenvalues over
    twenty decades, off-diagonal entries up to 1e6 times the diagonal."""
    rng = np.random.default_rng(d)
    ev = (rng.choice([-1.0, 1.0], (3000, d), p=[0.2, 0.8])
          * 10.0 ** rng.uniform(-20.0, 0.0, (3000, d)))
    q, _ = np.linalg.qr(rng.standard_normal((3000, d, d)))
    rotated = (q * ev[:, None, :]) @ np.swapaxes(q, 1, 2)
    wild = rng.standard_normal((3000, d, d)) * 10.0 ** rng.uniform(
        0.0, 6.0, (3000, 1, 1))
    wild = wild + np.swapaxes(wild, 1, 2)
    idx = np.arange(d)
    wild[:, idx, idx] = np.abs(wild[:, idx, idx]) + rng.uniform(0.0, 1.0)
    for mats in (rotated, wild):
        cleared = _clearly_spd(mats)
        ev = np.linalg.eigvalsh(mats[cleared])
        assert (ev[:, 0] > 0.5e-8 * ev[:, -1]).all()
    assert 0 < _clearly_spd(rotated).sum() < len(rotated)


# ---------------------------------------------------------------------------
# closed-form inverse
# ---------------------------------------------------------------------------

def _needle_edges():
    """Edge matrices of a Kuhn cube squeezed 1000-fold across x: needle
    tetrahedra with singular values about (1, 1e-3, 1e-3) * h."""
    cube = fs.gen_structured_3d(4, 4, 4)
    return fs.SimplicialMesh(cube.nodes * [1.0, 1e-3, 1e-3], cube.elements,
                             cube.node_markers).element_matrices()


INVERSE_STACKS = {
    "normal-1d": lambda rng: rng.standard_normal((500, 1, 1)),
    "normal-2d": lambda rng: rng.standard_normal((2000, 2, 2)),
    "normal-3d": lambda rng: rng.standard_normal((2000, 3, 3)),
    "spd-2d-1e6": lambda rng: _rotated(rng, (1.0, 1e6), 2000),
    "spd-3d-geometric": lambda rng: _rotated(rng, (1.0, 31.6, 1e3), 2000),
    # s1/s2 = 1e6: the determinant alone loses 5e4 eps cond here
    "spd-3d-fiber": lambda rng: _rotated(rng, (1.0, 1.0, 1e6), 2000),
    "aligned-1000-edges":
        lambda rng: fs.gen_metric_aligned(1000.0).element_matrices(),
    "aligned-1000-averages": lambda rng: fs.ProblemContext(
        fs.gen_metric_aligned(1000.0), fs.aniso2d(1000.0)).Dk,
    "boundary-layer-edges": lambda rng: fs.gen_structured_2d(
        4, 16, ratio_y=1.15).element_matrices(),
    "needle-3d-edges": lambda rng: _needle_edges(),
    "jittered-3d-edges":
        lambda rng: jittered_mesh_3d(rng, n=4).element_matrices(),
}


@pytest.mark.parametrize("name", list(INVERSE_STACKS))
def test_inverse_residual_is_within_eps_cond(name):
    A = INVERSE_STACKS[name](np.random.default_rng(17))
    d = A.shape[-1]
    resid = np.linalg.norm(A @ _inv(A) - np.eye(d), 2, axis=(-2, -1))
    assert (resid <= 8.0 * np.finfo(float).eps * np.linalg.cond(A)).all()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_inverse_at_extreme_scales(d, scale):
    # the unscaled adjugate overflowed (1e200: NaN) or underflowed
    # (1e-200: a zero determinant) in its d-fold products
    A = np.stack([scale * np.eye(d), scale * np.diag(np.arange(1.0, d + 1))])
    want = np.linalg.inv(A)
    got = _inv(A)
    assert np.isfinite(got).all()
    assert np.abs(got - want).max() <= 4.0 * np.finfo(float).eps \
        * np.abs(want).max()


@pytest.mark.parametrize("singular", [
    [[0.0]], [[1.0, 2.0], [2.0, 4.0]],
    [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
], ids=["1d", "2d", "3d"])
def test_inverse_of_a_singular_matrix_raises(singular):
    A = np.array(singular)
    eye = np.eye(len(A))
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _inv(np.stack([eye, A, 2.0 * eye]))
