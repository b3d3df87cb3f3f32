"""Quadrature on simplices, element averages, and quality measures."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import festab as fs
from festab import assembly, fields, quality
from conftest import (equilateral_lattice, jittered_mesh_2d,
                      jittered_mesh_3d, obtuse_pair, problems,
                      property_settings)


def monomial_average(d, powers):
    """Exact average of prod x_i^p_i over the unit simplex."""
    num = 1.0
    for p in powers:
        num *= math.factorial(p)
    return math.factorial(d) * num / math.factorial(sum(powers) + d)


def rule_average(pts, wts, powers):
    vals = np.prod(pts ** np.asarray(powers), axis=1)
    return float(wts @ vals)


def powers_up_to(d, degree):
    if d == 1:
        return [(p,) for p in range(degree + 1)]
    if d == 2:
        return [(a, b) for a in range(degree + 1)
                for b in range(degree + 1 - a)]
    return [(a, b, c) for a in range(degree + 1)
            for b in range(degree + 1 - a)
            for c in range(degree + 1 - a - b)]


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,order,degree", [
    (1, 1, 1), (1, 2, 3), (1, 4, 5),
    (2, 1, 1), (2, 2, 2), (2, 4, 4),
    (3, 1, 1), (3, 2, 2), (3, 4, 4),
])
def test_simplex_rule_exactness(d, order, degree):
    pts, wts = fs.simplex_rule(d, order)
    assert wts.sum() == pytest.approx(1.0, rel=1e-14)
    assert (pts >= -1e-15).all() and (pts.sum(axis=1) <= 1 + 1e-15).all()
    for powers in powers_up_to(d, degree):
        assert rule_average(pts, wts, powers) == pytest.approx(
            monomial_average(d, powers), rel=1e-12, abs=1e-14)


def test_simplex_rule_rejects_unknown_order():
    with pytest.raises(ValueError):
        fs.simplex_rule(2, 3)
    with pytest.raises(ValueError):
        fs.simplex_rule(4, 2)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conical_product_rule_exactness(d, n):
    pts, wts = fs.conical_product_rule(d, n)
    assert len(wts) == n ** d
    assert wts.sum() == pytest.approx(1.0, rel=1e-13)
    for powers in powers_up_to(d, 2 * n - 1):
        assert rule_average(pts, wts, powers) == pytest.approx(
            monomial_average(d, powers), rel=1e-11, abs=1e-13)


# ---------------------------------------------------------------------------
# element averages
# ---------------------------------------------------------------------------

def test_element_averages_linear_field_is_centroid_value():
    mesh = fs.gen_structured_2d(2, 2)
    f = fs.Analytic(lambda P: 1.0 + P[:, 0] + 0.5 * P[:, 1], dim=2)
    avg = fs.element_averages(f, mesh, quad_order=2)
    for k in (0, 3, 5):
        centroid = mesh.nodes[mesh.elements[k]].mean(axis=0)
        want = (1.0 + centroid[0] + 0.5 * centroid[1]) * np.eye(2)
        assert np.allclose(avg[k], want, rtol=1e-13)


def test_element_averages_match_fine_quadrature():
    mesh = fs.gen_uniform_1d(4)
    f = fs.per1d(4.0)           # smooth on each element
    from scipy.integrate import quad
    xs = mesh.nodes[:, 0]
    coarse_avg = fs.element_averages(f, mesh, quad_order=1)
    fine_avg = fs.element_averages(f, mesh, quad_order=4)
    for k in range(4):
        exact = quad(lambda x: 1.0 / (2.0 - math.sin(2 * math.pi * x / 4.0)),
                     xs[k], xs[k + 1])[0] / (xs[k + 1] - xs[k])
        coarse, fine = coarse_avg[k, 0, 0], fine_avg[k, 0, 0]
        assert fine == pytest.approx(exact, rel=5e-7)
        assert abs(fine - exact) < abs(coarse - exact)


def test_element_averages_piecewise_uses_tags():
    mesh, field = fs.gen_groundwater_like()
    avg = fs.element_averages(field, mesh)
    tags = mesh.region_tags
    assert np.allclose(avg[tags == 0], np.eye(2))
    assert np.allclose(avg[tags == 1], 1e-6 * np.eye(2))


def test_element_averages_rejects_bad_order():
    mesh = fs.gen_uniform_1d(4)
    with pytest.raises(ValueError):
        fs.element_averages(fs.identity(1), mesh, quad_order=3)
    # per-region fields need no quadrature but validate the order too
    grid = fs.gen_structured_2d(2, 2)
    field = fs.PiecewiseConstantPerElement({0: np.eye(2)})
    for order in (0, 3, 5):
        with pytest.raises(ValueError, match="quad_order"):
            fs.element_averages(field, grid, quad_order=order)
        with pytest.raises(ValueError, match="quad_order"):
            fs.element_averages(fs.InverseOf(field), grid, quad_order=order)


def test_element_averages_rejects_a_field_of_another_dimension():
    grid = fs.gen_structured_2d(2, 2)
    for field in (fs.identity(3), fs.per1d()):
        with pytest.raises(ValueError, match=f"^field dimension {field.dim} "
                           "does not match mesh dimension 2"):
            fs.element_averages(field, grid)


def _region_mesh(d):
    """Grid on the unit interval/square/cube with region tag 1 on x > 1/2;
    element boundaries lie on x = 1/2."""
    mesh = {1: lambda: fs.gen_uniform_1d(4),
            2: lambda: fs.gen_structured_2d(4, 4, diagonal="alternating"),
            3: lambda: fs.gen_structured_3d(2, 2, 2)}[d]()
    cent = mesh.nodes[mesh.elements].mean(axis=1)
    tags = (cent[:, 0] > 0.5).astype(np.int64)
    return fs.SimplicialMesh(mesh.nodes, mesh.elements, mesh.node_markers,
                             region_tags=tags)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 4])
def test_exact_averages_match_quadrature_path(d, order):
    """Constant, inverse-constant and per-region fields skip quadrature;
    their averages equal the quadrature of the same field given
    pointwise."""
    mesh = _region_mesh(d)
    rng = np.random.default_rng(d * 10 + order)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    C0 = (q * np.geomspace(1.0, 50.0, d)) @ q.T
    C1 = 3.0 * np.eye(d) + 0.1 * np.ones((d, d))

    def pointwise(fn):
        return fs.Analytic(lambda X: np.broadcast_to(
            fn(X), (len(X), d, d)).copy(), dim=d)

    def regions(X):
        return np.where((X[:, 0] > 0.5)[:, None, None], C1, C0)

    cases = [
        (fs.Constant(C0), pointwise(lambda X: C0)),
        (fs.InverseOf(fs.Constant(C0)),
         pointwise(lambda X: np.linalg.inv(C0))),
        (fs.PiecewiseConstantPerElement({0: C0, 1: C1}), pointwise(regions)),
        (fs.InverseOf(fs.PiecewiseConstantPerElement({0: C0, 1: C1})),
         pointwise(lambda X: np.linalg.inv(regions(X)))),
    ]
    for exact, analytic in cases:
        assert analytic.element_values(mesh.region_tags) is None
        want = fs.element_averages(analytic, mesh, order)
        got = fs.element_averages(exact, mesh, order)
        assert got.shape == (mesh.num_elements, d, d)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        got_inv = fs.ProblemContext(mesh, exact, order).inverse.Dk
        want_inv = fs.element_averages(fs.InverseOf(analytic), mesh, order)
        assert np.abs(got_inv - want_inv).max() \
            <= 1e-14 * np.abs(want_inv).max()


def test_context_inverse_average_shares_one_evaluation(monkeypatch):
    """A context averages D and D^-1 from one field evaluation, keeps one
    record of it, lets the point values go once `inverse` is built, and
    inverts none of them when only the stiffness is read.  For a field
    constant on each element, `inverse` inverts the distinct matrices
    once."""
    mesh = jittered_mesh_2d(np.random.default_rng(3))
    field = fs.aniso2d(100.0)
    calls = []
    counted = fs.Analytic(lambda X: calls.append(len(X)) or field(X), dim=2)
    ctx = fs.ProblemContext(mesh, counted, 4)
    assert np.array_equal(ctx.Dk, fs.element_averages(field, mesh, 4))
    Dk, distinct, points = ctx._averages
    assert Dk is ctx.Dk and distinct is None and points is not None
    inv = ctx.inverse
    assert np.array_equal(inv.Dk,
                          fs.element_averages(fs.InverseOf(field), mesh, 4))
    assert ctx._averages[0] is Dk and ctx._averages[2] is None
    assert inv._averages[1:] == (None, None)
    assert inv.inverse is ctx and inv.grads is ctx.grads
    assert len(calls) == 1

    inverted = []
    monkeypatch.setattr(assembly, "_inv", lambda a: inverted.append(a.shape)
                        or fields._inv(a))
    fs.ProblemContext(mesh, field, 4).A
    assert inverted and all(len(shape) < 4 for shape in inverted)

    C = np.array([[2.0, 0.3], [0.3, 1.0]])
    ctx = fs.ProblemContext(mesh, fs.Constant(C), 4)
    ctx.grads                   # the one inversion of the edge matrices
    inverted.clear()
    inv = ctx.inverse
    assert inverted == [(1, 2, 2)]
    values, index = inv._averages[1]
    assert np.array_equal(values, fields._inv(C[None]))
    assert np.array_equal(inv.Dk, values[index])
    assert np.array_equal(inv.inverse.Dk, ctx.Dk)


@pytest.mark.parametrize("field", [fs.Constant(np.diag([2.0, 0.5])),
                                   fs.aniso2d(100.0)],
                         ids=["constant", "aniso2d"])
def test_context_and_its_inverse_form_no_reference_cycle(field):
    """A context and its `inverse`, once read by a report and the quality
    summary, are freed by reference counting alone when the caller lets
    them go: no cycle keeps their arrays until a garbage collection."""
    mesh = jittered_mesh_2d(np.random.default_rng(4))
    ctx = fs.ProblemContext(mesh, field)
    fs.stability_report(mesh, field, context=ctx)
    inv = ctx.inverse
    fs.mesh_quality_summary(inv)
    assert inv.inverse is ctx and inv.metric_alignment is not None
    refs = [weakref.ref(ctx), weakref.ref(inv)]
    gc.disable()
    try:
        del ctx, inv
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["constant", "piecewise"])
def test_functions_of_d_k_see_only_the_distinct_matrices(kind, monkeypatch):
    """For a field constant on each element, no inversion, eigenvalue,
    determinant or Cholesky call of the reports and the quality summary
    gets a stack of all ne averages: each runs once per distinct matrix.
    The gradients and alignment norms are read first; their stacks are
    the mesh's own."""
    rng = np.random.default_rng(8)
    mesh = jittered_mesh_3d(rng)
    C = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
    if kind == "constant":
        field, rows = fs.Constant(C), 1
    else:
        tags = rng.permutation(np.arange(mesh.num_elements) % 3) * 4
        mesh = fs.SimplicialMesh(mesh.nodes, mesh.elements,
                                 mesh.node_markers, region_tags=tags)
        field = fs.PiecewiseConstantPerElement({0: C, 4: np.eye(3),
                                                8: 1e-3 * C})
        rows = 3
    ctx = fs.ProblemContext(mesh, field)
    ctx.grads, ctx.alignment

    stacks = {}

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            stacks.setdefault(name, []).append(math.prod(np.shape(a)[:-2]))
            return fn(a, *args, **kwargs)
        return wrapper

    inv = counted("_inv", fields._inv)
    for module in (fields, assembly):
        monkeypatch.setattr(module, "_inv", inv)
    for name in ("eigvalsh", "slogdet"):
        monkeypatch.setattr(np.linalg, name,
                            counted(name, getattr(np.linalg, name)))
    for mass_kind in fs.MASS_KINDS:
        fs.stability_report(mesh, field, mass_kind=mass_kind, context=ctx)
    fs.mesh_quality_summary(ctx.inverse)
    assert set(stacks) == {"_inv", "eigvalsh", "slogdet"}
    assert max(max(sizes) for sizes in stacks.values()) == rows

    # the metric-matching bound factors the metric averages the same way
    monkeypatch.setattr(np.linalg, "cholesky",
                        counted("cholesky", np.linalg.cholesky))
    fs.muniform_bound(ctx.inverse, ctx)
    assert stacks["cholesky"] == [rows]


# ---------------------------------------------------------------------------
# quality measures
# ---------------------------------------------------------------------------

def test_quality_identities_on_jittered_mesh():
    mesh = jittered_mesh_2d(np.random.default_rng(5))
    for metric in (fs.identity(2), fs.InverseOf(fs.aniso2d(30.0))):
        q = fs.mesh_quality_summary(fs.ProblemContext(mesh, metric))
        assert np.mean(1.0 / np.asarray(q.q_eq)) == pytest.approx(1.0,
                                                                  abs=1e-10)
        assert (np.asarray(q.q_ali) >= 1.0 - 1e-12).all()
        qm = np.asarray(q.q_ali) * np.asarray(q.q_eq) ** (2.0 / mesh.dim)
        assert np.allclose(qm, q.q_m, rtol=1e-10)
        assert q.max_q_eq >= 1.0
        assert q.max_q_m >= q.max_q_ali - 1e-12


def test_equilateral_lattice_is_metric_uniform():
    mesh = equilateral_lattice()
    q = fs.mesh_quality_summary(fs.ProblemContext(mesh, fs.identity(2)))
    assert q.max_q_ali == pytest.approx(1.0, abs=1e-12)
    assert q.max_q_eq == pytest.approx(1.0, abs=1e-12)
    assert q.max_q_m == pytest.approx(1.0, abs=1e-12)


def test_uniform_grid_equidistributes_identity_metric():
    mesh = fs.gen_structured_2d(4, 4)
    q = fs.mesh_quality_summary(fs.ProblemContext(mesh, fs.identity(2)))
    assert np.allclose(q.q_eq, 1.0, rtol=1e-12)   # equal areas
    assert q.h_global == pytest.approx((1.0 / 32) ** 0.5, rel=1e-12)


def test_quality_1d_adapted_mesh_is_uniform_in_inverse_metric():
    f = fs.per1d()
    mesh = fs.gen_equidistributed_1d(64, fs.adapted_weight(f))
    q = fs.mesh_quality_summary(fs.ProblemContext(mesh, fs.InverseOf(f)))
    # per-cell metric volumes agree up to quadrature error
    assert q.max_q_eq < 1.02
    assert np.allclose(q.q_ali, 1.0, atol=1e-12)  # 1D alignment is trivial


@property_settings()
@given(problems())
def test_quality_identities_on_drawn_meshes(problem):
    # mean(1/q_eq) = 1 and max q_eq >= 1 in the metric D^-1; the geometric
    # bound equals its quality form C* C# h^-2 max_i sum (|K|/|omega_i|)
    # Q_D(K), where Q_D(K) = q_m(K) for an element-constant D
    mesh, field, _ = problem
    d = mesh.dim
    q = fs.mesh_quality_summary(
        fs.ProblemContext(mesh, fs.InverseOf(field)))
    assert np.mean(1.0 / q.q_eq) == pytest.approx(1.0, abs=1e-10)
    assert q.max_q_eq >= 1.0 - 1e-12
    g = fs.geometric_bound(fs.ProblemContext(mesh, field))
    vols = mesh.volumes()

    def patch_sum(per_element):
        return np.bincount(mesh.elements.ravel(),
                           weights=np.repeat(per_element, d + 1),
                           minlength=mesh.num_nodes)

    per_node = patch_sum(vols * q.q_m) / patch_sum(vols)
    free = mesh.node_markers != fs.DIRICHLET
    value_qd = (fs.c_star(d, False, g.nonobtuse) * fs.c_sharp(d)
                / q.h_global ** 2 * per_node[free].max())
    assert value_qd == pytest.approx(g.value, rel=1e-12)


# ---------------------------------------------------------------------------
# inscribed diameter
# ---------------------------------------------------------------------------

def test_inscribed_diameter_equilateral_identity():
    ell = 0.7
    nodes = np.array([[0.0, 0.0], [ell, 0.0],
                      [0.5 * ell, ell * math.sqrt(3) / 2]])
    mesh = fs.SimplicialMesh(nodes, np.array([[0, 1, 2]]),
                             np.array([fs.DIRICHLET, fs.NEUMANN,
                                       fs.NEUMANN]))
    rho = fs.mesh_quality_summary(
        fs.ProblemContext(mesh, fs.Constant(np.eye(2)))).rho_metric
    assert rho[0] == pytest.approx(ell / math.sqrt(3), rel=1e-13)


def test_inscribed_diameter_1d_metric_scaling():
    mesh = fs.SimplicialMesh(np.array([[0.0], [0.25]]),
                             np.array([[0, 1]]), np.array([1, 2]))
    q = fs.mesh_quality_summary(
        fs.ProblemContext(mesh, fs.Constant(np.array([[16.0]]))))
    assert q.rho_metric[0] == pytest.approx(1.0, rel=1e-14)


def test_inscribed_diameter_3d_not_defined():
    mesh = fs.gen_structured_3d(2, 2, 2)
    q = fs.mesh_quality_summary(
        fs.ProblemContext(mesh, fs.Constant(np.eye(3))))
    assert q.rho_metric is None


def test_alignment_bounded_by_inscribed_ratio():
    # q_ali <= (reference diameter)^2 * (h_metric / rho_metric)^2
    rng = np.random.default_rng(99)
    ref = fs.reference_simplex(2)
    hhat2 = np.sum((ref[1] - ref[0]) ** 2)
    for _ in range(50):
        nodes = rng.uniform(0.0, 1.0, (3, 2))
        if abs(np.linalg.det(nodes[1:] - nodes[0])) < 1e-3:
            continue
        mesh = fs.SimplicialMesh(nodes, np.array([[0, 1, 2]]),
                                 np.array([1, 2, 2]))
        B = rng.uniform(-1.0, 1.0, (2, 2))
        metric_mat = B @ B.T + 0.05 * np.eye(2)
        metric = fs.Constant(metric_mat)
        q = fs.mesh_quality_summary(fs.ProblemContext(mesh, metric))
        rho = q.rho_metric[0]
        h_elem = q.h_elem[0]
        assert q.q_ali[0] <= hhat2 * (h_elem / rho) ** 2 * (1.0 + 1e-10)


# ---------------------------------------------------------------------------
# alignment norms: closed form screened by LDL^T pivots
# ---------------------------------------------------------------------------

def _spectra(kind, d, rng, n):
    """(n, d) ascending eigenvalues of one kind, top eigenvalue near 1:
    the top d of three."""
    low = np.sort(rng.uniform(0.1, 0.9, (n, 3)), axis=1)
    if kind == "distinct":
        return np.sort(rng.uniform(0.1, 1.0, (n, 3)), axis=1)[:, -d:]
    if kind == "double-top":
        low[:, -2:] = 1.0
    elif kind == "double-bottom":
        low[:, :2] = low[:, :1]
        low[:, -1] = 1.0
    elif kind == "triple":
        low[:] = 1.0
    elif kind == "top-gap-1e-8":
        low[:, -2:] = 1.0, 1.0 + 1e-8
    elif kind == "condition-1e12":
        low = np.sort(10.0 ** rng.uniform(-12.0, 0.0, (n, 3)), axis=1)
        low[:, 0], low[:, -1] = 1e-12, 1.0
    elif kind == "low-pair-1e-8":
        low[:, :2], low[:, -1] = 1e-8, 1.0
    return low[:, -d:]


_SPECTRUM_KINDS = ("distinct", "double-top", "double-bottom", "triple",
                   "top-gap-1e-8", "condition-1e12", "low-pair-1e-8")


@property_settings()
@given(st.integers(0, 2 ** 32 - 1))
def test_max_sandwich_eig_matches_eigvalsh_on_hard_spectra(seed):
    """The closed-form alignment kernel agrees with `eigvalsh` to 1e-14
    relative on rotated SPD stacks whose spectra defeat the closed form
    (multiple eigenvalues, a 1e-8 top gap, condition up to 1e12), scaled
    per matrix by 2^k, |k| <= 1000, and on multiples of I, where the
    trigonometric radius is 0; no RuntimeWarning is raised."""
    rng = np.random.default_rng(seed)
    n = 64
    for d in (1, 2, 3):
        scale = np.ldexp(1.0, rng.integers(-1000, 1001, n))
        scale[:4] = np.ldexp(1.0, [-1000, -500, 500, 1000])
        stacks = [np.eye(d) * (scale * rng.uniform(0.5, 2.0, n))[:, None,
                                                                 None]]
        for kind in _SPECTRUM_KINDS:
            lam = _spectra(kind, d, rng, n) * scale[:, None]
            Q = np.linalg.qr(rng.standard_normal((n, d, d)))[0]
            stacks.append((Q * lam[:, None, :]) @ np.swapaxes(Q, 1, 2))
        for X in stacks:
            F = np.broadcast_to(np.eye(d), X.shape)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = quality._max_sandwich_eig(F, X)
            want = np.linalg.eigvalsh(0.5 * (X + np.swapaxes(X, 1, 2)))
            assert np.all(np.abs(got - want[:, -1]) <= 1e-14 * want[:, -1])


@pytest.mark.parametrize("d", [2, 3])
def test_max_sandwich_eig_of_a_subnormal_matrix(d, monkeypatch):
    """2^-1060 I, whose largest entry is below 2^-1024, is scaled by the
    finite 2^1023 and passes the screen: the closed form gives 2^-1060
    exactly, with no RuntimeWarning and no `eigvalsh` fallback."""
    stacks = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args: stacks.append(a.shape)
                        or real(a, *args))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = quality._max_sandwich_eig(np.eye(d)[None],
                                        2.0 ** -1060 * np.eye(d)[None])
    assert got.tolist() == [2.0 ** -1060]
    assert stacks == []


def test_quality_of_a_subnormal_metric_inverse_raises():
    """The inverse of a 1e-310 I field overflows; its quality summary
    raises instead of returning NaN maxima."""
    ctx = fs.ProblemContext(fs.gen_structured_2d(4, 4),
                            fs.Constant(1e-310 * np.eye(2)))
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        fs.mesh_quality_summary(ctx.inverse)


def test_alignment_takes_no_eigvalsh_on_a_jittered_mesh(monkeypatch):
    """On a jittered 12^3 mesh with the identity field every alignment
    norm passes the screen: `eigvalsh` sees no stack."""
    mesh = jittered_mesh_3d(np.random.default_rng(5), 12)
    ctx = fs.ProblemContext(mesh, fs.identity(3))
    ctx.reference_map_inverses, ctx.Dk
    stacks = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args: stacks.append(a.shape)
                        or real(a, *args))
    assert ctx.alignment.shape == (mesh.num_elements,)
    assert stacks == []


# ---------------------------------------------------------------------------
# nonobtuse test
# ---------------------------------------------------------------------------

def test_nonobtuse_structured_grid():
    mesh = fs.gen_structured_2d(8, 8)
    A = fs.assemble_stiffness(mesh, fs.identity(2))
    assert fs.is_nonobtuse_wrt(A)


def test_nonobtuse_rejects_obtuse_pair():
    mesh = obtuse_pair()
    A = fs.assemble_stiffness(mesh, fs.identity(2))
    assert not fs.is_nonobtuse_wrt(A)

