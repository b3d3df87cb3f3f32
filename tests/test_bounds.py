"""Eigenvalue computation, diagonal/geometric/face-volume step bounds."""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

import festab as fs
from festab import assembly as assembly_mod
from festab import bounds as bounds_mod
from conftest import (PROPERTY, elements_of, equilateral_lattice,
                      face_bracket_oracle, jittered_mesh_2d, jittered_mesh_3d, problems,
                      two_triangle_square, volume_ratio_c1_oracle)


def pencil_max(Mt, A):
    return fs.lambda_max_exact(Mt, A).value


def lam_1d_uniform(n, lumped):
    """Closed-form largest pencil eigenvalue on the uniform 1D mesh."""
    h = 1.0 / n
    th = (n - 1) * math.pi / n
    if lumped:
        return (2.0 / h ** 2) * (1.0 - math.cos(th))
    return (6.0 / h ** 2) * (1.0 - math.cos(th)) / (2.0 + math.cos(th))


# ---------------------------------------------------------------------------
# constants and the reference-gradient identity
# ---------------------------------------------------------------------------

def test_c_grad_closed_forms():
    assert fs.c_grad(1) == pytest.approx(1.0, abs=1e-15)
    assert fs.c_grad(2) == pytest.approx(math.sqrt(3.0) / 3.0, abs=1e-15)
    assert fs.c_grad(3) == pytest.approx(0.75 * 3.0 ** (-2.0 / 3.0),
                                         abs=1e-15)
    with pytest.raises(ValueError):
        fs.c_grad(4)


def test_c_sharp_closed_forms():
    assert fs.c_sharp(1) == pytest.approx(3.0, abs=1e-14)
    assert fs.c_sharp(2) == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-14)
    assert fs.c_sharp(3) == pytest.approx(10.0 * fs.c_grad(3), abs=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reference_gradients_share_one_squared_norm(d):
    # On the regular unit-volume simplex every vertex basis gradient has
    # squared norm c_grad(d).
    E = fs.reference_edge_matrix(d)
    Gh = np.vstack([-np.ones(d), np.eye(d)])
    grads = Gh @ np.linalg.inv(E)
    for g in grads:
        assert g @ g == pytest.approx(fs.c_grad(d), rel=1e-14)


def test_c_star_table():
    assert fs.c_star(1, lumped=False, nonobtuse=False) == 4.0
    assert fs.c_star(2, lumped=False, nonobtuse=False) == 6.0
    assert fs.c_star(3, lumped=False, nonobtuse=False) == 8.0
    assert fs.c_star(2, lumped=True, nonobtuse=False) == 3.0
    assert fs.c_star(3, lumped=True, nonobtuse=False) == 4.0
    assert fs.c_star(2, lumped=False, nonobtuse=True) == 4.0
    assert fs.c_star(3, lumped=True, nonobtuse=True) == 2.0
    with pytest.raises(ValueError):
        fs.c_star(0, lumped=False, nonobtuse=False)


# ---------------------------------------------------------------------------
# mass sandwich and stiffness-diagonal bracket
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: fs.gen_uniform_1d(12),
    lambda: jittered_mesh_2d(np.random.default_rng(21)),
    lambda: jittered_mesh_3d(np.random.default_rng(22)),
])
def test_lumped_mass_sandwich(make):
    # u^T M u <= u^T Mlump u <= (d+2) u^T M u, elementwise in the spectrum
    mesh = make()
    d = mesh.dim
    M = fs.assemble_mass(mesh)
    L = fs.assemble_lumped(mesh)
    import scipy.linalg as sla
    evals = sla.eigh(L.toarray(), M.toarray(), eigvals_only=True)
    assert evals.min() >= 1.0 - 1e-10
    assert evals.max() <= (d + 2) + 1e-10
    # the eliminated row sums never exceed the full-space patch sums
    rs = fs.row_sum_lumping(M)
    assert (rs.diagonal() <= L.diagonal() + 1e-14).all()


def test_stiffness_diagonal_bracket_via_patch_eigenvalues():
    # c_grad sum |K| lmin(F'^-1 D F'^-T) <= A_ii <= same with lmax
    rng = np.random.default_rng(31)
    for mesh, field in [
        (jittered_mesh_2d(rng, 5, 5), fs.aniso2d(100.0)),
        (jittered_mesh_3d(rng), fs.Constant(np.diag([1.0, 5.0, 25.0]))),
    ]:
        d = mesh.dim
        dof = fs.DofMap(mesh)
        A = fs.assemble_stiffness(mesh, field)
        Dk = fs.element_averages(field, mesh)
        E = mesh.element_matrices()
        Fp = E @ np.linalg.inv(fs.reference_edge_matrix(d))
        Fi = np.linalg.inv(Fp)
        S = Fi @ Dk @ np.swapaxes(Fi, 1, 2)
        ev = np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, 1, 2)))
        vols = mesh.volumes()
        diag = A.diagonal()
        for loc, i in enumerate(dof.free):
            ks = elements_of(mesh, i)
            lo = fs.c_grad(d) * float(vols[ks] @ ev[ks, 0])
            hi = fs.c_grad(d) * float(vols[ks] @ ev[ks, -1])
            assert lo - 1e-10 * hi <= diag[loc] <= hi * (1.0 + 1e-10)


def test_stiffness_diagonal_bracket_tight_for_matching_shape():
    # equality of both sides on equilateral elements with the identity
    mesh = equilateral_lattice()
    dof = fs.DofMap(mesh)
    A = fs.assemble_stiffness(mesh, fs.identity(2))
    vols = mesh.volumes()
    area = vols[0]
    lam = area ** (-1.0)                  # lmin = lmax = |K|^(-2/d), d = 2
    for loc, i in enumerate(dof.free):
        ks = elements_of(mesh, i)
        want = fs.c_grad(2) * float(vols[ks].sum()) * lam
        assert A.diagonal()[loc] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# eigenvalue solvers
# ---------------------------------------------------------------------------

def test_dense_pencil_matches_1d_closed_form():
    for n in (4, 16):
        mesh = fs.gen_uniform_1d(n)
        A = fs.assemble_stiffness(mesh, fs.identity(1))
        assert pencil_max(fs.assemble_mass(mesh), A) == pytest.approx(
            lam_1d_uniform(n, lumped=False), rel=1e-12)
        assert pencil_max(fs.assemble_lumped(mesh), A) == pytest.approx(
            lam_1d_uniform(n, lumped=True), rel=1e-12)


def test_dense_pencil_guards():
    I2 = sp.csr_array(np.eye(2))
    indef = sp.csr_array([[1.0, 2.0], [2.0, 1.0]])   # eigenvalues -1, 3
    with pytest.raises(ValueError, match="nonpositive"):
        fs.lambda_max_exact(I2, indef)
    I3 = sp.csr_array(np.eye(3))
    with pytest.raises(ValueError, match="mismatch"):
        fs.lambda_max_exact(I2, I3)
    # past the size the dense path refused (20000): sparse and certified
    big = sp.csr_array(sp.identity(20001, format="csr"))
    est = fs.lambda_max_exact(big, big)
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert est.certified


def test_max_eigvec_solves_the_pencil():
    mesh = jittered_mesh_2d(np.random.default_rng(41), 4, 4)
    M = fs.assemble_mass(mesh)
    A = fs.assemble_stiffness(mesh, fs.identity(2))
    lam, v = fs.max_eigvec_exact(M, A)
    assert np.allclose(A @ v, lam * (M @ v), atol=1e-9 * lam)
    assert lam == pytest.approx(pencil_max(M, A), rel=1e-13)


def test_lanczos_exact_when_steps_reach_dimension():
    mesh = fs.gen_uniform_1d(8)                      # 7 free nodes
    M = fs.assemble_mass(mesh)
    A = fs.assemble_stiffness(mesh, fs.identity(1))
    est = fs.lambda_max_lanczos(M, A, steps=7, security=1.0)
    assert est.value == pytest.approx(pencil_max(M, A), rel=1e-10)
    assert est.residual < 1e-8


def test_lanczos_estimates_increase_with_steps():
    mesh = jittered_mesh_2d(np.random.default_rng(51))
    L = fs.assemble_lumped(mesh)
    A = fs.assemble_stiffness(mesh, fs.aniso2d(100.0))
    exact = pencil_max(L, A)
    prev = 0.0
    for steps in (2, 4, 8, 16):
        est = fs.lambda_max_lanczos(L, A, steps=steps, security=1.0)
        assert prev <= est.value * (1.0 + 1e-12)
        assert est.value <= exact * (1.0 + 1e-12)
        prev = est.value
    assert prev == pytest.approx(exact, rel=1e-6)


def test_lanczos_security_factor_and_guards():
    mesh = fs.gen_uniform_1d(16)
    L = fs.assemble_lumped(mesh)
    A = fs.assemble_stiffness(mesh, fs.identity(1))
    raw = fs.lambda_max_lanczos(L, A, steps=5, security=1.0).value
    sec = fs.lambda_max_lanczos(L, A, steps=5, security=1.1).value
    assert sec == pytest.approx(1.1 * raw, rel=1e-13)
    with pytest.raises(ValueError):
        fs.lambda_max_lanczos(L, A, steps=0)
    with pytest.raises(ValueError):
        fs.lambda_max_lanczos(L, A, steps=bounds_mod.LANCZOS_MAX_STEPS + 1)


def test_power_iteration_converges_and_warm_starts():
    mesh = fs.gen_uniform_1d(32)
    L = fs.assemble_lumped(mesh)
    A = fs.assemble_stiffness(mesh, fs.identity(1))
    exact, vec = fs.max_eigvec_exact(L, A)
    est = fs.lambda_max_power(L, A, tol=1e-12)
    assert est.value == pytest.approx(exact, rel=1e-8)
    warm = fs.lambda_max_power(L, A, tol=1e-10, warm_start=vec)
    assert warm.value == pytest.approx(exact, rel=1e-12)
    assert "it=1" in warm.method
    with pytest.raises(RuntimeError):
        fs.lambda_max_power(L, A, tol=1e-14, max_iter=2)
    with pytest.raises(ValueError):
        fs.lambda_max_power(L, A, tol=0.0)


def test_eig_estimate_float_conversion():
    est = fs.EigEstimate(value=3.5, method="dense", residual=0.0)
    assert float(est) == 3.5


# ---------------------------------------------------------------------------
# diagonal ratio bound and step sizes
# ---------------------------------------------------------------------------

def test_diag_ratio_1d_uniform_numbers():
    mesh = fs.gen_uniform_1d(4)
    A = fs.assemble_stiffness(mesh, fs.identity(1))
    full = fs.diag_ratio_bound(fs.assemble_mass(mesh), A,
                               fs.c_star(1, False, nonobtuse=True))
    assert full.lower == pytest.approx(48.0, rel=1e-14)
    assert full.upper == pytest.approx(192.0, rel=1e-14)
    assert full.min_ratio == pytest.approx(1.0 / 48.0, rel=1e-14)
    lump = fs.diag_ratio_bound(fs.assemble_lumped(mesh), A,
                               fs.c_star(1, True, nonobtuse=True))
    assert lump.lower == pytest.approx(32.0, rel=1e-14)
    assert lump.upper == pytest.approx(64.0, rel=1e-14)
    # the exact eigenvalue sits inside both brackets
    lam = lam_1d_uniform(4, lumped=False)
    assert full.lower <= lam <= full.upper
    lam_l = lam_1d_uniform(4, lumped=True)
    assert lump.lower <= lam_l <= lump.upper


def test_diag_ratio_rejects_nonpositive_diagonals():
    ok = sp.csr_array(np.diag([1.0, 1.0]))
    bad = sp.csr_array(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        fs.diag_ratio_bound(bad, ok, 4.0)
    with pytest.raises(ValueError):
        fs.diag_ratio_bound(ok, bad, 4.0)


def test_tau_values_scaling_and_guards():
    t1 = fs.tau_values(100.0, 1, 4.0, 0.02)
    assert t1.tau_max_over_s2 == pytest.approx(0.02)
    assert t1.tau_h_over_s2 == pytest.approx(0.01)
    assert t1.tau_max == pytest.approx(t1.tau_max_over_s2)
    t5 = fs.tau_values(100.0, 5, 4.0, 0.02)
    assert t5.tau_max == pytest.approx(25 * t5.tau_max_over_s2)
    assert t5.tau_h == pytest.approx(25 * t5.tau_h_over_s2)
    assert t5.tau_max_over_s2 == t1.tau_max_over_s2   # s-independent
    est = fs.EigEstimate(value=100.0, method="dense", residual=0.0)
    assert fs.tau_values(est, 1, 4.0, 0.02) == t1
    with pytest.raises(ValueError):
        fs.tau_values(0.0, 1, 4.0, 0.02)
    with pytest.raises(ValueError):
        fs.tau_values(100.0, 0, 4.0, 0.02)


# ---------------------------------------------------------------------------
# geometric patch bound
# ---------------------------------------------------------------------------

def test_geometric_bound_1d_uniform_value():
    mesh = fs.gen_uniform_1d(4)
    g = fs.geometric_bound(fs.ProblemContext(mesh, fs.identity(1)),
                           lumped=True)
    assert g.nonobtuse
    assert g.value == pytest.approx(96.0, rel=1e-12)


def test_geometric_bound_dominates_exact_eigenvalue(suite):
    for label, mesh, field in suite:
        field = field or fs.identity(mesh.dim)
        ctx = fs.ProblemContext(mesh, field)
        A = fs.assemble_stiffness(mesh, field)
        M = fs.assemble_mass(mesh)
        L = fs.assemble_lumped(mesh)
        for lumped, Mt in ((False, M), (True, L)):
            g = fs.geometric_bound(ctx, lumped=lumped)
            lam = pencil_max(Mt, A)
            assert g.value >= lam * (1.0 - 1e-10), (label, lumped)
            assert mesh.node_markers[g.argmax_node] != fs.DIRICHLET


# ---------------------------------------------------------------------------
# metric-matching bound
# ---------------------------------------------------------------------------

def test_metric_bound_uniform_1d_closed_form():
    for n in (16, 64):
        mesh = fs.gen_uniform_1d(n)
        mu = fs.muniform_bound(fs.ProblemContext(mesh, fs.identity(1)),
                               fs.ProblemContext(mesh, fs.identity(1)),
                               lumped=False)
        assert mu.value == pytest.approx(12.0 * n * n, rel=1e-12)
        assert mu.max_q_m == pytest.approx(1.0, abs=1e-12)
    # tightness improves with refinement against the closed-form eigenvalue
    assert 12.0 * 64 ** 2 / lam_1d_uniform(64, False) == pytest.approx(
        1.00181, abs=1e-4)


def test_metric_bound_valid_on_metric_uniform_meshes():
    cases = []
    m1 = fs.gen_uniform_1d(16)
    cases.append((m1, fs.identity(1), fs.identity(1)))
    f = fs.per1d()
    m2 = fs.gen_equidistributed_1d(64, fs.adapted_weight(f))
    cases.append((m2, fs.InverseOf(f), f))
    eq = equilateral_lattice()
    cases.append((eq, fs.identity(2), fs.identity(2)))
    for mesh, metric, field in cases:
        A = fs.assemble_stiffness(mesh, field)
        M = fs.assemble_mass(mesh)
        L = fs.assemble_lumped(mesh)
        ctx = fs.ProblemContext(mesh, field)
        metric_ctx = fs.ProblemContext(mesh, metric)
        for lumped, Mt in ((False, M), (True, L)):
            mu = fs.muniform_bound(ctx, metric_ctx, lumped=lumped)
            assert mu.max_q_m < 1.01       # bound applicable
            lam = pencil_max(Mt, A)
            assert mu.value >= lam * (1.0 - 1e-10)


def test_metric_bound_equilateral_ratio():
    eq = equilateral_lattice()
    mu = fs.muniform_bound(fs.ProblemContext(eq, fs.identity(2)),
                           fs.ProblemContext(eq, fs.identity(2)),
                           lumped=False)
    lam = pencil_max(fs.assemble_mass(eq),
                     fs.assemble_stiffness(eq, fs.identity(2)))
    assert mu.value == pytest.approx(2048.0, rel=1e-12)
    assert mu.value / lam == pytest.approx(1.4858, abs=2e-4)


def test_metric_bound_reports_mismatch_indicator():
    mesh = jittered_mesh_2d(np.random.default_rng(61))
    mu = fs.muniform_bound(fs.ProblemContext(mesh, fs.identity(2)),
                           fs.ProblemContext(mesh, fs.identity(2)),
                           lumped=True)
    assert mu.max_q_m > 1.05               # not metric-uniform


def test_metric_bound_refuses_a_metric_on_another_mesh():
    mesh = fs.gen_structured_2d(4, 4)
    other = fs.gen_structured_2d(4, 4)
    with pytest.raises(ValueError, match="another mesh"):
        fs.muniform_bound(fs.ProblemContext(mesh, fs.identity(2)),
                          fs.ProblemContext(other, fs.identity(2)))


# ---------------------------------------------------------------------------
# face-volume brackets
# ---------------------------------------------------------------------------

def test_face_bracket_structured_grid_closed_forms():
    mesh = fs.gen_structured_2d(8, 8)
    zd = fs.zhu_du_bound(fs.ProblemContext(mesh, fs.identity(2)))
    assert zd.upper == pytest.approx(3072.0, rel=1e-12)
    assert zd.lower == pytest.approx(15.36, rel=1e-12)
    assert zd.c1 == pytest.approx(1.0)
    assert zd.p_max == 6
    lam = pencil_max(fs.assemble_mass(mesh),
                     fs.assemble_stiffness(mesh, fs.identity(2)))
    assert lam == pytest.approx(1524.578, rel=1e-4)
    assert zd.lower <= lam <= zd.upper


def test_face_bracket_contains_full_mass_eigenvalue():
    rng = np.random.default_rng(71)
    for mesh, field in [
        (jittered_mesh_2d(rng, 5, 5), fs.aniso2d(100.0)),
        (jittered_mesh_3d(rng), fs.Constant(np.diag([1.0, 10.0, 100.0]))),
        (fs.gen_structured_2d(4, 12, ratio_y=1.4),
         fs.identity(2)),
    ]:
        ctx = fs.ProblemContext(mesh, field)
        zd = fs.zhu_du_bound(ctx)
        lam = pencil_max(fs.assemble_mass(mesh),
                         fs.assemble_stiffness(mesh, field))
        assert zd.lower <= lam * (1.0 + 1e-12)
        assert lam <= zd.upper * (1.0 + 1e-12)


def test_face_bracket_guards():
    m1 = fs.gen_uniform_1d(4)
    with pytest.raises(ValueError):
        fs.zhu_du_bound(fs.ProblemContext(m1, fs.identity(1)))


def test_lumped_face_bracket_two_triangle_numbers():
    tt = two_triangle_square()
    ctx = fs.ProblemContext(tt, fs.identity(2))
    sh = fs.shewchuk_bound(ctx)
    assert sh.lower == pytest.approx(4.5, rel=1e-12)
    assert sh.upper == pytest.approx(18.0, rel=1e-12)
    assert sh.p_max == 2
    lam = pencil_max(fs.assemble_lumped(tt),
                     fs.assemble_stiffness(tt, fs.identity(2)))
    assert lam == pytest.approx(7.854102, rel=1e-6)
    assert sh.lower <= lam <= sh.upper
    # eliminated row-sum lumping shrinks boundary-adjacent masses by 4/3
    rs = fs.row_sum_lumping(fs.assemble_mass(tt))
    sh_rs = fs.shewchuk_bound(ctx, m_lump=rs.diagonal())
    assert sh_rs.lower == pytest.approx(5.75, rel=1e-12)
    assert sh_rs.upper == pytest.approx(23.0, rel=1e-12)
    lam_rs = pencil_max(rs, fs.assemble_stiffness(tt, fs.identity(2)))
    assert lam_rs == pytest.approx(10.472136, rel=1e-6)
    assert sh_rs.lower <= lam_rs <= sh_rs.upper


def test_lumped_face_bracket_anisotropic():
    tt = two_triangle_square()
    f = fs.aniso2d(10.0)
    sh = fs.shewchuk_bound(fs.ProblemContext(tt, f))
    assert sh.lower == pytest.approx(28.0549404, rel=1e-7)
    assert sh.upper == pytest.approx(112.2197616, rel=1e-7)
    lam = pencil_max(fs.assemble_lumped(tt), fs.assemble_stiffness(tt, f))
    assert lam == pytest.approx(51.93196, rel=1e-6)
    assert sh.lower <= lam <= sh.upper


def test_lumped_face_bracket_contains_lumped_eigenvalue():
    rng = np.random.default_rng(81)
    for mesh, field in [
        (jittered_mesh_2d(rng, 5, 5), fs.aniso2d(50.0)),
        (jittered_mesh_3d(rng), fs.Constant(np.diag([1.0, 3.0, 9.0]))),
    ]:
        sh = fs.shewchuk_bound(fs.ProblemContext(mesh, field))
        lam = pencil_max(fs.assemble_lumped(mesh),
                         fs.assemble_stiffness(mesh, field))
        assert sh.lower <= lam * (1.0 + 1e-12)
        assert lam <= sh.upper * (1.0 + 1e-12)


def test_lumped_face_bracket_guards():
    tt = two_triangle_square()
    ctx = fs.ProblemContext(tt, fs.identity(2))
    with pytest.raises(ValueError, match="wrong length"):
        fs.shewchuk_bound(ctx, m_lump=np.ones(2))
    # a vector over all mesh nodes is not a free-node vector
    with pytest.raises(ValueError, match="wrong length"):
        fs.shewchuk_bound(ctx, m_lump=np.ones(tt.num_nodes))
    with pytest.raises(ValueError, match="nonpositive"):
        fs.shewchuk_bound(ctx, m_lump=np.zeros(3))
    with pytest.raises(ValueError, match="vector"):
        fs.shewchuk_bound(ctx, m_lump=np.eye(3))
    with pytest.raises(ValueError):
        fs.shewchuk_bound(fs.ProblemContext(fs.gen_uniform_1d(4),
                                            fs.identity(1)))


def _assert_rel(value, expected, rtol=1e-13):
    assert abs(value - expected) <= rtol * abs(expected)


@PROPERTY
@given(problems().filter(lambda p: p[0].dim >= 2))
def test_face_brackets_match_face_volume_oracle(problem):
    mesh, field, _ = problem
    d = mesh.dim
    ctx = fs.ProblemContext(mesh, field)
    ev = np.linalg.eigvalsh(ctx.Dk)
    p_max = np.bincount(mesh.elements.ravel()).max()
    m_node = np.zeros(mesh.num_nodes)
    for el, vol in zip(mesh.elements, mesh.volumes()):
        m_node[el] += vol / (d + 1)

    zk, sk = face_bracket_oracle(mesh, ctx.Dk, m_node)
    zd = fs.zhu_du_bound(ctx)
    _assert_rel(zd.upper, (d + 2) * np.max(ev[:, -1] * zk))
    c1 = volume_ratio_c1_oracle(mesh)
    _assert_rel(zd.lower, np.max(ev[:, 0] * zk)
                / (d * (1.0 + c1 * p_max * (d + 2))))
    sh = fs.shewchuk_bound(ctx)
    _assert_rel(sh.lower, sk.max() / d)
    _assert_rel(sh.upper, p_max * sk.max())

    rowsum = ctx.mass_tilde("lumped_rowsum").diagonal()
    m_node[ctx.dofmap.free] = rowsum
    sk = face_bracket_oracle(mesh, ctx.Dk, m_node)[1]
    sh = fs.shewchuk_bound(ctx, m_lump=rowsum)
    _assert_rel(sh.lower, sk.max() / d)
    _assert_rel(sh.upper, p_max * sk.max())


def _one_dirichlet(n_nodes):
    """Markers with node 0 Dirichlet and every other node Neumann."""
    markers = np.full(n_nodes, fs.NEUMANN)
    markers[0] = fs.DIRICHLET
    return markers


@st.composite
def neighbor_meshes(draw):
    """Jittered or graded 2D/3D grid with its elements in a random order."""
    dim = draw(st.sampled_from([2, 3]))
    cells = draw(st.integers(*{2: (2, 12), 3: (2, 4)}[dim]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if dim == 2:
        base = fs.gen_structured_2d(
            cells, cells + draw(st.integers(0, 3)),
            diagonal=draw(st.sampled_from(["right", "left", "alternating"])))
    else:
        base = fs.gen_structured_3d(cells, cells, cells)
    nodes = base.nodes.copy()
    if draw(st.sampled_from(["jittered", "graded"])) == "jittered":
        free = base.node_markers != fs.DIRICHLET
        nodes[free] += draw(st.floats(0.0, 0.3)) / cells * rng.uniform(
            -1.0, 1.0, (int(free.sum()), dim))
    else:
        nodes = nodes ** draw(st.floats(1.0, 3.0))
    elements = base.elements[rng.permutation(base.num_elements)]
    return fs.SimplicialMesh(nodes, elements, _one_dirichlet(len(nodes)))


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(neighbor_meshes())
def test_volume_ratio_c1_matches_dict_oracle(mesh):
    assert bounds_mod._volume_ratio_c1(mesh) == volume_ratio_c1_oracle(mesh)


@pytest.mark.parametrize("k", [2, 3])
def test_face_keys_exact_near_2_to_the_32(k):
    """Edges (k = 2) and triangles (k = 3) of sorted vertices drawn from
    the lowest and the highest indices below n = 2**32, each present one
    to three times in random order: two rows share their keys exactly
    when they are equal, and the keys sort the rows as the vertex columns
    do, stably."""
    n = 2 ** 32
    rng = np.random.default_rng(k)
    verts = np.concatenate([np.arange(8), n - 12 + np.arange(12)])
    faces = np.array(list(itertools.combinations(verts, k)), dtype=np.int64)
    faces = np.repeat(faces, rng.integers(1, 4, len(faces)), axis=0)
    faces = faces[rng.permutation(len(faces))]
    keys = bounds_mod._face_keys(faces, n)
    assert all(key.dtype == np.uint64 for key in keys)
    _, by_rows = np.unique(faces, axis=0, return_inverse=True)
    _, by_keys = np.unique(np.stack(keys, axis=1), axis=0,
                           return_inverse=True)
    assert np.array_equal(by_rows.ravel(), by_keys.ravel())
    assert np.array_equal(np.lexsort(keys[::-1]), np.lexsort(faces.T[::-1]))
    with pytest.raises(ValueError, match="2\\*\\*32 nodes"):
        bounds_mod._face_keys(faces, n + 1)


def test_volume_ratio_c1_single_element_and_known_ratio():
    tri = fs.SimplicialMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                            np.array([[0, 1, 2]]), _one_dirichlet(3))
    tet = fs.SimplicialMesh(np.vstack([np.zeros(3), np.eye(3)]),
                            np.array([[0, 1, 2, 3]]), _one_dirichlet(4))
    for mesh in (tri, tet):
        assert bounds_mod._volume_ratio_c1(mesh) == 1.0
    # two triangles of areas 1/2 and 3/2 across the edge x = 1
    pair = fs.SimplicialMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [4.0, 0.0]]),
        np.array([[0, 1, 2], [1, 3, 2]]), _one_dirichlet(4))
    assert bounds_mod._volume_ratio_c1(pair) == pytest.approx(3.0)
    # a face shared by three elements pairs the first two, as the dict did
    fan = fs.SimplicialMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                  [0.5, 4.0]]),
        np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]), _one_dirichlet(5))
    assert bounds_mod._volume_ratio_c1(fan) == 1.0
    assert volume_ratio_c1_oracle(fan) == 1.0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _counting(field):
    """The same field given pointwise, with a list of its evaluations."""
    calls = []

    def fn(X):
        calls.append(len(X))
        return field(X)
    return fs.Analytic(fn, dim=field.dim), calls


def test_report_evaluates_the_field_once():
    mesh = jittered_mesh_2d(np.random.default_rng(11), 5, 5)
    field, calls = _counting(fs.aniso2d(100.0))
    rep = fs.stability_report(mesh, field)
    q = len(fs.simplex_rule(2, 4)[1])
    assert calls == [q * mesh.num_elements]
    assert rep.lambda_geo is not None and rep.lambda_shewchuk_upper is not None
    # the same numbers as a report on the uncounted field
    ref = fs.stability_report(mesh, fs.aniso2d(100.0))
    assert rep == ref


def test_shared_context_serves_every_mass_kind():
    mesh = jittered_mesh_2d(np.random.default_rng(12), 4, 4)
    field, calls = _counting(fs.aniso2d(10.0))
    ctx = fs.ProblemContext(mesh, field, 4)
    for kind in fs.MASS_KINDS:
        shared = fs.stability_report(mesh, field, mass_kind=kind,
                                     context=ctx)
        assert shared == fs.stability_report(mesh, fs.aniso2d(10.0),
                                             mass_kind=kind)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="context"):
        fs.stability_report(mesh, field, quad_order=2, context=ctx)


def test_context_tests_nonobtuseness_once(monkeypatch):
    calls = []
    real = assembly_mod.is_nonobtuse_wrt
    monkeypatch.setattr(assembly_mod, "is_nonobtuse_wrt",
                        lambda A: calls.append(A.shape) or real(A))
    mesh = jittered_mesh_2d(np.random.default_rng(13), 4, 4)
    ctx = fs.ProblemContext(mesh, fs.aniso2d(10.0), 4)
    for kind in fs.MASS_KINDS:
        fs.stability_report(mesh, ctx.field, mass_kind=kind, context=ctx)
    assert len(calls) == 1


def test_mass_tilde_per_kind():
    tt = two_triangle_square()
    ctx = fs.ProblemContext(tt, fs.identity(2))
    assert ctx.mass_tilde("full") is ctx.M
    lumped = ctx.mass_tilde("lumped")
    assert np.array_equal(lumped.toarray(), fs.assemble_lumped(tt).toarray())
    rowsum = ctx.mass_tilde("lumped_rowsum")
    assert np.array_equal(rowsum.toarray(),
                          fs.row_sum_lumping(ctx.M).toarray())
    with pytest.raises(ValueError,
                       match="full, lumped, lumped_rowsum") as err:
        ctx.mass_tilde("bogus")
    assert "'bogus'" in str(err.value)



def test_stability_report_brackets_and_fields():
    tt = two_triangle_square()
    field = fs.identity(2)
    for mass_kind in fs.MASS_KINDS:
        rep = fs.stability_report(tt, field, mass_kind=mass_kind, s=2,
                                  mesh_id="tt")
        assert rep.mesh_id == "tt"
        assert rep.n_elements == 2 and rep.n_free == 3
        assert rep.lumped == (mass_kind != "full")
        assert rep.lambda_diag_lower <= rep.lambda_exact * (1 + 1e-12)
        assert rep.lambda_exact <= rep.lambda_diag_upper * (1 + 1e-12)
        assert rep.lambda_geo >= rep.lambda_exact * (1 - 1e-12)
        assert rep.tau_max_over_s2 == pytest.approx(2.0 / rep.lambda_exact)
        assert rep.ratio == pytest.approx(
            rep.tau_max_over_s2 / rep.tau_h_over_s2)
        if mass_kind == "full":
            assert rep.lambda_zhudu_lower <= rep.lambda_exact \
                <= rep.lambda_zhudu_upper
        else:
            assert rep.lambda_shewchuk_lower <= rep.lambda_exact * (1 + 1e-12)
            assert rep.lambda_exact <= rep.lambda_shewchuk_upper * (1 + 1e-12)
        parsed = json.loads(rep.to_json())
        assert parsed["mass_kind"] == mass_kind
        assert parsed["lambda_exact"] == rep.lambda_exact
        names = [row[0] for row in rep.method_rows()]
        assert names == ["diag", "geo", "zhudu", "shewchuk"]


def test_stability_report_include_and_methods():
    tt = two_triangle_square()
    rep = fs.stability_report(tt, fs.identity(2), include=("diag",))
    assert rep.lambda_geo is None
    assert rep.lambda_zhudu_upper is None
    assert [r[0] for r in rep.method_rows()] == ["diag"]
    assert rep.method.endswith(",certified)")
    lz = fs.stability_report(tt, fs.identity(2), lanczos_steps=3,
                             security=1.0)
    assert lz.method.startswith("lanczos(steps=")
    assert lz.lambda_exact == pytest.approx(rep.lambda_exact, rel=1e-9)
    with pytest.raises(ValueError):
        fs.stability_report(tt, fs.identity(2), lanczos_steps=0)
    with pytest.raises(ValueError):
        fs.stability_report(tt, fs.identity(2), mass_kind="diagonal")


def test_report_csv_layout(tmp_path):
    tt = two_triangle_square()
    reps = [fs.stability_report(tt, fs.identity(2), mass_kind=k,
                                mesh_id=f"tt-{k}") for k in fs.MASS_KINDS]
    path = tmp_path / "report.csv"
    fs.write_report_csv(reps, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("mesh_id,n_elements,mass_kind,bound,"
                        "tau_max_over_s2,tau_h_over_s2,ratio")
    assert len(lines) == 1 + sum(len(r.method_rows()) for r in reps)
    # repr round-trip keeps full precision
    first = lines[1].split(",")
    assert float(first[4]) == reps[0].tau_max_over_s2
    path2 = tmp_path / "again.csv"
    fs.write_report_csv(reps, str(path2))
    assert path.read_bytes() == path2.read_bytes()
