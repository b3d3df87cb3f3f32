"""Mass/stiffness assembly and lumping variants as symmetric CSR arrays."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given

import festab as fs
from festab.assembly import _symmetric_csr
from conftest import (elements_of, equilateral_lattice,
                      jittered_mesh_2d, jittered_mesh_3d, problems,
                      property_settings, two_triangle_square)


# ---------------------------------------------------------------------------
# closed-form oracles, 1D uniform
# ---------------------------------------------------------------------------

def test_1d_uniform_closed_forms():
    n, h = 4, 0.25
    mesh = fs.gen_uniform_1d(n)
    A = fs.assemble_stiffness(mesh, fs.identity(1)).toarray()
    M = fs.assemble_mass(mesh).toarray()
    assert A.shape == (3, 3)
    want_A = (1.0 / h) * (2 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1))
    want_M = (h / 6.0) * (4 * np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1))
    assert np.allclose(A, want_A, rtol=1e-14)
    assert np.allclose(M, want_M, rtol=1e-14)
    # regression: off-diagonal entries must appear exactly once, not twice
    assert A[0, 1] == pytest.approx(-4.0, abs=1e-13)
    assert M[0, 1] == pytest.approx(1.0 / 24.0, abs=1e-16)


def test_1d_lumping_variants():
    n, h = 4, 0.25
    mesh = fs.gen_uniform_1d(n)
    lump = fs.assemble_lumped(mesh)
    assert np.array_equal(lump.toarray(), np.diag(lump.diagonal()))
    assert np.allclose(lump.diagonal(), h)         # |omega_i| / 2 = 2h/2
    rs = fs.row_sum_lumping(fs.assemble_mass(mesh))
    # middle row keeps both neighbors; edge rows lose the Dirichlet column
    assert np.allclose(rs.diagonal(), [5 * h / 6, h, 5 * h / 6])


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: fs.gen_structured_2d(5, 4, diagonal="alternating"),
    lambda: jittered_mesh_2d(np.random.default_rng(3)),
    lambda: jittered_mesh_3d(np.random.default_rng(4)),
])
def test_mass_diagonal_is_patch_volume_fraction(make):
    mesh = make()
    d = mesh.dim
    patches = fs.build_patches(mesh)
    free = np.flatnonzero(mesh.node_markers != fs.DIRICHLET)
    M = fs.assemble_mass(mesh)
    assert np.allclose(M.diagonal(),
                       2.0 * patches.volumes[free] / ((d + 1) * (d + 2)),
                       rtol=1e-13)
    L = fs.assemble_lumped(mesh)
    assert np.allclose(L.diagonal(), patches.volumes[free] / (d + 1),
                       rtol=1e-13)
    # mass content: total sum of the full-space mass equals |Omega|; on
    # free nodes both lumpings bound the retained row sums from above
    assert (fs.row_sum_lumping(M).diagonal()
            <= L.diagonal() + 1e-15).all()


def test_stiffness_positive_definite_and_local_row_sums():
    mesh = equilateral_lattice()
    A = fs.assemble_stiffness(mesh, fs.identity(2))
    dense = A.toarray()
    assert np.allclose(dense, dense.T)
    assert np.linalg.eigvalsh(dense).min() > 0.0
    # interior vertex of an equilateral patch: 6 elements, each
    # contributing |K| |grad phi|^2 = 1/sqrt(3)
    k = int(np.argmax(A.diagonal()))
    assert A.diagonal()[k] == pytest.approx(6.0 / math.sqrt(3), rel=1e-12)
    # rows of deep-interior vertices (no Dirichlet neighbor) sum to zero
    free = np.flatnonzero(mesh.node_markers != fs.DIRICHLET)
    sums = A @ np.ones(A.shape[0])
    for loc, i in enumerate(free):
        neigh = np.unique(mesh.elements[elements_of(mesh, i)])
        if (mesh.node_markers[neigh] != fs.DIRICHLET).all():
            assert abs(sums[loc]) < 1e-12


def test_stiffness_matches_independent_loop_assembly():
    rng = np.random.default_rng(17)
    for mesh, field in [
        (jittered_mesh_2d(rng, 4, 4), fs.aniso2d(50.0)),
        (jittered_mesh_3d(rng), fs.Constant(np.diag([1.0, 4.0, 9.0]))),
        (two_triangle_square(), fs.Constant([[2.0, 0.5], [0.5, 1.0]])),
    ]:
        d = mesh.dim
        free = np.flatnonzero(mesh.node_markers != fs.DIRICHLET)
        pos = {int(i): k for k, i in enumerate(free)}
        Dk = fs.element_averages(field, mesh)
        nA = np.zeros((len(free), len(free)))
        nM = np.zeros_like(nA)
        for e, el in enumerate(mesh.elements):
            V = mesh.nodes[el]
            # barycentric gradients from the interpolation system
            sys = np.hstack([np.ones((d + 1, 1)), V])
            coeff = np.linalg.solve(sys, np.eye(d + 1))
            grads = coeff[1:, :].T                 # (d+1, d)
            vol = abs(np.linalg.det(V[1:] - V[0])) / math.factorial(d)
            locA = vol * grads @ Dk[e] @ grads.T
            locM = vol * (np.ones((d + 1, d + 1)) + np.eye(d + 1)) \
                / ((d + 1) * (d + 2))
            for a in range(d + 1):
                if int(el[a]) not in pos:
                    continue
                for b in range(d + 1):
                    if int(el[b]) not in pos:
                        continue
                    nA[pos[int(el[a])], pos[int(el[b])]] += locA[a, b]
                    nM[pos[int(el[a])], pos[int(el[b])]] += locM[a, b]
        assert np.allclose(fs.assemble_stiffness(mesh, field).toarray(), nA,
                           rtol=1e-12, atol=1e-14)
        assert np.allclose(fs.assemble_mass(mesh).toarray(), nM,
                           rtol=1e-12, atol=1e-16)


def test_dofmap_layout_and_errors():
    mesh = two_triangle_square()
    dof = fs.DofMap(mesh)
    assert dof.n_free == 3
    assert list(dof.free) == [1, 2, 3]
    assert dof.index[0] == -1
    assert list(dof.index[dof.free]) == [0, 1, 2]
    # a mesh whose nodes are all Dirichlet is refused on construction
    with pytest.raises(ValueError, match="no free nodes"):
        fs.SimplicialMesh([[0.0], [1.0]], [[0, 1]],
                          [fs.DIRICHLET, fs.DIRICHLET])


def test_sparse_sym_from_triplets_mirrors_and_sums():
    # upper-triangle triplets: duplicates summed, mirrored once
    S = _symmetric_csr(2, np.array([0, 1, 0, 0]), np.array([1, 1, 0, 1]),
                       np.array([2.0, 1.0, 4.0, 3.0]))
    assert isinstance(S, sp.csr_array)
    assert np.array_equal(S.toarray(), [[4.0, 5.0], [5.0, 1.0]])
    assert S.nnz == 4          # both triangles stored


def test_row_sum_lumping_rejects_nonpositive_rows():
    bad = sp.csr_array([[1.0, -2.0], [-2.0, 1.0]])
    with pytest.raises(ValueError):
        fs.row_sum_lumping(bad)


# ---------------------------------------------------------------------------
# properties of the assembled operators on drawn problems
# ---------------------------------------------------------------------------

@property_settings()
@given(problems())
def test_assembled_operators_are_exactly_symmetric_csr(problem):
    mesh, field, _ = problem
    dof = fs.DofMap(mesh)
    for X in (fs.assemble_mass(mesh, dof),
              fs.assemble_stiffness(mesh, field, 4, dof),
              fs.assemble_lumped(mesh, dof)):
        assert isinstance(X, sp.csr_array)
        assert X.shape == (dof.n_free, dof.n_free)
        assert (X != X.T).nnz == 0


@property_settings()
@given(problems())
def test_row_sum_lumping_is_the_row_sum(problem):
    mesh, _, _ = problem
    M = fs.assemble_mass(mesh)
    R = fs.row_sum_lumping(M)
    assert isinstance(R, sp.csr_array)
    assert np.array_equal(R.diagonal(), M @ np.ones(M.shape[0]))
    assert np.array_equal(R.toarray(), np.diag(R.diagonal()))


@property_settings()
@given(problems())
def test_mass_sandwiches(problem):
    # (1/2) diag(M) <= M <= ((d+2)/2) diag(M) and
    # (1/(d+2)) M_lump <= M <= ((d+2)/2) M_lump, as PSD differences
    mesh, _, _ = problem
    d = mesh.dim
    dof = fs.DofMap(mesh)
    M = fs.assemble_mass(mesh, dof).toarray()
    Md = np.diag(np.diag(M))
    Ml = fs.assemble_lumped(mesh, dof).toarray()
    slack = 1e-12 * np.abs(M).max()
    for diff in (M - 0.5 * Md, 0.5 * (d + 2) * Md - M,
                 M - Ml / (d + 2), 0.5 * (d + 2) * Ml - M):
        assert np.linalg.eigvalsh(diff)[0] >= -slack

