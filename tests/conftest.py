"""Shared mesh builders and case lists for the test suite."""

import numpy as np
import pytest
import scipy.linalg as sla

import festab as fs


def equilateral_lattice(rows=9, cols=8, h=0.125):
    """Strip of exactly equilateral triangles (uniform in the identity
    metric); boundary Dirichlet."""
    nodes = []
    nid = {}
    for j in range(rows):
        for i in range(cols + 1):
            nid[(i, j)] = len(nodes)
            nodes.append(((i + 0.5 * (j % 2)) * h, j * h * np.sqrt(3) / 2))
    elements = []
    for j in range(rows - 1):
        for i in range(cols):
            a, b = nid[(i, j)], nid[(i + 1, j)]
            c, d = nid[(i, j + 1)], nid[(i + 1, j + 1)]
            if j % 2 == 0:
                elements.append((a, b, c))
                elements.append((b, d, c))
            else:
                elements.append((a, b, d))
                elements.append((a, d, c))
    markers = np.zeros(len(nodes), dtype=np.int64)
    for (i, j), k in nid.items():
        if i in (0, cols) or j in (0, rows - 1):
            markers[k] = fs.DIRICHLET
    return fs.SimplicialMesh(np.array(nodes), np.array(elements), markers)


def two_triangle_square():
    """Unit square split once; three Neumann corners so free nodes exist."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2], [0, 2, 3]])
    markers = np.array([fs.DIRICHLET, fs.NEUMANN, fs.NEUMANN, fs.NEUMANN])
    return fs.SimplicialMesh(nodes, elements, markers)


def obtuse_pair():
    """Two strongly obtuse triangles sharing a long edge."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.15], [0.5, -0.15]])
    elements = np.array([[0, 1, 2], [0, 3, 1]])
    markers = np.array([fs.DIRICHLET, fs.NEUMANN, fs.NEUMANN, fs.NEUMANN])
    return fs.SimplicialMesh(nodes, elements, markers)


def jittered_mesh_2d(rng, nx=6, ny=6, amount=0.25):
    """Structured grid with interior nodes displaced by a random amount."""
    base = fs.gen_structured_2d(nx, ny, diagonal="alternating")
    nodes = base.nodes.copy()
    interior = base.node_markers == fs.INTERIOR
    h = 1.0 / max(nx, ny)
    nodes[interior] += amount * h * rng.uniform(-1.0, 1.0,
                                               (int(interior.sum()), 2))
    return fs.SimplicialMesh(nodes, base.elements, base.node_markers)


def random_mesh_1d(rng, n=40):
    """1D mesh with random positive spacings."""
    spacing = rng.uniform(0.2, 1.8, n)
    nodes = np.concatenate(([0.0], np.cumsum(spacing)))
    nodes /= nodes[-1]
    nodes = nodes[:, None]
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    markers = np.zeros(n + 1, dtype=np.int64)
    markers[0] = markers[-1] = fs.DIRICHLET
    return fs.SimplicialMesh(nodes, elements, markers)


def jittered_mesh_3d(rng, n=3, amount=0.2):
    base = fs.gen_structured_3d(n, n, n)
    nodes = base.nodes.copy()
    interior = base.node_markers == fs.INTERIOR
    nodes[interior] += amount / n * rng.uniform(-1.0, 1.0,
                                                (int(interior.sum()), 3))
    return fs.SimplicialMesh(nodes, base.elements, base.node_markers)


def dense_pencil_eigvals(Mt, A):
    """Oracle: every eigenvalue of the pencil (A, Mt), ascending, by the
    dense generalized symmetric eigensolver (small n only)."""
    return sla.eigh(A.toarray(), Mt.toarray(), eigvals_only=True)


def dense_lambda_max(Mt, A):
    """Oracle: largest eigenvalue of the pencil (A, Mt)."""
    return float(dense_pencil_eigvals(Mt, A)[-1])


def fields_for_dim(d):
    """Identity plus the dimension-matched benchmark fields."""
    if d == 1:
        return [fs.identity(1), fs.per1d(2.0 ** -4)]
    if d == 2:
        return [fs.identity(2), fs.aniso2d(1000.0)]
    return [fs.identity(3),
            fs.Constant(np.diag([1.0, 10.0, 100.0]))]


def suite_cases():
    """The fixed (label, mesh) collection used by 'every suite mesh' tests."""
    gw_mesh, gw_field = fs.gen_groundwater_like()
    cases = [
        ("1d-uniform-16", fs.gen_uniform_1d(16), None),
        ("1d-uniform-64", fs.gen_uniform_1d(64), None),
        ("1d-adapted-32",
         fs.gen_equidistributed_1d(32, fs.adapted_weight(fs.per1d())), None),
        ("2d-8x8-right", fs.gen_structured_2d(8, 8), None),
        ("2d-8x8-alt", fs.gen_structured_2d(8, 8, diagonal="alternating"),
         None),
        ("2d-bl-4x16",
         fs.gen_structured_2d(4, 16, grading="geometric", ratio_y=1.15),
         None),
        ("2d-two-triangle", two_triangle_square(), None),
        ("2d-equilateral", equilateral_lattice(), None),
        ("2d-groundwater", gw_mesh, gw_field),
        ("3d-2x2x2", fs.gen_structured_3d(2, 2, 2), None),
    ]
    return cases


@pytest.fixture(scope="session")
def suite():
    return suite_cases()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
