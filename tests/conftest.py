"""Shared mesh builders and case lists for the test suite."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

import festab as fs
from festab.fields import SPD_RTOL


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


def elements_of(mesh, i):
    """The elements of the vertex patch omega_i, in element order."""
    return np.flatnonzero((mesh.elements == i).any(axis=1))


def volume_ratio_c1_oracle(mesh):
    """Oracle: largest face-neighbor volume ratio by a dict over the faces,
    pairing elements in element order (the loop the vectorized
    `_volume_ratio_c1` replaced)."""
    vols = mesh.volumes()
    faces = {}
    c1 = 1.0
    d1 = mesh.dim + 1
    for k, el in enumerate(mesh.elements):
        for i in range(d1):
            key = tuple(sorted(np.delete(el, i)))
            other = faces.pop(key, None)
            if other is None:
                faces[key] = k
            else:
                r = vols[k] / vols[other]
                c1 = max(c1, r, 1.0 / r)
    return float(c1)


def face_bracket_oracle(mesh, Dk, m_node):
    """Oracle: per-element (Z_K, S_K) of the face-volume brackets, element
    by element from the Gram determinants of the faces (the formula the
    gradient form of `zhu_du_bound` and `shewchuk_bound` replaced).

    Z_K = ((d+1)/d^2) sum_i |V_i|^2 / |K|^2 and
    S_K = (1/d^2) sum_i (|K| / m_i) |V_i|_W^2 / |K|_W^2 in the metric
    W = D_K^-1, with |K|_W^2 = |K|^2 / det(D_K) and `m_node` the lumped
    mass of every mesh node.
    """
    d = mesh.dim
    ne = mesh.num_elements
    zk, sk = np.empty(ne), np.empty(ne)
    for k, el in enumerate(mesh.elements):
        p = mesh.nodes[el]
        vol = abs(np.linalg.det((p[1:] - p[0]).T)) / math.factorial(d)
        W = np.linalg.inv(Dk[k])
        z = s = 0.0
        for i in range(d + 1):
            face = np.delete(p, i, axis=0)
            F = (face[1:] - face[0]).T                  # (d, d-1) edges
            scale = math.factorial(d - 1) ** 2
            z += np.linalg.det(F.T @ F) / scale
            s += (vol / m_node[el[i]]) * np.linalg.det(F.T @ W @ F) / scale
        zk[k] = (d + 1) / d ** 2 * z / vol ** 2
        sk[k] = s / (d ** 2 * vol ** 2 / np.linalg.det(Dk[k]))
    return zk, sk


def equidistributed_1d_oracle(n, w):
    """Oracle: nodes of the 1D mesh equidistributing the scalar weight w, by
    one adaptive `quad` per fine cell and one `brentq` per node (the
    scalar generator the vectorized `gen_equidistributed_1d` replaced)."""
    m = max(1024, 4 * n)
    grid = np.arange(m + 1) / m
    cell = np.empty(m)
    nodes = np.empty(n + 1)
    nodes[0], nodes[-1] = 0.0, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for j in range(m):
            cell[j], _ = quad(w, grid[j], grid[j + 1], limit=200)
        cum = np.concatenate(([0.0], np.cumsum(cell)))
        for i in range(1, n):
            t = cum[-1] * i / n
            j = min(max(int(np.searchsorted(cum, t, side="right")) - 1, 0),
                    m - 1)
            lo, hi = grid[j], grid[j + 1]

            def g(x, _j=j, _t=t, _lo=lo):
                return cum[_j] + quad(w, _lo, x, limit=200)[0] - _t

            glo, ghi = g(lo), g(hi)
            if glo >= 0.0:
                nodes[i] = lo
            elif ghi <= 0.0:
                nodes[i] = hi
            else:
                nodes[i] = brentq(g, lo, hi, xtol=1e-14,
                                  rtol=4.0 * np.finfo(float).eps)
    return nodes


def load_mesh_by_line(path):
    """Oracle: the mesh of a mesh file read line by line with Python's
    `float` and `int` (the reader the bulk numpy parse of `load_mesh`
    replaced), or its ValueError."""
    with open(path) as f:
        lines = [(ln, line) for ln, raw in enumerate(f, start=1)
                 if (line := raw.split("#", 1)[0].strip())]
    pos = 0

    def header(key, what):
        nonlocal pos
        if pos == len(lines):
            raise ValueError(f"{path}: unexpected end of file, "
                             f"expected '{key} <{what}>'")
        ln, line = lines[pos]
        pos += 1
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"{path}:{ln}: expected '{key} <{what}>'")
        if not parts[1].isdecimal():
            raise ValueError(f"{path}:{ln}: '{key}' needs a non-negative "
                             f"integer, got {parts[1]!r}")
        return ln, int(parts[1])

    ln, d = header("dim", "d")
    if d not in (1, 2, 3):
        raise ValueError(f"{path}:{ln}: unsupported dimension {d}")
    at, n = header("nodes", "n")
    block = lines[pos:pos + n]
    nodes = np.empty((len(block), d))
    markers = np.empty(len(block), dtype=np.int64)
    for i, (ln, line) in enumerate(block):
        parts = line.split()
        if len(parts) != d + 1:
            raise ValueError(f"{path}:{ln}: node line needs {d} coordinates "
                             f"and a marker, got {len(parts)} fields")
        try:
            nodes[i] = [float(p) for p in parts[:d]]
            markers[i] = int(parts[d])
        except (ValueError, OverflowError):
            raise ValueError(f"{path}:{ln}: malformed node line") from None
    if len(block) < n:
        raise ValueError(f"{path}:{at}: declares {n} nodes, but the file "
                         f"holds only {len(block)}")
    pos += n
    at, ne = header("elements", "N")
    block = lines[pos:pos + ne]
    elements = np.empty((len(block), d + 1), dtype=np.int64)
    tags = np.zeros(len(block), dtype=np.int64)
    for k, (ln, line) in enumerate(block):
        parts = line.split()
        if len(parts) not in (d + 1, d + 2):
            raise ValueError(f"{path}:{ln}: element line needs {d + 1} node "
                             f"indices (+ optional region tag)")
        try:
            vals = [int(p) for p in parts]
            elements[k] = vals[:d + 1]
            if len(vals) == d + 2:
                tags[k] = vals[d + 1]
        except (ValueError, OverflowError):
            raise ValueError(f"{path}:{ln}: malformed element line") from None
    if len(block) < ne:
        raise ValueError(f"{path}:{at}: declares {ne} elements, but the "
                         f"file holds only {len(block)}")
    if pos + ne < len(lines):
        raise ValueError(f"{path}:{lines[pos + ne][0]}: content after the "
                         "element block")
    return fs.SimplicialMesh(nodes, elements, markers, region_tags=tags)


def check_spd_by_eigvalsh(mats, context="field evaluation"):
    """Oracle: `check_spd` with `eigvalsh` on every matrix (the check the
    closed-form Sylvester screen of `check_spd` shortcuts)."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim == 2:
        mats = mats[None]
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"{context}: matrix {k} has a non-finite entry")
    asym = np.abs(mats - np.swapaxes(mats, -1, -2)).max()
    scale = np.abs(mats).max()
    if asym > 1e-12 * max(scale, 1e-300):
        raise ValueError(f"{context}: matrix not symmetric "
                         f"(asymmetry {asym:g})")
    ev = np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
    bad = ev[..., 0] <= SPD_RTOL * np.maximum(ev[..., -1], 0.0)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(f"{context}: matrix {k} not positive definite "
                         f"(eigenvalues {ev[k]})")


# Settings of the property tests: derandomized, so tier-1 runs are repeatable.
PROPERTY = settings(derandomize=True, max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _grid(dim, cells):
    if dim == 1:
        return fs.gen_uniform_1d(cells)
    if dim == 2:
        return fs.gen_structured_2d(cells, cells, diagonal="alternating")
    return fs.gen_structured_3d(cells, cells, cells)


def _random_spd(rng, dim, kappa):
    """Random rotation of diag(1, ..., kappa) times a random scale."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    ev = np.geomspace(1.0, kappa, dim)
    return rng.uniform(0.1, 10.0) * (q * ev) @ q.T


@st.composite
def problems(draw):
    """(mesh, field, mass kind): a jittered or graded 1D/2D/3D mesh (some
    with a Neumann side), a constant or piecewise-constant SPD field and a
    mass kind."""
    dim = draw(st.sampled_from([1, 2, 3]))
    cells = draw(st.integers(*{1: (8, 400), 2: (4, 20), 3: (2, 6)}[dim]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = _grid(dim, cells)
    nodes = base.nodes.copy()
    free = base.node_markers != fs.DIRICHLET
    if draw(st.sampled_from(["jittered", "graded"])) == "jittered":
        amount = draw(st.floats(0.0, 0.3))
        nodes[free] += amount / cells * rng.uniform(-1.0, 1.0,
                                                    (int(free.sum()), dim))
    else:
        # monotone map per coordinate: cells shrink towards the origin
        nodes = nodes ** draw(st.floats(1.0, 2.0))
    markers = base.node_markers.copy()
    if draw(st.booleans()):
        side = nodes[:, 0] == 0.0
        if dim > 1:
            side &= (nodes[:, 1:] > 0.0).all(axis=1) \
                & (nodes[:, 1:] < 1.0).all(axis=1)
        markers[side] = fs.NEUMANN
    tags = rng.integers(0, 3, base.num_elements)
    mesh = fs.SimplicialMesh(nodes, base.elements, markers, region_tags=tags)
    kappa = draw(st.sampled_from([1.0, 10.0, 1000.0]))
    if draw(st.sampled_from(["constant", "piecewise"])) == "constant":
        field = fs.Constant(_random_spd(rng, dim, kappa))
    else:
        field = fs.PiecewiseConstantPerElement(
            {t: _random_spd(rng, dim, kappa) for t in range(3)})
    kind = draw(st.sampled_from(fs.MASS_KINDS))
    return mesh, field, kind


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
         fs.gen_structured_2d(4, 16, ratio_y=1.15),
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
