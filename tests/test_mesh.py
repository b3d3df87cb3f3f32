"""Mesh container, generators, patches and file format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import festab as fs
from scipy.integrate import quad
from conftest import (PROPERTY, elements_of, equidistributed_1d_oracle,
                      load_mesh_by_line, problems)


# ---------------------------------------------------------------------------
# reference elements
# ---------------------------------------------------------------------------

def test_reference_simplices_have_unit_volume():
    for d in (1, 2, 3):
        verts = fs.reference_simplex(d)
        E = (verts[1:] - verts[0]).T
        vol = abs(np.linalg.det(E)) / math.factorial(d)
        assert vol == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(verts[0], 0.0)


def test_reference_simplices_are_equilateral():
    for d in (2, 3):
        verts = fs.reference_simplex(d)
        lengths = [np.linalg.norm(verts[i] - verts[j])
                   for i in range(d + 1) for j in range(i)]
        assert np.ptp(lengths) < 1e-13
        side = {2: 2.0 / 3.0 ** 0.25, 3: (6.0 * math.sqrt(2.0)) ** (1.0 / 3.0)}
        assert side[d] == pytest.approx(lengths[0], rel=1e-14)


def test_reference_edge_matrix_matches_vertices():
    for d in (1, 2, 3):
        verts = fs.reference_simplex(d)
        E = fs.reference_edge_matrix(d)
        assert np.allclose(E, (verts[1:] - verts[0]).T, atol=1e-15)


# ---------------------------------------------------------------------------
# container and validation
# ---------------------------------------------------------------------------

def test_orientation_canonicalized():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elements = np.array([[0, 2, 1]])            # negative orientation
    markers = np.array([fs.DIRICHLET, fs.NEUMANN, fs.NEUMANN])
    mesh = fs.SimplicialMesh(nodes, elements, markers)
    assert np.linalg.det(mesh.element_matrices()[0]) > 0
    assert mesh.volumes()[0] == pytest.approx(0.5)


def test_validate_degenerate_element():
    nodes = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(ValueError, match="degenerate"):
        fs.SimplicialMesh(nodes, np.array([[0, 1], [1, 2]]),
                          np.array([1, 0, 1]))


def test_validate_repeated_vertex():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        fs.SimplicialMesh(nodes, np.array([[0, 1, 1]]),
                          np.array([1, 0, 0]))


def test_validate_needs_free_and_dirichlet_nodes():
    nodes = np.array([[0.0], [1.0]])
    elements = np.array([[0, 1]])
    with pytest.raises(ValueError, match="free"):
        fs.SimplicialMesh(nodes, elements, np.array([1, 1]))
    with pytest.raises(ValueError, match="Dirichlet"):
        fs.SimplicialMesh(nodes, elements, np.array([0, 0]))


def test_validate_refuses_a_node_in_no_element():
    nodes = np.array([[0.0], [0.5], [1.0], [2.0]])
    elements = np.array([[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="node 3 belongs to no element"):
        fs.SimplicialMesh(nodes, elements, np.array([1, 0, 1, 0]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_refuses_nonfinite_coordinates(value):
    nodes = np.array([[0.0], [0.5], [1.0]])
    nodes[1, 0] = value
    with pytest.raises(ValueError, match="node 1 has a non-finite"):
        fs.SimplicialMesh(nodes, np.array([[0, 1], [1, 2]]),
                          np.array([1, 0, 1]))


def test_validate_marker_range():
    nodes = np.array([[0.0], [0.5], [1.0]])
    elements = np.array([[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="marker"):
        fs.SimplicialMesh(nodes, elements, np.array([1, 7, 1]))


def test_reference_map_determinant_is_volume():
    rng = np.random.default_rng(3)
    nodes = rng.uniform(0.0, 1.0, (4, 3))
    mesh = fs.SimplicialMesh(nodes, np.array([[0, 1, 2, 3]]),
                             np.array([1, 0, 2, 2]))
    Finv = fs.ProblemContext(mesh, fs.identity(3)).reference_map_inverses
    Fp = np.linalg.inv(Finv[0])
    assert abs(np.linalg.det(Fp)) == pytest.approx(mesh.volumes()[0],
                                                   rel=1e-12)
    # x = x_0 + F' (xhat - xhat_0) sends the reference simplex onto the
    # element, vertex by vertex
    ref = fs.reference_simplex(3)
    verts = mesh.nodes[mesh.elements[0]]
    mapped = verts[0] + (ref - ref[0]) @ Fp.T
    assert np.allclose(mapped, verts, atol=1e-12)


# ---------------------------------------------------------------------------
# structured generators
# ---------------------------------------------------------------------------

def test_gen_uniform_1d_layout():
    mesh = fs.gen_uniform_1d(8)
    assert mesh.num_nodes == 9
    assert mesh.num_elements == 8
    assert np.allclose(mesh.nodes[:, 0], np.arange(9) / 8)
    assert mesh.node_markers[0] == fs.DIRICHLET
    assert mesh.node_markers[-1] == fs.DIRICHLET
    assert (mesh.node_markers[1:-1] == fs.INTERIOR).all()


# The elements of the 2x2 grid for each split, node 4 in the middle.
_GRID_2X2 = {
    "right": [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
              [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7]],
    "left": [[0, 1, 3], [1, 4, 3], [1, 2, 4], [2, 5, 4],
             [3, 4, 6], [4, 7, 6], [4, 5, 7], [5, 8, 7]],
    "alternating": [[0, 1, 4], [0, 4, 3], [1, 2, 4], [2, 5, 4],
                    [3, 4, 6], [4, 7, 6], [4, 5, 8], [4, 8, 7]],
}


def test_gen_structured_2d_counts_and_volume():
    for diag in ("right", "left", "alternating"):
        mesh = fs.gen_structured_2d(4, 3, diagonal=diag)
        assert mesh.num_nodes == 20
        assert mesh.num_elements == 24
        assert mesh.volumes().sum() == pytest.approx(1.0, rel=1e-14)
        assert (mesh.volumes() > 0).all()
        small = fs.gen_structured_2d(2, 2, diagonal=diag)
        assert small.elements.tolist() == _GRID_2X2[diag]
        assert small.node_markers.tolist() == [1, 1, 1, 1, 0, 1, 1, 1, 1]
    n_boundary = (fs.gen_structured_2d(4, 3).node_markers
                  == fs.DIRICHLET).sum()
    assert n_boundary == 2 * (4 + 1) + 2 * (3 + 1) - 4  # perimeter nodes


def test_gen_structured_2d_geometric_grading():
    mesh = fs.gen_structured_2d(2, 5, ratio_y=1.3)
    ys = np.unique(mesh.nodes[:, 1])
    spacings = np.diff(ys)
    assert np.allclose(spacings[1:] / spacings[:-1], 1.3, rtol=1e-12)
    assert ys[-1] == 1.0
    # ratio 1 is the uniform spacing
    assert np.unique(mesh.nodes[:, 0]).tolist() == [0.0, 0.5, 1.0]


def test_gen_structured_2d_errors():
    with pytest.raises(ValueError):
        fs.gen_structured_2d(0, 4)
    with pytest.raises(ValueError):
        fs.gen_structured_2d(4, 4, diagonal="diagonal")
    with pytest.raises(ValueError):
        fs.gen_structured_2d(4, 4, ratio_y=-2.0)


def test_gen_structured_3d_counts_and_volume():
    mesh = fs.gen_structured_3d(2, 3, 2)
    assert mesh.num_elements == 6 * 2 * 3 * 2
    assert mesh.num_nodes == 3 * 4 * 3
    assert mesh.volumes().sum() == pytest.approx(1.0, rel=1e-13)
    assert (mesh.volumes() > 0).all()
    # every interior node of the unit cube is free
    interior = ((mesh.nodes > 0.0) & (mesh.nodes < 1.0)).all(axis=1)
    assert ((mesh.node_markers == fs.INTERIOR) == interior).all()
    # Kuhn's six tetrahedra of the first cell (nodes 0, 1, 3, 4, 9, 10, 12,
    # 13 of the 3x3x3 node lattice), last two vertices swapped where the
    # walk is negatively oriented
    cube = fs.gen_structured_3d(2, 2, 2)
    assert cube.elements[:6].tolist() == [
        [0, 1, 4, 13], [0, 1, 13, 10], [0, 3, 13, 4],
        [0, 3, 12, 13], [0, 9, 10, 13], [0, 9, 13, 12]]
    assert np.flatnonzero(cube.node_markers == fs.INTERIOR).tolist() == [13]


# Every generator, with the markers its one-element faces may carry.
_GENERATORS = {
    "uniform1d": (lambda: fs.gen_uniform_1d(7), (fs.DIRICHLET,)),
    "equi1d": (lambda: fs.gen_equidistributed_1d(
        16, fs.adapted_weight(fs.per1d())), (fs.DIRICHLET,)),
    "grid-right": (lambda: fs.gen_structured_2d(5, 4), (fs.DIRICHLET,)),
    "grid-left": (lambda: fs.gen_structured_2d(5, 4, diagonal="left"),
                  (fs.DIRICHLET,)),
    "grid-alternating-graded": (lambda: fs.gen_structured_2d(
        5, 4, diagonal="alternating", ratio_x=0.9, ratio_y=1.15), (fs.DIRICHLET,)),
    "grid3d": (lambda: fs.gen_structured_3d(2, 3, 4), (fs.DIRICHLET,)),
    "aligned": (lambda: fs.gen_metric_aligned(100.0, n_long=5, n_short=7),
                (fs.DIRICHLET,)),
    # the vertical sides are Neumann
    "groundwater": (lambda: fs.gen_groundwater_like()[0],
                    (fs.DIRICHLET, fs.NEUMANN)),
}


@pytest.mark.parametrize("name", sorted(_GENERATORS))
def test_generated_meshes_are_conforming(name):
    build, boundary_markers = _GENERATORS[name]
    mesh = build()
    d = mesh.dim
    faces = np.concatenate([np.delete(mesh.elements, k, axis=1)
                            for k in range(d + 1)])
    faces, count = np.unique(np.sort(faces, axis=1), axis=0,
                             return_counts=True)
    assert set(count.tolist()) <= {1, 2}
    assert np.isin(mesh.node_markers[faces[count == 1]],
                   boundary_markers).all()


def _mixed_orientation_mesh(d):
    """Jittered grid with the first two vertices of every other element
    swapped, so construction reorients half the elements."""
    if d == 2:
        base = fs.gen_structured_2d(6, 5)
    else:
        base = fs.gen_structured_3d(3, 3, 3)
    rng = np.random.default_rng(11)
    nodes = base.nodes + 0.02 * rng.uniform(-1.0, 1.0, base.nodes.shape)
    elements = base.elements.copy()
    elements[::2, [0, 1]] = elements[::2, [1, 0]]
    return fs.SimplicialMesh(nodes, elements, base.node_markers)


@pytest.mark.parametrize("name", sorted(_GENERATORS) + ["mixed2d",
                                                      "mixed3d"])
def test_volumes_are_edge_determinants_bitwise(name):
    if name.startswith("mixed"):
        mesh = _mixed_orientation_mesh(int(name[-2]))
    else:
        mesh = _GENERATORS[name][0]()
    expected = (np.linalg.det(mesh.element_matrices())
                / math.factorial(mesh.dim))
    assert mesh.volumes().tobytes() == expected.tobytes()
    assert (mesh.volumes() > 0.0).all()


# ---------------------------------------------------------------------------
# equidistribution
# ---------------------------------------------------------------------------

def test_equidistributed_constant_weight_is_uniform_bitwise():
    mesh_w = fs.gen_equidistributed_1d(16, lambda x: 3.7)
    mesh_u = fs.gen_uniform_1d(16)
    assert np.array_equal(mesh_w.nodes, mesh_u.nodes)


def test_equidistributed_linear_weight_closed_form():
    # w = 1 + x, n = 2: the interior node satisfies x + x^2/2 = 3/4,
    # giving x1 = sqrt(2.5) - 1.
    mesh = fs.gen_equidistributed_1d(2, lambda x: 1.0 + x)
    assert mesh.nodes[1, 0] == pytest.approx(math.sqrt(2.5) - 1.0,
                                             abs=1e-12)


@pytest.mark.parametrize("n", [7, 64])
def test_equidistributed_kinked_weight_closed_form(n):
    # The kink of w = 0.1 + |x - 0.3| lies inside a fine cell, which is
    # bisected down to the quadrature tolerance; the integral of w is
    # F(x) = 0.1 x + (x - 0.3) |x - 0.3| / 2.
    def integral(x):
        return 0.1 * x + 0.5 * (x - 0.3) * np.abs(x - 0.3)
    xs = fs.gen_equidistributed_1d(
        n, lambda x: 0.1 + np.abs(x - 0.3)).nodes[:, 0]
    total = integral(1.0) - integral(0.0)
    owed = total * np.arange(n + 1) / n
    assert np.abs(integral(xs) - integral(0.0) - owed).max() <= 1e-13 * total


def test_equidistributed_cells_carry_equal_weight():
    w = fs.adapted_weight(fs.per1d())
    mesh = fs.gen_equidistributed_1d(48, w)
    xs = mesh.nodes[:, 0]
    integrals = np.array([quad(w, xs[i], xs[i + 1], limit=200)[0]
                          for i in range(48)])
    assert np.ptp(integrals) <= 1e-8 * integrals.mean()


def test_equidistributed_rejects_bad_weight():
    with pytest.raises(ValueError, match="positive"):
        fs.gen_equidistributed_1d(8, lambda x: x - 0.5)
    with pytest.raises(ValueError):
        fs.gen_equidistributed_1d(1, lambda x: 1.0)
    # Negative only on a dip narrower than a fine cell: w(0.5105) = -0.2.
    with pytest.raises(ValueError, match="positive"):
        fs.gen_equidistributed_1d(
            8, lambda x: 1.0 - 1.2 * np.exp(-((x - 0.5105) / 2e-4) ** 2))
    with pytest.raises(ValueError, match="positive"):
        fs.gen_equidistributed_1d(8, lambda x: np.where(x > 0.7, np.inf, 1.0))
    with pytest.raises(ValueError, match="must accept an array"):
        fs.gen_equidistributed_1d(8, lambda x: math.exp(x))
    with pytest.raises(ValueError, match="must accept an array"):
        fs.gen_equidistributed_1d(8, lambda x: np.ones(3))
    noise = np.random.default_rng(0)
    with pytest.raises(ValueError, match="did not converge"):
        fs.gen_equidistributed_1d(
            8, lambda x: 1.0 + 1e-9 * noise.random(np.shape(x)))


def _nonper1d_scalar(eps):
    def w(x):
        phase = math.tan((1.0 - eps) * math.pi * x / 2.0)
        return math.sqrt(2.0 - math.sin(2.0 * math.pi * phase))
    return w


# (vectorized weight for the generator, scalar `math` weight for the oracle)
_EQUI_WEIGHTS = {
    "per1d": lambda eps: (
        fs.adapted_weight(fs.per1d(eps)),
        lambda x: math.sqrt(2.0 - math.sin(2.0 * math.pi * x / eps))),
    "nonper1d": lambda eps: (
        fs.adapted_weight(fs.nonper1d(eps)), _nonper1d_scalar(eps)),
    "exp3": lambda eps: (lambda x: np.exp(3.0 * x),
                         lambda x: math.exp(3.0 * x)),
}


@settings(derandomize=True, max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(_EQUI_WEIGHTS)),
       eps=st.sampled_from([0.25, 0.125, 0.0625]),
       n=st.integers(2, 1024))
def test_equidistributed_matches_scalar_oracle(kind, eps, n):
    weight, scalar = _EQUI_WEIGHTS[kind](eps)
    xs = fs.gen_equidistributed_1d(n, weight).nodes[:, 0]
    assert np.abs(xs - equidistributed_1d_oracle(n, scalar)).max() <= 1e-13
    assert (np.diff(xs) > 0.0).all()
    cells = np.array([quad(scalar, xs[i], xs[i + 1], epsabs=0.0,
                           epsrel=1e-13, limit=200)[0] for i in range(n)])
    mean = cells.sum() / n
    assert np.abs(cells - mean).max() <= 1e-12 * mean


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------

def test_patches_volumes_and_counts():
    mesh = fs.gen_structured_2d(3, 3)
    patches = fs.build_patches(mesh)
    vols = mesh.volumes()
    for i in range(mesh.num_nodes):
        members = elements_of(mesh, i)
        assert patches.counts[i] == len(members)
        assert patches.volumes[i] == pytest.approx(vols[members].sum(),
                                                   rel=1e-14)
    assert patches.p_max == patches.counts.max() == 6


def test_patch_counts_1d():
    mesh = fs.gen_uniform_1d(5)
    patches = fs.build_patches(mesh)
    assert list(patches.counts) == [1, 2, 2, 2, 2, 1]
    assert patches.p_max == 2


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    mesh, _ = fs.gen_groundwater_like()
    path = tmp_path / "mesh.txt"
    fs.save_mesh(mesh, str(path))
    back = fs.load_mesh(str(path))
    assert np.array_equal(mesh.nodes, back.nodes)
    assert np.array_equal(mesh.elements, back.elements)
    assert np.array_equal(mesh.node_markers, back.node_markers)
    assert np.array_equal(mesh.region_tags, back.region_tags)


def test_save_load_round_trip_3d(tmp_path):
    mesh = fs.gen_structured_3d(2, 2, 2)
    path = tmp_path / "mesh3.txt"
    fs.save_mesh(mesh, str(path))
    back = fs.load_mesh(str(path))
    assert np.array_equal(mesh.nodes, back.nodes)
    assert np.array_equal(mesh.elements, back.elements)


_HUGE = "99999999999999999999999"          # beyond int64


def test_load_mesh_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim 1\nnodes 2\n0.0 1\nbogus 1\n")
    with pytest.raises(ValueError, match=":4: malformed"):
        fs.load_mesh(str(path))


@pytest.mark.parametrize("text, match", [
    (f"dim 1\nnodes 2\n0.0 1\n1.0 {_HUGE}\n", ":4: malformed node line"),
    (f"dim 1\nnodes 2\n0 1\n1 1\nelements 1\n0 {_HUGE}\n",
     ":6: malformed element line"),
    (f"dim 1\nnodes 2\n0 1\n1 1\nelements 1\n0 1 {_HUGE}\n",
     ":6: malformed element line"),
], ids=["marker", "index", "tag"])
def test_load_mesh_refuses_integers_beyond_int64(tmp_path, text, match):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        fs.load_mesh(str(path))


_NODES = "dim 1\nnodes 3\n0 1\n0.5 0\n1 1\n"


@pytest.mark.parametrize("text, match", [
    # declared counts the file does not hold: refused before any
    # allocation of that size
    ("dim 1\nnodes 99999999999999\n0.0 1\n",
     ":2: declares 99999999999999 nodes, but the file holds only 1"),
    (_NODES + "elements 5\n0 1\n1 2\n", ":6: declares 5 elements"),
    ("dim 99999999999\nnodes 1\n0 1\n", ":1: unsupported dimension"),
    (_NODES + "elements 1\n0 1\n1 2\n0 1\n", ":8: content after the"),
    ("dim 1\nnodes x\n", ":2: 'nodes' needs a non-negative integer"),
    ("dim 1\nnodes -2\n", ":2: 'nodes' needs a non-negative integer"),
    (_NODES + "elements 2.0\n", ":6: 'elements' needs a non-negative"),
], ids=["huge-node-count", "short-element-block", "huge-dim",
        "trailing-content", "text-count", "negative-count", "float-count"])
def test_load_mesh_refuses_bad_counts_and_trailing_content(tmp_path, text,
                                                           match):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        fs.load_mesh(str(path))


@PROPERTY
@given(problems())
def test_save_load_round_trip_is_bitwise(tmp_path_factory, problem):
    mesh = problem[0]
    path = tmp_path_factory.mktemp("round-trip") / "mesh.txt"
    fs.save_mesh(mesh, str(path))
    back = fs.load_mesh(str(path))
    for name in ("nodes", "elements", "node_markers", "region_tags"):
        a, b = getattr(mesh, name), getattr(back, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


_CORRUPTIONS = (_HUGE, "nan", "inf", "-1", "x", None)  # None drops it


@PROPERTY
@given(problems(), st.data())
def test_load_mesh_refuses_a_corrupted_token_with_value_error(
        tmp_path_factory, problem, data):
    mesh = problem[0]
    path = tmp_path_factory.mktemp("corrupt") / "mesh.txt"
    fs.save_mesh(mesh, str(path))
    lines = path.read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    tokens = lines[i].split()
    j = data.draw(st.integers(0, len(tokens) - 1), label="token")
    new = data.draw(st.sampled_from(_CORRUPTIONS), label="corruption")
    tokens[j:j + 1] = [] if new is None else [new]
    lines[i] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")

    d, n = mesh.dim, mesh.num_nodes
    node_line = 2 <= i < 2 + n
    element_line = i > 2 + n
    coordinate = node_line and j < d
    tag = element_line and j == d + 1
    # a corrupted token that no valid file holds at its place: a letter, a
    # NaN or an infinity anywhere, a negative or out-of-int64 integer, a
    # token missing from a header, a node line or an untagged element line
    invalid = (new in ("x", "nan", "inf")
               or (new == _HUGE and not coordinate)
               or (new == "-1" and not (coordinate or tag))
               or (new is None
                   and not (element_line and len(tokens) == d + 1)))
    try:
        fs.load_mesh(str(path))
    except ValueError:
        return
    assert not invalid, (i, j, new)


def _reader_base():
    """Lines of a small tagged 2D mesh file, the line numbers of one node
    and one element, and the element's first index (>= 10)."""
    base = fs.gen_structured_2d(3, 3)
    mesh = fs.SimplicialMesh(base.nodes, base.elements, base.node_markers,
                             region_tags=np.arange(base.num_elements) % 2)
    k = int(np.flatnonzero(mesh.elements[:, 0] >= 10)[0])
    lines = ["dim 2", f"nodes {mesh.num_nodes}"]
    lines += [" ".join([f"{c:.16e}" for c in x] + [str(m)])
              for x, m in zip(mesh.nodes, mesh.node_markers)]
    lines += [f"elements {mesh.num_elements}"]
    lines += [" ".join(str(i) for i in [*el, tag])
              for el, tag in zip(mesh.elements, mesh.region_tags)]
    return lines, 2 + 5, 3 + mesh.num_nodes + k


_ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# where -> (line, field) in _reader_base: node 5 is interior
_FIELDS = {"coord": (1, 0), "marker": (1, 2), "index": (2, 0),
           "tag": (2, 3)}
_TOKENS = {
    "coord": ["1_0", "+3", "١٢", "nan", "inf", "1e400", "-0",
              lambda t: t[:3] + "_" + t[3:], lambda t: "+" + t],
    "marker": ["1_0", "+0", "١", "٠", "1.0", "0.0", "0x0", "-0"],
    "index": ["1.0", lambda t: t[0] + "_" + t[1:], lambda t: "+" + t,
              lambda t: t.translate(_ARABIC), lambda t: t + ".0"],
    "tag": ["1_0", "١", "+1", "1.0", "99999999999999999999"],
}
_TOKEN_CASES = [(where, tok) for where, toks in _TOKENS.items()
                for tok in toks]


def _mixed_widths(lines, node, element):
    # untag every other element line: rows of 3 and 4 fields
    return [line.rsplit(" ", 1)[0] if i > element - 4 and i % 2 else line
            for i, line in enumerate(lines)]


_LAYOUTS = {
    "clean": lambda lines, node, element: lines,
    "tabs": lambda lines, node, element: [l.replace(" ", "\t")
                                          for l in lines],
    "nbsp-and-formfeed": lambda lines, node, element: [
        l.replace(" ", "\xa0" if i % 2 else " \x0c") for i, l in
        enumerate(lines)],
    "mid-line-comments": lambda lines, node, element: [
        l + f"  # row {i} # again" if i % 3 else l
        for i, l in enumerate(lines)] + ["# the end"],
    "blank-and-comment-lines": lambda lines, node, element: [
        x for l in lines for x in (l, "   ", "#")],
    "mixed-tag-widths": _mixed_widths,
    "mixed-widths-and-underscore": lambda lines, node, element:
        _mixed_widths(lines, node, element)[:element]
        + ["1_0 " + lines[element].split(" ", 1)[1]]
        + _mixed_widths(lines, node, element)[element + 1:],
}


def _outcome(loader, path):
    try:
        mesh = loader(str(path))
    except ValueError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (
        mesh.nodes, mesh.elements, mesh.node_markers, mesh.region_tags)]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_bulk_reader_matches_line_reader_on_layouts(tmp_path, layout,
                                                    newline):
    lines, node, element = _reader_base()
    path = tmp_path / "m.mesh"
    path.write_bytes((newline.join(_LAYOUTS[layout](lines, node, element))
                      + newline).encode())
    loaded = _outcome(fs.load_mesh, path)
    assert not isinstance(loaded, str), loaded
    assert loaded == _outcome(load_mesh_by_line, path)


@pytest.mark.parametrize("where, token", _TOKEN_CASES,
                         ids=[f"{w}-{t if isinstance(t, str) else i}"
                              for i, (w, t) in enumerate(_TOKEN_CASES)])
def test_bulk_reader_matches_line_reader_on_tokens(tmp_path, where, token):
    """Tokens where numpy's number grammar and Python's differ: the same
    arrays, or the same `path:line:` error, as the per-line reader."""
    lines, node, element = _reader_base()
    row, field = _FIELDS[where]
    i = (None, node, element)[row]
    parts = lines[i].split()
    parts[field] = token(parts[field]) if callable(token) else token
    lines[i] = " ".join(parts)
    path = tmp_path / "m.mesh"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _outcome(fs.load_mesh, path) == _outcome(load_mesh_by_line, path)


def test_load_mesh_missing_file():
    with pytest.raises(FileNotFoundError):
        fs.load_mesh("/nonexistent/mesh.txt")
