"""Simplicial meshes for d in {1, 2, 3}.

Provides the mesh container with boundary markers, the equilateral
unit-volume reference element, node patches, a line-oriented
text format, and the structured / equidistributed generators used by the
stability experiments.  The 1D equidistributed generator calls its weight
on arrays only: a batched Gauss rule with vectorized bisection for the
cumulative integral and a safeguarded Newton inversion for the nodes.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

_VALID_MARKERS = (INTERIOR, DIRICHLET, NEUMANN)


def reference_simplex(d):
    """Vertices of the regular reference simplex with unit volume.

    d=1: the segment [0, 1]; d=2: the equilateral triangle with side
    2/3^(1/4); d=3: the regular tetrahedron with side (6*sqrt(2))^(1/3).
    Vertex 0 is always the origin.
    """
    if d == 1:
        return np.array([[0.0], [1.0]])
    if d == 2:
        ell = 2.0 / 3.0 ** 0.25
        return np.array([
            [0.0, 0.0],
            [ell, 0.0],
            [0.5 * ell, 0.5 * math.sqrt(3.0) * ell],
        ])
    if d == 3:
        a = (6.0 * math.sqrt(2.0)) ** (1.0 / 3.0)
        return np.array([
            [0.0, 0.0, 0.0],
            [a, 0.0, 0.0],
            [0.5 * a, 0.5 * math.sqrt(3.0) * a, 0.0],
            [0.5 * a, a / (2.0 * math.sqrt(3.0)), a * math.sqrt(2.0 / 3.0)],
        ])
    raise ValueError(f"unsupported dimension {d}")


def reference_edge_matrix(d):
    """Matrix E-hat whose columns are the reference edge vectors v_j - v_0."""
    v = reference_simplex(d)
    return (v[1:] - v[0]).T.copy()


def _edge_matrices(nodes, elements):
    """(ne, d, d) edge matrices with columns x_j - x_0 of each element."""
    p = nodes[elements]
    return np.swapaxes(p[:, 1:, :] - p[:, :1, :], 1, 2)


def _integer_array(values, name):
    """A new int64 array of `values`; a float entry that is not an integer
    raises ValueError naming it, where a cast would truncate it."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        whole = np.isfinite(arr) & (arr == np.trunc(arr)) & (abs(arr) < 2**63)
        if not whole.all():
            at = np.argwhere(~whole)[0].tolist()
            raise ValueError(f"{name}{at} = {float(arr[tuple(at)])!r} is "
                             "not an integer")
    return np.array(arr, dtype=np.int64)


class SimplicialMesh:
    """Conforming simplicial mesh with per-node boundary markers.

    Parameters
    ----------
    nodes : (n, d) array of vertex coordinates.
    elements : (ne, d+1) integer array of vertex indices.
    node_markers : (n,) integer array; 0 interior, 1 Dirichlet, 2 Neumann.
    region_tags : optional (ne,) integer array of material/region labels.

    Elements are reoriented on construction so every signed volume is
    positive (the last two vertices are swapped where needed).
    """

    def __init__(self, nodes, elements, node_markers, region_tags=None):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        elements = _integer_array(elements, "elements")
        if elements.ndim == 1:
            elements = elements[None, :]
        self.nodes = nodes
        self.elements = elements
        self.node_markers = _integer_array(node_markers, "node_markers")
        if region_tags is None:
            region_tags = np.zeros(len(elements), dtype=np.int64)
        self.region_tags = _integer_array(region_tags, "region_tags")

        self.validate()

    # ------------------------------------------------------------------
    @property
    def dim(self):
        return self.nodes.shape[1]

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_elements(self):
        return self.elements.shape[0]

    def element_matrices(self):
        """(ne, d, d) array of edge matrices E_K with columns x_j - x_0."""
        return _edge_matrices(self.nodes, self.elements)

    def volumes(self):
        """(ne,) element volumes det(E_K) / d!, all positive."""
        return self._volumes

    def free_nodes(self):
        """Indices of interior and Neumann nodes (the FE unknowns)."""
        return np.flatnonzero(self.node_markers != DIRICHLET)

    # ------------------------------------------------------------------
    def validate(self):
        """Check all mesh invariants, raising ValueError on the first
        failure; orients the elements and caches their volumes on the way."""
        d = self.dim
        if d not in (1, 2, 3):
            raise ValueError(f"unsupported dimension {d}")
        if self.num_nodes == 0 or self.num_elements == 0:
            raise ValueError("empty mesh")
        finite = np.isfinite(self.nodes).all(axis=1)
        if not finite.all():
            raise ValueError(f"node {np.flatnonzero(~finite)[0]} has a "
                             "non-finite coordinate")
        if self.elements.shape[1] != d + 1:
            raise ValueError(
                f"elements must have {d + 1} vertices in dimension {d}, "
                f"got {self.elements.shape[1]}")
        if self.elements.min() < 0 or self.elements.max() >= self.num_nodes:
            bad = np.flatnonzero((self.elements < 0).any(axis=1) |
                                 (self.elements >= self.num_nodes).any(axis=1))
            raise ValueError(f"element {bad[0]} has out-of-range node index")
        orphan = np.bincount(self.elements.ravel(),
                             minlength=self.num_nodes) == 0
        if orphan.any():
            raise ValueError(f"node {np.flatnonzero(orphan)[0]} belongs to "
                             "no element")
        sorted_el = np.sort(self.elements, axis=1)
        dup = (np.diff(sorted_el, axis=1) == 0).any(axis=1)
        if dup.any():
            raise ValueError(
                f"element {np.flatnonzero(dup)[0]} has repeated vertices")
        if self.node_markers.shape != (self.num_nodes,):
            raise ValueError("node_markers length does not match node count")
        if not np.isin(self.node_markers, _VALID_MARKERS).all():
            raise ValueError("node markers must be 0 (interior), "
                             "1 (dirichlet) or 2 (neumann)")
        if self.region_tags.shape != (self.num_elements,):
            raise ValueError("region_tags length does not match element count")
        vols = self._orient()
        if not (vols > 0.0).all():
            k = int(np.argmin(vols))
            raise ValueError(f"degenerate element {k} (volume {vols[k]:g})")
        self._volumes = vols
        if (self.node_markers == DIRICHLET).sum() == 0:
            raise ValueError("no Dirichlet nodes (the problem would be "
                             "singular for pure-Neumann data)")
        if len(self.free_nodes()) == 0:
            raise ValueError("no free nodes")

    def _orient(self):
        """Signed volumes after swapping the last two vertices of every
        negatively oriented element.  The determinant is taken once per
        element and again only for the swapped ones: a column swap need
        not negate it bit for bit, and volumes() is det(E_K)/d! exactly."""
        det = np.linalg.det(self.element_matrices())
        neg = np.flatnonzero(det < 0.0)
        if len(neg):
            elems = self.elements
            elems[neg, -2], elems[neg, -1] = elems[neg, -1], elems[neg, -2]
            det[neg] = np.linalg.det(_edge_matrices(self.nodes, elems[neg]))
        return det / math.factorial(self.dim)


class PatchIndex:
    """Vertex patches omega_i: ``counts[i]`` is the number of elements of
    omega_i, ``volumes[i]`` is |omega_i|, and ``p_max`` the largest count.
    """

    def __init__(self, mesh):
        self.counts = np.bincount(mesh.elements.ravel(),
                                  minlength=mesh.num_nodes)
        self.volumes = patch_sums(mesh, mesh.volumes())
        self.p_max = int(self.counts.max())


def build_patches(mesh):
    return PatchIndex(mesh)


def patch_sums(mesh, per_element):
    """(num_nodes,) sums sum_{K in omega_i} x_K over the vertex patches of
    a per-element array x, (ne,)."""
    return np.bincount(mesh.elements.ravel(),
                       weights=np.repeat(per_element, mesh.dim + 1),
                       minlength=mesh.num_nodes)


def _face_keys(faces, n):
    """Integer sort keys of faces given as rows (m, k), k = 1, 2 or 3, of
    sorted vertex indices below n: a list of (m,) uint64 arrays, most
    significant first, equal on two rows exactly when the rows are equal
    and ordered as the rows are lexicographically.  A single column is its
    own key; otherwise the first two columns (a, b) make one key a n + b,
    exact for n <= 2**32, and a third column stays a key of its own, since
    (a n + b) n + c would overflow past 2**21 nodes."""
    if n > 2 ** 32:
        raise ValueError(f"face keys need at most 2**32 nodes, got {n}")
    cols = faces.astype(np.uint64).T
    if len(cols) == 1:
        return [cols[0]]
    return [cols[0] * np.uint64(n) + cols[1], *cols[2:]]


def _volume_ratio_c1(mesh):
    """Largest volume ratio between elements sharing a (d-1)-face; 1.0
    when no pair exists."""
    vols = mesh.volumes()
    # face i of element k, as a sorted vertex tuple, is row k*d1 + i; a
    # stable sort on its keys groups equal faces in element order, and the
    # 2nd, 4th, ... element of a group is paired with the one before it
    d1 = mesh.dim + 1
    el = np.sort(mesh.elements, axis=1)
    drop = [[j for j in range(d1) if j != i] for i in range(d1)]
    keys = _face_keys(el[:, drop].reshape(-1, d1 - 1), mesh.num_nodes)
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for key in keys:
        sorted_key = key[order]
        new[1:] |= sorted_key[1:] != sorted_key[:-1]
    pos = np.arange(len(order))
    rank = pos - np.maximum.accumulate(np.where(new, pos, 0))
    second = np.flatnonzero(rank % 2 == 1)
    if not len(second):
        return 1.0
    r = vols[order[second] // d1] / vols[order[second - 1] // d1]
    return float(max(1.0, r.max(), (1.0 / r).max()))


# ----------------------------------------------------------------------
# Text I/O


def save_mesh(mesh, path):
    """Write a mesh in the line-oriented text format (17 significant digits)."""
    write_tags = bool(np.any(mesh.region_tags != 0))
    with open(path, "w") as f:
        f.write(f"dim {mesh.dim}\n")
        f.write(f"nodes {mesh.num_nodes}\n")
        for x, m in zip(mesh.nodes, mesh.node_markers):
            coords = " ".join(f"{c:.16e}" for c in x)
            f.write(f"{coords} {m}\n")
        f.write(f"elements {mesh.num_elements}\n")
        for el, tag in zip(mesh.elements, mesh.region_tags):
            line = " ".join(str(i) for i in el)
            if write_tags:
                line += f" {tag}"
            f.write(line + "\n")


def _content_lines(raw, pos, count):
    """Up to `count` content lines of the file lines `raw` from index `pos`
    on, as (line number, text): the lines that keep content once the
    comment is cut and the whitespace stripped; and the index after the
    last line taken (len(raw) when fewer than `count` are left)."""
    block = list(itertools.islice(
        ((ln, line) for ln, text in enumerate(
            itertools.islice(raw, pos, None), start=pos + 1)
         if (line := text.split("#", 1)[0].strip())), count))
    if len(block) < count:
        return block, len(raw)
    return block, block[-1][0] if block else pos


def _bulk_table(lines, dtype, widths, usecols=None):
    """The rows of a block of lines parsed by numpy's C reader, as a 2-D
    array with one row per line and a column count in `widths`; None when
    the block is empty, the reader refuses it, skips a blank line or the
    column count is another.

    The reader's number grammar is a subset of Python's `float` and `int`
    (no underscores, no non-ASCII digits, int64 only) and gives the same
    value wherever both accept a token, and it splits at the whitespace
    `str.split` splits at, so a block it parses loads exactly as the
    per-line reader would load it.
    """
    if not lines:
        return None
    try:
        with warnings.catch_warnings():
            # numpy < 2 parses an integer via a float ("1.0") with only a
            # DeprecationWarning; the per-line reader refuses such a token
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(lines, dtype=dtype, comments=None,
                               usecols=usecols, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    if len(table) != len(lines) or table.shape[1] not in widths:
        return None
    return table


def _node_lines(path, block, d):
    """(nodes, markers) of a node block, parsed line by line."""
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
    return nodes, markers


def _element_lines(path, block, d):
    """(elements, region tags) of an element block, parsed line by line."""
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
    return elements, tags


def load_mesh(path):
    """Parse and validate a mesh file; see `save_mesh` for the format.

    Each block must hold exactly the rows its header declares: a file that
    ends early, or has content after the element block, is an error.  The
    arrays are sized by the rows the file holds, never by a declared count.

    The file is read once.  Each block is parsed in bulk by numpy's C
    reader (the nodes as floats plus an int64 pass over the marker column,
    the elements as int64 rows of d+1 or d+2 fields).  In a file with no
    comment the reader first gets the declared number of raw lines after
    the header, which it parses into as many rows unless a blank line
    falls among them.  Otherwise, or when the reader refuses the raw
    lines, it gets the block's stripped content lines; a block it refuses
    there too, such as one mixing tagged and untagged elements or holding
    a token only Python reads (``1_0``), is parsed line by line, which
    loads it or raises the ``path:line:`` error of its first bad line.
    """
    with open(path) as f:
        text = f.read()
    raw = text.split("\n")
    bulk = "#" not in text
    pos = 0

    def header(key, what):
        nonlocal pos
        found, pos = _content_lines(raw, pos, 1)
        if not found:
            raise ValueError(f"{path}: unexpected end of file, "
                             f"expected '{key} <{what}>'")
        ln, line = found[0]
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"{path}:{ln}: expected '{key} <{what}>'")
        if not parts[1].isdecimal():
            raise ValueError(f"{path}:{ln}: '{key}' needs a non-negative "
                             f"integer, got {parts[1]!r}")
        return ln, int(parts[1])

    def block(at, count, what, read_bulk, read_lines):
        """The arrays of the `count` rows after the header at line `at`."""
        nonlocal pos
        if bulk and pos + count <= len(raw):
            arrays = read_bulk(raw[pos:pos + count])
            if arrays is not None:
                pos += count
                return arrays
        found, pos = _content_lines(raw, pos, count)
        arrays = read_bulk([line for _, line in found])
        if arrays is None:
            arrays = read_lines(path, found, d)
        if len(found) < count:
            raise ValueError(f"{path}:{at}: declares {count} {what}, but "
                             f"the file holds only {len(found)}")
        return arrays

    def node_table(lines):
        table = _bulk_table(lines, float, (d + 1,))
        column = (None if table is None
                  else _bulk_table(lines, np.int64, (1,), usecols=d))
        return None if column is None else (table[:, :d], column[:, 0])

    def element_table(lines):
        table = _bulk_table(lines, np.int64, (d + 1, d + 2))
        if table is None:
            return None
        tags = (table[:, d + 1] if table.shape[1] == d + 2
                else np.zeros(len(lines), dtype=np.int64))
        return table[:, :d + 1], tags

    ln, d = header("dim", "d")
    if d not in (1, 2, 3):
        raise ValueError(f"{path}:{ln}: unsupported dimension {d}")
    at, n = header("nodes", "n")
    nodes, markers = block(at, n, "nodes", node_table, _node_lines)
    at, ne = header("elements", "N")
    elements, tags = block(at, ne, "elements", element_table,
                           _element_lines)
    rest, _ = _content_lines(raw, pos, 1)
    if rest:
        raise ValueError(f"{path}:{rest[0][0]}: content after the "
                         "element block")

    return SimplicialMesh(nodes, elements, markers, region_tags=tags)


# ----------------------------------------------------------------------
# Generators
#
# Every structured mesh is a lattice of cells, each cut into simplices by a
# split table: one tuple of cell-corner offsets (0 or 1 per axis) per
# simplex, in the vertex order the element gets.

_SEGMENT = (((0,), (1,)),)
_RIGHT = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))
_LEFT = (((0, 0), (1, 0), (0, 1)), ((1, 0), (1, 1), (0, 1)))
_SPLITS_2D = {"right": (_RIGHT,), "left": (_LEFT,),
              "alternating": (_RIGHT, _LEFT)}
# Kuhn's six tetrahedra: the walks from corner 000 to corner 111 that step
# along one axis at a time, the axis orders taken lexicographically.
_KUHN = (((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)),
         ((0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)),
         ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)),
         ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)),
         ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)),
         ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)))


def _lattice(counts, split, odd_split=None):
    """(elements, node_markers) of the lattice with `counts` cells per axis.

    Nodes and cells are numbered with axis 0 fastest.  Each cell is cut
    into the simplices of the table `split`, or of `odd_split` (when given)
    if the sum of its cell indices is odd; a cell's simplices are
    consecutive, in table order.  The nodes on the lattice boundary are
    Dirichlet, all others interior.
    """
    d = len(counts)
    stride = np.cumprod((1,) + tuple(c + 1 for c in counts[:-1]))
    cells = np.indices(counts[::-1]).reshape(d, -1)[::-1]
    base = (stride @ cells)[:, None, None]
    elements = base + np.array(split) @ stride
    if odd_split is not None:
        odd = (cells.sum(axis=0) % 2 == 1)[:, None, None]
        elements = np.where(odd, base + np.array(odd_split) @ stride,
                            elements)
    inner = np.zeros([c - 1 for c in counts[::-1]], dtype=np.int64)
    markers = np.pad(inner, 1, constant_values=DIRICHLET)
    return elements.reshape(-1, d + 1), markers.ravel()


def gen_uniform_1d(n):
    """Uniform mesh of (0,1) with n cells; both endpoints Dirichlet."""
    if n < 1:
        raise ValueError("need at least one element")
    return SimplicialMesh(np.arange(n + 1) / n, *_lattice((n,), _SEGMENT))


def gen_equidistributed_1d(n, w):
    """1D mesh whose cells carry equal weight integral.

    Nodes 0 = x_0 < ... < x_n = 1 satisfy
    int_{x_{i-1}}^{x_i} w dx = const for the strictly positive weight w.
    Used with w = det(M)^{1/2} this produces M-uniform meshes; the
    diffusion-adapted case is w(x) = D(x)^{-1/2}.

    ``w`` is called on 1-D arrays of points and returns an array of the
    same length or a scalar; every value it returns must be finite and
    positive.  The cumulative integral is tabulated on max(1024, 4n) fine
    cells by a 20-point Gauss rule, bisecting, all panels of a level at
    once, every panel where the embedded 10-point rule differs by more
    than 1e-14 relative.  Past 40 levels or 32 panels per fine cell the
    weight is taken as too rough and a ValueError is raised.  The interior
    nodes are then found together by Newton's method on the integral from
    the left end of the panel holding each, safeguarded by bisection.  A
    weight that is the same at every point of the first quadrature pass
    gives `gen_uniform_1d(n)` exactly.
    """
    if n < 2:
        raise ValueError("need at least two elements")

    m = max(1024, 4 * n)
    lo, hi = np.arange(m) / m, np.arange(1, m + 1) / m
    vals = _weight_values(w, _gauss_points(lo, hi, _GAUSS_NODES))
    if np.ptp(vals) == 0.0:
        # Constant weight: exact uniform nodes (keeps the bit-identity
        # with gen_uniform_1d).
        return gen_uniform_1d(n)

    lo, hi, cell = _weight_leaves(w, lo, hi, vals)
    if not (cell > 0.0).all():
        raise ValueError("weight integrates to zero on a subinterval")
    nodes = np.empty(n + 1)
    nodes[0], nodes[-1] = 0.0, 1.0
    nodes[1:-1] = _invert_cumulative(w, lo, hi, cell, n)
    if not (np.diff(nodes) > 0.0).all():
        raise ValueError("equidistributed nodes are not strictly increasing")
    return SimplicialMesh(nodes, *_lattice((n,), _SEGMENT))


# The equidistribution quadrature: Gauss-Legendre nodes on [-1, 1], the
# 20-point rule for values and the 10-point rule for its error estimate.
_GAUSS20 = np.polynomial.legendre.leggauss(20)
_GAUSS10 = np.polynomial.legendre.leggauss(10)
_GAUSS_NODES = np.concatenate((_GAUSS20[0], _GAUSS10[0]))
_EQUI_RTOL = 1e-14
_EQUI_MAX_DEPTH = 40
_EQUI_MAX_PANELS = 32       # per fine cell
_EQUI_MAX_NEWTON = 64


def _weight_values(w, x):
    """w at the points x (any shape), each value checked finite and > 0."""
    flat = x.ravel()
    message = ("the weight must accept an array of points and return "
               "an array of the same length or a scalar")
    try:
        vals = w(flat)
    except TypeError as exc:
        raise ValueError(message) from exc
    try:
        vals = np.broadcast_to(np.asarray(vals, dtype=float), flat.shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(message) from exc
    bad = ~(np.isfinite(vals) & (vals > 0.0))
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(f"weight is not strictly positive (w({flat[k]:g}) = "
                         f"{vals[k]:g})")
    return vals.reshape(x.shape)


def _gauss_points(lo, hi, nodes):
    """(panels, len(nodes)) points of the panels [lo, hi] at the given
    nodes of [-1, 1]."""
    half = 0.5 * (hi - lo)
    return (lo + half)[:, None] + half[:, None] * nodes


def _gauss_pair(lo, hi, vals):
    """20-point Gauss integrals on the panels [lo, hi] from the weight
    values at their `_GAUSS_NODES`, and the differences from the 10-point
    rule."""
    half = 0.5 * (hi - lo)
    fine = half * (vals[:, :20] @ _GAUSS20[1])
    coarse = half * (vals[:, 20:] @ _GAUSS10[1])
    return fine, np.abs(fine - coarse)


def _weight_leaves(w, lo, hi, vals):
    """Panels (lo, hi) covering [0, 1] in order, with the integral of w on
    each: the given cells (w's values at their `_GAUSS_NODES` in `vals`),
    bisected until every error estimate is at most _EQUI_RTOL times the
    larger of the panel's integral and the mean cell integral."""
    m = len(lo)
    val, err = _gauss_pair(lo, hi, vals)
    floor = val.sum() / m
    for depth in range(_EQUI_MAX_DEPTH + 1):
        split = err > _EQUI_RTOL * np.maximum(val, floor)
        if not split.any():
            return lo, hi, val
        if (depth == _EQUI_MAX_DEPTH
                or len(lo) + split.sum() > _EQUI_MAX_PANELS * m):
            raise ValueError(
                f"weight quadrature did not converge on [{lo[split][0]:g}, "
                f"{hi[split][0]:g}] after {depth} bisections "
                f"({len(lo)} panels)")
        mid = 0.5 * (lo[split] + hi[split])
        child_lo = np.concatenate((lo[split], mid))
        child_hi = np.concatenate((mid, hi[split]))
        child_val, child_err = _gauss_pair(child_lo, child_hi, _weight_values(
            w, _gauss_points(child_lo, child_hi, _GAUSS_NODES)))
        # Each split panel becomes its two halves, in place.
        reps = 1 + split
        left = (np.cumsum(reps) - reps)[split]
        lo, hi, val, err = (np.repeat(v, reps) for v in (lo, hi, val, err))
        hi[left] = lo[left + 1] = mid
        val[left], val[left + 1] = np.split(child_val, 2)
        err[left], err[left + 1] = np.split(child_err, 2)


def _invert_cumulative(w, lo, hi, cell, n):
    """Interior nodes x_i, i = 1..n-1, with int_0^{x_i} w = i/n of the
    total: Newton on all nodes together, inside the leaf panel holding
    each target, with bisection where a step leaves the bracket."""
    cum = np.concatenate(([0.0], np.cumsum(cell)))
    target = cum[-1] * np.arange(1, n) / n
    j = np.clip(np.searchsorted(cum, target, side="right") - 1,
                0, len(cell) - 1)
    lo, hi = lo[j], hi[j]
    rest = target - cum[j]          # integral still owed inside the leaf
    x = lo + (hi - lo) * np.clip(rest / cell[j], 0.0, 1.0)
    left, right = lo.copy(), hi.copy()
    todo = np.arange(n - 1)
    for _ in range(_EQUI_MAX_NEWTON):
        k = todo
        vals = _weight_values(w, np.column_stack(
            (_gauss_points(lo[k], x[k], _GAUSS20[0]), x[k])))
        g = 0.5 * (x[k] - lo[k]) * (vals[:, :20] @ _GAUSS20[1]) - rest[k]
        left[k] = np.where(g < 0.0, x[k], left[k])
        right[k] = np.where(g > 0.0, x[k], right[k])
        step = x[k] - g / vals[:, 20]
        outside = ~((step >= left[k]) & (step <= right[k]))
        step[outside] = 0.5 * (left[k] + right[k])[outside]
        done = np.abs(step - x[k]) <= 4.0 * np.spacing(
            np.maximum(step, hi[k] - lo[k]))
        x[k] = step
        todo = k[~done]
        if not todo.size:
            return x
    i = int(todo[0])
    raise ValueError(
        f"equidistribution root finding failed at node {i + 1} "
        f"(bracket [{left[i]:.17g}, {right[i]:.17g}] after "
        f"{_EQUI_MAX_NEWTON} iterations)")


def _spacings(n, ratio):
    """n positive spacings summing to 1 in geometric progression `ratio`."""
    if ratio <= 0.0 or not np.isfinite(ratio):
        raise ValueError(f"grading ratio must be positive, got {ratio}")
    if ratio == 1.0:
        return np.full(n, 1.0 / n)
    with np.errstate(over="ignore"):
        g = ratio ** np.arange(n)
        total = g.sum()
    if not np.isfinite(total):
        raise ValueError(f"grading ratio {ratio} over {n} cells overflows "
                         "the double range")
    return g / total


def gen_structured_2d(nx, ny, diagonal="right", ratio_x=1.0, ratio_y=1.0):
    """Triangulated nx-by-ny grid on the unit square; boundary all Dirichlet.

    ``diagonal`` selects the cell split: "right" (all diagonals from the
    lower-left to the upper-right corner), "left" (the mirror image) or
    "alternating" (checkerboard of the two).  Node spacings along x and y
    follow geometric progressions with ratios ``ratio_x`` and ``ratio_y``:
    ratio 1 is uniform, ratios > 1 refine towards x=0 / y=0.
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid needs at least one cell per direction")
    if diagonal not in _SPLITS_2D:
        raise ValueError(f"unknown diagonal pattern {diagonal!r}")

    xs = np.concatenate(([0.0], np.cumsum(_spacings(nx, ratio_x))))
    ys = np.concatenate(([0.0], np.cumsum(_spacings(ny, ratio_y))))
    xs[-1] = 1.0
    ys[-1] = 1.0

    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    return SimplicialMesh(nodes, *_lattice((nx, ny), *_SPLITS_2D[diagonal]))


def gen_structured_3d(nx, ny, nz):
    """Unit cube split into 6 tetrahedra per cell; boundary all Dirichlet."""
    if min(nx, ny, nz) < 1:
        raise ValueError("grid needs at least one cell per direction")
    Z, Y, X = np.meshgrid(*(np.arange(m + 1) / m for m in (nz, ny, nx)),
                          indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    return SimplicialMesh(nodes, *_lattice((nx, ny, nz), _KUHN))
