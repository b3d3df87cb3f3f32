"""P1 mass and stiffness assembly on the free nodes of a simplicial mesh.

Dirichlet conditions are imposed by deleting the corresponding rows and
columns, so the assembled operators act on the interior-plus-Neumann
unknowns and keep the exact eigenstructure the step-size theory addresses.
Matrices are stored as the upper triangle in CSR form behind a thin
symmetric wrapper.  A `ProblemContext` holds the per-element quantities
that assembly, bounds and quality measures of one problem share.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse as sp

from .fields import InverseOf
from .mesh import DIRICHLET, build_patches
from .quality import (_inverse_averages, _reference_map_inverses,
                      element_averages, mesh_quality_summary)


class DofMap:
    """Bijection between free mesh nodes and system indices."""

    def __init__(self, mesh):
        self.free = np.flatnonzero(mesh.node_markers != DIRICHLET)
        if len(self.free) == 0:
            raise ValueError("no free nodes")
        self.index = np.full(mesh.num_nodes, -1, dtype=np.int64)
        self.index[self.free] = np.arange(len(self.free))

    @property
    def n_free(self):
        return len(self.free)


class SparseSymMatrix:
    """Symmetric sparse matrix storing the upper triangle (with diagonal)."""

    def __init__(self, upper):
        upper = sp.csr_matrix(upper)
        if upper.shape[0] != upper.shape[1]:
            raise ValueError("matrix must be square")
        coo = upper.tocoo()
        if (coo.row > coo.col).any():
            raise ValueError("lower-triangle entries in upper storage")
        self._upper = upper
        self._full = None

    @classmethod
    def from_triplets(cls, n, rows, cols, vals):
        """Symmetric matrix from (i, j, v) contributions of both triangles.

        Lower-triangle entries are mirrored; duplicates are summed (the
        CSR conversion sums them in index-sorted order, making assembly
        deterministic regardless of element order).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        swap = rows > cols
        r = np.where(swap, cols, rows)
        c = np.where(swap, rows, cols)
        upper = sp.coo_matrix((vals, (r, c)), shape=(n, n)).tocsr()
        upper.sum_duplicates()
        return cls(upper)

    @classmethod
    def from_diagonal(cls, diag):
        diag = np.asarray(diag, dtype=float)
        n = len(diag)
        return cls(sp.csr_matrix(
            (diag, (np.arange(n), np.arange(n))), shape=(n, n)))

    # ------------------------------------------------------------------
    @property
    def n(self):
        return self._upper.shape[0]

    @property
    def shape(self):
        return self._upper.shape

    @property
    def nnz(self):
        return self._upper.nnz

    def upper_csr(self):
        return self._upper

    def diagonal(self):
        return self._upper.diagonal().copy()

    def is_diagonal(self):
        coo = self._upper.tocoo()
        return bool((coo.row == coo.col).all())

    def to_scipy(self):
        """Full symmetric CSR matrix (cached)."""
        if self._full is None:
            up = self._upper
            full = up + up.T - sp.diags(up.diagonal())
            self._full = sp.csr_matrix(full)
        return self._full

    def toarray(self):
        return self.to_scipy().toarray()

    def matvec(self, x):
        return self.to_scipy() @ x

    def row_sums(self):
        return self.matvec(np.ones(self.n))

    def quadratic_form(self, x):
        return float(x @ self.matvec(x))


def diag_of(matrix):
    """Diagonal of a SparseSymMatrix (or a plain array) as a vector."""
    if isinstance(matrix, SparseSymMatrix):
        return matrix.diagonal()
    matrix = np.asarray(matrix)
    if matrix.ndim == 1:
        return matrix.copy()
    return np.diag(matrix).copy()


def _scatter(mesh, dof, local):
    """Upper-triangle COO triplets of per-element matrices on free nodes.

    The local matrices are symmetric, so only pairs with row <= col (in
    free-dof numbering) are emitted; emitting both halves would double
    the off-diagonal entries after the symmetric fold.
    """
    gi = dof.index[mesh.elements]               # (ne, d+1), -1 on Dirichlet
    nv = mesh.elements.shape[1]
    rows = np.repeat(gi, nv, axis=1).ravel()
    cols = np.tile(gi, (1, nv)).ravel()
    vals = local.reshape(len(mesh.elements), -1).ravel()
    keep = (rows >= 0) & (cols >= 0) & (rows <= cols)
    return rows[keep], cols[keep], vals[keep]


def assemble_mass(mesh, dofmap=None):
    """Exact P1 mass matrix on free nodes.

    Element contribution |K| (1 + delta_ij) / ((d+1)(d+2)); the diagonal
    therefore equals 2|omega_i| / ((d+1)(d+2)) with the full geometric
    patch volume (row/column deletion leaves diagonals untouched).
    """
    dof = dofmap or DofMap(mesh)
    d = mesh.dim
    nv = d + 1
    vols = mesh.volumes()
    base = (np.ones((nv, nv)) + np.eye(nv)) / ((d + 1) * (d + 2))
    local = vols[:, None, None] * base
    return SparseSymMatrix.from_triplets(
        dof.n_free, *_scatter(mesh, dof, local))


def assemble_lumped(mesh, dofmap=None):
    """Lumped mass: M_ii = sum_{K in omega_i} |K| / (d+1).

    This is the row sum of the mass matrix over the full space (Dirichlet
    neighbor columns included), i.e. int phi_i * sum_j phi_j over all
    basis functions.  See `row_sum_lumping` for the variant that sums the
    retained columns only.
    """
    dof = dofmap or DofMap(mesh)
    d = mesh.dim
    vols = mesh.volumes()
    flat = mesh.elements.ravel()
    full = np.bincount(flat, weights=np.repeat(vols / (d + 1), d + 1),
                       minlength=mesh.num_nodes)
    return SparseSymMatrix.from_diagonal(full[dof.free])


def row_sum_lumping(M):
    """Diagonal surrogate from the row sums of an assembled mass matrix.

    Applied to the free-node mass this sums the retained columns only, so
    entries next to the Dirichlet boundary are smaller than the full-space
    row sums of `assemble_lumped`.
    """
    sums = M.row_sums()
    if (sums <= 0.0).any():
        raise ValueError("nonpositive row sum; matrix is not a mass matrix")
    return SparseSymMatrix.from_diagonal(sums)


def assemble_stiffness(mesh, field, quad_order=4, dofmap=None, context=None):
    """Anisotropic P1 stiffness on free nodes.

    Element contribution |K| grad(phi_i)^T D_K grad(phi_j) with the
    element average D_K; exact for P1 since the gradients are constant.
    `context` is an optional `ProblemContext` of (mesh, field, quad_order).
    """
    ctx = _problem_context(mesh, field, quad_order, context)
    dof = dofmap or ctx.dofmap
    d = mesh.dim
    E = mesh.element_matrices()
    Einv = np.linalg.inv(E)
    # unit-simplex shape gradients: rows of [-1...-1; I] mapped through E^-1
    Gh = np.vstack([-np.ones(d), np.eye(d)])
    grads = np.einsum("ab,nbc->nac", Gh, Einv)
    vols = mesh.volumes()
    local = np.einsum("n,nid,nde,nje->nij", vols, grads, ctx.Dk, grads)
    return SparseSymMatrix.from_triplets(
        dof.n_free, *_scatter(mesh, dof, local))


class ProblemContext:
    """The per-element quantities of one (mesh, field, quad_order) problem.

    Assembly, the bounds and the quality measures all read the element
    averages D_K and D^-1_K, the reference maps, the patches and the
    operators M and A.  A context computes each on first use and keeps it
    for its own lifetime, so build one per call (one report, one CLI
    command) and let it go with the call; the field is evaluated at most
    once per context.
    """

    def __init__(self, mesh, field, quad_order=4):
        self.mesh = mesh
        self.field = field
        self.quad_order = quad_order
        self._points = None

    def check(self, mesh, field, quad_order):
        """Self, after checking it was built for (mesh, field, quad_order)."""
        if (mesh is not self.mesh or field is not self.field
                or quad_order != self.quad_order):
            raise ValueError("context built for another mesh, field or "
                             "quad_order")
        return self

    @cached_property
    def dofmap(self):
        return DofMap(self.mesh)

    @cached_property
    def reference_map_inverses(self):
        return _reference_map_inverses(self.mesh)

    @cached_property
    def Dk(self):
        """(ne, d, d) element averages of the field."""
        Dk, self._points = element_averages(self.field, self.mesh,
                                            self.quad_order, with_points=True)
        return Dk

    @cached_property
    def Dinv(self):
        """(ne, d, d) element averages of the pointwise inverse D^-1, from
        the evaluation behind `Dk`; its point values are let go here, so a
        context that never reads D^-1 does no inversion."""
        Dk = self.Dk
        points, self._points = self._points, None
        return _inverse_averages(Dk, points)

    @cached_property
    def patches(self):
        return build_patches(self.mesh)

    @cached_property
    def M(self):
        return assemble_mass(self.mesh, self.dofmap)

    @cached_property
    def A(self):
        return assemble_stiffness(self.mesh, self.field, self.quad_order,
                                  self.dofmap, context=self)

    @cached_property
    def quality(self):
        """Quality summary of the mesh with the field as the metric."""
        return mesh_quality_summary(self.mesh, self.field, self.quad_order,
                                    context=self)

    @cached_property
    def inverse(self):
        """Context of the pointwise inverse field on the same mesh: the two
        averages swap and the reference maps are shared."""
        inv = ProblemContext(self.mesh, InverseOf(self.field),
                             self.quad_order)
        inv.Dk, inv.Dinv = self.Dinv, self.Dk
        inv.reference_map_inverses = self.reference_map_inverses
        return inv


def _problem_context(mesh, field, quad_order=4, context=None):
    """`context` checked against (mesh, field, quad_order), or a new one."""
    if context is None:
        return ProblemContext(mesh, field, quad_order)
    return context.check(mesh, field, quad_order)


def export_matrix_market(matrix, path, comment=""):
    """Write a SparseSymMatrix in MatrixMarket symmetric coordinate form."""
    scipy.io.mmwrite(path, matrix.to_scipy().tocoo(),
                     comment=comment, symmetry="symmetric")
