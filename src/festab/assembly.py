"""P1 mass and stiffness assembly on the free nodes of a simplicial mesh.

Dirichlet conditions are imposed by deleting the corresponding rows and
columns, so the assembled operators act on the interior-plus-Neumann
unknowns and keep the exact eigenstructure the step-size theory addresses.
Every operator is an exactly symmetric `scipy.sparse.csr_array`.  A
`ProblemContext` holds the per-element quantities, operators and mass
surrogates that assembly, bounds and quality measures of one problem share.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fields import InverseOf, _inv
from .mesh import (_volume_ratio_c1, build_patches, patch_sums,
                   reference_edge_matrix)
from .quality import _max_sandwich_eig, element_averages, is_nonobtuse_wrt

MASS_KINDS = ("full", "lumped", "lumped_rowsum")


class DofMap:
    """Bijection between free mesh nodes and system indices."""

    def __init__(self, mesh):
        self.free = mesh.free_nodes()
        if len(self.free) == 0:
            raise ValueError("no free nodes")
        self.index = np.full(mesh.num_nodes, -1, dtype=np.int64)
        self.index[self.free] = np.arange(len(self.free))

    @property
    def n_free(self):
        return len(self.free)


def _symmetric_csr(n, rows, cols, vals):
    """Exactly symmetric CSR matrix from upper-triangle (i <= j) triplets.

    Duplicates are summed in index-sorted order (so assembly does not depend
    on element order), then the full matrix U + U^T - diag(U) is formed
    once; both triangles of every entry hold the same float.
    """
    upper = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    upper.sum_duplicates()
    return sp.csr_array(upper + upper.T - sp.diags(upper.diagonal()))


def _diagonal_csr(diag):
    """Diagonal matrix as a CSR array."""
    idx = np.arange(len(diag))
    return sp.csr_array((diag, (idx, idx)), shape=(len(diag), len(diag)))


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
    return _symmetric_csr(dof.n_free, *_scatter(mesh, dof, local))


def assemble_lumped(mesh, dofmap=None):
    """Lumped mass: M_ii = sum_{K in omega_i} |K| / (d+1).

    This is the row sum of the mass matrix over the full space (Dirichlet
    neighbor columns included), i.e. int phi_i * sum_j phi_j over all
    basis functions.  See `row_sum_lumping` for the variant that sums the
    retained columns only.
    """
    dof = dofmap or DofMap(mesh)
    full = patch_sums(mesh, mesh.volumes() / (mesh.dim + 1))
    return _diagonal_csr(full[dof.free])


def row_sum_lumping(M):
    """Diagonal surrogate from the row sums of an assembled mass matrix.

    Applied to the free-node mass this sums the retained columns only, so
    entries next to the Dirichlet boundary are smaller than the full-space
    row sums of `assemble_lumped`.
    """
    sums = M @ np.ones(M.shape[0])
    if (sums <= 0.0).any():
        raise ValueError("nonpositive row sum; matrix is not a mass matrix")
    return _diagonal_csr(sums)


def assemble_stiffness(mesh, field, quad_order=4, dofmap=None, context=None):
    """Anisotropic P1 stiffness on free nodes.

    Element contribution |K| grad(phi_i)^T D_K grad(phi_j) with the
    element average D_K; exact for P1 since the gradients are constant.
    `context` is an optional `ProblemContext` of (mesh, field, quad_order).
    """
    ctx = _problem_context(mesh, field, quad_order, context)
    dof = dofmap or ctx.dofmap
    return _symmetric_csr(dof.n_free,
                          *_scatter(mesh, dof, ctx.element_stiffness))


class ProblemContext:
    """The per-element quantities of one (mesh, field, quad_order) problem.

    Assembly, the bounds and the quality measures all read the element
    averages D_K, the P1 basis gradients `grads`, the reference maps, the
    alignment norms, the element stiffness matrices, the patches, the
    face-neighbour volume ratio, the operators M and A and the
    nonobtuseness of A.  The field is evaluated once, into one record
    (`_averages`); `inverse`, the context of D^-1, is built from it.  The
    edge matrices are inverted once, in `grads`.  For a field constant on
    each element, functions of D_K alone (`map_Dk`) run once per distinct
    matrix.  A context computes each quantity on first use and keeps it
    for its own lifetime, so build one per call (one report, one CLI
    command) and let it go with the call.
    """

    def __init__(self, mesh, field, quad_order=4):
        self.mesh = mesh
        self.field = field
        self.quad_order = quad_order
        self._source = None         # the context this is the `inverse` of

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
    def grads(self):
        """(ne, d+1, d) P1 basis gradients, row i that of vertex i: the
        unit-simplex shape gradients, rows of [-1 ... -1; I], mapped
        through E_K^-1, the one inversion of the edge matrices."""
        d = self.mesh.dim
        Gh = np.vstack([-np.ones(d), np.eye(d)])
        return Gh @ _inv(self.mesh.element_matrices())

    @cached_property
    def reference_map_inverses(self):
        """(ne, d, d) inverses F'^-1 = E-hat E_K^-1 of the maps from the
        regular unit-volume reference simplex onto each element; E_K^-1
        is rows 1..d of `grads`."""
        return reference_edge_matrix(self.mesh.dim) @ self.grads[:, 1:]

    @cached_property
    def _averages(self):
        """(Dk, distinct, points) of `element_averages` with points: the
        point values are kept until `inverse` has averaged D^-1 from
        them."""
        return element_averages(self.field, self.mesh, self.quad_order,
                                with_points=True)

    @property
    def Dk(self):
        """(ne, d, d) element averages of the field."""
        return self._averages[0]

    def map_Dk(self, fn):
        """(ne, ...) results of `fn`, a function of a stack (m, d, d) of
        matrices that works matrix by matrix, on the averages D_K.  For a
        field constant on each element it runs once per distinct matrix
        and the rows are spread to the elements, bit for bit what it gives
        on all of Dk."""
        Dk, distinct, _ = self._averages
        if distinct is None:
            return fn(Dk)
        values, index = distinct
        return fn(values)[index]

    @cached_property
    def alignment(self):
        """(ne,) alignment norms ||F'^-1 D_K F'^-T||_2 of the averages Dk
        (`_max_sandwich_eig`)."""
        return _max_sandwich_eig(self.reference_map_inverses, self.Dk)

    @cached_property
    def metric_alignment(self):
        """(ne,) alignment norms ||F'^-1 D_K^-1 F'^-T||_2 of the inverses
        of the averages Dk: those of the metric Dk in the quality measures.
        For a field constant on each element, D_K^-1 is the average of the
        inverse field, so these are the `alignment` of `inverse`; for the
        inverse context of such a field that is the source's own.
        Otherwise D_K^-1 is a harmonic average and is inverted here."""
        Dk, distinct, _ = self._averages
        if distinct is None:
            return _max_sandwich_eig(self.reference_map_inverses, _inv(Dk))
        return self.inverse.alignment

    @cached_property
    def element_stiffness(self):
        """(ne, d+1, d+1) element stiffness matrices
        |K| grad(phi_i)^T D_K grad(phi_j), the entries A is summed from."""
        G = self.grads
        return (self.mesh.volumes()[:, None, None]
                * (G @ self.Dk @ np.swapaxes(G, 1, 2)))

    @cached_property
    def patches(self):
        return build_patches(self.mesh)

    @cached_property
    def face_volume_ratio(self):
        """Largest volume ratio of two elements sharing a (d-1)-face, 1.0
        when none do (`_volume_ratio_c1`): the c1 of `zhu_du_bound`."""
        return _volume_ratio_c1(self.mesh)

    @cached_property
    def M(self):
        return assemble_mass(self.mesh, self.dofmap)

    @cached_property
    def A(self):
        return assemble_stiffness(self.mesh, self.field, self.quad_order,
                                  self.dofmap, context=self)

    @cached_property
    def nonobtuse(self):
        """Whether the mesh is nonobtuse w.r.t. D^-1 (`is_nonobtuse_wrt`)."""
        return is_nonobtuse_wrt(self.A)

    def mass_tilde(self, kind):
        """The mass surrogate of one of MASS_KINDS: "full" is M, "lumped"
        the full-space patch sums (`assemble_lumped`), "lumped_rowsum" the
        row sums of M (`row_sum_lumping`)."""
        if kind == "full":
            return self.M
        if kind == "lumped":
            return assemble_lumped(self.mesh, self.dofmap)
        if kind == "lumped_rowsum":
            return row_sum_lumping(self.M)
        raise ValueError(f"unknown mass kind {kind!r}; "
                         f"choices: {', '.join(MASS_KINDS)}")

    @cached_property
    def _inverse_averages(self):
        """The (Dk, distinct, points) record of the inverse field.  A field
        constant on each element passes on its distinct matrices, inverted
        once; for any other field the averages of D^-1 are the quadrature
        of the inverted point values, as `InverseOf` averages, and the
        points are let go here, so a context that never reads D^-1 does no
        inversion.  A matrix without a finite inverse raises
        np.linalg.LinAlgError naming the field."""
        Dk, distinct, points = self._averages
        mats = points[1] if distinct is None else distinct[0]
        try:
            inv = _inv(mats)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"field {self.field.name()} (largest |entry| "
                f"{np.abs(mats).max():.3g}) has no finite inverse: "
                f"{exc}") from None
        if distinct is None:
            self._averages = Dk, None, None
            return np.einsum("q,nqij->nij", points[0], inv), None, None
        return inv[distinct[1]], (inv, distinct[1]), None

    @property
    def inverse(self):
        """Context of the pointwise inverse field on the same mesh, sharing
        the gradients, the reference maps and `_inverse_averages`; its own
        `inverse` is this context.  Each read builds a new one, which holds
        this context while this context keeps only the averages, so the
        two form no reference cycle: their arrays go with the call, not
        with the next garbage collection."""
        if self._source is not None:
            return self._source
        inv = ProblemContext(self.mesh, InverseOf(self.field),
                             self.quad_order)
        inv._averages = self._inverse_averages
        inv.grads = self.grads
        inv.reference_map_inverses = self.reference_map_inverses
        inv._source = self
        return inv


def _problem_context(mesh, field, quad_order=4, context=None):
    """`context` checked against (mesh, field, quad_order), or a new one."""
    if context is None:
        return ProblemContext(mesh, field, quad_order)
    return context.check(mesh, field, quad_order)

