"""Element averages of tensor fields and metric mesh-quality measures.

Quality measures for an element K under an SPD metric M (with element
average M_K): equidistribution q_eq = (h_M / h_K)^d, alignment
q_ali = h_K^2 ||F'^-1 M_K^-1 F'^-T||_2 >= 1, and the combined measure
q_m = q_ali * q_eq^(2/d), where h_K = |K|_M^(1/d) and h_M is the global
average metric diameter.  F' maps the regular unit-volume reference
simplex onto K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import _inv, check_spd


# ----------------------------------------------------------------------
# Simplex quadrature (points in the unit-simplex parametrization, weights
# normalized to sum to 1 so the rules compute averages directly).

def _rule_1d(order):
    if order <= 1:
        return np.array([[0.5]]), np.array([1.0])
    if order <= 2:
        off = 0.5 / math.sqrt(3.0)
        return np.array([[0.5 - off], [0.5 + off]]), np.array([0.5, 0.5])
    off = 0.5 * math.sqrt(3.0 / 5.0)
    return (np.array([[0.5 - off], [0.5], [0.5 + off]]),
            np.array([5.0, 8.0, 5.0]) / 18.0)


def _rule_2d(order):
    if order <= 1:
        return np.array([[1 / 3, 1 / 3]]), np.array([1.0])
    if order <= 2:
        a, b = 2.0 / 3.0, 1.0 / 6.0
        return (np.array([[b, b], [a, b], [b, a]]),
                np.full(3, 1.0 / 3.0))
    # 6-point degree-4 symmetric rule
    a1, b1, w1 = 0.108103018168070, 0.445948490915965, 0.223381589678011
    a2, b2, w2 = 0.816847572980459, 0.091576213509771, 0.109951743655322
    pts = np.array([
        [b1, b1], [a1, b1], [b1, a1],
        [b2, b2], [a2, b2], [b2, a2],
    ])
    wts = np.array([w1, w1, w1, w2, w2, w2])
    return pts, wts / wts.sum()


def _rule_3d(order):
    if order <= 1:
        return np.array([[0.25, 0.25, 0.25]]), np.array([1.0])
    if order <= 2:
        a = 0.5854101966249685
        b = 0.1381966011250105
        pts = np.array([
            [b, b, b], [a, b, b], [b, a, b], [b, b, a],
        ])
        return pts, np.full(4, 0.25)
    return conical_product_rule(3, 3)


def _check_quad_order(order):
    """Raise ValueError unless `order` is a quadrature order of
    `simplex_rule`: 1, 2 or 4."""
    if order not in (1, 2, 4):
        raise ValueError(f"quad_order must be 1, 2 or 4, got {order}")


def simplex_rule(d, order):
    """Averaging rule on the unit d-simplex: (points (q, d), weights (q,)).

    Orders 1, 2 and 4 use fixed tables (order 4 in 3D falls back to the
    conical product rule).  Weights sum to one.
    """
    _check_quad_order(order)
    if d == 1:
        return _rule_1d(order)
    if d == 2:
        return _rule_2d(order)
    if d == 3:
        return _rule_3d(order)
    raise ValueError(f"unsupported dimension {d}")


def conical_product_rule(d, n):
    """Gauss-Jacobi conical product rule on the unit d-simplex.

    Exact for polynomials of degree 2n-1; weights normalized to sum to 1.
    Serves as the high-order oracle for the fixed tables.
    """
    from scipy.special import roots_jacobi   # only this oracle needs it

    axes = []
    for k in range(d):
        alpha = d - 1 - k
        x, w = roots_jacobi(n, alpha, 0.0)
        axes.append(((x + 1.0) / 2.0, w))
    pts = np.zeros((n ** d, d))
    wts = np.ones(n ** d)
    idx = np.indices((n,) * d).reshape(d, -1)
    remaining = np.ones(n ** d)
    for k in range(d):
        u = axes[k][0][idx[k]]
        wts *= axes[k][1][idx[k]]
        pts[:, k] = u * remaining
        remaining = remaining * (1.0 - u)
    return pts, wts / wts.sum()


# ----------------------------------------------------------------------
# Tensor field averaging


def element_averages(field, mesh, quad_order=4, with_points=False):
    """(ne, d, d) array of per-element averages of an SPD field.

    Exact, with no quadrature, for fields constant on each element
    (constant, per-region and their inverses): values[index] of the
    field's `element_values`.  Otherwise the fixed quadrature rule of the
    requested order is applied on each element and SPD-ness is checked at
    every evaluation point.  With `with_points`, returns (averages,
    distinct, points) for `ProblemContext`: distinct is the (values,
    index) pair of a field constant on each element, and points the
    (weights, (ne, q, d, d) point values) of any other field, which let D^-1
    be averaged without a second evaluation; the other one is None.
    """
    d = mesh.dim
    ne = mesh.num_elements
    if field.dim is not None and field.dim != d:
        raise ValueError(f"field dimension {field.dim} does not match "
                         f"mesh dimension {d}")
    _check_quad_order(quad_order)
    distinct = field.element_values(mesh.region_tags)
    if distinct is not None:
        values, index = distinct
        avg = values[index]
        return (avg, distinct, None) if with_points else avg
    pts, wts = simplex_rule(d, quad_order)
    E = mesh.element_matrices()
    x0 = mesh.nodes[mesh.elements[:, 0]]
    # physical quadrature points: x0 + E xi for each rule point xi
    X = x0[:, None, :] + np.einsum("nij,qj->nqi", E, pts)
    vals = field(X.reshape(-1, d)).reshape(ne, len(wts), d, d)
    check_spd(vals.reshape(-1, d, d), context=f"field {field.name()}")
    avg = np.einsum("q,nqij->nij", wts, vals)
    return (avg, None, (wts, vals)) if with_points else avg


def _inverse_averages(points):
    """Element averages of D^-1 from the point values that
    `element_averages(D, with_points=True)` returns for a field varying
    inside elements: the quadrature of the inverted point values, as
    `InverseOf(D)` averages."""
    wts, vals = points
    return np.einsum("q,nqij->nij", wts, _inv(vals))


# ----------------------------------------------------------------------
# Quality measures


@dataclass
class MeshQualitySummary:
    h_global: float
    vol_domain: float
    vol_metric: np.ndarray
    h_elem: np.ndarray
    q_eq: np.ndarray
    q_ali: np.ndarray
    q_m: np.ndarray
    rho_metric: np.ndarray | None
    norm_fdf: np.ndarray
    max_q_m: float = dc_field(init=False)
    max_q_eq: float = dc_field(init=False)
    max_q_ali: float = dc_field(init=False)

    def __post_init__(self):
        self.max_q_m = float(self.q_m.max())
        self.max_q_eq = float(self.q_eq.max())
        self.max_q_ali = float(self.q_ali.max())


def _max_sandwich_eig(F, X):
    """Per-element largest eigenvalue of the symmetric part of
    F_K X_K F_K^T, for stacks (ne, d, d) of matrices F and X.  With F the
    reference-map inverses F'^-1 this is the alignment norm
    ||F'^-1 X_K F'^-T||_2."""
    S = F @ X @ np.swapaxes(F, 1, 2)
    return np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, 1, 2)))[:, -1]


def _metric_geometry(ctx):
    """Per-element |K|_M, reference-map alignment norms and rho_{K,M}, the
    diameter of the largest inscribed ball in the metric (d=1: the metric
    length; d=2: 2 |K|_M over the metric semiperimeter; None for d=3),
    for the metric M whose element averages are those of `ctx`."""
    mesh, metric_elems = ctx.mesh, ctx.Dk
    d = mesh.dim
    vols = mesh.volumes()
    det_m = ctx.map_Dk(np.linalg.det)
    vol_metric = vols * np.sqrt(det_m)

    norm_fdf = ctx.metric_alignment

    if d == 1:
        rho = vol_metric.copy()
    elif d == 2:
        p = mesh.nodes[mesh.elements]
        edges = np.stack([p[:, 2] - p[:, 1],
                          p[:, 0] - p[:, 2],
                          p[:, 1] - p[:, 0]], axis=1)
        lengths = np.sqrt(np.einsum("nei,nij,nej->ne",
                                    edges, metric_elems, edges))
        semi = 0.5 * lengths.sum(axis=1)
        rho = 2.0 * vol_metric / semi
    else:
        rho = None
    return vol_metric, norm_fdf, rho


def mesh_quality_summary(ctx):
    """Aggregate quality measures of a mesh under a metric field.

    `ctx` is a `ProblemContext` whose field is the metric M; its element
    averages and alignment norms (`metric_alignment`) are read, not
    recomputed.  For the quality in the metric D^-1 of a diffusion
    problem, pass its `ctx.inverse`.
    """
    mesh = ctx.mesh
    vol_metric, norm_fdf, rho = _metric_geometry(ctx)
    d = mesh.dim
    ne = mesh.num_elements

    vol_domain = vol_metric.sum()
    h_global = (vol_domain / ne) ** (1.0 / d)
    h_elem = vol_metric ** (1.0 / d)
    q_eq = (vol_domain / ne) / vol_metric
    q_ali = h_elem ** 2 * norm_fdf
    q_m = h_global ** 2 * norm_fdf

    return MeshQualitySummary(
        h_global=float(h_global), vol_domain=float(vol_domain),
        vol_metric=vol_metric, h_elem=h_elem, q_eq=q_eq, q_ali=q_ali,
        q_m=q_m, rho_metric=rho, norm_fdf=norm_fdf)


NONOBTUSE_RTOL = 1e-12


def is_nonobtuse_wrt(A):
    """Algebraic nonobtuseness test of a mesh w.r.t. the metric D^-1.

    True iff the assembled stiffness matrix A (of diffusion D on the mesh)
    has no positive off-diagonal entry and no negative row sum, both up to
    NONOBTUSE_RTOL * max|A|.  When true the sharpened bracket constants
    apply.
    """
    scale = np.abs(A.data).max() if A.nnz else 1.0
    tol = NONOBTUSE_RTOL * scale
    coo = A.tocoo()
    off = coo.data[coo.row != coo.col]
    if off.size and off.max() > tol:
        return False
    if (A @ np.ones(A.shape[0])).min() < -tol:
        return False
    return True

