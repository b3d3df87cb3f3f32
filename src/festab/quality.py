"""Element averages of tensor fields and metric mesh-quality measures.

Quality measures for an element K under an SPD metric M (with element
average M_K): equidistribution q_eq = (h_M / h_K)^d, alignment
q_ali = h_K^2 ||F'^-1 M_K^-1 F'^-T||_2 >= 1, and the combined measure
q_m = q_ali * q_eq^(2/d), where h_K = |K|_M^(1/d) and h_M is the global
average metric diameter.  F' maps the regular unit-volume reference
simplex onto K.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.special import roots_jacobi

from .fields import check_spd
from .mesh import reference_diameter, reference_edge_matrix


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


def simplex_rule(d, order):
    """Averaging rule on the unit d-simplex: (points (q, d), weights (q,)).

    Orders 1, 2 and 4 use fixed tables (order 4 in 3D falls back to the
    conical product rule).  Weights sum to one.
    """
    if order not in (1, 2, 4):
        raise ValueError(f"quad_order must be 1, 2 or 4, got {order}")
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
    (constant, per-region and their inverses); otherwise the fixed
    quadrature rule of the requested order is applied on each element and
    SPD-ness is checked at every evaluation point.  With `with_points`,
    returns (averages, points): points is (weights, (ne, q, d, d) point
    values), or None for fields constant on each element, and lets
    `_inverse_averages` average D^-1 without a second evaluation.
    """
    d = mesh.dim
    ne = mesh.num_elements
    if field.dim is not None and field.dim != d:
        raise ValueError(f"field dimension {field.dim} does not match "
                         f"mesh dimension {d}")
    pts, wts = simplex_rule(d, quad_order)
    avg = field.element_values(mesh.region_tags)
    if avg is not None:
        return (avg, None) if with_points else avg
    E = mesh.element_matrices()
    x0 = mesh.nodes[mesh.elements[:, 0]]
    # physical quadrature points: x0 + E xi for each rule point xi
    X = x0[:, None, :] + np.einsum("nij,qj->nqi", E, pts)
    vals = field(X.reshape(-1, d)).reshape(ne, len(wts), d, d)
    check_spd(vals.reshape(-1, d, d), context=f"field {field.name()}")
    avg = np.einsum("q,nqij->nij", wts, vals)
    return (avg, (wts, vals)) if with_points else avg


def _inverse_averages(avg, points):
    """Element averages of D^-1 from `element_averages(D, with_points)`: the
    quadrature of the inverted point values, as `InverseOf(D)` averages."""
    if points is None:
        return np.linalg.inv(avg)
    wts, vals = points
    return np.einsum("q,nqij->nij", wts, np.linalg.inv(vals))


def average_tensor(field, mesh, k, quad_order=4):
    """Average of the field over element k (see `element_averages`)."""
    if not 0 <= k < mesh.num_elements:
        raise ValueError(f"element id {k} out of range")
    sub = _single_element_view(mesh, k)
    return element_averages(field, sub, quad_order)[0]


class _single_element_view:
    """Lightweight stand-in exposing one element of a mesh to the averager."""

    def __init__(self, mesh, k):
        self.dim = mesh.dim
        self.num_elements = 1
        self.elements = mesh.elements[k:k + 1]
        self.nodes = mesh.nodes
        self.region_tags = mesh.region_tags[k:k + 1]

    def element_matrices(self):
        p = self.nodes[self.elements]
        return np.swapaxes(p[:, 1:, :] - p[:, :1, :], 1, 2)

    def volumes(self):
        det = np.linalg.det(self.element_matrices())
        return det / math.factorial(self.dim)


# ----------------------------------------------------------------------
# Quality measures


@dataclass(frozen=True)
class ElementQuality:
    vol_metric: float
    h_elem: float
    q_eq: float
    q_ali: float
    q_m: float
    rho_metric: float | None
    norm_fdf: float


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

    def element(self, k):
        rho = None if self.rho_metric is None else float(self.rho_metric[k])
        return ElementQuality(
            vol_metric=float(self.vol_metric[k]),
            h_elem=float(self.h_elem[k]),
            q_eq=float(self.q_eq[k]),
            q_ali=float(self.q_ali[k]),
            q_m=float(self.q_m[k]),
            rho_metric=rho,
            norm_fdf=float(self.norm_fdf[k]),
        )

    @property
    def per_element(self):
        return [self.element(k) for k in range(len(self.q_m))]


def _reference_map_inverses(mesh):
    """(ne, d, d) inverses F'^-1 of the maps from the regular unit-volume
    reference simplex onto each element."""
    Fp = mesh.element_matrices() @ np.linalg.inv(
        reference_edge_matrix(mesh.dim))
    return np.linalg.inv(Fp)


def _metric_geometry(mesh, metric_elems, Finv=None):
    """Per-element |K|_M, reference-map alignment norms and rho_{K,M}."""
    d = mesh.dim
    vols = mesh.volumes()
    det_m = np.linalg.det(metric_elems)
    vol_metric = vols * np.sqrt(det_m)

    if Finv is None:
        Finv = _reference_map_inverses(mesh)
    Minv = np.linalg.inv(metric_elems)
    S = Finv @ Minv @ np.swapaxes(Finv, 1, 2)
    norm_fdf = np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, 1, 2)))[:, -1]

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


def mesh_quality_summary(mesh, metric, quad_order=4, context=None):
    """Aggregate quality measures of a mesh under a metric field.

    `context`, a `ProblemContext` built for (mesh, metric, quad_order),
    supplies the metric averages and reference maps it already holds.
    """
    if context is None:
        metric_elems = element_averages(metric, mesh, quad_order)
        Finv = None
    else:
        context.check(mesh, metric, quad_order)
        metric_elems, Finv = context.Dk, context.reference_map_inverses
    vol_metric, norm_fdf, rho = _metric_geometry(mesh, metric_elems, Finv)
    d = mesh.dim
    ne = mesh.num_elements

    vol_domain = vol_metric.sum()
    h_global = (vol_domain / ne) ** (1.0 / d)
    h_elem = vol_metric ** (1.0 / d)
    q_eq = (vol_domain / ne) / vol_metric
    q_ali = h_elem ** 2 * norm_fdf
    q_m = h_global ** 2 * norm_fdf

    summary = MeshQualitySummary(
        h_global=float(h_global), vol_domain=float(vol_domain),
        vol_metric=vol_metric, h_elem=h_elem, q_eq=q_eq, q_ali=q_ali,
        q_m=q_m, rho_metric=rho, norm_fdf=norm_fdf)

    mean_inv = float(np.mean(1.0 / q_eq))
    if abs(mean_inv - 1.0) > 1e-10:
        raise AssertionError(
            f"equidistribution identity violated: mean(1/q_eq) = {mean_inv}")
    if summary.max_q_eq < 1.0 - 1e-12:
        raise AssertionError(f"max q_eq = {summary.max_q_eq} < 1")
    return summary


def element_quality(mesh, k, metric, h_global, quad_order=4):
    """Quality record of element k; h_global must come from the same
    metric over the same mesh (see `mesh_quality_summary`)."""
    if not 0 <= k < mesh.num_elements:
        raise ValueError(f"element id {k} out of range")
    metric_k = average_tensor(metric, mesh, k, quad_order)
    sub = _single_element_view(mesh, k)
    vol_metric, norm_fdf, rho = _metric_geometry(sub, metric_k[None])
    d = mesh.dim
    h_elem = vol_metric[0] ** (1.0 / d)
    return ElementQuality(
        vol_metric=float(vol_metric[0]),
        h_elem=float(h_elem),
        q_eq=float((h_global / h_elem) ** d),
        q_ali=float(h_elem ** 2 * norm_fdf[0]),
        q_m=float(h_global ** 2 * norm_fdf[0]),
        rho_metric=None if rho is None else float(rho[0]),
        norm_fdf=float(norm_fdf[0]),
    )


def inscribed_diameter_metric(mesh, k, metric_k):
    """Diameter of the largest inscribed sphere of element k in the metric.

    d=1: the metric length; d=2: the incircle diameter 2 * area / s with
    the metric semiperimeter s.  Not defined for d=3.
    """
    d = mesh.dim
    if d == 3:
        raise ValueError("inscribed diameter is unsupported for d=3")
    if not 0 <= k < mesh.num_elements:
        raise ValueError(f"element id {k} out of range")
    metric_k = np.asarray(metric_k, dtype=float)
    if metric_k.shape != (d, d):
        raise ValueError(f"metric must be {d}x{d}")
    sub = _single_element_view(mesh, k)
    vol_metric, _, rho = _metric_geometry(sub, metric_k[None])
    return float(rho[0])


def is_nonobtuse_wrt(mesh, field, A, rtol=1e-12):
    """Algebraic nonobtuseness test of the mesh w.r.t. the metric D^-1.

    True iff the assembled stiffness matrix A (for diffusion `field` on
    this mesh) has no positive off-diagonal entry and no negative row sum,
    both up to rtol * max|A|.  When true the sharpened bracket constants
    apply.  `field` participates only through A and is accepted for
    signature clarity.
    """
    del field
    upper = A.upper_csr()
    scale = np.abs(upper.data).max() if upper.nnz else 1.0
    tol = rtol * scale
    coo = upper.tocoo()
    off = coo.data[coo.row != coo.col]
    if off.size and off.max() > tol:
        return False
    if A.row_sums().min() < -tol:
        return False
    return True


def export_quality_csv(mesh, summary, path):
    """Write per-element quality rows: id, |K|, |K|_M, q_eq, q_ali, q_m."""
    vols = mesh.volumes()
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["element", "vol", "vol_metric",
                         "q_eq", "q_ali", "q_m"])
        for k in range(mesh.num_elements):
            writer.writerow([
                k, repr(float(vols[k])), repr(float(summary.vol_metric[k])),
                repr(float(summary.q_eq[k])), repr(float(summary.q_ali[k])),
                repr(float(summary.q_m[k])),
            ])
