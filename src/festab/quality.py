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

from .fields import _pivots_positive, _pow2_scale, check_spd


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


# Relative margin of the pivot screen in `_max_sandwich_eig`: a few ulps,
# so a value that passes is as accurate as `eigvalsh`'s own.
SCREEN_DELTA = 4e-15


def _closed_form_top(m, d):
    """Largest eigenvalues of the symmetric matrices (d = 2, 3) whose
    entries are the (ne,) vectors m[i][j], i <= j: (a+c)/2 + hypot((a-c)/2,
    b) for d = 2, the trigonometric form (Smith, CACM 4 (1961) 168) for
    d = 3.  The latter loses accuracy near multiple eigenvalues, which
    `_max_sandwich_eig`'s screen detects.  A zero radius p (a multiple of
    I) gives the mean of the diagonal."""
    if d == 2:
        a, b, c = m[0][0], m[0][1], m[1][1]
        return 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    q = (m[0][0] + m[1][1] + m[2][2]) / 3.0
    b00, b11, b22 = m[0][0] - q, m[1][1] - q, m[2][2] - q
    b01, b02, b12 = m[0][1], m[0][2], m[1][2]
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
    # B = (S - qI) / p and r = det(B) / 2
    t = 1.0 / np.where(p > 0.0, p, 1.0)
    b00, b11, b22, b01, b02, b12 = (x * t for x in (b00, b11, b22,
                                                     b01, b02, b12))
    r = 0.5 * (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
               + b02 * (b01 * b12 - b11 * b02))
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    return q + 2.0 * p * np.cos(phi)


def _max_sandwich_eig(F, X):
    """Per-element largest eigenvalue of the symmetric part of
    F_K X_K F_K^T, for stacks (ne, d, d) of matrices F and X.  With F the
    reference-map inverses F'^-1 this is the alignment norm
    ||F'^-1 X_K F'^-T||_2.

    The entries of the symmetric part are summed from F X and F, with no
    second stack product; for d = 1 the one entry is the value.  For
    d = 2, 3 each matrix is scaled by `fields._pow2_scale`, and its top
    eigenvalue lambda taken in closed form (`_closed_form_top`).  It is
    kept when every LDL^T pivot of mu I - S is positive at mu = lambda (1
    + SCREEN_DELTA) and some pivot is not at mu = lambda (1 -
    SCREEN_DELTA): the signs give the inertia of mu I - S up to a
    backward error O(eps ||S||), so a kept value is within about
    SCREEN_DELTA of lmax.  The matrices that fail either test, or give a
    non-finite value, go to `eigvalsh`.
    """
    G = F @ X
    d = G.shape[-1]
    m = [[None] * d for _ in range(d)]
    for i in range(d):
        m[i][i] = sum(G[:, i, k] * F[:, i, k] for k in range(d))
        for j in range(i + 1, d):
            m[i][j] = 0.5 * sum(G[:, i, k] * F[:, j, k]
                                + G[:, j, k] * F[:, i, k] for k in range(d))
    if d == 1:
        return m[0][0]
    entries = [m[i][j] for i in range(d) for j in range(i, d)]
    scale = _pow2_scale(entries)
    for x in entries:
        x *= scale
    lam = _closed_form_top(m, d)
    ok = (_pivots_positive(m, lam * (1.0 + SCREEN_DELTA), d)
          & ~_pivots_positive(m, lam * (1.0 - SCREEN_DELTA), d))
    lam /= scale
    rest = np.flatnonzero(~ok)
    if len(rest):
        Fr = F[rest]
        S = Fr @ X[rest] @ np.swapaxes(Fr, 1, 2)
        lam[rest] = np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, 1, 2)))[:, -1]
    return lam


def _metric_geometry(ctx):
    """Per-element |K|_M, reference-map alignment norms and rho_{K,M}, the
    diameter of the largest inscribed ball in the metric (d=1: the metric
    length; d=2: 2 |K|_M over the metric semiperimeter; None for d=3),
    for the metric M whose element averages are those of `ctx`."""
    mesh, metric_elems = ctx.mesh, ctx.Dk
    d = mesh.dim
    vols = mesh.volumes()
    # sqrt(det M_K) from log|det M_K|, since det M_K overflows long before
    # |K|_M does
    vol_metric = vols * ctx.map_Dk(
        lambda m: np.exp(0.5 * np.linalg.slogdet(m)[1]))

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

