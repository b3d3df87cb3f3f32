"""Largest eigenvalue of the pencil (A, Mtilde), computable bounds and
the reports built from them.

For the P1 diffusion system, the largest permissible explicit step of an
s-stage first-order Chebyshev scheme is tau_max = 2 s^2 / lambda_max.
The entry points here take lambda_max from the engine in `eigen`:
certified (`lambda_max_exact`, `max_eigvec_exact`) or estimated
(`lambda_max_lanczos`, `lambda_max_power`).  The computable surrogates
are the diagonal-ratio bracket with its sharp constant C*, the
patch-geometry and metric-matching upper bounds, and the face-volume
brackets (with and without lumped-mass weighting).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from .assembly import _problem_context
from .eigen import EigEstimate, _in_range, _lanczos, _Pencil, _top_eigpair
from .mesh import patch_sums
from .quality import _max_sandwich_eig, mesh_quality_summary

LANCZOS_MAX_STEPS = 50


def c_grad(d):
    """Reference-element gradient constant: grad(phihat_i)^T grad(phihat_i)
    on the regular unit-volume d-simplex, equal for all vertices."""
    if d not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {d}")
    return d / (d + 1.0) * (math.sqrt(d + 1.0) / math.factorial(d)) ** (2.0 / d)


def c_sharp(d):
    """Patch-bound constant: c_grad(d) (d+1)(d+2) / 2."""
    return 0.5 * c_grad(d) * (d + 1) * (d + 2)


def c_star(d, lumped, nonobtuse):
    """Bracket constant: lambda_max <= c_star * max_i A_ii / Mtilde_ii.

    General meshes: 2(d+1) for the full mass, (d+1) lumped; meshes
    nonobtuse w.r.t. D^-1 sharpen this to 4 and 2 (any d).
    """
    if d not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {d}")
    if nonobtuse:
        return 2.0 if lumped else 4.0
    return float(d + 1) if lumped else 2.0 * (d + 1)


# ----------------------------------------------------------------------
# Exact and iterative eigenvalue computation


def lambda_max_exact(Mtilde, A):
    """Largest eigenvalue of the pencil (A, Mtilde), Cholesky-certified.

    Sparse shift-invert solve; see `_top_eigpair`.  Raises ValueError when
    the pencil is not square, symmetric and SPD, or no certificate is
    found.
    """
    return _top_eigpair(_Pencil(Mtilde, A))[0]


def max_eigvec_exact(Mtilde, A):
    """(lambda_max, eigenvector scaled to unit Mtilde-norm), certified."""
    est, x = _top_eigpair(_Pencil(Mtilde, A))
    return est.value, x


def lambda_max_lanczos(Mtilde, A, steps=5, seed=2, security=1.1):
    """Lanczos estimate of lambda_max with a multiplicative security factor.

    Runs `steps` iterations in the Mtilde inner product with full
    reorthogonalization from a seeded random start, then multiplies the
    top Ritz value by `security` (i.e. the induced time step is divided
    by it).  An exhausted Krylov space ends the iteration early.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if steps > LANCZOS_MAX_STEPS:
        raise ValueError(f"at most {LANCZOS_MAX_STEPS} steps supported")
    pencil = _Pencil(Mtilde, A)
    theta, _, resid, taken = _in_range(_lanczos)(pencil, steps, seed)
    method = f"lanczos(steps={taken},seed={seed},security={security:g})"
    return EigEstimate(value=security * theta, method=method, residual=resid)


def lambda_max_power(Mtilde, A, tol=1e-10, warm_start=None, seed=0,
                     max_iter=100000):
    """Power iteration on Mtilde^-1 A with a Rayleigh-quotient stop.

    Converged when successive Rayleigh quotients agree to relative `tol`;
    a warm start with the previous eigenvector makes a single iteration
    sufficient.  Raises after `max_iter` iterations.  The result is not
    certified; reports use `lambda_max_exact` or `lambda_max_lanczos`.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    solve = _Pencil(Mtilde, A).mass_solver()
    if warm_start is not None:
        v = np.asarray(warm_start, dtype=float).copy()
    else:
        v = np.random.default_rng(seed).standard_normal(A.shape[0])
    nrm = math.sqrt(v @ (Mtilde @ v))
    if nrm <= 0.0:
        raise ValueError("zero start vector")
    v /= nrm
    rho_prev = float(v @ (A @ v))
    for it in range(1, max_iter + 1):
        w = solve(A @ v)
        nrm = math.sqrt(w @ (Mtilde @ w))
        if nrm <= 0.0:
            raise ValueError("power iteration hit a zero vector")
        v = w / nrm
        rho = float(v @ (A @ v))
        if abs(rho - rho_prev) <= tol * abs(rho):
            return EigEstimate(value=rho, method=f"power(tol={tol:g},it={it})",
                               residual=abs(rho - rho_prev) / abs(rho))
        rho_prev = rho
    raise RuntimeError(f"power iteration did not converge within "
                       f"{max_iter} iterations (last {rho_prev:g})")


# ----------------------------------------------------------------------
# Computable bounds

DiagRatioBound = namedtuple(
    "DiagRatioBound", ["lower", "upper", "argmax_node"])

GeometricBound = namedtuple(
    "GeometricBound", ["value", "argmax_node", "nonobtuse"])

MUniformBound = namedtuple(
    "MUniformBound", ["value", "max_product_norm", "max_q_m", "argmax_node"])

ZhuDuBound = namedtuple(
    "ZhuDuBound", ["lower", "upper", "c1", "p_max", "argmax_element"])

ShewchukBound = namedtuple(
    "ShewchukBound", ["lower", "upper", "p_max", "argmax_element"])


def diag_ratio_bound(Mtilde, A, cstar):
    """Diagonal bracket: max_i A_ii/M_ii <= lambda_max <= cstar * max.

    Also reports the system index attaining the max; 1 / lower is the
    min_i M_ii/A_ii of the computable time step.
    """
    dm = Mtilde.diagonal()
    da = A.diagonal()
    if (dm <= 0.0).any() or (da <= 0.0).any():
        raise ValueError("nonpositive diagonal entry")
    ratio = da / dm
    i = int(np.argmax(ratio))
    lower = float(ratio[i])
    return DiagRatioBound(lower=lower, upper=cstar * lower, argmax_node=i)


def _free_patch_max(ctx, per_element):
    """(value, node): the largest over free nodes i of the patch average
    sum_{K in omega_i} |K| x_K / |omega_i|, and the mesh node attaining it."""
    mesh, free = ctx.mesh, ctx.dofmap.free
    num = patch_sums(mesh, mesh.volumes() * per_element)
    free_vals = (num / ctx.patches.volumes)[free]
    j = int(np.argmax(free_vals))
    return float(free_vals[j]), int(free[j])


def geometric_bound(ctx, lumped=False):
    """Patch-geometry upper bound on lambda_max for the problem `ctx`.

    lambda_max <= C* C# max over free i of
    sum_{K in omega_i} (|K|/|omega_i|) ||F'^-1 D_K F'^-T||_2,
    with C# = c_grad (d+1)(d+2)/2.  The same number can be written through
    the quality measure Q_D(K) = h_{D^-1}^2 ||F'^-1 D_K F'^-T||_2 as
    C* C# h^-2 max_i sum (|K|/|omega_i|) Q_D(K).
    """
    d = ctx.mesh.dim
    value, node = _free_patch_max(ctx, ctx.alignment)
    value = c_star(d, lumped, ctx.nonobtuse) * c_sharp(d) * value
    return GeometricBound(value=value, argmax_node=node,
                          nonobtuse=ctx.nonobtuse)


def muniform_bound(ctx, metric_ctx, lumped=False):
    """Metric-matching upper bound on lambda_max for the problem `ctx`.

    lambda_max <= C* C# h_M^-2 max over free i of
    sum_{K in omega_i} (|K|/|omega_i|) ||M_K D_K||_2 (spectral radius of
    the product, via the Cholesky similarity L^T D L), where M is the
    field of `metric_ctx`, a context on the same mesh.  Valid as an upper
    bound when the mesh is uniform for the metric M; max_q_m is reported
    as the validity indicator.
    """
    if metric_ctx.mesh is not ctx.mesh:
        raise ValueError("metric context built for another mesh")
    d = ctx.mesh.dim
    L = metric_ctx.map_Dk(np.linalg.cholesky)
    prod_norm = _max_sandwich_eig(np.swapaxes(L, 1, 2), ctx.Dk)

    summary = mesh_quality_summary(metric_ctx)
    value, node = _free_patch_max(ctx, prod_norm)
    cst = c_star(d, lumped, ctx.nonobtuse)
    value = cst * c_sharp(d) / summary.h_global ** 2 * value
    return MUniformBound(value=value,
                         max_product_norm=float(prod_norm.max()),
                         max_q_m=summary.max_q_m, argmax_node=node)


def zhu_du_bound(ctx):
    """Face-volume bracket for the full-mass pencil of `ctx` (d >= 2).

    Z_K = ((d+1)/d^2) sum_i |V_i|^2 / |K|^2 over the faces V_i of K,
    computed as (d+1) sum_i |grad(phi_i)|^2 from the context's basis
    gradients: the face opposite vertex i has |V_i| = d |K| |grad(phi_i)|.
    upper = (d+2) max_K lmax(D_K) Z_K and
    lower = max_K lmin(D_K) Z_K / (d (1 + c1 p_max (d+2))), where c1 is
    the largest volume ratio of two elements sharing a face and p_max the
    largest patch count.
    """
    mesh = ctx.mesh
    d = mesh.dim
    if d < 2:
        raise ValueError("the face-volume bracket is defined for d >= 2")
    patches = ctx.patches
    ev = ctx.map_Dk(np.linalg.eigvalsh)
    zk = (d + 1) * np.einsum("nid,nid->n", ctx.grads, ctx.grads)

    upper_vals = ev[:, -1] * zk
    k_up = int(np.argmax(upper_vals))
    upper = (d + 2) * float(upper_vals[k_up])
    c1 = ctx.face_volume_ratio
    lower = float(np.max(ev[:, 0] * zk)) / (d * (1.0 + c1 * patches.p_max
                                                 * (d + 2)))
    return ZhuDuBound(lower=lower, upper=upper, c1=c1,
                      p_max=patches.p_max, argmax_element=k_up)


def shewchuk_bound(ctx, m_lump=None):
    """Lumped-mass face bracket for the problem `ctx` (d >= 2).

    S_K = (1/d^2) sum over vertices i of K of
    (|K| / Mlump_ii) |V_i|_{D^-1}^2 / |K|_{D^-1}^2, with face volumes
    measured in D_K^-1 and |K|_{D^-1} = |K| det(D_K)^{-1/2}.  Then
    (1/d) max_K S_K <= lambda_max <= p_max max_K S_K.  In the metric
    D_K^-1 the face opposite vertex i has
    |V_i|_{D^-1} / |K|_{D^-1} = d |D_K^{1/2} grad(phi_i)|, so
    S_K = sum_i A^K_ii / Mlump_ii is computed from the diagonal of the
    context's element stiffness matrices A^K: the element-local form of
    the ratio A_ii / M_ii of `diag_ratio_bound`.

    The lumped diagonal is the geometric patch sums sum |K|/(d+1); a
    vector `m_lump` over the free nodes (any lumping convention) replaces
    them there, while Dirichlet vertices keep the patch sums.

    Known defect: the lower end is not a lower bound of the
    Dirichlet-eliminated pencil when the maximizing element has Dirichlet
    vertices.  The element eigenvector extended by zero is then not an
    admissible test vector, and the terms of those vertices inflate S_K:
    on a 2x2 grid with its interior node at (0.529, 0.504), the identity
    field and the lumped mass, the lower end is 16.10 and lambda_max 16.03.
    """
    mesh = ctx.mesh
    d = mesh.dim
    if d < 2:
        raise ValueError("the lumped face bracket is defined for d >= 2")
    patches = ctx.patches
    mfull = patch_sums(mesh, mesh.volumes() / (d + 1))
    if m_lump is not None:
        vec = np.asarray(m_lump, dtype=float)
        if vec.ndim != 1:
            raise ValueError("lumped diagonal must be a vector")
        dof = ctx.dofmap
        if len(vec) != dof.n_free:
            raise ValueError("lumped diagonal has wrong length")
        mfull[dof.free] = vec
    if (mfull <= 0.0).any():
        raise ValueError("nonpositive lumped mass entry")

    ak = np.diagonal(ctx.element_stiffness, axis1=1, axis2=2)  # (ne, d+1)
    sk = (ak / mfull[mesh.elements]).sum(axis=1)
    k_max = int(np.argmax(sk))
    smax = float(sk[k_max])
    return ShewchukBound(lower=smax / d, upper=patches.p_max * smax,
                         p_max=patches.p_max, argmax_element=k_max)


# ----------------------------------------------------------------------
# Reports


@dataclass
class StabilityReport:
    """All step-size quantities of one mesh / field / mass combination.

    The steps of an s-stage scheme, divided by s^2, are
    tau_max_over_s2 = 2 / lambda_exact, the exact one, and
    tau_h_over_s2 = (2 / c_star) min_i M_ii/A_ii, the computable one.
    """
    mesh_id: str
    n_elements: int
    n_free: int
    mass_kind: str
    lumped: bool
    nonobtuse: bool
    c_star: float
    s: int
    method: str
    lambda_exact: float
    lambda_diag_lower: float
    lambda_diag_upper: float
    lambda_geo: float
    lambda_zhudu_lower: float | None
    lambda_zhudu_upper: float | None
    lambda_shewchuk_lower: float | None
    lambda_shewchuk_upper: float | None
    tau_max_over_s2: float
    tau_h_over_s2: float
    argmin_node: int

    def to_json(self, **kwargs):
        return json.dumps(asdict(self), **kwargs)

    @property
    def ratio(self):
        return self.tau_max_over_s2 / self.tau_h_over_s2

    def method_rows(self):
        """(method, tau_h_over_s2, ratio) per upper bound: diag and geo,
        then zhudu and shewchuk when d >= 2."""
        rows = [("diag", self.tau_h_over_s2, self.ratio)]
        for name, lam in (("geo", self.lambda_geo),
                          ("zhudu", self.lambda_zhudu_upper),
                          ("shewchuk", self.lambda_shewchuk_upper)):
            if lam is not None:
                th = 2.0 / lam
                rows.append((name, th, self.tau_max_over_s2 / th))
        return rows


def stability_report(mesh, field, mass_kind="full", s=1, quad_order=4,
                     lanczos_steps=None, mesh_id="", context=None):
    """Assemble, solve and bound one configuration; returns StabilityReport.

    `mass_kind` selects the surrogate mass: "full", "lumped" (full-space
    row sums) or "lumped_rowsum" (row sums of the eliminated mass matrix).
    lambda_max comes from the certified sparse solve (`lambda_max_exact`)
    or, when `lanczos_steps` is a step count, from `lambda_max_lanczos`.
    Every report evaluates the diagonal bracket and the geometric bound,
    and for d >= 2 both face brackets.
    `context`, a `ProblemContext` of (mesh, field, quad_order), lets
    several reports on one problem share its averages and operators; by
    default the report builds its own.
    """
    if s < 1:
        raise ValueError("stage count must be >= 1")
    ctx = _problem_context(mesh, field, quad_order, context)
    dof, A = ctx.dofmap, ctx.A
    Mt = ctx.mass_tilde(mass_kind)
    lumped = mass_kind != "full"

    nonobtuse = ctx.nonobtuse
    cst = c_star(mesh.dim, lumped, nonobtuse)

    if lanczos_steps is None:
        est = lambda_max_exact(Mt, A)
    else:
        est = lambda_max_lanczos(Mt, A, steps=lanczos_steps)

    diag = diag_ratio_bound(Mt, A, cst)

    lam_geo = geometric_bound(ctx, lumped=lumped).value
    zd_lo = zd_up = sh_lo = sh_up = None
    if mesh.dim >= 2:
        zd = zhu_du_bound(ctx)
        zd_lo, zd_up = zd.lower, zd.upper
        sh = shewchuk_bound(ctx, m_lump=Mt.diagonal() if lumped else None)
        sh_lo, sh_up = sh.lower, sh.upper

    return StabilityReport(
        mesh_id=mesh_id, n_elements=mesh.num_elements, n_free=dof.n_free,
        mass_kind=mass_kind, lumped=lumped, nonobtuse=nonobtuse,
        c_star=cst, s=s, method=est.method,
        lambda_exact=est.value,
        lambda_diag_lower=diag.lower, lambda_diag_upper=diag.upper,
        lambda_geo=lam_geo,
        lambda_zhudu_lower=zd_lo, lambda_zhudu_upper=zd_up,
        lambda_shewchuk_lower=sh_lo, lambda_shewchuk_upper=sh_up,
        tau_max_over_s2=2.0 / est.value,
        tau_h_over_s2=(2.0 / cst) * (1.0 / diag.lower),
        argmin_node=int(dof.free[diag.argmax_node]),
    )
