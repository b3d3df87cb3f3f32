"""Largest eigenvalue of the pencil (A, Mtilde) and computable bounds.

For the P1 diffusion system, the largest permissible explicit step of an
s-stage first-order Chebyshev scheme is tau_max = 2 s^2 / lambda_max.
This module computes lambda_max exactly (sparse shift-invert, certified by
Sylvester inertia) or iteratively (Lanczos, power method) and evaluates the
computable surrogates: the diagonal-ratio bracket with its sharp constant
C*, the patch-geometry upper bound, the metric-matching bound, and the
comparison estimates based on face volumes (with and without lumped-mass
weighting).
"""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .assembly import (ProblemContext, SparseSymMatrix, _problem_context,
                       assemble_lumped, diag_of, row_sum_lumping)
from .quality import is_nonobtuse_wrt

LANCZOS_MAX_STEPS = 50
SHIFT_LANCZOS_STEPS = 10      # Lanczos steps behind the first shift
SHIFT_START = 1.02            # first shift = SHIFT_START * Ritz value
SHIFT_GROWTH = 1.1            # shift growth until sigma Mt - A is SPD
EIGSH_TOL = 1e-10
CERT_RTOL = 1e-10             # certified: (1 + CERT_RTOL) rho > lambda_max
CERT_ATTEMPTS = 4
EXHAUSTED_N = 20              # up to this n, Lanczos spans the whole space


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


@dataclass(frozen=True)
class EigEstimate:
    """An eigenvalue with its provenance.  `shift`, `solves` and
    `certified` describe the certified sparse solve (shift-invert shift,
    linear solves with it, inertia certificate); estimates leave them at
    None, 0 and False."""
    value: float
    method: str
    residual: float
    shift: float | None = None
    solves: int = 0
    certified: bool = False

    def __float__(self):
        return self.value


def _lam_value(lam):
    return lam.value if isinstance(lam, EigEstimate) else float(lam)


# ----------------------------------------------------------------------
# Exact and iterative eigenvalue computation


def _mass_solver(Mtilde):
    """Exact solver for Mtilde: diagonal division or sparse LU."""
    if Mtilde.is_diagonal():
        dm = Mtilde.diagonal()
        if (dm <= 0.0).any():
            raise ValueError("nonpositive diagonal in mass matrix")
        return lambda b: b / dm
    lu = spla.splu(Mtilde.to_scipy().tocsc())
    return lu.solve


def _spd_factor(K):
    """Sparse LU of the symmetric matrix K, or None if K is not SPD.

    The factorization pivots on the diagonal only (symmetric ordering,
    zero pivot threshold), so U's diagonal holds the pivots of an LDL^T
    factorization and, by Sylvester's law of inertia, K is positive
    definite exactly when no off-diagonal pivot was taken and every pivot
    is positive.
    """
    try:
        lu = spla.splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:                 # exactly singular
        return None
    except MemoryError as exc:
        raise ValueError(f"sparse factorization of an n = {K.shape[0]} "
                         "matrix ran out of memory") from exc
    if np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0.0).all():
        return lu
    return None


def _lanczos(Mtilde, A, solve, steps, seed):
    """Top Ritz pair of `steps` Lanczos iterations in the Mtilde inner
    product, with full reorthogonalization from a seeded random start.

    Returns (theta, ritz vector, residual estimate, steps taken).
    Premature breakdown restarts with a fresh seed, at most 3 times.
    """
    n = A.n
    for restart in range(4):
        rng = np.random.default_rng(seed + 1000 * restart)
        q = rng.standard_normal(n)
        mq = Mtilde.matvec(q)
        nrm = math.sqrt(q @ mq)
        if nrm <= 0.0:
            continue
        q, mq = q / nrm, mq / nrm
        Q, MQ = [q], [mq]
        alphas, betas = [], []
        exhausted = False
        for _ in range(steps):
            aq = A.matvec(Q[-1])
            w = solve(aq)
            alpha = float(Q[-1] @ aq)
            alphas.append(alpha)
            w = w - alpha * Q[-1]
            if len(Q) > 1:
                w = w - betas[-1] * Q[-2]
            # full reorthogonalization against the whole basis
            for qi, mqi in zip(Q, MQ):
                w = w - (w @ mqi) * qi
            mw = Mtilde.matvec(w)
            beta = math.sqrt(max(w @ mw, 0.0))
            scale = max(abs(a) for a in alphas)
            if beta <= 1e-13 * max(scale, 1e-300):
                exhausted = True
                break
            betas.append(beta)
            Q.append(w / beta)
            MQ.append(mw / beta)
        if not alphas:
            continue
        if exhausted and len(alphas) < steps and restart < 3:
            # premature breakdown: an invariant subspace was hit before the
            # requested step count; try a different start vector
            continue
        k = len(alphas)
        tvals, tvecs = sla.eigh_tridiagonal(np.array(alphas),
                                            np.array(betas[:k - 1]))
        theta = float(tvals[-1])
        beta_last = betas[-1] if len(betas) >= k else 0.0
        resid = abs(beta_last * tvecs[-1, -1]) / max(abs(theta), 1e-300)
        x = np.column_stack(Q[:k]) @ tvecs[:, -1]
        return theta, x, resid, k
    raise ValueError("Lanczos broke down on every restart "
                     "(zero Krylov vectors)")


def _rayleigh(Mtilde, A, x):
    """(rho, x, residual) with x scaled to unit Mtilde-norm and the relative
    residual ||A x - rho Mt x|| / (rho ||Mt x||)."""
    mx = Mtilde.matvec(x)
    nrm = math.sqrt(x @ mx)
    x, mx = x / nrm, mx / nrm
    ax = A.matvec(x)
    rho = float(x @ ax)
    resid = float(np.linalg.norm(ax - rho * mx)
                  / (abs(rho) * np.linalg.norm(mx)))
    return rho, x, resid


def _certified(Mtilde, A, rho):
    """True when rho (1 + CERT_RTOL) Mt - A is SPD, i.e. rho is within
    CERT_RTOL of the top of the spectrum from below."""
    sigma = rho * (1.0 + CERT_RTOL)
    return _spd_factor(sigma * Mtilde.to_scipy() - A.to_scipy()) is not None


def _shift_invert(Mtilde, A, sigma, seed):
    """One shift-invert ARPACK solve from a shift raised until sigma Mt - A
    is SPD (so above lambda_max); returns (sigma, x, solves), with x None
    when ARPACK fails."""
    Ms, As = Mtilde.to_scipy(), A.to_scipy()
    # terminates: Mt is SPD, so sigma Mt - A is SPD once sigma > lambda_max
    lu = _spd_factor(sigma * Ms - As)
    while lu is None:
        sigma *= SHIFT_GROWTH
        lu = _spd_factor(sigma * Ms - As)

    solves = 0

    def op_inv(b):
        nonlocal solves
        solves += 1
        return -lu.solve(b)

    n = A.n
    v0 = np.random.default_rng(seed).standard_normal(n)
    opinv = spla.LinearOperator((n, n), matvec=op_inv, dtype=float)
    try:
        _, vecs = spla.eigsh(As, k=1, M=Ms, sigma=sigma, which="LM",
                             OPinv=opinv, tol=EIGSH_TOL, v0=v0)
    except spla.ArpackError:              # no convergence included
        return sigma, None, solves
    return sigma, vecs[:, 0], solves


def _top_eigpair(Mtilde, A):
    """Certified top eigenpair of the pencil (A, Mtilde).

    Checks that Mtilde and A are SPD by their inertia, then runs ARPACK in
    shift-invert mode at a shift above lambda_max (a Lanczos Ritz value,
    raised until sigma Mt - A is SPD; n <= EXHAUSTED_N uses Lanczos on the
    whole space instead).  The returned Rayleigh quotient rho is a lower
    bound for lambda_max; it is certified by the inertia of
    rho (1 + CERT_RTOL) Mt - A.  Failed certificates retry with a new start
    vector and a tighter shift; the last failure raises ValueError.
    """
    n = A.n
    if n != Mtilde.n:
        raise ValueError("dimension mismatch")
    if Mtilde.is_diagonal():
        solve = _mass_solver(Mtilde)
    else:
        lu_m = _spd_factor(Mtilde.to_scipy())
        if lu_m is None:
            raise ValueError("mass matrix has a nonpositive eigenvalue")
        solve = lu_m.solve
    if _spd_factor(A.to_scipy()) is None:
        raise ValueError("pencil has a nonpositive eigenvalue; "
                         "A is not positive definite")

    solves = 0
    sigma = None
    if n > EXHAUSTED_N:
        theta = _lanczos(Mtilde, A, solve, SHIFT_LANCZOS_STEPS, 0)[0]
        sigma = SHIFT_START * theta
    for seed in range(CERT_ATTEMPTS):
        if sigma is None:
            x = _lanczos(Mtilde, A, solve, n, seed)[1]
        else:
            sigma, x, used = _shift_invert(Mtilde, A, sigma, seed)
            solves += used
            if x is None:
                continue
        rho, x, resid = _rayleigh(Mtilde, A, x)
        if _certified(Mtilde, A, rho):
            break
        if sigma is not None:
            # a shift nearer rho separates the top eigenvalue better; it is
            # raised again if it fell below lambda_max
            sigma = rho + 0.25 * (sigma - rho)
    else:
        raise ValueError(f"no certified lambda_max after {CERT_ATTEMPTS} "
                         "attempts")
    if sigma is None:
        method = f"lanczos-exhausted(steps={n},certified)"
    else:
        method = (f"shift-invert(shift={sigma:.6g},solves={solves},"
                  "certified)")
    est = EigEstimate(value=rho, method=method, residual=resid, shift=sigma,
                      solves=solves, certified=True)
    return est, x


def lambda_max_exact(Mtilde, A):
    """Largest eigenvalue of the pencil (A, Mtilde), inertia-certified.

    Sparse shift-invert solve; see `_top_eigpair`.  Raises ValueError when
    the pencil is not SPD or no certificate is found.
    """
    return _top_eigpair(Mtilde, A)[0]


def max_eigvec_exact(Mtilde, A):
    """(lambda_max, eigenvector scaled to unit Mtilde-norm), certified."""
    est, x = _top_eigpair(Mtilde, A)
    return est.value, x


def lambda_max_lanczos(Mtilde, A, steps=5, seed=2, security=1.1):
    """Lanczos estimate of lambda_max with a multiplicative security factor.

    Runs `steps` iterations in the Mtilde inner product with full
    reorthogonalization from a seeded random start, then multiplies the
    top Ritz value by `security` (i.e. the induced time step is divided
    by it).  Breakdown restarts with a fresh seed, at most 3 times.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if steps > LANCZOS_MAX_STEPS:
        raise ValueError(f"at most {LANCZOS_MAX_STEPS} steps supported")
    theta, _, resid, taken = _lanczos(Mtilde, A, _mass_solver(Mtilde),
                                      min(steps, A.n), seed)
    method = f"lanczos(steps={taken},seed={seed},security={security:g})"
    return EigEstimate(value=security * theta, method=method, residual=resid)


def lambda_max_power(Mtilde, A, tol=1e-10, warm_start=None, seed=0,
                     max_iter=100000):
    """Power iteration on Mtilde^-1 A with a Rayleigh-quotient stop.

    Converged when successive Rayleigh quotients agree to relative `tol`;
    a warm start with the previous eigenvector makes a single iteration
    sufficient.  Raises after `max_iter` iterations.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = A.n
    solve = _mass_solver(Mtilde)
    if warm_start is not None:
        v = np.asarray(warm_start, dtype=float).copy()
    else:
        v = np.random.default_rng(seed).standard_normal(n)
    nrm = math.sqrt(v @ Mtilde.matvec(v))
    if nrm <= 0.0:
        raise ValueError("zero start vector")
    v /= nrm
    rho_prev = float(v @ A.matvec(v))
    for it in range(1, max_iter + 1):
        w = solve(A.matvec(v))
        nrm = math.sqrt(w @ Mtilde.matvec(w))
        if nrm <= 0.0:
            raise ValueError("power iteration hit a zero vector")
        v = w / nrm
        rho = float(v @ A.matvec(v))
        if abs(rho - rho_prev) <= tol * abs(rho):
            return EigEstimate(value=rho, method=f"power(tol={tol:g},it={it})",
                               residual=abs(rho - rho_prev) / abs(rho))
        rho_prev = rho
    raise RuntimeError(f"power iteration did not converge within "
                       f"{max_iter} iterations (last {rho_prev:g})")


# ----------------------------------------------------------------------
# Computable bounds

DiagRatioBound = namedtuple(
    "DiagRatioBound", ["lower", "upper", "argmax_node", "min_ratio"])

GeometricBound = namedtuple(
    "GeometricBound", ["value", "argmax_node", "value_quality_form",
                       "nonobtuse"])

MUniformBound = namedtuple(
    "MUniformBound", ["value", "max_product_norm", "max_q_m", "argmax_node"])

ZhuDuBound = namedtuple(
    "ZhuDuBound", ["lower", "upper", "c1", "p_max", "argmax_element"])

ShewchukBound = namedtuple(
    "ShewchukBound", ["lower", "upper", "p_max", "argmax_element"])

TauValues = namedtuple(
    "TauValues", ["tau_max_over_s2", "tau_h_over_s2", "tau_max", "tau_h"])


def diag_ratio_bound(Mtilde, A, cstar):
    """Diagonal bracket: max_i A_ii/M_ii <= lambda_max <= cstar * max.

    Also reports the system index attaining the max and the reciprocal
    min_i M_ii/A_ii entering the computable time step.
    """
    dm = diag_of(Mtilde)
    da = diag_of(A)
    if (dm <= 0.0).any() or (da <= 0.0).any():
        raise ValueError("nonpositive diagonal entry")
    ratio = da / dm
    i = int(np.argmax(ratio))
    lower = float(ratio[i])
    return DiagRatioBound(lower=lower, upper=cstar * lower, argmax_node=i,
                          min_ratio=1.0 / lower)


def tau_values(lam, s, cstar, min_ratio):
    """Exact and computable steps for an s-stage scheme, rescaled by s^-2.

    tau_max = 2 s^2 / lambda; tau_h = (2 s^2 / cstar) min_i M_ii/A_ii.
    """
    lam = _lam_value(lam)
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if s < 1:
        raise ValueError("stage count must be >= 1")
    tm = 2.0 / lam
    th = (2.0 / cstar) * min_ratio
    return TauValues(tau_max_over_s2=tm, tau_h_over_s2=th,
                     tau_max=s * s * tm, tau_h=s * s * th)


def _patch_average(mesh, patches, per_element):
    """Per-node sum over the patch of |K| x_K / |omega_i|."""
    d1 = mesh.dim + 1
    weights = np.repeat(mesh.volumes() * per_element, d1)
    num = np.bincount(mesh.elements.ravel(), weights=weights,
                      minlength=mesh.num_nodes)
    return num / patches.volumes


def _alignment_norms(ctx):
    """Per-element ||F'^-1 D_K F'^-T||_2 with the unit-volume reference."""
    Finv = ctx.reference_map_inverses
    S = Finv @ ctx.Dk @ np.swapaxes(Finv, 1, 2)
    return np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, 1, 2)))[:, -1]


def geometric_bound(mesh, field, lumped=False, quad_order=4, nonobtuse=None,
                    A=None, context=None):
    """Patch-geometry upper bound on lambda_max.

    lambda_max <= C* C# max over free i of
    sum_{K in omega_i} (|K|/|omega_i|) ||F'^-1 D_K F'^-T||_2,
    with C# = c_grad (d+1)(d+2)/2.  The same number can be written through
    the quality measure Q_D(K) = h_{D^-1}^2 ||F'^-1 D_K F'^-T||_2 as
    C* C# h^-2 max_i sum (|K|/|omega_i|) Q_D(K); both forms are returned
    and agree to rounding.  `context` is an optional `ProblemContext` of
    (mesh, field, quad_order); A defaults to its stiffness matrix.
    """
    d = mesh.dim
    ctx = _problem_context(mesh, field, quad_order, context)
    dof = ctx.dofmap
    if nonobtuse is None:
        nonobtuse = is_nonobtuse_wrt(mesh, field, ctx.A if A is None else A)
    norms = _alignment_norms(ctx)
    patches = ctx.patches

    per_node = _patch_average(mesh, patches, norms)
    free_vals = per_node[dof.free]
    j = int(np.argmax(free_vals))
    cst = c_star(d, lumped, nonobtuse)
    value = cst * c_sharp(d) * float(free_vals[j])

    h = ctx.inverse.quality.h_global
    qd_per_node = _patch_average(mesh, patches, h * h * norms)
    value_qd = cst * c_sharp(d) / (h * h) * float(qd_per_node[dof.free].max())

    return GeometricBound(value=value, argmax_node=int(dof.free[j]),
                          value_quality_form=value_qd, nonobtuse=nonobtuse)


def muniform_bound(mesh, metric, field, lumped=False, quad_order=4,
                   nonobtuse=None, A=None):
    """Metric-matching upper bound on lambda_max.

    lambda_max <= C* C# h_M^-2 max over free i of
    sum_{K in omega_i} (|K|/|omega_i|) ||M_K D_K||_2 (spectral radius of
    the product, via the Cholesky similarity L^T D L).  Valid as an upper
    bound when the mesh is uniform for the metric M; max_q_m is reported
    as the validity indicator.
    """
    d = mesh.dim
    ctx = ProblemContext(mesh, field, quad_order)
    dof = ctx.dofmap
    if nonobtuse is None:
        nonobtuse = is_nonobtuse_wrt(mesh, field, ctx.A if A is None else A)
    metric_ctx = ProblemContext(mesh, metric, quad_order)
    L = np.linalg.cholesky(metric_ctx.Dk)
    B = np.swapaxes(L, 1, 2) @ ctx.Dk @ L
    prod_norm = np.linalg.eigvalsh(0.5 * (B + np.swapaxes(B, 1, 2)))[:, -1]

    summary = metric_ctx.quality
    per_node = _patch_average(mesh, ctx.patches, prod_norm)
    free_vals = per_node[dof.free]
    j = int(np.argmax(free_vals))
    cst = c_star(d, lumped, nonobtuse)
    value = cst * c_sharp(d) / summary.h_global ** 2 * float(free_vals[j])
    return MUniformBound(value=value,
                         max_product_norm=float(prod_norm.max()),
                         max_q_m=summary.max_q_m,
                         argmax_node=int(dof.free[j]))


def _face_volumes_sq(mesh, weight=None):
    """(ne, d+1) squared (d-1)-volumes of the faces opposite each vertex.

    With `weight` (ne, d, d) the face edge vectors are measured in that
    per-element metric (Gram determinant under W).
    """
    d = mesh.dim
    p = mesh.nodes[mesh.elements]
    ne = mesh.num_elements
    out = np.empty((ne, d + 1))
    for i in range(d + 1):
        others = [j for j in range(d + 1) if j != i]
        if d == 2:
            e = p[:, others[1]] - p[:, others[0]]
            if weight is None:
                out[:, i] = np.einsum("ni,ni->n", e, e)
            else:
                out[:, i] = np.einsum("ni,nij,nj->n", e, weight, e)
        else:
            u = p[:, others[1]] - p[:, others[0]]
            v = p[:, others[2]] - p[:, others[0]]
            if weight is None:
                uu = np.einsum("ni,ni->n", u, u)
                vv = np.einsum("ni,ni->n", v, v)
                uv = np.einsum("ni,ni->n", u, v)
            else:
                uu = np.einsum("ni,nij,nj->n", u, weight, u)
                vv = np.einsum("ni,nij,nj->n", v, weight, v)
                uv = np.einsum("ni,nij,nj->n", u, weight, v)
            out[:, i] = 0.25 * (uu * vv - uv * uv)
    return np.maximum(out, 0.0)


def _volume_ratio_c1(mesh, mode="face"):
    """Largest volume ratio between neighboring elements.

    "face" pairs elements sharing a (d-1)-face; "vertex" compares within
    each node patch.  Returns 1.0 when no pair exists.
    """
    vols = mesh.volumes()
    if mode == "vertex":
        flat = mesh.elements.ravel()
        d1 = mesh.dim + 1
        rep = np.repeat(vols, d1)
        vmax = np.full(mesh.num_nodes, -np.inf)
        vmin = np.full(mesh.num_nodes, np.inf)
        np.maximum.at(vmax, flat, rep)
        np.minimum.at(vmin, flat, rep)
        ok = np.isfinite(vmax)
        return float(np.max(vmax[ok] / vmin[ok]))
    if mode != "face":
        raise ValueError(f"unknown neighbor mode {mode!r}")
    # face i of element k, as a sorted vertex tuple, is row k*d1 + i; a
    # stable sort groups equal faces in element order, and the 2nd, 4th, ...
    # element of a group is paired with the one before it
    d1 = mesh.dim + 1
    el = np.sort(mesh.elements, axis=1)
    faces = np.stack([np.delete(el, i, axis=1) for i in range(d1)],
                     axis=1).reshape(-1, d1 - 1)
    order = np.lexsort(faces.T[::-1])
    sorted_faces = faces[order]
    pos = np.arange(len(order))
    new = np.ones(len(order), dtype=bool)
    new[1:] = (sorted_faces[1:] != sorted_faces[:-1]).any(axis=1)
    rank = pos - np.maximum.accumulate(np.where(new, pos, 0))
    second = np.flatnonzero(rank % 2 == 1)
    if not len(second):
        return 1.0
    r = vols[order[second] // d1] / vols[order[second - 1] // d1]
    return float(max(1.0, r.max(), (1.0 / r).max()))


def zhu_du_bound(mesh, field, quad_order=4, neighbor_mode="face",
                 context=None):
    """Face-volume bracket for the full-mass pencil (d >= 2).

    Z_K = ((d+1)/d^2) sum_i |V_i|^2 / |K|^2 over the faces of K;
    upper = (d+2) max_K lmax(D_K) Z_K and
    lower = max_K lmin(D_K) Z_K / (d (1 + c1 p_max (d+2))), where c1 is
    the largest neighbor volume ratio and p_max the largest patch count.
    `context` is an optional `ProblemContext` of (mesh, field, quad_order).
    """
    d = mesh.dim
    if d < 2:
        raise ValueError("the face-volume bracket is defined for d >= 2")
    ctx = _problem_context(mesh, field, quad_order, context)
    patches = ctx.patches
    ev = np.linalg.eigvalsh(ctx.Dk)
    vols = mesh.volumes()
    zk = ((d + 1) / d ** 2) * _face_volumes_sq(mesh).sum(axis=1) / vols ** 2

    upper_vals = ev[:, -1] * zk
    k_up = int(np.argmax(upper_vals))
    upper = (d + 2) * float(upper_vals[k_up])
    c1 = _volume_ratio_c1(mesh, neighbor_mode)
    lower = float(np.max(ev[:, 0] * zk)) / (d * (1.0 + c1 * patches.p_max
                                                 * (d + 2)))
    return ZhuDuBound(lower=lower, upper=upper, c1=c1,
                      p_max=patches.p_max, argmax_element=k_up)


def shewchuk_bound(mesh, field, m_lump=None, quad_order=4, context=None):
    """Lumped-mass face bracket (d >= 2).

    S_K = (1/d^2) sum over vertices i of K of
    (|K| / Mlump_ii) |V_i|_{D^-1}^2 / |K|_{D^-1}^2, with face volumes
    measured in D_K^-1 and |K|_{D^-1} = |K| det(D_K)^{-1/2}.  Then
    (1/d) max_K S_K <= lambda_max <= p_max max_K S_K.

    `m_lump` supplies the lumped diagonal over the free nodes (any
    lumping convention); entries at Dirichlet vertices always use the
    geometric patch sums sum |K|/(d+1).  `context` is an optional
    `ProblemContext` of (mesh, field, quad_order).
    """
    d = mesh.dim
    if d < 2:
        raise ValueError("the lumped face bracket is defined for d >= 2")
    ctx = _problem_context(mesh, field, quad_order, context)
    patches = ctx.patches
    vols = mesh.volumes()
    d1 = d + 1

    mfull = np.bincount(mesh.elements.ravel(),
                        weights=np.repeat(vols / d1, d1),
                        minlength=mesh.num_nodes)
    if m_lump is not None:
        vec = diag_of(m_lump)
        if len(vec) == mesh.num_nodes:
            mfull = np.asarray(vec, dtype=float)
        else:
            dof = ctx.dofmap
            if len(vec) != dof.n_free:
                raise ValueError("lumped diagonal has wrong length")
            mfull = mfull.copy()
            mfull[dof.free] = vec
    if (mfull <= 0.0).any():
        raise ValueError("nonpositive lumped mass entry")

    Dk = ctx.Dk
    W = np.linalg.inv(Dk)
    vol_dinv_sq = vols ** 2 / np.linalg.det(Dk)
    faces_sq = _face_volumes_sq(mesh, weight=W)
    minv = 1.0 / mfull[mesh.elements]                     # (ne, d+1)
    sk = (vols[:, None] * minv * faces_sq).sum(axis=1) \
        / (d ** 2 * vol_dinv_sq)
    k_max = int(np.argmax(sk))
    smax = float(sk[k_max])
    return ShewchukBound(lower=smax / d, upper=patches.p_max * smax,
                         p_max=patches.p_max, argmax_element=k_max)


# ----------------------------------------------------------------------
# Reports


@dataclass
class StabilityReport:
    """All step-size quantities of one mesh / field / mass combination."""
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
    lambda_geo: float | None
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
        """(method, tau_h_over_s2, ratio) per available upper bound."""
        rows = [("diag", self.tau_h_over_s2, self.ratio)]
        for name, lam in (("geo", self.lambda_geo),
                          ("zhudu", self.lambda_zhudu_upper),
                          ("shewchuk", self.lambda_shewchuk_upper)):
            if lam is not None:
                th = 2.0 / lam
                rows.append((name, th, self.tau_max_over_s2 / th))
        return rows


MASS_KINDS = ("full", "lumped", "lumped_rowsum")


def _mass_tilde(mesh, mass_kind, dof, M):
    if mass_kind == "full":
        return M
    if mass_kind == "lumped":
        return assemble_lumped(mesh, dof)
    if mass_kind == "lumped_rowsum":
        return row_sum_lumping(M)
    raise ValueError(f"unknown mass kind {mass_kind!r}; "
                     f"choices: {', '.join(MASS_KINDS)}")


def stability_report(mesh, field, mass_kind="full", s=1, quad_order=4,
                     method="exact", lanczos_steps=5, seed=2, security=1.1,
                     include=("diag", "geo", "zhudu", "shewchuk"),
                     mesh_id="", context=None):
    """Assemble, solve and bound one configuration; returns StabilityReport.

    `mass_kind` selects the surrogate mass: "full", "lumped" (full-space
    row sums) or "lumped_rowsum" (row sums of the eliminated mass matrix).
    `method` selects the eigenvalue computation: exact (the certified
    sparse solve; "dense" is accepted as an alias), lanczos or power.
    `context`, a `ProblemContext` of (mesh, field, quad_order), lets
    several reports on one problem share its averages and operators; by
    default the report builds its own.
    """
    ctx = _problem_context(mesh, field, quad_order, context)
    dof, A = ctx.dofmap, ctx.A
    Mt = _mass_tilde(mesh, mass_kind, dof, ctx.M)
    lumped = mass_kind != "full"

    nonobtuse = is_nonobtuse_wrt(mesh, field, A)
    cst = c_star(mesh.dim, lumped, nonobtuse)

    if method in ("exact", "dense"):
        est = lambda_max_exact(Mt, A)
    elif method == "lanczos":
        est = lambda_max_lanczos(Mt, A, steps=lanczos_steps, seed=seed,
                                 security=security)
    elif method == "power":
        est = lambda_max_power(Mt, A)
    else:
        raise ValueError(f"unknown eigenvalue method {method!r}")

    diag = diag_ratio_bound(Mt, A, cst)
    taus = tau_values(est, s, cst, diag.min_ratio)

    lam_geo = None
    if "geo" in include:
        lam_geo = geometric_bound(mesh, field, lumped=lumped,
                                  quad_order=quad_order, nonobtuse=nonobtuse,
                                  context=ctx).value
    zd_lo = zd_up = None
    if "zhudu" in include and mesh.dim >= 2:
        zd = zhu_du_bound(mesh, field, quad_order=quad_order, context=ctx)
        zd_lo, zd_up = zd.lower, zd.upper
    sh_lo = sh_up = None
    if "shewchuk" in include and mesh.dim >= 2:
        m_arg = Mt if lumped else None
        sh = shewchuk_bound(mesh, field, m_lump=m_arg, quad_order=quad_order,
                            context=ctx)
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
        tau_max_over_s2=taus.tau_max_over_s2,
        tau_h_over_s2=taus.tau_h_over_s2,
        argmin_node=int(dof.free[diag.argmax_node]),
    )


def write_report_csv(reports, path):
    """One CSV row per report and bound method, in a fixed column order."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["mesh_id", "n_elements", "mass_kind", "bound",
                         "tau_max_over_s2", "tau_h_over_s2", "ratio"])
        for rep in reports:
            for name, th, ratio in rep.method_rows():
                writer.writerow([rep.mesh_id, rep.n_elements, rep.mass_kind,
                                 name, repr(rep.tau_max_over_s2),
                                 repr(th), repr(ratio)])
