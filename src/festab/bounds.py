"""Largest eigenvalue of the pencil (A, Mtilde) and computable bounds.

For the P1 diffusion system, the largest permissible explicit step of an
s-stage first-order Chebyshev scheme is tau_max = 2 s^2 / lambda_max.
This module computes lambda_max exactly (Lanczos in shift-invert mode,
certified by an RCM-ordered banded Cholesky: K is SPD iff every pivot is
positive) or iteratively (few-step Lanczos, power method); one `_lanczos`
runs both Lanczos modes.  It also evaluates the computable
surrogates: the diagonal-ratio bracket with its sharp constant C*, the
patch-geometry upper bound, the metric-matching bound, and the comparison
estimates based on face volumes (with and without lumped-mass weighting).
Mtilde and A are symmetric `scipy.sparse` matrices of one size; one
`_Pencil` checks them and makes every factorization of a solve.
"""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, dstemr
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .assembly import _problem_context
from .quality import _max_sandwich_eig, mesh_quality_summary

LANCZOS_MAX_STEPS = 50
SHIFT_LANCZOS_STEPS = 10      # Lanczos steps behind the first shift
SHIFT_START = 1.02            # first shift = SHIFT_START * Ritz value
SHIFT_GROWTH = 1.1            # shift growth until sigma Mt - A is SPD
SHIFT_INVERT_MAX_STEPS = 300  # basis cap of one shift-invert solve
RITZ_CHECK_EVERY = 5          # Lanczos steps between convergence tests
RITZ_TOL = 1e-12              # shift-invert Ritz residual estimate
CERT_RTOL = 1e-10             # certified: (1 + CERT_RTOL) rho > lambda_max
CERT_ATTEMPTS = 4


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
    linear solves with it, Cholesky certificate); estimates leave them at
    None, 0 and False."""
    value: float
    method: str
    residual: float
    shift: float | None = None
    solves: int = 0
    certified: bool = False

    def __float__(self):
        return self.value


# ----------------------------------------------------------------------
# Exact and iterative eigenvalue computation


def _canonical(X):
    """X as a CSR array with sorted, summed indices and no stored zeros,
    the form in which two matrices are equal exactly when their arrays
    are; a copy unless X already has it."""
    C = sp.csr_array(X)
    if not (C.has_canonical_format and C.data.all()):
        C = C.copy()
        C.sum_duplicates()
        C.eliminate_zeros()
    return C


def _row_indices(X):
    """Row index of each stored entry of the CSR array X."""
    return np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))


class _Pencil:
    """The pencil (A, Mtilde): two square sparse matrices of one nonzero
    size, each exactly equal to its transpose (ValueError otherwise), and
    every factorization made from them.  Both are kept in canonical CSR
    form (`_canonical`), where a matrix equals its transpose exactly when
    their arrays are equal.

    `cholesky(a, b)` factors K = a Mtilde + b A by LAPACK banded Cholesky
    under one ordering of the joint pattern: reverse Cuthill-McKee
    (Cuthill & McKee 1969; George & Liu 1981), or the given order when its
    band is narrower.  The ordering (`perm`, its inverse `pos`, the half
    bandwidth `bw`) and the upper bands of A and Mtilde, each (bw + 1) n
    doubles, are built on the first factorization that needs them.  A
    diagonal Mtilde is kept as its diagonal `dm` and never stored as a
    band; `mass_solver` divides by it and `mass` multiplies by it.
    """

    def __init__(self, Mtilde, A):
        mats = []
        for name, X in (("Mtilde", Mtilde), ("A", A)):
            if X.shape[0] != X.shape[1]:
                raise ValueError(f"{name} is not square")
            X = _canonical(X)
            T = X.T.tocsr()             # canonical too: sorted, no zeros
            if not (np.array_equal(X.indptr, T.indptr)
                    and np.array_equal(X.indices, T.indices)
                    and np.array_equal(X.data, T.data)):
                raise ValueError(f"{name} is not symmetric")
            mats.append(X)
        if Mtilde.shape != A.shape:
            raise ValueError("dimension mismatch")
        if not A.shape[0]:
            raise ValueError("pencil is empty")
        self.M, self.A = mats
        self.n = A.shape[0]
        dm = self.M.diagonal()
        # no stored zeros: diagonal iff every stored entry is a nonzero
        # diagonal entry
        self.dm = dm if np.count_nonzero(dm) == self.M.nnz else None
        self.perm = self.pos = self.bw = None
        self._bands = [None, None]
        self._mass = None

    def mass(self, v):
        """Mtilde v: a vector product for a diagonal Mtilde."""
        return self.dm * v if self.dm is not None else self.M @ v

    def _order(self):
        # the joint pattern of Mtilde and A, from a matrix that has it
        pattern = (self.A if self.dm is not None
                   else abs(self.M) + abs(self.A))
        n = self.n
        row, col = _row_indices(pattern), pattern.indices
        # RCM is a heuristic: the given order is kept when its band is
        # narrower (a lattice numbering against a stencil whose cancelled
        # entries left a sparser graph)
        for perm in (reverse_cuthill_mckee(pattern, symmetric_mode=True),
                     np.arange(n)):
            pos = np.empty(n, dtype=np.intp)          # inverse of perm
            pos[perm] = np.arange(n)
            bw = int(np.abs(pos[row] - pos[col]).max(initial=0))
            if self.bw is None or bw < self.bw:
                self.perm, self.pos, self.bw = perm, pos, bw

    def _band(self, k):
        """Upper band of Mtilde (k = 0) or A (k = 1) under `perm`: entry
        (i, j), i <= j, of X[perm][:, perm] at [bw + i - j, j]."""
        if self._bands[k] is None:
            if self.perm is None:
                self._order()
            X = (self.M, self.A)[k]
            i, j = self.pos[_row_indices(X)], self.pos[X.indices]
            up = i <= j
            ld = self.bw + 1
            flat = (self.bw + i[up] - j[up]) + ld * j[up]
            self._bands[k] = np.bincount(
                flat, weights=X.data[up],
                minlength=ld * self.n).reshape((ld, self.n), order="F")
        return self._bands[k]

    def cholesky(self, a, b):
        """Solver for K = a Mtilde + b A from its banded Cholesky factor, or
        None if K is not SPD: a symmetric K is SPD exactly when every pivot
        of the factorization is positive."""
        try:
            if self.dm is None and not b:
                ab = a * self._band(0)          # Mtilde alone: no band of A
            else:
                ab = b * self._band(1)
                if self.dm is not None:
                    ab[self.bw] += a * self.dm[self.perm]
                elif a:
                    ab += a * self._band(0)
            chol, info = dpbtrf(ab, overwrite_ab=1)
        except MemoryError as exc:
            raise ValueError(f"banded Cholesky of an n = {self.n} matrix "
                             f"(half bandwidth {self.bw}) ran out of "
                             "memory") from exc
        if info != 0:
            return None
        perm, pos = self.perm, self.pos
        return lambda b: dpbtrs(chol, b[perm], overwrite_b=1)[0][pos]

    def mass_solver(self):
        """Exact solver for Mtilde, made once: division by its diagonal, or
        its banded Cholesky factor.  Raises ValueError unless Mtilde is
        SPD."""
        if self._mass is None:
            if self.dm is not None:
                dm = self.dm
                if (dm > 0.0).all():
                    self._mass = lambda b: b / dm
            else:
                self._mass = self.cholesky(1.0, 0.0)
            if self._mass is None:
                raise ValueError("mass matrix has a nonpositive eigenvalue")
        return self._mass


def _lanczos(pencil, steps, seed, shifted=None):
    """Top Ritz pair of at most `steps` Lanczos iterations in the Mtilde
    inner product, with full reorthogonalization from a seeded random
    start: the engine's one Krylov iteration.

    The operator is Mtilde^-1 A or, given `shifted`, a solver for
    sigma Mtilde - A, the spectral transformation (sigma Mtilde - A)^-1
    Mtilde (Ericsson & Ruhe 1980), whose top Ritz value theta gives the
    eigenvalue sigma - 1/theta nearest the shift.  The latter stops, tested
    every RITZ_CHECK_EVERY steps, once the Ritz residual estimate
    |beta_k s_k| / theta is below RITZ_TOL.  An exhausted Krylov space ends
    either early; it is not restarted.

    Each step costs one operator application and one product with
    Mtilde: the basis Q is kept with its images MQ = Mtilde Q, so the
    Gram-Schmidt coefficients are MQ w, and the image of the new vector
    is taken fresh after reorthogonalization, never updated from the
    stored images (the update drifts when the top eigenvalues cluster).
    Both arrays grow geometrically up to `steps` rows.

    Returns (theta, ritz vector, residual estimate, steps taken).
    """
    A, n = pencil.A, pencil.n
    solve = None if shifted else pencil.mass_solver()
    steps = min(steps, n)
    q = np.random.default_rng(seed).standard_normal(n)
    mq = pencil.mass(q)
    nrm = math.sqrt(q @ mq)          # > 0: mass_solver refused a non-SPD Mt
    q, mq = q / nrm, mq / nrm
    rows = min(steps, RITZ_CHECK_EVERY)
    Q, MQ = np.empty((rows, n)), np.empty((rows, n))
    Q[0], MQ[0] = q, mq
    alphas, betas, scale = [], [], 0.0
    while True:
        k = len(alphas)
        if shifted:
            w = shifted(mq)
            alpha = float(mq @ w)
        else:
            aq = A @ q
            w = solve(aq)
            alpha = float(q @ aq)
        alphas.append(alpha)
        scale = max(scale, abs(alpha))
        w -= alpha * q
        if k:
            w -= betas[-1] * Q[k - 1]
        # full reorthogonalization against the whole basis
        w -= (MQ[:k + 1] @ w) @ Q[:k + 1]
        mw = pencil.mass(w)
        beta = math.sqrt(max(w @ mw, 0.0))
        if beta <= 1e-13 * scale:
            beta = 0.0                          # exhausted Krylov space
        if not beta or k + 1 == steps or (
                shifted and (k + 1) % RITZ_CHECK_EVERY == 0
                and _ritz(alphas, betas, beta)[2] <= RITZ_TOL):
            break
        betas.append(beta)
        q, mq = w / beta, mw / beta
        if k + 1 == len(Q):
            rows = min(2 * len(Q), steps)
            Q, MQ = (np.concatenate([X, np.empty((rows - len(X), n))])
                     for X in (Q, MQ))
        Q[k + 1], MQ[k + 1] = q, mq
    theta, s, resid = _ritz(alphas, betas, beta)
    return theta, s @ Q[:k + 1], resid, k + 1


def _ritz(alphas, betas, beta):
    """(theta, s, residual estimate): the top eigenpair of the Lanczos
    tridiagonal matrix, by one LAPACK dstemr (MRRR; Dhillon, Parlett &
    Voemel 2006) call on its last index, and |beta s_k| / theta for the
    next beta."""
    k = len(alphas)
    # dstemr takes an off-diagonal of length k, and overwrites it
    _, w, z, info = dstemr(alphas, np.append(betas, 0.0), 2, 0.0, 0.0, k, k)
    if info:
        raise np.linalg.LinAlgError(f"dstemr failed with info {info}")
    theta, s = float(w[0]), z[:, 0]
    return theta, s, abs(beta * s[-1]) / max(abs(theta), 1e-300)


def _rayleigh(pencil, x):
    """(rho, x, residual) with x scaled to unit Mtilde-norm and the relative
    residual ||A x - rho Mt x|| / (rho ||Mt x||)."""
    mx = pencil.mass(x)
    nrm = math.sqrt(x @ mx)
    x, mx = x / nrm, mx / nrm
    ax = pencil.A @ x
    rho = float(x @ ax)
    resid = float(np.linalg.norm(ax - rho * mx)
                  / (abs(rho) * np.linalg.norm(mx)))
    return rho, x, resid


def _certified(pencil, rho):
    """True when rho (1 + CERT_RTOL) Mt - A is SPD, i.e. rho is within
    CERT_RTOL of the top of the spectrum from below."""
    return pencil.cholesky(rho * (1.0 + CERT_RTOL), -1.0) is not None


def _top_eigpair(pencil):
    """Certified top eigenpair of the pencil (A, Mtilde).

    Checks that Mtilde and A are SPD, then runs `_lanczos` in shift-invert
    mode at a shift sigma above lambda_max: SHIFT_START times a
    SHIFT_LANCZOS_STEPS-step Ritz value, raised until sigma Mt - A is SPD.
    Each solve takes at most SHIFT_INVERT_MAX_STEPS steps.  The Rayleigh
    quotient rho of its Ritz vector is a lower bound for lambda_max; it is
    certified when rho (1 + CERT_RTOL) Mt - A is SPD.  Every SPD test and
    solve is a banded Cholesky factorization of the pencil
    (`_Pencil.cholesky`; K is SPD iff every pivot is positive).  Failed
    certificates retry with a new start vector and a tighter shift; the
    last failure raises ValueError, so no uncertified value is returned.
    """
    pencil.mass_solver()                # refuses an Mtilde that is not SPD
    if pencil.cholesky(0.0, 1.0) is None:
        raise ValueError("pencil has a nonpositive eigenvalue; "
                         "A is not positive definite")

    solves = 0
    sigma = SHIFT_START * _lanczos(pencil, SHIFT_LANCZOS_STEPS, 0)[0]
    for seed in range(CERT_ATTEMPTS):
        # terminates: Mt is SPD, so sigma Mt - A is SPD once sigma > lambda_max
        shifted = pencil.cholesky(sigma, -1.0)
        while shifted is None:
            sigma *= SHIFT_GROWTH
            shifted = pencil.cholesky(sigma, -1.0)
        _, x, _, taken = _lanczos(pencil, SHIFT_INVERT_MAX_STEPS, seed,
                                  shifted)
        del shifted                     # one factor of K in memory at a time
        solves += taken
        rho, x, resid = _rayleigh(pencil, x)
        if _certified(pencil, rho):
            break
        # a shift nearer rho separates the top eigenvalue better; it is
        # raised again if it fell below lambda_max
        sigma = rho + 0.25 * (sigma - rho)
    else:
        raise ValueError(f"no certified lambda_max after {CERT_ATTEMPTS} "
                         "attempts")
    method = f"shift-invert(shift={sigma:.6g},solves={solves},certified)"
    est = EigEstimate(value=rho, method=method, residual=resid, shift=sigma,
                      solves=solves, certified=True)
    return est, x


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
    theta, _, resid, taken = _lanczos(_Pencil(Mtilde, A), steps, seed)
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
    "DiagRatioBound", ["lower", "upper", "argmax_node", "min_ratio"])

GeometricBound = namedtuple(
    "GeometricBound", ["value", "argmax_node", "nonobtuse"])

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
    dm = Mtilde.diagonal()
    da = A.diagonal()
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
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if s < 1:
        raise ValueError("stage count must be >= 1")
    tm = 2.0 / lam
    th = (2.0 / cstar) * min_ratio
    return TauValues(tau_max_over_s2=tm, tau_h_over_s2=th,
                     tau_max=s * s * tm, tau_h=s * s * th)


def _free_patch_max(ctx, per_element):
    """(value, node): the largest over free nodes i of the patch average
    sum_{K in omega_i} |K| x_K / |omega_i|, and the mesh node attaining it."""
    mesh, free = ctx.mesh, ctx.dofmap.free
    weights = np.repeat(mesh.volumes() * per_element, mesh.dim + 1)
    num = np.bincount(mesh.elements.ravel(), weights=weights,
                      minlength=mesh.num_nodes)
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


def _face_keys(faces, n):
    """Integer sort keys of faces given as rows (m, k), k = 2 or 3, of
    sorted vertex indices below n: a list of (m,) uint64 arrays, most
    significant first, equal on two rows exactly when the rows are equal
    and ordered as the rows are lexicographically.  The first two columns
    (a, b) make one key a n + b, exact for n <= 2**32; a third column
    stays a key of its own, since (a n + b) n + c would overflow past
    2**21 nodes."""
    if n > 2 ** 32:
        raise ValueError(f"face keys need at most 2**32 nodes, got {n}")
    cols = faces.astype(np.uint64).T
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
    c1 = _volume_ratio_c1(mesh)
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
    """
    mesh = ctx.mesh
    d = mesh.dim
    if d < 2:
        raise ValueError("the lumped face bracket is defined for d >= 2")
    patches = ctx.patches
    vols = mesh.volumes()
    d1 = d + 1

    mfull = np.bincount(mesh.elements.ravel(),
                        weights=np.repeat(vols / d1, d1),
                        minlength=mesh.num_nodes)
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


BOUND_NAMES = ("diag", "geo", "zhudu", "shewchuk")


def _check_bound_names(names):
    """Raise ValueError unless every name is one of BOUND_NAMES."""
    for name in names:
        if name not in BOUND_NAMES:
            raise ValueError(f"unknown bound {name!r}; "
                             f"choices: {', '.join(BOUND_NAMES)}")


def stability_report(mesh, field, mass_kind="full", s=1, quad_order=4,
                     lanczos_steps=None, seed=2, security=1.1,
                     include=BOUND_NAMES, mesh_id="", context=None):
    """Assemble, solve and bound one configuration; returns StabilityReport.

    `mass_kind` selects the surrogate mass: "full", "lumped" (full-space
    row sums) or "lumped_rowsum" (row sums of the eliminated mass matrix).
    lambda_max comes from the certified sparse solve (`lambda_max_exact`)
    or, when `lanczos_steps` is a step count, from `lambda_max_lanczos`
    with that count, `seed` and `security`.
    `include` names the bounds to evaluate, from "diag", "geo", "zhudu"
    and "shewchuk"; any other name raises ValueError.
    `context`, a `ProblemContext` of (mesh, field, quad_order), lets
    several reports on one problem share its averages and operators; by
    default the report builds its own.
    """
    _check_bound_names(include)
    ctx = _problem_context(mesh, field, quad_order, context)
    dof, A = ctx.dofmap, ctx.A
    Mt = ctx.mass_tilde(mass_kind)
    lumped = mass_kind != "full"

    nonobtuse = ctx.nonobtuse
    cst = c_star(mesh.dim, lumped, nonobtuse)

    if lanczos_steps is None:
        est = lambda_max_exact(Mt, A)
    else:
        est = lambda_max_lanczos(Mt, A, steps=lanczos_steps, seed=seed,
                                 security=security)

    diag = diag_ratio_bound(Mt, A, cst)
    taus = tau_values(est, s, cst, diag.min_ratio)

    lam_geo = None
    if "geo" in include:
        lam_geo = geometric_bound(ctx, lumped=lumped).value
    zd_lo = zd_up = None
    if "zhudu" in include and mesh.dim >= 2:
        zd = zhu_du_bound(ctx)
        zd_lo, zd_up = zd.lower, zd.upper
    sh_lo = sh_up = None
    if "shewchuk" in include and mesh.dim >= 2:
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
