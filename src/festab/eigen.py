"""The certified eigen engine of the pencil (A, Mtilde) and every sparse
factorization: the only module that imports LAPACK or a graph ordering.

`_Pencil.cholesky(a, b)` returns a solver for K = a Mtilde + b A, or None
exactly when a pivot is not positive; a kernel that replaces today's
RCM-ordered band (multifrontal, Liu 1992) keeps that contract here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, dstemr
from scipy.sparse.csgraph import reverse_cuthill_mckee

SHIFT_LANCZOS_STEPS = 10      # Lanczos steps behind the first shift
SHIFT_START = 1.02            # first shift = SHIFT_START * Ritz value
SHIFT_GROWTH = 1.1            # shift growth until sigma Mt - A is SPD
SHIFT_INVERT_MAX_STEPS = 300  # basis cap of one shift-invert solve
RITZ_CHECK_EVERY = 5          # Lanczos steps between convergence tests
RITZ_TOL = 1e-12              # shift-invert Ritz residual estimate
CERT_RTOL = 1e-10             # certified: (1 + CERT_RTOL) rho > lambda_max
CERT_ATTEMPTS = 4


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


def _in_range(engine):
    """`engine(pencil, ...)` run with floating-point overflow and invalid
    results raised: such an error, or a failed Ritz solve, becomes one
    ValueError that names the pencil's scale max A_ii/Mt_ii, since a
    pencil scaled far from 1 is what leaves the double range."""
    @functools.wraps(engine)
    def run(pencil, *args):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return engine(pencil, *args)
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            with np.errstate(all="ignore"):
                scale = (pencil.A.diagonal() / pencil.M.diagonal()).max()
            raise ValueError(f"pencil scale max A_ii/Mt_ii = {scale:.3g} is "
                             "out of the eigen solver's floating-point "
                             "range") from exc
    return run


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


@_in_range
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
