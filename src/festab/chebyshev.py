"""Explicit stabilized integration U_n = R(-tau Mtilde^-1 A) U_{n-1}.

R is the first-order s-stage shifted Chebyshev polynomial
T_s(w0 + w1 z) / T_s(w0), stable on [-beta, 0] with beta = 2 s^2 for the
undamped family (w0 = 1).  A small damping eta > 0 shrinks the interval
slightly in exchange for |R| < 1 in its interior.  The L2 monitor always
uses the full mass matrix, also when stepping is lumped.  Each solve with
Mtilde is the mass solver of one `eigen._Pencil` per run.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .eigen import _Pencil


def _cheb_t_dt(s, x):
    """(T_s(x), T_s'(x)) for s >= 1 by the three-term recurrence, for a
    scalar or an array x."""
    t_prev, t = 1.0, x
    dt_prev, dt = 0.0, 1.0
    for _ in range(s - 1):
        t_prev, t = t, 2.0 * x * t - t_prev
        dt_prev, dt = dt, 2.0 * t_prev + 2.0 * x * dt - dt_prev
    return t, dt


@dataclass(frozen=True)
class ChebyshevScheme:
    """First-order s-stage Chebyshev stability polynomial; the operators
    passed to `step`/`integrate` decide the mass surrogate."""
    s: int
    damping: float = 0.0

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("stage count must be >= 1")
        if self.damping < 0.0:
            raise ValueError("damping must be >= 0")

    @property
    def omega0(self):
        return 1.0 + self.damping / self.s ** 2

    @property
    def omega1(self):
        t, dt = _cheb_t_dt(self.s, self.omega0)
        return t / dt

    @property
    def beta(self):
        """Length of the stability interval [-beta, 0]."""
        return (1.0 + self.omega0) / self.omega1

    def tau_max(self, lam):
        """Largest stable step for spectrum in (0, lam]."""
        return self.beta / lam


def _step_with_pencil(scheme, pencil, U, tau):
    """One step via the stage recurrence V_j = 2(w0 V - w1 tau B V) - V_prev
    for V_j = T_j(w0 - w1 tau B) U, with B = Mtilde^-1 A."""
    w0 = scheme.omega0
    w1 = scheme.omega1
    s = scheme.s
    solve, A = pencil.mass_solver(), pencil.A

    def apply_arg(v):
        return w0 * v - w1 * tau * solve(A @ v)

    v_prev = U
    v = apply_arg(U)
    for _ in range(s - 1):
        v_prev, v = v, 2.0 * apply_arg(v) - v_prev
    ts = _cheb_t_dt(s, w0)[0]
    return v / ts


def step(scheme, Mtilde, A, U, tau):
    """Apply R(-tau Mtilde^-1 A) to U."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    U = np.asarray(U, dtype=float)
    return _step_with_pencil(scheme, _Pencil(Mtilde, A), U, tau)


def norms(U, M_full, A):
    """(L2, energy) norms: (U^T M U)^(1/2) and (U^T A U)^(1/2)."""
    U = np.asarray(U, dtype=float)
    l2 = math.sqrt(max(U @ (M_full @ U), 0.0))
    en = math.sqrt(max(U @ (A @ U), 0.0))
    return l2, en


OVERFLOW_LIMIT = 1e100


@dataclass
class NormTrace:
    """Per-step L2 and energy norms of an integration run."""
    l2: np.ndarray
    energy: np.ndarray
    tau: float
    unstable_at: int | None = None

    @property
    def steps(self):
        return len(self.l2) - 1

    def nonincreasing(self, tol):
        """First step where either norm grew beyond tol, or None."""
        for name, arr in (("l2", self.l2), ("energy", self.energy)):
            growth = np.diff(arr) > tol
            if growth.any():
                return name, int(np.flatnonzero(growth)[0] + 1)
        return None

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["step", "time", "l2", "energy"])
            for n, (a, b) in enumerate(zip(self.l2, self.energy)):
                writer.writerow([n, repr(n * self.tau), repr(float(a)),
                                 repr(float(b))])


def integrate(scheme, Mtilde, M_full, A, U0, tau, steps):
    """Run `steps` Chebyshev steps and record both norms.

    The L2 norm is always measured with the full mass matrix.  A norm
    exceeding 1e100 (or going non-finite) stops the run and records the
    offending step in `unstable_at`; the trace is truncated there.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    return _integrate_with_pencil(scheme, _Pencil(Mtilde, A), M_full, A, U0,
                                  tau, steps)


def _integrate_with_pencil(scheme, pencil, M_full, A, U0, tau, steps):
    """`integrate` stepping on `pencil`, the pencil of (A, Mtilde)."""
    U = np.asarray(U0, dtype=float)
    l2 = np.empty(steps + 1)
    en = np.empty(steps + 1)
    l2[0], en[0] = norms(U, M_full, A)
    for n in range(1, steps + 1):
        U = _step_with_pencil(scheme, pencil, U, tau)
        a, b = norms(U, M_full, A)
        l2[n], en[n] = a, b
        if not (np.isfinite(a) and np.isfinite(b)) or max(a, b) > OVERFLOW_LIMIT:
            return NormTrace(l2=l2[:n + 1], energy=en[:n + 1], tau=tau,
                             unstable_at=n)
    return NormTrace(l2=l2, energy=en, tau=tau)
