"""Chebyshev stability polynomial, stepping, and norm traces."""

import math

import numpy as np
import pytest
from hypothesis import given

import festab as fs
from conftest import (problems, property_settings, stability_poly_eval,
                      two_triangle_square)


def poly_reference(s, omega0, omega1, z):
    """R(z) through the trigonometric/hyperbolic form of T_s."""
    x = omega0 + omega1 * z

    def T(v):
        if abs(v) <= 1.0:
            return math.cos(s * math.acos(v))
        sign = 1.0 if v >= 0 else (-1.0) ** s
        return sign * math.cosh(s * math.acosh(abs(v)))

    return T(x) / T(omega0)


# ---------------------------------------------------------------------------
# stability polynomial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [1, 2, 5, 10])
@pytest.mark.parametrize("damping", [0.0, 0.05])
def test_polynomial_matches_cosine_form(s, damping):
    sch = fs.ChebyshevScheme(s=s, damping=damping)
    zs = np.linspace(-sch.beta, 0.5, 40)
    got = stability_poly_eval(sch, zs)
    want = [poly_reference(s, sch.omega0, sch.omega1, z) for z in zs]
    assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("s", [1, 2, 3, 5, 10])
def test_polynomial_consistency_at_zero(s):
    sch = fs.ChebyshevScheme(s=s)
    assert stability_poly_eval(sch, 0.0) == pytest.approx(1.0, abs=1e-13)
    h = 1e-6
    deriv = (stability_poly_eval(sch, h)
             - stability_poly_eval(sch, -h)) / (2 * h)
    assert deriv == pytest.approx(1.0, rel=1e-7)


@pytest.mark.parametrize("s", [1, 2, 5, 10])
def test_interval_length_grows_quadratically(s):
    sch = fs.ChebyshevScheme(s=s)
    assert sch.beta == pytest.approx(2.0 * s * s, rel=1e-13)
    assert sch.tau_max(100.0) == pytest.approx(2.0 * s * s / 100.0,
                                               rel=1e-13)
    zs = np.linspace(-sch.beta, 0.0, 10 * s + 1)
    assert (np.abs(stability_poly_eval(sch, zs)) <= 1.0 + 1e-12).all()
    # just outside the interval the polynomial exceeds one
    assert abs(stability_poly_eval(sch, -1.01 * sch.beta)) > 1.0


def test_damping_shrinks_interval_and_caps_modulus():
    s = 5
    sch = fs.ChebyshevScheme(s=s, damping=0.1)
    undamped = fs.ChebyshevScheme(s=s)
    assert sch.beta < undamped.beta
    inner = np.linspace(-sch.beta * 0.98, -sch.beta * 0.02, 200)
    cap = 1.0 / abs(stability_poly_eval(sch, 0.0) /  # = 1 / T_s(w0)
                    poly_reference(s, sch.omega0, sch.omega1, 0.0))
    vals = np.abs(stability_poly_eval(sch, inner))
    # strict interior modulus stays below 1 (equioscillation at 1/T_s(w0))
    assert vals.max() < 1.0
    assert vals.max() == pytest.approx(
        1.0 / fs.chebyshev._cheb_t_dt(s, sch.omega0)[0], rel=1e-3)
    del cap


def test_scheme_guards():
    with pytest.raises(ValueError):
        fs.ChebyshevScheme(s=0)
    with pytest.raises(ValueError):
        fs.ChebyshevScheme(s=3, damping=-0.1)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def dense_poly_apply(scheme, Mt, A, U, tau):
    """R(-tau Mtilde^-1 A) U through the dense eigendecomposition."""
    import scipy.linalg as sla
    evals, evecs = sla.eigh(A.toarray(), Mt.toarray())
    coeff = evecs.T @ Mt.toarray() @ U
    factors = stability_poly_eval(scheme, -tau * evals)
    return evecs @ (factors * coeff)


@pytest.mark.parametrize("s", [1, 2, 5])
@pytest.mark.parametrize("mass", ["full", "lumped"])
def test_step_equals_dense_polynomial_application(s, mass):
    mesh = fs.gen_structured_2d(4, 4)
    A = fs.assemble_stiffness(mesh, fs.aniso2d(10.0))
    Mt = fs.assemble_mass(mesh) if mass == "full" else fs.assemble_lumped(mesh)
    sch = fs.ChebyshevScheme(s=s)
    lam = fs.lambda_max_exact(Mt, A).value
    tau = 0.9 * sch.tau_max(lam)
    rng = np.random.default_rng(7)
    U = rng.standard_normal(A.shape[0])
    got = fs.step(sch, Mt, A, U, tau)
    want = dense_poly_apply(sch, Mt, A, U, tau)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def test_single_stage_is_forward_euler():
    mesh = fs.gen_uniform_1d(8)
    A = fs.assemble_stiffness(mesh, fs.identity(1))
    L = fs.assemble_lumped(mesh)
    sch = fs.ChebyshevScheme(s=1)
    U = np.sin(np.linspace(0.1, 2.8, A.shape[0]))
    tau = 1e-3
    got = fs.step(sch, L, A, U, tau)
    want = U - tau * (A @ U / L.diagonal())
    assert np.allclose(got, want, rtol=1e-13)


def test_step_guard_rejects_nonpositive_tau():
    mesh = fs.gen_uniform_1d(4)
    A = fs.assemble_stiffness(mesh, fs.identity(1))
    L = fs.assemble_lumped(mesh)
    with pytest.raises(ValueError):
        fs.step(fs.ChebyshevScheme(s=2), L, A, np.ones(A.shape[0]), 0.0)


# ---------------------------------------------------------------------------
# integrate and traces
# ---------------------------------------------------------------------------

def test_integrate_stable_run_decays_both_norms():
    mesh = two_triangle_square()
    A = fs.assemble_stiffness(mesh, fs.identity(2))
    M = fs.assemble_mass(mesh)
    sch = fs.ChebyshevScheme(s=3)
    lam = fs.lambda_max_exact(M, A).value
    tau = 0.95 * sch.tau_max(lam)
    U0 = np.array([0.3, -1.2, 0.7])
    trace = fs.integrate(sch, M, M, A, U0, tau, 40)
    assert trace.steps == 40
    assert trace.unstable_at is None
    assert trace.nonincreasing(1e-12 * trace.l2[0]) is None
    assert trace.l2[-1] < 1e-3 * trace.l2[0]
    l2_0, en_0 = fs.norms(U0, M, A)
    assert trace.l2[0] == pytest.approx(l2_0, rel=1e-13)
    assert trace.energy[0] == pytest.approx(en_0, rel=1e-13)


def test_integrate_detects_overflow_and_truncates():
    mesh = fs.gen_uniform_1d(16)
    A = fs.assemble_stiffness(mesh, fs.identity(1))
    L = fs.assemble_lumped(mesh)
    sch = fs.ChebyshevScheme(s=2)
    lam = fs.lambda_max_exact(L, A).value
    lam_vec = fs.max_eigvec_exact(L, A)[1]
    tau = 1.05 * sch.tau_max(lam)
    trace = fs.integrate(sch, L, L, A, lam_vec, tau, 800)
    assert trace.unstable_at is not None
    assert trace.steps == trace.unstable_at < 800
    assert len(trace.l2) == trace.unstable_at + 1
    assert max(trace.l2[-1], trace.energy[-1]) > fs.chebyshev.OVERFLOW_LIMIT
    grew = trace.nonincreasing(1e-12 * trace.l2[0])
    assert grew is not None and grew[1] == 1   # grows from the first step


def test_integrate_growth_rate_matches_polynomial():
    # an eigenvector start grows by exactly |R(-tau lam)| each step
    mesh = fs.gen_uniform_1d(16)
    A = fs.assemble_stiffness(mesh, fs.identity(1))
    L = fs.assemble_lumped(mesh)
    sch = fs.ChebyshevScheme(s=2)
    lam, vec = fs.max_eigvec_exact(L, A)
    tau = 1.04 * sch.tau_max(lam)
    factor = abs(float(stability_poly_eval(sch, -tau * lam)))
    assert factor > 1.0
    trace = fs.integrate(sch, L, L, A, vec, tau, 30)
    ratios = trace.l2[1:] / trace.l2[:-1]
    assert np.allclose(ratios, factor, rtol=1e-8)


def _pencil_of(problem):
    mesh, field, kind = problem
    ctx = fs.ProblemContext(mesh, field)
    return ctx.mass_tilde(kind), ctx.M, ctx.A, kind


@property_settings()
@given(problems())
def test_norms_do_not_grow_at_tau_max_on_drawn_problems(problem):
    """At tau_max of the certified lambda_max, s = 1 and 3, 30 steps from
    a random start never grow the energy norm, nor for the full mass the
    L2 norm, beyond 1e-12 of its start."""
    Mt, M, A, kind = _pencil_of(problem)
    lam = fs.lambda_max_exact(Mt, A).value
    U0 = np.random.default_rng(0).standard_normal(A.shape[0])
    for s in (1, 3):
        scheme = fs.ChebyshevScheme(s)
        trace = fs.integrate(scheme, Mt, M, A, U0, scheme.tau_max(lam), 30)
        assert trace.unstable_at is None
        norms = ([trace.energy, trace.l2] if kind == "full"
                 else [trace.energy])
        for norm in norms:
            assert (np.diff(norm) <= 1e-12 * norm[0]).all()


@property_settings()
@given(problems())
def test_top_eigenvector_grows_past_tau_max_on_drawn_problems(problem):
    """From the certified top eigenvector every step at 1.02 tau_max
    grows the energy norm, s = 1 and 3."""
    Mt, M, A, _ = _pencil_of(problem)
    lam, vec = fs.max_eigvec_exact(Mt, A)
    for s in (1, 3):
        scheme = fs.ChebyshevScheme(s)
        trace = fs.integrate(scheme, Mt, M, A, vec,
                             1.02 * scheme.tau_max(lam), 10)
        assert (trace.energy[1:] > trace.energy[:-1]).all()


def test_integrate_guards():
    mesh = fs.gen_uniform_1d(4)
    A = fs.assemble_stiffness(mesh, fs.identity(1))
    L = fs.assemble_lumped(mesh)
    sch = fs.ChebyshevScheme(s=2)
    with pytest.raises(ValueError):
        fs.integrate(sch, L, L, A, np.ones(A.shape[0]), 1e-3, 0)
    with pytest.raises(ValueError):
        fs.integrate(sch, L, L, A, np.ones(A.shape[0]), -1e-3, 5)


def test_trace_nonincreasing_reports_first_violation():
    tr = fs.NormTrace(l2=np.array([1.0, 0.9, 0.95, 0.3]),
                      energy=np.array([1.0, 0.8, 0.7, 0.6]), tau=0.1)
    assert tr.nonincreasing(1e-12) == ("l2", 2)
    tr2 = fs.NormTrace(l2=np.array([1.0, 0.9]),
                       energy=np.array([1.0, 1.5]), tau=0.1)
    assert tr2.nonincreasing(1e-12) == ("energy", 1)
    assert tr2.nonincreasing(0.7) is None      # within tolerance


def test_trace_csv_golden(tmp_path):
    tr = fs.NormTrace(l2=np.array([2.0, 1.0]),
                      energy=np.array([4.0, 0.5]), tau=0.25)
    path = tmp_path / "trace.csv"
    tr.to_csv(str(path))
    assert path.read_bytes() == (
        b"step,time,l2,energy\r\n"
        b"0,0.0,2.0,4.0\r\n"
        b"1,0.25,1.0,0.5\r\n")
    assert tr.steps == 1
