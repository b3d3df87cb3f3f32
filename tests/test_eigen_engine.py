"""The certified sparse lambda_max engine against the dense oracle.

Property tests draw jittered and graded meshes in 1D, 2D and 3D (some with
a Neumann side), constant and piecewise SPD fields and all three mass
kinds, and check that malformed pencils are refused; fixed regressions
cover the cases where a shift-invert solve goes wrong without a
certificate, every small size and the Lanczos step cap.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings

import festab as fs
from festab import bounds as bounds_mod
from conftest import (PROPERTY, dense_lambda_max, dense_pencil_eigvals,
                      problems)

ORACLE_RTOL = 1e-12
RESIDUAL_MAX = 1e-10

settings.register_profile(
    "eigen-engine", derandomize=True, max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


def pencil(mesh, field, kind):
    ctx = fs.ProblemContext(mesh, field, 4)
    return ctx.mass_tilde(kind), ctx.A


@settings(settings.get_profile("eigen-engine"))
@given(problems())
def test_engine_matches_dense_oracle(problem):
    mesh, field, kind = problem
    Mt, A = pencil(mesh, field, kind)
    want = dense_lambda_max(Mt, A)
    est = fs.lambda_max_exact(Mt, A)
    assert abs(est.value - want) <= ORACLE_RTOL * want
    assert est.certified and est.method.endswith(",certified)")
    assert est.residual <= RESIDUAL_MAX
    lam, vec = fs.max_eigvec_exact(Mt, A)
    assert lam == est.value
    assert vec @ (Mt @ vec) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(A @ vec - lam * (Mt @ vec)) \
        <= RESIDUAL_MAX * lam * np.linalg.norm(Mt @ vec)


def march_step(Mt, A):
    return fs.step(fs.ChebyshevScheme(s=2), Mt, A, np.ones(Mt.shape[0]), 0.1)


def march(Mt, A):
    return fs.integrate(fs.ChebyshevScheme(s=2), Mt, Mt, A,
                        np.ones(Mt.shape[0]), 0.1, 3)


ENTRY_POINTS = (fs.lambda_max_exact, fs.max_eigvec_exact,
                fs.lambda_max_lanczos, fs.lambda_max_power, march_step, march)


@PROPERTY
@given(problems())
def test_entry_points_reject_bad_pencils(problem):
    mesh, field, kind = problem
    Mt, A = pencil(mesh, field, kind)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    off = np.flatnonzero(A.indices != rows)
    assume(off.size)
    skewed = A.copy()           # one entry one ulp off its mirror image
    skewed.data[off[0]] = np.nextafter(skewed.data[off[0]], np.inf)
    wide = sp.csr_array(sp.hstack([A, A]))
    double = sp.csr_array(sp.block_diag([A, A]))
    for entry in ENTRY_POINTS:
        with pytest.raises(ValueError, match="^A is not symmetric"):
            entry(Mt, skewed)
        with pytest.raises(ValueError, match="^A is not square"):
            entry(Mt, wide)
        with pytest.raises(ValueError, match="^Mtilde is not square"):
            entry(wide, A)
        with pytest.raises(ValueError, match="^dimension mismatch"):
            entry(Mt, double)


def test_entry_points_reject_an_empty_pencil():
    Z = sp.csr_array((0, 0))
    for entry in ENTRY_POINTS:
        with pytest.raises(ValueError, match="^pencil is empty"):
            entry(Z, Z)


def test_the_march_checks_the_pencil():
    # a 3x3 pencil the march once stepped without complaint (A not
    # symmetric) or failed on inside numpy (A of another size)
    M = sp.csr_array(np.diag([2.0, 2.0, 2.0]))
    A = sp.csr_array(np.array([[2.0, -1.0, 0.0], [-0.9, 2.0, -1.0],
                               [0.0, -1.0, 2.0]]))
    A4 = sp.csr_array(np.diag([2.0, 2.0, 2.0, 2.0]))
    for entry in (march_step, march):
        with pytest.raises(ValueError, match="^A is not symmetric"):
            entry(M, A)
        with pytest.raises(ValueError, match="^dimension mismatch"):
            entry(M, A4)


@pytest.mark.parametrize("kind", fs.MASS_KINDS)
def test_indefinite_stiffness_is_refused(kind):
    mesh = fs.gen_structured_2d(6, 5, diagonal="alternating")
    Mt, A = pencil(mesh, fs.aniso2d(100.0), kind)
    for entry in (fs.lambda_max_exact, fs.max_eigvec_exact):
        with pytest.raises(ValueError, match="A is not positive definite"):
            entry(Mt, -A)


def test_indefinite_mass_is_refused():
    # eigenvalues 3, -1 and 1; the diagonal alone looks positive
    M = sp.csr_array(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0]]))
    A = sp.csr_array(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                               [0.0, -1.0, 2.0]]))
    sch = fs.ChebyshevScheme(s=1)
    U = np.ones(3)
    calls = [lambda entry=entry: entry(M, A) for entry in ENTRY_POINTS]
    calls += [lambda seed=seed: fs.lambda_max_lanczos(M, A, seed=seed)
              for seed in (1, 2)]
    # a diagonal surrogate with a zero entry
    calls.append(lambda: fs.step(sch, sp.csr_array(np.diag([1.0, 0.0, 1.0])),
                                 A, U, 0.1))
    for call in calls:
        with pytest.raises(ValueError,
                           match="mass matrix has a nonpositive eigenvalue"):
            call()


def test_nonsymmetric_mass_is_refused_by_the_march():
    # the banded Cholesky reads one triangle only, so a mass surrogate that
    # is not symmetric would be solved as another matrix
    M = sp.csr_array(np.array([[2.0, 0.5, 0.0], [0.0, 2.0, 0.0],
                               [0.0, 0.0, 2.0]]))
    A = sp.csr_array(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                               [0.0, -1.0, 2.0]]))
    sch = fs.ChebyshevScheme(s=1)
    with pytest.raises(ValueError, match="not symmetric"):
        fs.step(sch, M, A, np.ones(3), 0.1)
    with pytest.raises(ValueError, match="not symmetric"):
        fs.integrate(sch, M, M, A, np.ones(3), 0.1, 3)


def test_groundwater_full_mass_returns_the_top_of_a_close_pair(monkeypatch):
    # mirror-symmetric problem (no strips): a symmetric start vector (all
    # ones) misses the top mode and converges to 1.60818597, not 1.60818922;
    # the certificate catches that, but the first solve should not need it
    mesh, field = fs.gen_groundwater_like(contrast=1.0)
    Mt, A = pencil(mesh, field, "full")
    evals = dense_pencil_eigvals(Mt, A)
    assert evals[-1] - evals[-2] > 1e-6 * evals[-1]
    real = bounds_mod._certified
    verdicts = []

    def spy(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(bounds_mod, "_certified", spy)
    est = fs.lambda_max_exact(Mt, A)
    assert abs(est.value - evals[-1]) <= ORACLE_RTOL * evals[-1]
    assert est.certified and verdicts == [True]


def test_per1d_uniform_512_full_mass_near_degenerate_top_pair():
    # the top pair is nearly degenerate, so the shift-invert Lanczos needs
    # many steps here (85 at the first shift, against 15 for either lumped
    # mass); it must still converge within its step cap
    mesh = fs.gen_uniform_1d(512)
    Mt, A = pencil(mesh, fs.per1d(2.0 ** -4), "full")
    evals = dense_pencil_eigvals(Mt, A)
    assert evals[-1] - evals[-2] < 1e-3 * evals[-1]
    est = fs.lambda_max_exact(Mt, A)
    assert abs(est.value - evals[-1]) <= ORACLE_RTOL * evals[-1]
    assert est.certified and est.solves <= 500
    assert est.shift > evals[-1]


@pytest.mark.parametrize("kind", fs.MASS_KINDS)
def test_certified_solve_on_every_small_size(kind):
    # n = 1..25 free nodes: small pencils, once solved by Lanczos over the
    # whole space and now by the same shift-invert Lanczos as large ones,
    # which exhausts the Krylov space of the smallest
    for n in range(1, 26):
        Mt, A = pencil(fs.gen_uniform_1d(n + 1), fs.per1d(2.0 ** -2), kind)
        want = dense_lambda_max(Mt, A)
        est = fs.lambda_max_exact(Mt, A)
        assert abs(est.value - want) <= ORACLE_RTOL * want, n
        assert est.certified and est.residual <= RESIDUAL_MAX
        assert est.method.startswith("shift-invert(shift=")
        assert 1 <= est.solves <= bounds_mod.CERT_ATTEMPTS * n


def test_step_cap_never_returns_an_uncertified_value(monkeypatch):
    # 3 shift-invert steps cannot resolve the near-degenerate top pair of
    # per1d 512: the solve either certifies the oracle value or refuses
    mesh = fs.gen_uniform_1d(512)
    Mt, A = pencil(mesh, fs.per1d(2.0 ** -4), "full")
    want = dense_lambda_max(Mt, A)
    monkeypatch.setattr(bounds_mod, "SHIFT_INVERT_MAX_STEPS", 3)
    real = bounds_mod._lanczos
    taken = []

    def spy(pencil, steps, seed, shifted=None):
        out = real(pencil, steps, seed, shifted)
        if shifted is not None:
            taken.append(out[3])
        return out

    monkeypatch.setattr(bounds_mod, "_lanczos", spy)
    try:
        est = fs.lambda_max_exact(Mt, A)
    except ValueError as exc:
        assert str(exc).startswith("no certified lambda_max")
        assert len(taken) == bounds_mod.CERT_ATTEMPTS
    else:
        assert est.certified
        assert abs(est.value - want) <= ORACLE_RTOL * want
        assert est.solves == sum(taken)
    assert taken and max(taken) <= 3


@pytest.mark.parametrize("kind", fs.MASS_KINDS)
def test_inertia_flips_across_lambda_max(kind):
    rng = np.random.default_rng(7)
    base = fs.gen_structured_2d(9, 7, diagonal="alternating")
    nodes = base.nodes.copy()
    free = base.node_markers != fs.DIRICHLET
    nodes[free] += 0.02 * rng.uniform(-1.0, 1.0, (int(free.sum()), 2))
    mesh = fs.SimplicialMesh(nodes, base.elements, base.node_markers)
    Mt, A = pencil(mesh, fs.aniso2d(100.0), kind)
    lam = dense_lambda_max(Mt, A)
    pen = bounds_mod._Pencil(Mt, A)
    assert pen.cholesky(lam * (1.0 + 1e-8), -1.0) is not None
    assert pen.cholesky(lam * (1.0 - 1e-8), -1.0) is None
    assert pen.cholesky(1.0, 0.0) is not None
    assert pen.cholesky(0.0, -1.0) is None


@PROPERTY
@given(problems())
def test_banded_cholesky_solves_and_decides_definiteness(problem):
    # the solves the program makes (mass surrogate, shift-invert above
    # lambda_max) against dense LU, and the SPD verdict on both sides of
    # lambda_max
    mesh, field, kind = problem
    Mt, A = pencil(mesh, field, kind)
    lam = dense_lambda_max(Mt, A)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    pen = bounds_mod._Pencil(Mt, A)
    for solve, K in ((pen.mass_solver(), Mt),
                     (pen.cholesky(2.0 * lam, -1.0), 2.0 * lam * Mt - A)):
        want = np.linalg.solve(K.toarray(), b)
        got = solve(b)
        assert np.linalg.norm(got - want) <= ORACLE_RTOL * np.linalg.norm(want)
    assert pen.cholesky(0.0, 1.0) is not None
    assert pen.cholesky(lam * (1.0 + 1e-8), -1.0) is not None
    assert pen.cholesky(lam * (1.0 - 1e-8), -1.0) is None
    assert pen.cholesky(0.0, -1.0) is None


@pytest.mark.parametrize("kind", fs.MASS_KINDS)
def test_one_ordering_per_certified_solve(monkeypatch, kind):
    # the SPD proof of A, the mass solves, every shift and the certificate
    # share the ordering of the pencil's joint pattern
    mesh = fs.gen_structured_2d(8, 8, diagonal="alternating")
    Mt, A = pencil(mesh, fs.aniso2d(100.0), kind)
    real = bounds_mod.reverse_cuthill_mckee
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds_mod, "reverse_cuthill_mckee", counted)
    est = fs.lambda_max_exact(Mt, A)
    assert est.certified and len(calls) == 1


class _BandedMass(bounds_mod._Pencil):
    """A pencil that factors a diagonal Mtilde from its full band, as the
    engine did before it kept the diagonal alone."""

    def cholesky(self, a, b):
        dm, self.dm = self.dm, None
        try:
            return super().cholesky(a, b)
        finally:
            self.dm = dm


@pytest.mark.parametrize("kind", ["lumped", "lumped_rowsum"])
def test_lumped_pencil_holds_no_mass_band(kind):
    mesh = fs.gen_structured_3d(4, 4, 4)
    Mt, A = pencil(mesh, fs.identity(3), kind)
    pen = bounds_mod._Pencil(Mt, A)
    est, vec = bounds_mod._top_eigpair(pen)
    assert pen.dm is not None and pen._bands[0] is None
    assert pen._bands[1].shape == (pen.bw + 1, A.shape[0])
    banded = _BandedMass(Mt, A)
    want, want_vec = bounds_mod._top_eigpair(banded)
    assert banded._bands[0] is not None
    assert est == want and vec.tobytes() == want_vec.tobytes()


@pytest.mark.parametrize("kind", ["lumped", "lumped_rowsum"])
def test_lumped_mass_only_paths_build_no_ordering(monkeypatch, kind):
    mesh = fs.gen_structured_2d(8, 8, diagonal="alternating")
    Mt, A = pencil(mesh, fs.aniso2d(100.0), kind)
    calls = []
    monkeypatch.setattr(bounds_mod, "reverse_cuthill_mckee",
                        lambda *args, **kwargs: calls.append(args))
    fs.lambda_max_lanczos(Mt, A)
    fs.lambda_max_power(Mt, A, tol=1e-3)
    march_step(Mt, A)
    march(Mt, A)
    assert calls == []


def test_failed_certificate_retries(monkeypatch):
    mesh = fs.gen_structured_2d(8, 8)
    Mt, A = pencil(mesh, fs.identity(2), "full")
    want = dense_lambda_max(Mt, A)
    real = bounds_mod._certified
    calls = []

    def fail_first(*args):
        calls.append(args)
        return len(calls) > 1 and real(*args)

    monkeypatch.setattr(bounds_mod, "_certified", fail_first)
    est = fs.lambda_max_exact(Mt, A)
    assert len(calls) == 2
    assert abs(est.value - want) <= ORACLE_RTOL * want


def test_report_names_the_certified_solve():
    mesh = fs.gen_structured_2d(8, 8)
    rep = fs.stability_report(mesh, fs.aniso2d(100.0))
    assert rep.method.startswith("shift-invert(shift=")
    assert rep.method.endswith(",certified)")
