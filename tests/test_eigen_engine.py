"""The certified sparse lambda_max engine against the dense oracle.

Property tests draw jittered and graded meshes in 1D, 2D and 3D (some with
a Neumann side), constant and piecewise SPD fields and all three mass
kinds, and check that malformed pencils are refused; fixed regressions
cover the cases where a shift-invert solve goes wrong without a
certificate, every small size and the Lanczos step cap.  The kernel's
parts are checked on their own: the Ritz pair against a tridiagonal
oracle, the mass-orthonormality of the Lanczos basis and the pencil's
symmetry decision.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import assume, given

import festab as fs
from festab import eigen as eigen_mod
from conftest import (dense_lambda_max, dense_pencil_eigvals, problems,
                      property_settings)

ORACLE_RTOL = 1e-12
RESIDUAL_MAX = 1e-10


def pencil(mesh, field, kind):
    ctx = fs.ProblemContext(mesh, field, 4)
    return ctx.mass_tilde(kind), ctx.A


@property_settings(100)
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


@property_settings()
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
    real = eigen_mod._certified
    verdicts = []

    def spy(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(eigen_mod, "_certified", spy)
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
        assert 1 <= est.solves <= eigen_mod.CERT_ATTEMPTS * n


def test_step_cap_never_returns_an_uncertified_value(monkeypatch):
    # 3 shift-invert steps cannot resolve the near-degenerate top pair of
    # per1d 512: the solve either certifies the oracle value or refuses
    mesh = fs.gen_uniform_1d(512)
    Mt, A = pencil(mesh, fs.per1d(2.0 ** -4), "full")
    want = dense_lambda_max(Mt, A)
    monkeypatch.setattr(eigen_mod, "SHIFT_INVERT_MAX_STEPS", 3)
    real = eigen_mod._lanczos
    taken = []

    def spy(pencil, steps, seed, shifted=None):
        out = real(pencil, steps, seed, shifted)
        if shifted is not None:
            taken.append(out[3])
        return out

    monkeypatch.setattr(eigen_mod, "_lanczos", spy)
    try:
        est = fs.lambda_max_exact(Mt, A)
    except ValueError as exc:
        assert str(exc).startswith("no certified lambda_max")
        assert len(taken) == eigen_mod.CERT_ATTEMPTS
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
    pen = eigen_mod._Pencil(Mt, A)
    assert pen.cholesky(lam * (1.0 + 1e-8), -1.0) is not None
    assert pen.cholesky(lam * (1.0 - 1e-8), -1.0) is None
    assert pen.cholesky(1.0, 0.0) is not None
    assert pen.cholesky(0.0, -1.0) is None


@property_settings()
@given(problems())
def test_banded_cholesky_solves_and_decides_definiteness(problem):
    # the solves the program makes (mass surrogate, shift-invert above
    # lambda_max) against dense LU, and the SPD verdict on both sides of
    # lambda_max
    mesh, field, kind = problem
    Mt, A = pencil(mesh, field, kind)
    lam = dense_lambda_max(Mt, A)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    pen = eigen_mod._Pencil(Mt, A)
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
    real = eigen_mod.reverse_cuthill_mckee
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(eigen_mod, "reverse_cuthill_mckee", counted)
    est = fs.lambda_max_exact(Mt, A)
    assert est.certified and len(calls) == 1


@pytest.mark.parametrize("kind", ["lumped", "lumped_rowsum"])
def test_pencil_keeps_the_given_order_when_its_band_is_narrower(kind):
    # on the lattice-numbered 6^3 Kuhn cube the cancelled entries of A
    # leave a graph whose RCM band is wider than the lattice numbering's
    mesh = fs.gen_structured_3d(6, 6, 6)
    Mt, A = pencil(mesh, fs.identity(3), kind)
    pen = eigen_mod._Pencil(Mt, A)
    est, _ = eigen_mod._top_eigpair(pen)
    assert pen.bw == 31 and (pen.perm == np.arange(pen.n)).all()
    rcm = eigen_mod.reverse_cuthill_mckee(A, symmetric_mode=True)
    pos, (row, col) = np.argsort(rcm), A.nonzero()
    assert np.abs(pos[row] - pos[col]).max() > 31
    want = dense_lambda_max(Mt, A)
    assert est.certified and abs(est.value - want) <= ORACLE_RTOL * want


class _BandedMass(eigen_mod._Pencil):
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
    pen = eigen_mod._Pencil(Mt, A)
    est, vec = eigen_mod._top_eigpair(pen)
    assert pen.dm is not None and pen._bands[0] is None
    assert pen._bands[1].shape == (pen.bw + 1, A.shape[0])
    banded = _BandedMass(Mt, A)
    want, want_vec = eigen_mod._top_eigpair(banded)
    assert banded._bands[0] is not None
    assert est == want and vec.tobytes() == want_vec.tobytes()


@pytest.mark.parametrize("kind", ["lumped", "lumped_rowsum"])
def test_lumped_mass_only_paths_build_no_ordering(monkeypatch, kind):
    mesh = fs.gen_structured_2d(8, 8, diagonal="alternating")
    Mt, A = pencil(mesh, fs.aniso2d(100.0), kind)
    calls = []
    monkeypatch.setattr(eigen_mod, "reverse_cuthill_mckee",
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
    real = eigen_mod._certified
    calls = []

    def fail_first(*args):
        calls.append(args)
        return len(calls) > 1 and real(*args)

    monkeypatch.setattr(eigen_mod, "_certified", fail_first)
    est = fs.lambda_max_exact(Mt, A)
    assert len(calls) == 2
    assert abs(est.value - want) <= ORACLE_RTOL * want


def test_report_names_the_certified_solve():
    mesh = fs.gen_structured_2d(8, 8)
    rep = fs.stability_report(mesh, fs.aniso2d(100.0))
    assert rep.method.startswith("shift-invert(shift=")
    assert rep.method.endswith(",certified)")


# ---------------------------------------------------------------------------
# the Lanczos kernel's parts
# ---------------------------------------------------------------------------

def _random_tridiagonal(k, seed=11):
    rng = np.random.default_rng(seed)
    return (list(rng.standard_normal(k)),
            list(np.abs(rng.standard_normal(k - 1))))


def _twin_tridiagonal():
    # two copies of one tridiagonal joined by a tiny coupling: every
    # eigenvalue doubled to within about 1e-13
    a, b = _random_tridiagonal(20)
    return a + a, b + [1e-13] + b


def _per1d_lanczos_tridiagonal():
    # the Lanczos matrix of a near-degenerate top pair, from the engine
    Mt, A = pencil(fs.gen_uniform_1d(512), fs.per1d(2.0 ** -4), "full")
    real, seen = eigen_mod._ritz, []

    def spy(alphas, betas, beta):
        seen.append((list(alphas), list(betas)))
        return real(alphas, betas, beta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigen_mod, "_ritz", spy)
        eigen_mod._lanczos(eigen_mod._Pencil(Mt, A), 40, 0)
    return seen[-1]


TRIDIAGONALS = {
    "k=1": lambda: ([3.5], []),
    "k=2": lambda: ([1.0, 2.0], [0.5]),
    **{f"random-{k}": lambda k=k: _random_tridiagonal(k)
       for k in (3, 10, 60, 300)},
    "near-degenerate": _twin_tridiagonal,
    "per1d-512-lanczos": _per1d_lanczos_tridiagonal,
}


@pytest.mark.parametrize("name", list(TRIDIAGONALS))
def test_ritz_matches_the_tridiagonal_oracle(name):
    alphas, betas = TRIDIAGONALS[name]()
    given = (list(alphas), list(betas))
    k, beta = len(alphas), 0.75
    vals, vecs = sla.eigh_tridiagonal(np.array(alphas), np.array(betas))
    theta, s, resid = eigen_mod._ritz(alphas, betas, beta)
    scale = np.abs(vals).max()
    assert abs(theta - vals[-1]) <= 1e-14 * scale
    assert s.shape == (k,) and np.linalg.norm(s) == pytest.approx(1.0)
    T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    assert np.linalg.norm(T @ s - theta * s) <= 1e-13 * scale
    if k == 1 or vals[-1] - vals[-2] > 1e-6 * scale:
        # a separated top eigenvalue: the vector is the oracle's
        want = vecs[:, -1] * np.sign(vecs[:, -1] @ s)
        assert np.abs(s - want).max() <= 1e-12
        assert resid == pytest.approx(abs(beta * want[-1]) / abs(theta),
                                      rel=1e-8, abs=1e-15)
    # the inputs are not overwritten (LAPACK writes into its off-diagonal)
    assert (alphas, betas) == given


def test_per1d_uniform_256_lumped_cluster_matches_the_oracle():
    # the top five eigenvalues lie within 4e-11 relative; a mass image
    # updated from stored ones, instead of taken fresh, drifts here
    Mt, A = pencil(fs.gen_uniform_1d(256), fs.per1d(2.0 ** -4), "lumped")
    evals = dense_pencil_eigvals(Mt, A)
    assert evals[-1] - evals[-5] < 4e-11 * evals[-1]
    est = fs.lambda_max_exact(Mt, A)
    assert abs(est.value - evals[-1]) <= ORACLE_RTOL * evals[-1]
    assert est.certified and est.residual <= RESIDUAL_MAX


class _Recording(eigen_mod._Pencil):
    """A pencil that keeps every vector the Lanczos kernel multiplies by
    Mtilde: the start vector, then each new basis vector before scaling."""

    def mass(self, v):
        self.seen.append(v.copy())
        return super().mass(v)


@pytest.mark.parametrize("kind", ["full", "lumped"])
@pytest.mark.parametrize("mode", ["mass", "shift-invert"])
def test_lanczos_basis_stays_mass_orthonormal(monkeypatch, kind, mode):
    Mt, A = pencil(fs.gen_uniform_1d(256), fs.per1d(2.0 ** -4), kind)
    pen = _Recording(Mt, A)
    pen.seen = []
    shifted = None
    if mode == "shift-invert":
        shifted = pen.cholesky(1.02 * dense_lambda_max(Mt, A), -1.0)
        monkeypatch.setattr(eigen_mod, "RITZ_TOL", 0.0)   # never converged
    assert eigen_mod._lanczos(pen, 60, 0, shifted)[3] == 60
    Q = np.array(pen.seen[:60])
    Q /= np.sqrt(np.einsum("ij,ji->i", Q, Mt @ Q.T))[:, None]
    assert np.linalg.norm(Q @ (Mt @ Q.T) - np.eye(60), 2) <= 1e-12


def _symmetry_cases():
    """Matrices whose stored arrays and entries differ: X is symmetric as
    a matrix exactly when (X != X.T).nnz == 0."""
    dense = np.array([[4.0, -1.0, 0.5], [-1.0, 4.0, -1.0], [0.5, -1.0, 4.0]])
    base = sp.csr_array(dense)

    def coo(entries):
        r, c, v = zip(*entries)
        return sp.coo_array((v, (r, c)), shape=(3, 3))

    def raw_csr(entries):
        # the entries stored as given, row by row: duplicates and stored
        # zeros stay
        entries = sorted(entries, key=lambda e: e[0])
        r, c, v = (np.array(x) for x in zip(*entries))
        indptr = np.searchsorted(r, np.arange(4))
        return sp.csr_array((v.astype(float), c, indptr), shape=(3, 3))

    entries = [(i, j, dense[i, j]) for i in range(3) for j in range(3)]
    off = base.copy()
    off.data[1] = np.nextafter(off.data[1], np.inf)
    unsorted = base.copy()
    for i in range(3):          # reverse each row's stored order
        lo, hi = unsorted.indptr[i], unsorted.indptr[i + 1]
        unsorted.indices[lo:hi] = unsorted.indices[lo:hi][::-1].copy()
        unsorted.data[lo:hi] = unsorted.data[lo:hi][::-1].copy()
    unsorted.has_sorted_indices = False
    unsorted_off = unsorted.copy()
    unsorted_off.data[0] += 1.0
    nan = base.copy()
    nan.data[0] = np.nan
    zero_corner = [e for e in entries if e[:2] not in ((0, 2), (2, 0))]
    return {
        "symmetric": base,
        "one-asymmetric-entry": off,
        # a stored zero whose mirror is not stored, or stored nonzero
        "explicit-zero": raw_csr(zero_corner + [(0, 2, 0.0)]),
        "explicit-zero-mirrored-by-nonzero": raw_csr(
            zero_corner + [(0, 2, 0.0), (2, 0, 1.0)]),
        "unsorted-indices": unsorted,
        "unsorted-indices-asymmetric": unsorted_off,
        # duplicates that sum to the mirror entry, to another value, or
        # cancel where the mirror is not stored
        "duplicates": raw_csr(entries + [(0, 1, 0.25), (0, 1, -0.25)]),
        "duplicates-asymmetric": raw_csr(entries + [(0, 1, 0.25)]),
        "duplicates-cancelling": raw_csr(
            zero_corner + [(0, 2, 0.5), (0, 2, -0.5)]),
        "csc": sp.csc_array(base),
        "csc-asymmetric": sp.csc_array(off),
        "coo-with-duplicates": coo(entries + [(1, 2, 1.0), (1, 2, -1.0)]),
        "nan-entry": nan,
    }


SYMMETRY_CASES = _symmetry_cases()


def _stored_arrays(X):
    return (X.data, *((X.indices, X.indptr) if X.format != "coo"
                      else X.coords))


@pytest.mark.parametrize("name", list(SYMMETRY_CASES))
def test_pencil_symmetry_decision_is_the_entrywise_one(name):
    X = SYMMETRY_CASES[name]
    want = (X != X.T).nnz == 0
    stored = [np.copy(a) for a in _stored_arrays(X)]
    eye = sp.csr_array(np.eye(3))
    for args, label in (((eye, X), "A"), ((X, eye), "Mtilde")):
        if want:
            eigen_mod._Pencil(*args)
        else:
            with pytest.raises(ValueError, match=f"^{label} is not symmetric"):
                eigen_mod._Pencil(*args)
    # the check works on a copy: the caller's arrays are untouched
    assert all(np.array_equal(a, b, equal_nan=True)
               for a, b in zip(stored, _stored_arrays(X)))
