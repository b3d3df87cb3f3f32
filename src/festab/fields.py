"""Symmetric positive definite tensor fields (diffusion matrices, metrics).

A field maps points to d-by-d SPD matrices.  Variants: constants, analytic
builtins, per-region constants keyed by element tags, and lazy inverses.
The builtin names understood by `parse_field_spec` match the experiment
families: per1d, nonper1d, aniso2d, identity, constant, piecewise.
"""

from __future__ import annotations

import numpy as np

SPD_RTOL = 1e-14


class TensorField:
    """Base class: callable on (m, d) point arrays, returns (m, d, d)."""

    #: spatial dimension, or None when the field works in any dimension
    dim = None

    def __call__(self, x):
        raise NotImplementedError

    def element_values(self, region_tags):
        """The matrices of a field that is constant on each element, given
        the elements' (ne,) region tags, as a pair (values, index): the
        distinct matrices (r, d, d) and each element's row in them (ne,),
        so element k holds values[index[k]].  None when the field varies
        inside elements and its averages need quadrature."""
        return None

    def name(self):
        return type(self).__name__


def _as_points(x, dim=None):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None] if dim in (None, 1) else x[None, :]
    return x


_SCREEN_MARGIN = 1e-8


def _clearly_spd(mats):
    """Mask of the matrices of the stack (..., d, d) whose symmetric parts
    pass a closed-form Sylvester screen (d <= 3; none pass for larger d):
    every diagonal entry positive, and each leading principal minor of
    order k >= 2 above _SCREEN_MARGIN * trace^k.

    A matrix that passes is SPD with lmin/lmax > _SCREEN_MARGIN, since
    lmin >= det / trace^(d-1), so `eigvalsh` would pass it too.  Rounding
    lets no other matrix through: given the positive diagonal and the m2
    margin, an off-diagonal entry well above the trace makes det far
    negative, and with every entry near or below the trace the minors move
    by a few eps * trace^k, far below the margin.  A minor that overflows
    fails the screen.
    """
    d = mats.shape[-1]
    if d > 3:
        return np.zeros(mats.shape[:-2], dtype=bool)

    def sym(i, j):
        """Entry (i, j) of the symmetric parts, as `check_spd` forms them."""
        if i == j:
            return mats[..., i, i]
        return 0.5 * (mats[..., i, j] + mats[..., j, i])

    a = sym(0, 0)
    if d == 1:
        return a > 0.0
    b, e = sym(0, 1), sym(1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = a * e - b * b
        if d == 2:
            trace = a + e
            return (a > 0.0) & (e > 0.0) & (m2 > _SCREEN_MARGIN * trace ** 2)
        c, f, i = sym(0, 2), sym(1, 2), sym(2, 2)
        trace = a + e + i
        det = m2 * i - a * f * f - e * c * c + 2.0 * b * c * f
        return ((a > 0.0) & (e > 0.0) & (i > 0.0)
                & (m2 > _SCREEN_MARGIN * trace ** 2)
                & (det > _SCREEN_MARGIN * trace ** 3))


def _inv(mats):
    """Inverses of a stack (..., d, d) of matrices with d <= 3, by the
    adjugate over the determinant; np.linalg.LinAlgError, as from
    np.linalg.inv, when a determinant is zero.

    For d = 3 the determinant can lose a factor s1/s2 (singular values
    s1 >= s2 >= s3) to cancellation, an error that scales the whole
    inverse: 5e4 eps cond(A) at eigenvalues (1, 1, 1e6).  One Newton step
    X + X (I - A X) brings it back to the eps cond(A) of np.linalg.inv.

    Each matrix is first scaled by the power of two that brings its
    largest |entry| into [0.5, 1), and its inverse by the same factor, so
    the d-fold products neither overflow nor underflow at any scale and,
    the scaling being exact, the digits are those of the unscaled
    formulas.
    """
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[-1]
    if d > 3:
        raise ValueError(f"_inv supports d <= 3, got {d}x{d} matrices")
    big = np.maximum(mats.max(axis=(-2, -1)), -mats.min(axis=(-2, -1)))
    scale = np.ldexp(1.0, -np.frexp(big)[1])[..., None, None]
    mats = mats * scale
    m = [[mats[..., r, q] for q in range(d)] for r in range(d)]
    adj = np.empty_like(mats)
    if d == 1:
        adj[...] = 1.0
    elif d == 2:
        adj[..., 0, 0], adj[..., 0, 1] = m[1][1], -m[0][1]
        adj[..., 1, 0], adj[..., 1, 1] = -m[1][0], m[0][0]
    else:
        # adj[q, r] is the cofactor of m[r][q]
        for r in range(3):
            r1, r2 = (r + 1) % 3, (r + 2) % 3
            for q in range(3):
                q1, q2 = (q + 1) % 3, (q + 2) % 3
                adj[..., q, r] = (m[r1][q1] * m[r2][q2]
                                  - m[r1][q2] * m[r2][q1])
    det = (adj[..., 0, :] * mats[..., :, 0]).sum(axis=-1)
    if not det.all():
        raise np.linalg.LinAlgError("Singular matrix")
    inv = adj / det[..., None, None]
    if d == 3:
        inv += inv @ (np.eye(3) - mats @ inv)
    inv *= scale
    return inv


def check_spd(mats, context="field evaluation"):
    """Raise ValueError unless every matrix is finite and symmetric with
    lmin > 0.

    The positivity threshold is relative: lmin > SPD_RTOL * lmax.  For
    d <= 3 a closed-form Sylvester screen (`_clearly_spd`) clears the
    matrices it proves SPD with lmin/lmax > 1e-8; only the others reach
    `eigvalsh`, so every decision and message is the one `eigvalsh` on
    every matrix would give.
    """
    mats = np.asarray(mats, dtype=float)
    mats = mats.reshape((-1,) + mats.shape[-2:])
    if not np.isfinite(mats).all():
        finite = np.isfinite(mats).all(axis=(-2, -1))
        k = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"{context}: matrix {k} has a non-finite entry")
    r, c = np.triu_indices(mats.shape[-1], 1)
    asym = np.abs(mats[:, r, c] - mats[:, c, r]).max(initial=0.0)
    scale = np.abs(mats).max()
    if asym > 1e-12 * max(scale, 1e-300):
        raise ValueError(f"{context}: matrix not symmetric "
                         f"(asymmetry {asym:g})")
    rest = np.flatnonzero(~_clearly_spd(mats))
    left = mats[rest]
    ev = np.linalg.eigvalsh(0.5 * (left + np.swapaxes(left, 1, 2)))
    lmin = ev[:, 0]
    lmax = ev[:, -1]
    bad = lmin <= SPD_RTOL * np.maximum(lmax, 0.0)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise ValueError(f"{context}: matrix {rest[j]} not positive definite "
                         f"(eigenvalues {ev[j]})")


class Constant(TensorField):
    """Spatially constant SPD matrix (a scalar is taken as scalar*I)."""

    def __init__(self, matrix, dim=None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim == 0:
            if dim is None:
                raise ValueError("scalar Constant needs an explicit dim")
            matrix = np.diag(np.full(dim, float(matrix)))
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("Constant needs a square matrix")
        check_spd(matrix, "Constant field")
        self.matrix = matrix
        self.dim = matrix.shape[0]

    def __call__(self, x):
        x = _as_points(x, self.dim)
        return np.broadcast_to(self.matrix, (len(x),) + self.matrix.shape).copy()

    def element_values(self, region_tags):
        return (self.matrix[None].copy(),
                np.zeros(len(region_tags), dtype=np.intp))

    def name(self):
        return f"constant({self.dim}d)"


def identity(dim):
    return Constant(np.eye(dim))


class Analytic(TensorField):
    """Field given by a vectorized function of the point coordinates.

    ``fn`` receives an (m, d) array and may return (m, d, d) matrices or
    (m,) scalars; scalars are promoted to scalar * I.
    """

    def __init__(self, fn, dim, label=None):
        self.fn = fn
        self.dim = dim
        self.label = label or "analytic"

    def __call__(self, x):
        x = _as_points(x, self.dim)
        vals = np.asarray(self.fn(x), dtype=float)
        if vals.ndim == 1:
            out = np.zeros((len(x), self.dim, self.dim))
            idx = np.arange(self.dim)
            out[:, idx, idx] = vals[:, None]
            return out
        return vals

    def name(self):
        return self.label


class PiecewiseConstantPerElement(TensorField):
    """Constant matrix per element region tag.

    Evaluated through `matrix_for(tag)` or `element_values(tags)`; point
    evaluation is undefined.
    """

    def __init__(self, table, dim=None):
        self.table = {}
        for tag, mat in table.items():
            mat = np.asarray(mat, dtype=float)
            if mat.ndim == 0:
                if dim is None:
                    raise ValueError("scalar entries need an explicit dim")
                mat = np.diag(np.full(dim, float(mat)))
            check_spd(mat, f"piecewise field, region {tag}")
            self.table[int(tag)] = mat
            if dim is None:
                dim = mat.shape[0]
            elif mat.shape[0] != dim:
                raise ValueError("inconsistent matrix sizes in piecewise table")
        if dim is None:
            raise ValueError("empty piecewise table")
        self.dim = dim

    def matrix_for(self, tag):
        try:
            return self.table[int(tag)]
        except KeyError:
            raise ValueError(f"no matrix for region tag {tag}") from None

    def element_values(self, region_tags):
        """One row of values per tag present, in increasing tag order."""
        tags, index = np.unique(region_tags, return_inverse=True)
        values = np.empty((len(tags), self.dim, self.dim))
        for row, tag in enumerate(tags):
            values[row] = self.matrix_for(tag)
        return values, index

    def __call__(self, x):
        raise ValueError("piecewise-per-element field has no pointwise value; "
                         "use matrix_for(region_tag)")

    def name(self):
        return f"piecewise({len(self.table)} regions)"


class InverseOf(TensorField):
    """Pointwise inverse of another SPD field."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def __call__(self, x):
        return _inv(self.inner(x))

    def element_values(self, region_tags):
        inner = self.inner.element_values(region_tags)
        if inner is None:
            return None
        values, index = inner
        return _inv(values), index

    def name(self):
        return f"inv({self.inner.name()})"


# ----------------------------------------------------------------------
# Builtins


def per1d(eps=2.0 ** -4):
    """Oscillatory 1D diffusion 1 / (2 - sin(2 pi x / eps))."""
    def fn(x):
        return 1.0 / (2.0 - np.sin(2.0 * np.pi * x[:, 0] / eps))
    return Analytic(fn, dim=1, label=f"per1d(eps={eps:g})")


def nonper1d(eps=2.0 ** -4):
    """Non-periodic oscillatory 1D diffusion with accelerating phase."""
    def fn(x):
        phase = np.tan((1.0 - eps) * np.pi * x[:, 0] / 2.0)
        return 1.0 / (2.0 - np.sin(2.0 * np.pi * phase))
    return Analytic(fn, dim=1, label=f"nonper1d(eps={eps:g})")


def aniso2d(kappa=1000.0):
    """Rotated anisotropic 2D diffusion R(theta) diag(kappa, 1) R(theta)^T
    with theta = pi sin(x) cos(y)."""
    def fn(x):
        th = np.pi * np.sin(x[:, 0]) * np.cos(x[:, 1])
        c, s = np.cos(th), np.sin(th)
        out = np.empty((len(x), 2, 2))
        out[:, 0, 0] = kappa * c * c + s * s
        out[:, 1, 1] = kappa * s * s + c * c
        out[:, 0, 1] = out[:, 1, 0] = (kappa - 1.0) * c * s
        return out
    return Analytic(fn, dim=2, label=f"aniso2d(kappa={kappa:g})")


def load_piecewise(path, dim=None):
    """Read a per-region table: lines `tag` + upper-triangle matrix entries.

    1D: `tag m11`; 2D: `tag m11 m12 m22`; 3D: `tag m11 m12 m13 m22 m23 m33`.
    '#' starts a comment; a tag may appear on one line only.
    """
    table, first_line = {}, {}
    with open(path) as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                tag = int(parts[0])
                vals = [float(p) for p in parts[1:]]
            except ValueError:
                raise ValueError(f"{path}:{ln}: malformed region line") from None
            if tag in first_line:
                raise ValueError(f"{path}:{ln}: region tag {tag} repeated "
                                 f"(first on line {first_line[tag]})")
            first_line[tag] = ln
            if len(vals) == 1:
                mat = np.array([[vals[0]]])
            elif len(vals) == 3:
                mat = np.array([[vals[0], vals[1]], [vals[1], vals[2]]])
            elif len(vals) == 6:
                mat = np.array([[vals[0], vals[1], vals[2]],
                                [vals[1], vals[3], vals[4]],
                                [vals[2], vals[4], vals[5]]])
            else:
                raise ValueError(f"{path}:{ln}: expected 1, 3 or 6 matrix "
                                 f"entries, got {len(vals)}")
            table[tag] = mat
    return PiecewiseConstantPerElement(table, dim=dim)


_BUILTIN_DEFAULTS = {
    "identity": {},
    "constant": {"value": 1.0},
    "per1d": {"eps": 2.0 ** -4},
    "nonper1d": {"eps": 2.0 ** -4},
    "aniso2d": {"kappa": 1000.0},
    "piecewise": {"file": None},
}


def parse_field_spec(spec, dim=None):
    """Build a field from a `name:key=value,...` string.

    Examples: ``identity``, ``per1d:eps=0.0625``, ``aniso2d:kappa=1000``,
    ``piecewise:file=regions.txt``.  `dim` is required for `identity` and
    scalar `constant` and checked against the builtin's dimension otherwise.
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in _BUILTIN_DEFAULTS:
        raise ValueError(f"unknown field {name!r} (choices: "
                         f"{', '.join(sorted(_BUILTIN_DEFAULTS))})")
    params = dict(_BUILTIN_DEFAULTS[name])
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in params:
                raise ValueError(f"bad field parameter {item!r} for {name}")
            params[key] = value.strip()

    if name == "identity":
        if dim is None:
            raise ValueError("identity field needs the mesh dimension")
        return identity(dim)
    if name == "constant":
        if dim is None:
            raise ValueError("constant field needs the mesh dimension")
        return Constant(float(params["value"]), dim=dim)
    if name == "per1d":
        field = per1d(float(params["eps"]))
    elif name == "nonper1d":
        field = nonper1d(float(params["eps"]))
    elif name == "aniso2d":
        field = aniso2d(float(params["kappa"]))
    else:
        if not params["file"]:
            raise ValueError("piecewise field needs file=<path>")
        field = load_piecewise(params["file"], dim=dim)
    if dim is not None and field.dim is not None and field.dim != dim:
        raise ValueError(f"field {name} is {field.dim}D but the mesh is {dim}D")
    return field


def adapted_weight(field):
    """1D equidistribution weight w = D^{-1/2} for diffusion-matched meshes.

    ``w`` is vectorized: an array of points gives an array of weights of
    the same shape, a float gives a float.
    """
    if field.dim not in (None, 1):
        raise ValueError("adapted_weight applies to 1D fields")

    def w(x):
        x = np.asarray(x, dtype=float)
        vals = 1.0 / np.sqrt(field(x.reshape(-1, 1))[:, 0, 0])
        return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)
    return w
