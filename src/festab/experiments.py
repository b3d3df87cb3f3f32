"""Benchmark harness: builds the standard mesh families, evaluates every
bound against the exact eigenvalue and writes table-style CSV summaries.

Five families are provided:

========================  =====================================================
``per1d`` / ``nonper1d``  1D heat diffusion with an oscillatory (resp.
                          boundary-layer) coefficient, on uniform and on
                          coefficient-adapted meshes, N in ``sizes``.
``zd2d``                  2D Laplacian on a 32x32 square grid, a stretched
                          4x256 grid and a geometrically graded 4x16 grid.
``groundwater_like``      layered-aquifer lookalike: unit grid scaled to
                          (0,100)^2 with two nearly impermeable strips.
``aniso2d``               rotating anisotropic coefficient (ratio kappa) on a
                          quasi-uniform grid and on a direction-aligned patch.
========================  =====================================================

Experiment files are plain INI text, one section per experiment::

    [per1d]
    sizes = 64 128 256
    lumping = both
    output = per1d.csv

Every run is deterministic: the only randomness (Lanczos start vectors) is
seeded, and CSV floats are written with full repr precision.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import warnings
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .mesh import (DIRICHLET, NEUMANN, SimplicialMesh, _lattice,
                   gen_equidistributed_1d, gen_structured_2d, gen_uniform_1d,
                   load_mesh)
from .fields import (PiecewiseConstantPerElement, adapted_weight, aniso2d,
                     identity, nonper1d, per1d)
from .assembly import ProblemContext
from .bounds import BOUND_NAMES, _check_bound_names, stability_report
from .quality import _check_quad_order

_DEFAULT_SIZES = (64, 128, 256, 512, 1024)


# ----------------------------------------------------------------------------
# builtin mesh builders beyond the structured generators
# ----------------------------------------------------------------------------

GROUNDWATER_CELLS = 25


def gen_groundwater_like(contrast=1e-6):
    """Layered-aquifer benchmark on (0,100)^2; returns (mesh, field).

    Two horizontal strips y in [40,44] and [64,68], truncated to
    x in [20,80], carry diffusion ``contrast * I`` (nearly impermeable);
    everywhere else the diffusion is the identity.  Flow is driven top to
    bottom: y=0 and y=100 are Dirichlet, the vertical sides are no-flux.
    The grid has GROUNDWATER_CELLS cells per side, a multiple of 25, so
    its lines pass exactly through the strip boundaries and corners and
    the strips are resolved sharply.
    """
    base = gen_structured_2d(GROUNDWATER_CELLS, GROUNDWATER_CELLS,
                             diagonal="right")
    nodes = 100.0 * base.nodes
    x, y = nodes[:, 0], nodes[:, 1]
    markers = np.zeros(len(nodes), dtype=np.int64)
    markers[(x == 0.0) | (x == 100.0)] = NEUMANN
    markers[(y == 0.0) | (y == 100.0)] = DIRICHLET

    cent = nodes[base.elements].mean(axis=1)
    cx, cy = cent[:, 0], cent[:, 1]
    in_strip = ((cx >= 20.0) & (cx <= 80.0)
                & (((cy >= 40.0) & (cy <= 44.0))
                   | ((cy >= 64.0) & (cy <= 68.0))))
    tags = in_strip.astype(np.int64)

    mesh = SimplicialMesh(nodes, base.elements, markers, region_tags=tags)
    diffusion = PiecewiseConstantPerElement(
        {0: np.eye(2), 1: contrast * np.eye(2)}, dim=2)
    return mesh, diffusion


def _rot_dirs():
    """Unit direction fields of the rotating-anisotropy benchmark (they do
    not depend on the aspect ratio kappa)."""

    def principal(p):
        th = math.pi * math.sin(p[0]) * math.cos(p[1])
        return np.array([math.cos(th), math.sin(th)])

    def transverse(p):
        th = math.pi * math.sin(p[0]) * math.cos(p[1])
        return np.array([-math.sin(th), math.cos(th)])

    return principal, transverse


def _rk4(p, f, h):
    k1 = f(p)
    k2 = f(p + 0.5 * h * k1)
    k3 = f(p + 0.5 * h * k2)
    k4 = f(p + h * k3)
    return p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(p0, f, steps_fwd, steps_back, h):
    """Streamline points through p0: steps_back upstream + p0 + steps_fwd."""
    fwd = [np.asarray(p0, dtype=float)]
    for _ in range(steps_fwd):
        fwd.append(_rk4(fwd[-1], f, h))
    back = [fwd[0]]
    for _ in range(steps_back):
        back.append(_rk4(back[-1], f, -h))
    return back[::-1][:-1] + fwd


# (even, odd) cell splits of the aligned patch in (row, spine) offsets
_ALIGNED_SPLITS = ((((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0))),
                   (((0, 0), (0, 1), (1, 0)), ((0, 1), (1, 1), (1, 0))))
_ALIGNED_SEED = (0.45, 0.35)    # the middle point of the spine
_ALIGNED_STEP = 0.02            # arc-length step along the spine


def gen_metric_aligned(kappa=1000.0, n_long=16, n_short=100):
    """Structured patch whose cells follow the rotating-anisotropy axes.

    Starting from _ALIGNED_SEED, a spine of ``n_long`` steps of length
    _ALIGNED_STEP is traced along the principal diffusion direction by RK4
    arc-length stepping; from each spine point a transversal of
    ``n_short`` steps is traced along the perpendicular direction with the
    step shrunk by sqrt(kappa).  The resulting logically rectangular point
    set is split into triangles (alternating diagonals), giving elements
    that are long across the strong-diffusion axis and short across the
    weak one -- the shape that maximizes the stable time step for this
    coefficient.  The patch boundary is clamped (Dirichlet).
    """
    if n_long < 2 or n_short < 2:
        raise ValueError("aligned patch needs n_long, n_short >= 2")
    step_short = _ALIGNED_STEP / math.sqrt(kappa)
    principal, transverse = _rot_dirs()

    spine = _march(_ALIGNED_SEED, principal,
                   n_long // 2, n_long - n_long // 2, _ALIGNED_STEP)
    rows = [_march(p, transverse, n_short // 2, n_short - n_short // 2,
                   step_short) for p in spine]
    pts = np.array(rows)  # (n_long+1, n_short+1, 2)

    # lattice axis 0 runs along the rows (the transversals), axis 1 along
    # the spine
    return SimplicialMesh(pts.reshape(-1, 2),
                          *_lattice((n_short, n_long), *_ALIGNED_SPLITS))


# ----------------------------------------------------------------------------
# experiment specification and table rows
# ----------------------------------------------------------------------------

@dataclass
class ExperimentSpec:
    """One benchmark family plus its parameters.

    ``lumping`` selects the mass-surrogate panel: "full", "lumped" or
    "both".  For 1D families "lumped" means the diagonal of vertex-patch
    volumes; for 2D families it means row sums of the eliminated mass
    matrix (the convention under which the reference time-step tables for
    the square-grid family are reproduced).
    """
    name: str
    sizes: tuple = _DEFAULT_SIZES
    eps: float = 2.0 ** -4
    kappa: float = 1000.0
    contrast: float = 1e-6
    lumping: str = "both"
    bounds: tuple = BOUND_NAMES
    output: str | None = None
    mesh_files: tuple = ()
    quad_order: int = 4

    def __post_init__(self):
        _family(self.name)
        self.sizes = tuple(int(n) for n in self.sizes)
        if any(n < 4 for n in self.sizes):
            raise ValueError("every mesh size N must be >= 4")
        if self.lumping not in ("both", "full", "lumped"):
            raise ValueError(f"lumping must be both/full/lumped, "
                             f"got {self.lumping!r}")
        _check_quad_order(self.quad_order)
        _check_bound_names(self.bounds)

    def mass_kinds(self):
        lumped_kind = _family(self.name)[1]
        if self.lumping == "full":
            return ("full",)
        if self.lumping == "lumped":
            return (lumped_kind,)
        return ("full", lumped_kind)


@dataclass
class TableRow:
    """One (mesh, mass surrogate) cell of a benchmark table."""
    mesh_id: str
    n_elements: int
    mass_kind: str
    lambda_max: float
    tau_max_over_s2: float
    tau_h_over_s2: dict = _dc_field(default_factory=dict)
    ratio: dict = _dc_field(default_factory=dict)
    note: str = ""

    @classmethod
    def from_report(cls, report):
        taus = {}
        ratios = {}
        for method, tau_h, ratio in report.method_rows():
            taus[method] = tau_h
            ratios[method] = ratio
        return cls(mesh_id=report.mesh_id, n_elements=report.n_elements,
                   mass_kind=report.mass_kind, lambda_max=report.lambda_exact,
                   tau_max_over_s2=report.tau_max_over_s2,
                   tau_h_over_s2=taus, ratio=ratios)

    def to_dict(self):
        return {"mesh_id": self.mesh_id, "n_elements": self.n_elements,
                "mass_kind": self.mass_kind, "lambda_max": self.lambda_max,
                "tau_max_over_s2": self.tau_max_over_s2,
                "tau_h_over_s2": dict(self.tau_h_over_s2),
                "ratio": dict(self.ratio), "note": self.note}


def _skip_row(mesh_id, note):
    return TableRow(mesh_id=mesh_id, n_elements=0, mass_kind="-",
                    lambda_max=float("nan"), tau_max_over_s2=float("nan"),
                    note=note)


# ----------------------------------------------------------------------------
# family case lists
# ----------------------------------------------------------------------------

def _cases_1d(spec):
    builder = per1d if spec.name == "per1d" else nonper1d
    diffusion = builder(spec.eps)
    weight = adapted_weight(diffusion)
    for n in spec.sizes:
        yield f"{spec.name}-uniform-N{n}", gen_uniform_1d(n), diffusion
        yield (f"{spec.name}-adapted-N{n}",
               gen_equidistributed_1d(n, weight), diffusion)


def _cases_zd2d(spec):
    diffusion = identity(2)
    yield "zd2d-32x32", gen_structured_2d(32, 32), diffusion
    yield "zd2d-4x256", gen_structured_2d(4, 256), diffusion
    yield "zd2d-bl-4x16", gen_structured_2d(4, 16, ratio_y=1.15), diffusion


def _cases_groundwater(spec):
    mesh, diffusion = gen_groundwater_like(contrast=spec.contrast)
    yield (f"groundwater-{GROUNDWATER_CELLS}x{GROUNDWATER_CELLS}", mesh,
           diffusion)
    for path in spec.mesh_files:
        if not os.path.exists(path):
            yield f"missing:{path}", None, None
            continue
        ext_mesh = load_mesh(path)
        tags = set(np.unique(ext_mesh.region_tags).tolist())
        if not tags <= {0, 1}:
            raise ValueError(f"{path}: region tags must be 0 (background) "
                             f"or 1 (strip), found {sorted(tags)}")
        ext_diff = PiecewiseConstantPerElement(
            {0: np.eye(ext_mesh.dim),
             1: spec.contrast * np.eye(ext_mesh.dim)}, dim=ext_mesh.dim)
        yield f"groundwater-file-{os.path.basename(path)}", ext_mesh, ext_diff


def _cases_aniso2d(spec):
    diffusion = aniso2d(spec.kappa)
    yield "aniso2d-32x32", gen_structured_2d(32, 32), diffusion
    yield "aniso2d-aligned", gen_metric_aligned(spec.kappa), diffusion


# family -> (case builder, lumped mass kind, the experiment-file keys that
# shape its tables besides _COMMON_KEYS); a constant coefficient makes
# quad_order shape nothing in zd2d and groundwater_like
_FAMILY_TABLE = {
    "per1d": (_cases_1d, "lumped", ("sizes", "eps", "quad_order")),
    "nonper1d": (_cases_1d, "lumped", ("sizes", "eps", "quad_order")),
    "zd2d": (_cases_zd2d, "lumped_rowsum", ()),
    "groundwater_like": (_cases_groundwater, "lumped_rowsum",
                         ("contrast", "mesh_files")),
    "aniso2d": (_cases_aniso2d, "lumped_rowsum", ("kappa", "quad_order")),
}
_COMMON_KEYS = ("lumping", "bounds", "output")
FAMILIES = tuple(_FAMILY_TABLE)


def _family(name):
    """The _FAMILY_TABLE entry of `name`; ValueError for an unknown one."""
    if name not in _FAMILY_TABLE:
        raise ValueError(f"unknown experiment family {name!r}; "
                         f"expected one of {FAMILIES}")
    return _FAMILY_TABLE[name]


# ----------------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------------

def run_experiment(spec):
    """Run one family; returns TableRow list (and writes CSV if requested).

    Every row is checked against the bracket guarantee: the diagonal-ratio
    bound must satisfy 1 <= tau_max/tau_h <= C* up to 1e-9; a violation
    aborts the run since it would mean the implementation is wrong.
    """
    rows = []
    for mesh_id, mesh, diffusion in _family(spec.name)[0](spec):
        if mesh is None:
            warnings.warn(f"{spec.name}: skipping missing mesh {mesh_id}")
            rows.append(_skip_row(mesh_id, "missing mesh file"))
            continue
        # one context per mesh: the mass kinds share averages and operators
        ctx = ProblemContext(mesh, diffusion, spec.quad_order)
        for kind in spec.mass_kinds():
            report = stability_report(mesh, diffusion, mass_kind=kind,
                                      quad_order=spec.quad_order,
                                      include=spec.bounds, mesh_id=mesh_id,
                                      context=ctx)
            row = TableRow.from_report(report)
            r = row.ratio["diag"]
            if not (1.0 - 1e-9 <= r <= report.c_star + 1e-9):
                raise RuntimeError(
                    f"{mesh_id}/{kind}: bracket ratio {r} outside "
                    f"[1, {report.c_star}] -- assembly or bound is broken")
            rows.append(row)
    if spec.output:
        write_rows_csv(spec.output, rows)
    return rows


def write_rows_csv(path, rows):
    """Table rows as CSV; repr floats so equal runs give equal bytes."""
    methods = []
    for row in rows:
        for m in row.tau_h_over_s2:
            if m not in methods:
                methods.append(m)
    header = ["mesh_id", "n_elements", "mass_kind", "lambda_max",
              "tau_max_over_s2"]
    header += [f"tau_h_{m}_over_s2" for m in methods]
    header += [f"ratio_{m}" for m in methods]
    header.append("note")
    lines = [",".join(header)]
    for row in rows:
        vals = [row.mesh_id, str(row.n_elements), row.mass_kind,
                repr(row.lambda_max), repr(row.tau_max_over_s2)]
        vals += [repr(row.tau_h_over_s2[m]) if m in row.tau_h_over_s2 else ""
                 for m in methods]
        vals += [repr(row.ratio[m]) if m in row.ratio else ""
                 for m in methods]
        vals.append(row.note)
        lines.append(",".join(vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(path, rows_by_experiment):
    """Combined machine-readable summary over all experiments."""
    payload = {name: [row.to_dict() for row in rows]
               for name, rows in rows_by_experiment.items()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------------
# experiment files
# ----------------------------------------------------------------------------

def _words(raw):
    return tuple(raw.split())


# key -> the conversion of its text to an ExperimentSpec field
_KEY_TYPES = {"sizes": lambda raw: tuple(int(tok) for tok in raw.split()),
              "eps": float, "kappa": float, "contrast": float,
              "quad_order": int, "mesh_files": _words, "bounds": _words,
              "lumping": str.strip, "output": str.strip}


def parse_experiment_file(path):
    """INI-style experiment file -> list of ExperimentSpec.

    Section names are the family names; keys mirror ExperimentSpec fields.
    A section takes only the keys that shape its family's tables, and keys
    under [DEFAULT] count as its own.  List-valued keys (sizes, bounds,
    mesh_files) are whitespace-separated.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
        # items() interpolates '%' references, so it can fail here too
        sections = [(name, parser.items(name)) for name in parser.sections()]
    except configparser.Error as exc:
        # on one line: the parser's messages quote the offending lines
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None
    specs = []
    for section, items in sections:
        kwargs = {"name": section}
        try:
            keys = _family(section)[2] + _COMMON_KEYS
            for key, raw in items:
                if key not in keys:
                    raise ValueError(f"unknown key {key!r}")
                kwargs[key] = _KEY_TYPES[key](raw)
            specs.append(ExperimentSpec(**kwargs))
        except ValueError as exc:
            raise ValueError(f"{path} [{section}]: {exc}") from exc
    if not specs:
        raise ValueError(f"{path}: no experiment sections found")
    return specs


def run_experiment_file(path, out_dir="."):
    """Run every experiment in a spec file; returns {name: rows}.

    Per-experiment CSVs go to each spec's ``output`` (resolved against
    ``out_dir`` when relative); a combined ``summary.json`` is always
    written to ``out_dir``.  Two sections that resolve to one output file,
    or an output that is the summary, are refused before any section runs.
    """
    specs = parse_experiment_file(path)
    summary = os.path.join(out_dir, "summary.json")
    writer = {os.path.abspath(summary): None}     # resolved path -> section
    for spec in specs:
        if not spec.output:
            continue
        if not os.path.isabs(spec.output):
            spec.output = os.path.join(out_dir, spec.output)
        key = os.path.abspath(spec.output)
        if key in writer:
            other = writer[key]
            owner = (f"the summary {summary!r}" if other is None
                     else f"also the output of [{other}]")
            raise ValueError(f"{path} [{spec.name}]: output "
                             f"{spec.output!r} is {owner}")
        writer[key] = spec.name
    os.makedirs(out_dir, exist_ok=True)
    results = {}
    for spec in specs:
        results[spec.name] = run_experiment(spec)
    write_summary_json(summary, results)
    return results
