"""The benchmark's three workloads and their output checks.

Each workload has a `build` step (inputs made from the seed, timed as set-up
together with the festab import) and a `run_pass` step (one pass over the
workload's cases, timed).  A pass returns one `Case` per checked output; a
case fails if it raised, exited nonzero or failed a check.

Checks on every seed: the diagonal bracket 1 <= tau_max/tau_h <= C*, exit
code 0, and decay at tau_max in the march.  Where `reference.json` holds
values for the seed (recorded from the seed commit), every stored number
must also match to 1e-12 relative.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

REL_TOL = 1e-12
BRACKET_TOL = 1e-9
MASS_KINDS = ("full", "lumped", "lumped_rowsum")
REPORT_KEYS = ("c_star", "lambda_exact", "lambda_diag_lower",
               "lambda_diag_upper", "lambda_geo", "lambda_zhudu_lower",
               "lambda_zhudu_upper", "lambda_shewchuk_lower",
               "lambda_shewchuk_upper", "tau_max_over_s2", "tau_h_over_s2")


@dataclass
class Case:
    name: str
    errors: list = field(default_factory=list)
    values: object = None      # output compared against the reference


@dataclass
class PassResult:
    cases: list = field(default_factory=list)
    report_s: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# checks


def compare(actual, expected, where=""):
    """Mismatches between two JSON-like values, numbers at REL_TOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        out = []
        for key in expected.keys() | actual.keys():
            if key not in actual or key not in expected:
                out.append(f"{where}/{key}: present on one side only")
            else:
                out += compare(actual[key], expected[key], f"{where}/{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected a list of {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, f"{where}[{i}]")
        return out
    if isinstance(expected, (int, float)) and not isinstance(expected, bool) \
            and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if abs(actual - expected) <= REL_TOL * max(abs(actual),
                                                   abs(expected)):
            return []
        return [f"{where}: {actual!r} != reference {expected!r}"]
    if actual != expected:
        return [f"{where}: {actual!r} != reference {expected!r}"]
    return []


def check_bracket(values, where):
    """1 <= tau_max/tau_h <= C* for one report's values."""
    ratio = values["tau_max_over_s2"] / values["tau_h_over_s2"]
    cst = values["c_star"]
    if not (1.0 - BRACKET_TOL <= ratio <= cst + BRACKET_TOL):
        return [f"{where}: bracket ratio {ratio!r} outside [1, {cst}]"]
    return []


def check_decay(trace, energy_only, where):
    """Norms nonincreasing at tau_max (energy only for a lumped mass)."""
    if trace.unstable_at is not None:
        return [f"{where}: overflow at step {trace.unstable_at}"]
    errors = []
    norms = [("energy", trace.energy)]
    if not energy_only:
        norms.insert(0, ("l2", trace.l2))
    for name, values in norms:
        grew = np.flatnonzero(np.diff(values) > 1e-12 * values[0])
        if len(grew):
            errors.append(f"{where}: {name} norm grew at step {grew[0] + 1}")
    return errors


def _run_case(result, name, body):
    """Run body(case) and record the case, turning an exception into an
    error so one broken case does not stop the pass."""
    case = Case(name)
    try:
        body(case)
    except Exception as exc:  # noqa: BLE001 -- every failure is a case result
        case.errors.append(f"{name}: {type(exc).__name__}: {exc}")
    result.cases.append(case)


def _cli(fs_cli, argv):
    """In-process CLI call with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fs_cli.main(argv)


def _jitter(fs, mesh, cells, frac, rng):
    """Move interior nodes by up to frac * h per coordinate.

    Raises if an element would flip, which SimplicialMesh would otherwise
    repair silently by reordering its vertices.
    """
    nodes = mesh.nodes.copy()
    free = mesh.node_markers != fs.DIRICHLET
    h = 1.0 / cells
    nodes[free] += rng.uniform(-frac * h, frac * h,
                               size=(int(free.sum()), mesh.dim))
    p = nodes[mesh.elements]
    edges = np.swapaxes(p[:, 1:, :] - p[:, :1, :], 1, 2)
    if not (np.linalg.det(edges) > 0.0).all():
        raise ValueError("jitter flipped an element")
    return fs.SimplicialMesh(nodes, mesh.elements, mesh.node_markers)


# ---------------------------------------------------------------------------
# workload 1: stability reports on a jittered anisotropic 2D grid + march


class Report2dAniso:
    name = "report-2d-aniso"
    seeded = True
    STAGES = 4
    CELLS = (8, 40)            # grid cells per side: (smoke, full)
    STEPS = (50, 500)          # march steps: (smoke, full)

    def build(self, fs, seed, smoke, workdir):
        cells = self.CELLS[not smoke]
        rng = np.random.default_rng(seed)
        mesh = _jitter(fs, fs.gen_structured_2d(cells, cells,
                                                diagonal="right"),
                       cells, 0.1, rng)
        n_free = int((mesh.node_markers != fs.DIRICHLET).sum())
        return {"mesh": mesh, "field": fs.aniso2d(1000.0),
                "u0": rng.uniform(-1.0, 1.0, n_free),
                "steps": self.STEPS[not smoke]}

    def run_pass(self, fs, inputs, reference):
        result = PassResult()
        mesh, fld, s = inputs["mesh"], inputs["field"], self.STAGES
        lam = {}
        for kind in MASS_KINDS:
            def report(case, kind=kind):
                t0 = perf_counter()
                rep = fs.stability_report(mesh, fld, mass_kind=kind, s=s)
                result.report_s.append(perf_counter() - t0)
                case.values = {k: getattr(rep, k) for k in REPORT_KEYS}
                lam[kind] = rep.lambda_exact
                case.errors += check_bracket(case.values, case.name)
                if reference is not None:
                    case.errors += compare(case.values, reference[case.name],
                                           case.name)
            _run_case(result, f"report:{kind}", report)

        for kind in ("full", "lumped_rowsum"):
            def march(case, kind=kind):
                dof = fs.DofMap(mesh)
                M = fs.assemble_mass(mesh, dof)
                A = fs.assemble_stiffness(mesh, fld, 4, dof)
                Mt = M if kind == "full" else fs.row_sum_lumping(M)
                scheme = fs.ChebyshevScheme(s=s)
                trace = fs.integrate(scheme, Mt, M, A, inputs["u0"],
                                     scheme.tau_max(lam[kind]),
                                     inputs["steps"])
                case.errors += check_decay(trace, kind != "full", case.name)
            _run_case(result, f"march:{kind}", march)
        return result


# ---------------------------------------------------------------------------
# workload 2: `festab analyze` with Lanczos on a jittered 3D mesh file


class Analyze3dLanczos:
    name = "analyze-3d-lanczos"
    seeded = True
    CELLS = (4, 12)            # cube cells per side: (smoke, full)

    def build(self, fs, seed, smoke, workdir):
        cells = self.CELLS[not smoke]
        rng = np.random.default_rng(seed)
        mesh = _jitter(fs, fs.gen_structured_3d(cells, cells, cells),
                       cells, 0.05, rng)
        path = os.path.join(workdir, "cube.mesh")
        fs.save_mesh(mesh, path)
        return {"mesh_file": path, "workdir": workdir}

    def run_pass(self, fs, inputs, reference):
        result = PassResult()
        for mass in ("full", "lumped"):
            def analyze(case, mass=mass):
                out = os.path.join(inputs["workdir"], f"analyze-{mass}.json")
                if os.path.exists(out):
                    os.remove(out)
                argv = ["analyze", "--mesh", inputs["mesh_file"],
                        "--field", "identity", "--mass", mass,
                        "--lanczos", "10", "--stages", "4", "-o", out]
                t0 = perf_counter()
                code = _cli(fs.cli, argv)
                result.report_s.append(perf_counter() - t0)
                if code != 0:
                    case.errors.append(f"{case.name}: exit code {code}")
                    return
                with open(out) as fh:
                    payload = json.load(fh)
                case.values = {k: payload[k] for k in REPORT_KEYS}
                case.values["quality"] = payload["quality"]
                case.errors += check_bracket(case.values, case.name)
                if reference is not None:
                    case.errors += compare(case.values, reference[case.name],
                                           case.name)
            _run_case(result, f"analyze:{mass}", analyze)
        return result


# ---------------------------------------------------------------------------
# workload 3: `festab experiment` on a fixed INI file (seed-independent)


class ExperimentTables:
    name = "experiment-tables"
    seeded = False
    # Largest C* per dimension (full mass): 2(d+1).
    SECTIONS = {"per1d": 4.0, "zd2d": 6.0, "groundwater_like": 6.0}
    SIZES = ("16 32", "64 128 256 512")   # per1d sizes: (smoke, full)

    def build(self, fs, seed, smoke, workdir):
        sizes = self.SIZES[not smoke]
        path = os.path.join(workdir, "tables.ini")
        with open(path, "w") as fh:
            fh.write(f"[per1d]\nsizes = {sizes}\nlumping = both\n"
                     "output = per1d.csv\n\n"
                     "[zd2d]\noutput = zd2d.csv\n\n"
                     "[groundwater_like]\noutput = groundwater.csv\n")
        return {"ini": path, "out_dir": os.path.join(workdir, "tables")}

    def run_pass(self, fs, inputs, reference):
        result = PassResult()
        summary_path = os.path.join(inputs["out_dir"], "summary.json")
        if os.path.exists(summary_path):
            os.remove(summary_path)
        argv = ["experiment", inputs["ini"], "--out-dir", inputs["out_dir"]]
        t0 = perf_counter()
        try:
            code = _cli(fs.cli, argv)
        except Exception as exc:  # noqa: BLE001 -- reported per section
            code = f"{type(exc).__name__}: {exc}"
        result.report_s.append(perf_counter() - t0)

        for section, cmax in self.SECTIONS.items():
            def rows(case, section=section, cmax=cmax):
                if code != 0:
                    case.errors.append(f"{case.name}: exit code {code}")
                    return
                with open(summary_path) as fh:
                    case.values = json.load(fh)[section]
                for row in case.values:
                    r = row["ratio"]["diag"]
                    if not (1.0 - BRACKET_TOL <= r <= cmax + BRACKET_TOL):
                        case.errors.append(
                            f"{case.name}/{row['mesh_id']}/{row['mass_kind']}"
                            f": bracket ratio {r!r} outside [1, {cmax}]")
                if reference is not None:
                    case.errors += compare(case.values, reference[case.name],
                                           case.name)
            _run_case(result, f"experiment:{section}", rows)
        return result


WORKLOADS = {w.name: w for w in (Report2dAniso(), Analyze3dLanczos(),
                                  ExperimentTables())}
