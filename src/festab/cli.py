"""Command-line front end: mesh generation, stability analysis, explicit
integration and batch experiments.

Exit codes: 0 success, 1 usage error, 2 validation/data error, 3 stability
certificate violation (a supplied eigenvalue estimate is provably too small).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from .mesh import (gen_equidistributed_1d, gen_structured_2d,
                   gen_structured_3d, gen_uniform_1d, load_mesh, save_mesh)
from .fields import identity, parse_field_spec, adapted_weight
from .quality import mesh_quality_summary
from .assembly import ProblemContext
from .bounds import stability_report
from .chebyshev import ChebyshevScheme, _integrate_with_pencil
from .eigen import _Pencil, _top_eigpair
from .experiments import (TableRow, gen_groundwater_like,
                          gen_metric_aligned, run_experiment_file,
                          write_rows_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3


class _UsageError(Exception):
    """A combination of options that argparse cannot refuse (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _grid_shape(dims):
    """argparse type for a grid of `dims` cell counts, each >= 1."""
    form = "x".join(("NX", "NY", "NZ")[:dims])

    def parse(text):
        m = re.fullmatch("x".join([r"(\d+)"] * dims), text)
        if not m:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        counts = tuple(int(g) for g in m.groups())
        if min(counts) < 1:
            raise argparse.ArgumentTypeError(
                f"cell counts must be >= 1, got {text!r}")
        return counts
    return parse


def _add_mesh_args(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--mesh", metavar="FILE", help="load a mesh file")
    group.add_argument("--uniform1d", type=_positive_int, metavar="N",
                       help="uniform 1D mesh with N cells on (0,1)")
    group.add_argument("--equi1d", type=_positive_int, metavar="N",
                       help="1D mesh with N cells equidistributing the "
                            "inverse-diffusion weight of --field")
    group.add_argument("--grid", type=_grid_shape(2), metavar="NXxNY",
                       help="triangulated grid on the unit square")
    group.add_argument("--grid3d", type=_grid_shape(3), metavar="NXxNYxNZ",
                       help="tetrahedral grid on the unit cube")
    group.add_argument("--groundwater", action="store_true",
                       help="layered-aquifer benchmark on (0,100)^2")
    group.add_argument("--aligned", action="store_true",
                       help="anisotropy-aligned patch for the rotating "
                            "coefficient")
    parser.add_argument("--diag", choices=("right", "left", "alternating"),
                        help="grid cell split for --grid (default right)")
    parser.add_argument("--ratio-x", type=_positive_float,
                        help="x-spacing growth ratio for --grid (default 1)")
    parser.add_argument("--ratio-y", type=_positive_float,
                        help="y-spacing growth ratio for --grid (default 1)")
    parser.add_argument("--contrast", type=_positive_float,
                        help="strip diffusion for --groundwater (default "
                             "1e-6)")
    parser.add_argument("--kappa", type=_positive_float,
                        help="anisotropy ratio for --aligned (default 1000)")
    parser.add_argument("--field", metavar="SPEC", default=None,
                        help="tensor field as name:key=value,... "
                             "(identity, constant, per1d, nonper1d, "
                             "aniso2d, piecewise)")


# option -> (the mesh source it shapes, its value when unset)
_SOURCE_OPTIONS = {"diag": ("grid", "right"), "ratio_x": ("grid", 1.0),
                   "ratio_y": ("grid", 1.0), "contrast": ("groundwater", 1e-6),
                   "kappa": ("aligned", 1000.0)}


def _build_mesh(args):
    """Resolve the mesh-source flags; returns (mesh, builtin_field, id).
    A source option given without its source is a usage error."""
    for option, (source, default) in _SOURCE_OPTIONS.items():
        if getattr(args, option) is None:
            setattr(args, option, default)
        elif not getattr(args, source):
            raise _UsageError(f"--{option.replace('_', '-')} needs --{source}")
    if args.mesh:
        mesh = load_mesh(args.mesh)
        return mesh, None, os.path.basename(args.mesh)
    if args.uniform1d:
        return gen_uniform_1d(args.uniform1d), None, \
            f"uniform1d-{args.uniform1d}"
    if args.equi1d:
        weight_field = parse_field_spec(args.field or "identity", 1)
        mesh = gen_equidistributed_1d(args.equi1d,
                                      adapted_weight(weight_field))
        return mesh, None, f"equi1d-{args.equi1d}"
    if args.grid:
        nx, ny = args.grid
        mesh = gen_structured_2d(nx, ny, diagonal=args.diag,
                                 ratio_x=args.ratio_x, ratio_y=args.ratio_y)
        return mesh, None, f"grid-{nx}x{ny}-{args.diag}"
    if args.grid3d:
        nx, ny, nz = args.grid3d
        return gen_structured_3d(nx, ny, nz), None, f"grid3d-{nx}x{ny}x{nz}"
    if args.groundwater:
        mesh, field = gen_groundwater_like(contrast=args.contrast)
        return mesh, field, "groundwater"
    if args.aligned:
        mesh = gen_metric_aligned(kappa=args.kappa)
        return mesh, parse_field_spec(f"aniso2d:kappa={args.kappa}", 2), \
            "aligned"
    raise ValueError("no mesh source given")


def _add_problem_args(parser):
    _add_mesh_args(parser)
    parser.add_argument("--mass", choices=("full", "lumped", "lumped-rowsum"),
                        default="full")
    parser.add_argument("--quad-order", type=int, choices=(1, 2, 4),
                        default=4)


def _build_problem(args):
    """Resolve the mesh, the field (--field, else the source's own, else
    the identity) and the mass kind; returns (context, mass_kind, id)."""
    mesh, field, mesh_id = _build_mesh(args)
    if args.field is not None:
        field = parse_field_spec(args.field, mesh.dim)
    elif field is None:
        field = identity(mesh.dim)
    ctx = ProblemContext(mesh, field, args.quad_order)
    return ctx, args.mass.replace("-", "_"), mesh_id


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_gen(args):
    if args.field is not None and not args.equi1d:
        raise _UsageError("--field needs --equi1d")
    mesh, _, _ = _build_mesh(args)
    save_mesh(mesh, args.output)
    vols = mesh.volumes()
    n_free = len(mesh.free_nodes())
    print(f"N = {mesh.num_elements} elements, "
          f"N_vi = {n_free} free of {mesh.num_nodes} vertices")
    print(f"|K| in [{vols.min():.6e}, {vols.max():.6e}]")
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_analyze(args):
    ctx, mass_kind, mesh_id = _build_problem(args)
    report = stability_report(
        ctx.mesh, ctx.field, mass_kind=mass_kind, s=args.stages,
        quad_order=args.quad_order, lanczos_steps=args.lanczos,
        mesh_id=mesh_id, context=ctx)

    payload = asdict(report)
    # the quality of the mesh in the metric D^-1, from the report's averages
    quality = mesh_quality_summary(ctx.inverse)
    payload["quality"] = {key: getattr(quality, key) for key in
                          ("h_global", "max_q_eq", "max_q_ali", "max_q_m")}

    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        write_rows_csv(args.output or "report.csv",
                       [TableRow.from_report(report)])
        if not args.output:
            print("wrote report.csv")

    if args.check_estimate is not None:
        if args.check_estimate < report.lambda_diag_lower:
            print(f"certificate violation: estimate {args.check_estimate} "
                  f"is below the provable lower bound "
                  f"{report.lambda_diag_lower}", file=sys.stderr)
            return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_integrate(args):
    ctx, mass_kind, _ = _build_problem(args)
    dof, M, A = ctx.dofmap, ctx.M, ctx.A
    # one pencil for the eigenpair and the march: Mtilde is factored once
    pencil = _Pencil(ctx.mass_tilde(mass_kind), A)
    scheme = ChebyshevScheme(args.stages, damping=args.damping)

    if args.seed_eigvec or args.tau is None:
        est, vec = _top_eigpair(pencil)
    tau = args.tau
    if tau is None:
        tau = args.tau_frac * scheme.tau_max(est.value)
    U0 = np.random.default_rng(args.seed).standard_normal(dof.n_free)
    if args.seed_eigvec:
        U0 = vec + 1e-8 * U0

    trace = _integrate_with_pencil(scheme, pencil, M, A, U0, tau, args.steps)
    if args.output:
        trace.to_csv(args.output)

    tol = 1e-12 * max(trace.l2[0], trace.energy[0])
    if trace.unstable_at is not None:
        print(f"FAIL: overflow at step {trace.unstable_at} (tau={tau!r})")
    else:
        violation = trace.nonincreasing(tol)
        if violation is None:
            print(f"PASS: l2 and energy norms nonincreasing over "
                  f"{trace.steps} steps (tau={tau!r})")
        else:
            norm_name, step = violation
            print(f"FAIL: {norm_name} norm first grew at step {step} "
                  f"(tau={tau!r})")
    return EXIT_OK


def cmd_experiment(args):
    results = run_experiment_file(args.spec, out_dir=args.out_dir)
    for name, rows in results.items():
        print(f"{name}: {len(rows)} rows")
    print(f"wrote {os.path.join(args.out_dir, 'summary.json')}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------

def _build_parser():
    parser = _Parser(prog="festab",
                     description="Stable explicit time steps for P1 "
                                 "finite-element diffusion")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate and save a mesh",
                           description="Generate a mesh and write it to a "
                                       "file.")
    _add_mesh_args(p_gen)
    p_gen.add_argument("-o", "--output", required=True, metavar="FILE")
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", help="bounds, eigenvalue and time-step "
                                          "report",
                          description="Assemble, bound and solve one "
                                      "configuration.")
    _add_problem_args(p_an)
    p_an.add_argument("--lanczos", type=_positive_int, metavar="STEPS",
                      default=None, help="estimate lambda_max by STEPS "
                                         "Lanczos steps instead of the "
                                         "certified sparse solve")
    p_an.add_argument("--stages", type=_positive_int, default=1,
                      help="Chebyshev stage count s")
    p_an.add_argument("--check-estimate", type=_positive_float, default=None,
                      metavar="LAMBDA",
                      help="exit 3 if LAMBDA is below the provable lower "
                           "bound")
    p_an.add_argument("-o", "--output", default=None, metavar="FILE")
    p_an.add_argument("--format", choices=("json", "csv"), default="json")
    p_an.set_defaults(func=cmd_analyze)

    p_in = sub.add_parser("integrate", help="run the stabilized explicit "
                                            "scheme",
                          description="Integrate U' = -A U with an s-stage "
                                      "Chebyshev scheme and report whether "
                                      "the norms decay.")
    _add_problem_args(p_in)
    p_in.add_argument("--stages", type=_positive_int, default=1)
    p_in.add_argument("--damping", type=float, default=0.0,
                      help="damping parameter eta >= 0")
    p_in.add_argument("--steps", type=_positive_int, required=True)
    tau_group = p_in.add_mutually_exclusive_group()
    tau_group.add_argument("--tau", type=_positive_float, default=None,
                           help="explicit time step")
    tau_group.add_argument("--tau-frac", type=_positive_float, default=1.0,
                           help="step as a fraction of the exact tau_max")
    p_in.add_argument("--seed-eigvec", action="store_true",
                      help="start from the dominant eigenvector plus 1e-8 "
                           "noise")
    p_in.add_argument("--seed", type=int, default=0,
                      help="seed for the start vector")
    p_in.add_argument("-o", "--output", default=None, metavar="TRACE_CSV")
    p_in.set_defaults(func=cmd_integrate)

    p_ex = sub.add_parser("experiment", help="run a batch experiment file",
                          description="Run every experiment section of an "
                                      "INI spec file.")
    p_ex.add_argument("spec", help="experiment spec file")
    p_ex.add_argument("--out-dir", default=".")
    p_ex.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"festab {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, AssertionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
