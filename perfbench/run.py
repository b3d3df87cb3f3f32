"""festab benchmark: end-to-end and per-layer timings of three workloads.

Run from the repository root (festab is imported from ./src):

    python3 perfbench/run.py --workload report-2d-aniso --seed 0 \\
        --seconds 36 --trace 0

Workloads (see BENCHMARK.json for why each is there):
  report-2d-aniso     stability_report x 3 mass kinds on a jittered 40x40
                      aniso2d(1000) grid, then a 500-step Chebyshev march
                      at tau_max for the full and row-sum lumped masses
  analyze-3d-lanczos  `festab analyze --lanczos 10` on a jittered 12^3 Kuhn
                      cube mesh file, full and lumped mass
  experiment-tables   `festab experiment` on a fixed per1d/zd2d/groundwater
                      INI file (ignores the seed)

The process is one closed-loop caller with BLAS pinned to one thread.  It
times the set-up (a cold import of festab in a fresh interpreter plus
building the seeded inputs in this process) five times and reports the
median, then runs whole passes over the workload's cases until --seconds
have elapsed, checking every output.

--trace 0 prints the end-to-end metrics: setup_s, wall_s (median pass),
report_s (median user-level call) and peak_rss_mb.  --trace 1 alternates
untraced and traced passes and prints the per-layer metrics of
perfbench/tracer.py, summed over one traced set-up build plus one traced
pass (median over the traced passes), and trace.overhead_s, the traced
minus the untraced median pass time.

The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
details (samples and quartiles, failures, machine record).  Details and
spans are also written to perfbench/_out/.  --smoke runs one pass at toy
size.  perfbench/reference.json holds the outputs for seed 0, recorded once
at the seed commit; it is data, not regenerated by this script.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
REFERENCE = os.path.join(HERE, "reference.json")

BLAS_THREADS = 1
SETUP_REPS = 5              # set-ups timed per run (median reported)
MIN_PASSES = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one pass at toy size")
    return p.parse_args(argv)


# Run in a fresh interpreter, so that numpy, scipy and every other module
# festab pulls in are imported cold, as on a user's first call.
_IMPORT_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t0 = time.perf_counter(); import festab, festab.cli; "
    "print(time.perf_counter() - t0)")


def _cold_import_s():
    """Seconds to import festab and festab.cli in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_CHILD, SRC],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.split()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _summary(values):
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _git_commit():
    # The ceiling keeps git from taking the commit of a repository that
    # merely contains this checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        out = ""
    return out or "unknown"


def _machine(seed):
    import numpy
    import scipy
    blas = {}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "blas": blas, "blas_threads": BLAS_THREADS,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "commit": _git_commit(), "seed": seed}


def _load_reference(workload, smoke, seed):
    with open(REFERENCE) as fh:
        table = json.load(fh)
    key = str(seed) if workload.seeded else "*"
    return table.get(workload.name, {}).get("smoke" if smoke else "full",
                                            {}).get(key)


def _timed_pass(workload, fs, inputs, reference):
    t0 = perf_counter()
    result = workload.run_pass(fs, inputs, reference)
    return perf_counter() - t0, result


def run(args, workdir):
    from tracer import METRICS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    fs = importlib.import_module("festab")
    importlib.import_module("festab.cli")
    if not os.path.abspath(fs.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"festab imported from {fs.__file__}, not ./src")
    # One set-up is a cold import plus building the inputs in this process.
    setup_s = []
    reps = 1 if args.smoke or args.trace else SETUP_REPS
    for _ in range(reps):
        import_s = _cold_import_s()
        t0 = perf_counter()
        inputs = workload.build(fs, args.seed, args.smoke, workdir)
        setup_s.append(import_s + perf_counter() - t0)
    reference = _load_reference(workload, args.smoke, args.seed)

    walls, traced_walls, layer_samples, results = [], [], [], []
    rounds = []
    tracer = Tracer()
    start = perf_counter()
    while True:
        round_start = perf_counter()
        wall, result = _timed_pass(workload, fs, inputs, reference)
        walls.append(wall)
        results.append(result)
        if args.trace:
            tracer.reset()
            tracer.install()
            try:
                traced_inputs = workload.build(fs, args.seed, args.smoke,
                                               workdir)
                wall, result = _timed_pass(workload, fs, traced_inputs,
                                           reference)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            results.append(result)
            layer_samples.append(tracer.layer_metrics())
        if args.smoke:
            break
        # Stop before a round that would end after --seconds.
        rounds.append(perf_counter() - round_start)
        if len(walls) >= (1 if args.trace else MIN_PASSES) and \
                perf_counter() - start + statistics.median(rounds) \
                > args.seconds:
            break

    cases = [c for r in results for c in r.cases]
    errors = [e for c in cases for e in c.errors]
    failed = sum(1 for c in cases if c.errors)

    report_s = [t for r in results[::2 if args.trace else 1]
                for t in r.report_s]
    if args.trace:
        metrics = {name: {"value": statistics.median(
                       s[name] for s in layer_samples), "unit": unit}
                   for name, unit in METRICS.items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls)
            - statistics.median(walls), "unit": "s"}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "report_s": {"value": statistics.median(report_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    details = {
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "machine": _machine(args.seed),
        "reference_checked": reference is not None,
        "fail_frac": failed / len(cases) if cases else 1.0,
        "setup_s": _summary(setup_s), "wall_s": _summary(walls),
        "report_s": _summary(report_s),
        "samples": {"setup_s": setup_s, "wall_s": walls,
                    "report_s": report_s, "traced_wall_s": traced_walls},
        "absent": tracer.absent, "errors": errors[:20],
    }
    for err in errors:
        print(err, file=sys.stderr)
    result = {"correct": failed == 0 and bool(cases),
              "attempted": len(cases), "failed": failed, "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, name + ".json"), "w") as fh:
        json.dump({"details": details, "result": result,
                   "spans": tracer.span_records()}, fh)
    return details, result


def main(argv=None):
    args = _parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "festab", "__init__.py")):
        print(f"error: no festab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT)
    try:
        details, result = run(args, workdir)
    except Exception:  # noqa: BLE001 -- report and fail without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
