"""Outside-in tracing of festab's public functions.

`Tracer.install` replaces every binding of each traced function in every
loaded ``festab`` module (``from .x import y`` copies the name, so a
function can be bound in several namespaces) with a wrapper that records a
span ``[layer, parent, start, end]``.  `Tracer.uninstall` puts the original
objects back.  Spans stay in memory; `layer_metrics` derives self time and
work counts from them.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.  A traced function that the
package no longer defines is listed in `Tracer.absent` and its metrics read
0; tracing never fails the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from time import perf_counter

# layer -> [(home module, function name)]
LAYERS = {
    "bounds.eig": [("festab.bounds", "lambda_max_exact"),
                   ("festab.bounds", "lambda_max_lanczos"),
                   ("festab.bounds", "lambda_max_power"),
                   ("festab.bounds", "max_eigvec_exact")],
    "bounds.geometric_bound": [("festab.bounds", "geometric_bound")],
    "bounds.zhu_du_bound": [("festab.bounds", "zhu_du_bound")],
    "bounds.shewchuk_bound": [("festab.bounds", "shewchuk_bound")],
    "bounds.diag_ratio_bound": [("festab.bounds", "diag_ratio_bound")],
    "bounds.stability_report": [("festab.bounds", "stability_report")],
    "quality.element_averages": [("festab.quality", "element_averages")],
    "quality.mesh_quality_summary": [("festab.quality",
                                      "mesh_quality_summary")],
    "quality.is_nonobtuse_wrt": [("festab.quality", "is_nonobtuse_wrt")],
    "fields.check_spd": [("festab.fields", "check_spd")],
    "fields.adapted_weight": [("festab.fields", "adapted_weight")],
    "mesh.gen_equidistributed_1d": [("festab.mesh", "gen_equidistributed_1d")],
    "mesh.gen_structured": [("festab.mesh", "gen_structured_2d"),
                            ("festab.mesh", "gen_structured_3d")],
    "mesh.load_mesh": [("festab.mesh", "load_mesh")],
    "mesh.build_patches": [("festab.mesh", "build_patches")],
    "assembly.assemble_stiffness": [("festab.assembly", "assemble_stiffness")],
    "assembly.assemble_mass": [("festab.assembly", "assemble_mass")],
    "assembly.lumping": [("festab.assembly", "assemble_lumped"),
                         ("festab.assembly", "row_sum_lumping")],
    "chebyshev.integrate": [("festab.chebyshev", "integrate")],
    "experiments.run_experiment": [("festab.experiments", "run_experiment")],
    "experiments.write": [("festab.experiments", "write_rows_csv"),
                          ("festab.experiments", "write_summary_json")],
    "cli.main": [("festab.cli", "main")],
}

# Every per-layer metric name, with its unit.
METRICS = {
    "bounds.eig.self_s": "s",
    "bounds.eig.calls": "count",
    "bounds.eig.n": "count",            # unknowns, summed over solves
    "bounds.geometric_bound.self_s": "s",
    "bounds.zhu_du_bound.self_s": "s",
    "bounds.shewchuk_bound.self_s": "s",
    "bounds.diag_ratio_bound.self_s": "s",
    "bounds.stability_report.self_s": "s",
    "quality.element_averages.self_s": "s",
    "quality.element_averages.calls": "count",
    "quality.element_averages.repeat_frac": "ratio",
    "quality.mesh_quality_summary.self_s": "s",
    "quality.mesh_quality_summary.calls": "count",
    "quality.is_nonobtuse_wrt.self_s": "s",
    "fields.check_spd.self_s": "s",
    "fields.check_spd.matrices": "count",
    "fields.weight_evals": "count",
    "mesh.gen_equidistributed_1d.self_s": "s",
    "mesh.gen_equidistributed_1d.calls": "count",
    "mesh.gen_structured.self_s": "s",
    "mesh.load_mesh.self_s": "s",
    "mesh.build_patches.self_s": "s",
    "assembly.assemble_stiffness.self_s": "s",
    "assembly.assemble_stiffness.calls": "count",
    "assembly.assemble_mass.self_s": "s",
    "assembly.lumping.self_s": "s",
    "chebyshev.integrate.self_s": "s",
    "chebyshev.steps": "count",
    "chebyshev.steps_per_s": "1/s",
    "experiments.run_experiment.self_s": "s",
    "experiments.rows": "count",
    "experiments.write.self_s": "s",
    "cli.main.self_s": "s",
}


def _bound_args(fn, args, kwargs):
    """Arguments by parameter name, or {} if the signature does not fit."""
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _field_key(field):
    """Identity of a field; a pointwise inverse keys on what it inverts."""
    inner = getattr(field, "inner", None)
    if inner is not None and type(field).__name__ == "InverseOf":
        return ("inv", _field_key(inner))
    return id(field)


class Tracer:
    """Span recorder with per-layer counters; one instance per traced run."""

    def __init__(self):
        self.spans = []          # [layer, parent index or None, start, end]
        self.report_span = {}    # span index -> True if it is a report
        self.counts = {}
        self.absent = []
        self._stack = []
        self._seen = {}          # report span -> averaged (mesh, field, q)
        self._restore = []

    # -- installation -------------------------------------------------------
    def install(self):
        """Wrap every binding of every traced function; returns self."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "festab"
                                         or name.startswith("festab."))]
        self.absent = []
        for layer, targets in LAYERS.items():
            for home, name in targets:
                original = getattr(sys.modules.get(home), name, None)
                if original is None:
                    self.absent.append(f"{home}.{name}")
                    continue
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def reset(self):
        self.spans, self.report_span, self.counts = [], {}, {}
        self._stack, self._seen = [], {}

    def _count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, layer, fn):
        if layer == "fields.adapted_weight":
            return self._wrap_weight(fn)
        before = getattr(self, "_before_" + fn.__name__, None)
        after = getattr(self, "_after_" + fn.__name__, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [layer, parent, 0.0, 0.0]
            self.spans.append(span)
            if before is not None:
                before(index, fn, args, kwargs)
            self._stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(fn, args, kwargs, result)
            return result
        return wrapper

    def _wrap_weight(self, fn):
        """adapted_weight returns a scalar closure: count its evaluations."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            weight = fn(*args, **kwargs)

            def counted(x):
                self._count("fields.weight_evals")
                return weight(x)
            return counted
        return wrapper

    # -- per-function hooks, looked up by the traced function's name -------
    # A stability_report call, or a cli.main call of the analyze
    # subcommand, is one user-level report: element averages repeated
    # inside the outermost report count towards repeat_frac.
    def _before_stability_report(self, index, fn, args, kwargs):
        self.report_span[index] = True

    def _before_main(self, index, fn, args, kwargs):
        argv = _bound_args(fn, args, kwargs).get("argv") or []
        self.report_span[index] = bool(argv) and argv[0] == "analyze"

    def _before_element_averages(self, index, fn, args, kwargs):
        scope = next((i for i in self._stack if self.report_span.get(i)),
                     None)
        if scope is None:
            return
        a = _bound_args(fn, args, kwargs)
        key = (id(a.get("mesh")), _field_key(a.get("field")),
               a.get("quad_order", 4))
        seen = self._seen.setdefault(scope, set())
        if key in seen:
            self._count("quality.element_averages.repeats")
        seen.add(key)

    def _after_check_spd(self, fn, args, kwargs, result):
        mats = _bound_args(fn, args, kwargs).get("mats")
        if getattr(mats, "ndim", 0) >= 2:
            self._count("fields.check_spd.matrices",
                        math.prod(mats.shape[:-2]))

    def _eig_size(self, fn, args, kwargs, result):
        A = _bound_args(fn, args, kwargs).get("A")
        n = getattr(A, "n", None)
        if n is None:
            n = getattr(A, "shape", (0,))[0]
        self._count("bounds.eig.n", int(n))

    _after_lambda_max_exact = _eig_size
    _after_lambda_max_lanczos = _eig_size
    _after_lambda_max_power = _eig_size
    _after_max_eigvec_exact = _eig_size

    def _after_integrate(self, fn, args, kwargs, result):
        self._count("chebyshev.steps", int(getattr(result, "steps", 0)))

    def _after_run_experiment(self, fn, args, kwargs, result):
        self._count("experiments.rows", len(result))

    # -- derived metrics ----------------------------------------------------
    def layer_metrics(self):
        """{metric name: value} for every name in METRICS."""
        inclusive = {}
        self_time = {}
        child_time = [0.0] * len(self.spans)
        calls = {}
        for layer, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (layer, parent, start, end) in enumerate(self.spans):
            inclusive[layer] = inclusive.get(layer, 0.0) + (end - start)
            self_time[layer] = (self_time.get(layer, 0.0)
                                + (end - start) - child_time[i])
            calls[layer] = calls.get(layer, 0) + 1

        out = {}
        for name in METRICS:
            layer, _, what = name.rpartition(".")
            if what == "self_s":
                out[name] = self_time.get(layer, 0.0)
            elif what == "calls":
                out[name] = calls.get(layer, 0)
            else:
                out[name] = self.counts.get(name, 0)
        averaged = calls.get("quality.element_averages", 0)
        repeats = self.counts.get("quality.element_averages.repeats", 0)
        out["quality.element_averages.repeat_frac"] = (
            repeats / averaged if averaged else 0.0)
        march = inclusive.get("chebyshev.integrate", 0.0)
        out["chebyshev.steps_per_s"] = (
            out["chebyshev.steps"] / march if march > 0.0 else 0.0)
        return out

    def span_records(self):
        """Spans as dicts, in call order, for writing out."""
        return [{"name": layer, "parent": parent, "start": start, "end": end}
                for layer, parent, start, end in self.spans]
