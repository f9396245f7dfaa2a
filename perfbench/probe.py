"""Spans and failure accounting around conekit's public entry points.

The benchmark never edits the library.  A :class:`Probe` replaces public
functions and methods with thin wrappers while it is installed and puts the
originals back when it is removed.  A function that other modules bound at
import time (``from .statdim import estimate_statdim``) is replaced in every
``conekit`` namespace that holds it.

Two probes are used.  ``Probe(trace=False)`` wraps only the entry points
whose results say how many samples, draws or solves failed; those are a few
calls per pass, so untraced passes keep their speed.  ``Probe(trace=True)``
also records a span (layer, start, end, parent) around every call into a
layer and derives the per-layer metrics from them.

Attribution rules:

* A call into a layer while the innermost open span already belongs to that
  layer opens no new span (``rotate`` -> ``linear_image`` ->
  ``GeneratorCone()`` is one construction).
* Projection kernels are told apart by public attributes of the cone:
  closed forms (``NonnegOrthant``, ``Subspace``, ``L1SubdiffCone``), planar
  (``GeneratorCone``/``InequalityCone`` with ``n == 2``), NNLS (the same with
  ``n > 2``), FISTA (a non-isometric ``LinearImage``) and Dykstra
  (``IntersectionCone.project_point``).  Wrappers such as ``PolarCone``,
  ``ProductCone`` and isometric ``LinearImage`` open no span.
* Projections made inside a kernel span are that kernel's own steps: they
  open no span.  They are counted instead: the per-row ``project_point``
  results of an NNLS batch give its iterations, and the inner
  ``project_batch`` calls of a FISTA call are its iterations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from conekit import cones, numerics

KERNELS = ("cones.closed_form", "cones.planar", "cones.nnls", "cones.fista",
           "cones.dykstra")

# (module, function, layer).  Layers follow the module names.
FUNCTIONS = [
    ("numerics", "haar_from_rng", "numerics.haar"),
    ("numerics", "haar_orthogonal", "numerics.haar"),
    ("cones", "linear_image", "cones.construct"),
    ("cones", "intersect", "cones.construct"),
    ("cones", "rotate", "cones.construct"),
    ("cones", "polar", "cones.construct"),
    ("cones", "preimage_cone", "cones.construct"),
    ("cones", "zero_cone", "cones.construct"),
    ("cones", "full_space", "cones.construct"),
    ("cones", "cone_from_dict", "cones.construct"),
    ("cones", "project", "cones.project"),
    ("solvers", "lp_solve_standard", "solvers.lp"),
    ("solvers", "solve_bp_analysis", "solvers.bp"),
    ("solvers", "recover", "solvers.bp"),
    ("solvers", "phase_transition_experiment", "solvers.phase"),
    ("statdim", "estimate_statdim", "statdim.estimate"),
    ("statdim", "estimate_moment", "statdim.estimate"),
    ("statdim", "estimate_width", "statdim.estimate"),
    ("statdim", "estimate_intrinsic_volumes", "statdim.estimate"),
    ("statdim", "descent_statdim_l1", "statdim.estimate"),
    ("statdim", "stojnic_recipe_l1", "statdim.recipe"),
    ("integral_geometry", "verify_kinematic", "integral_geometry.check"),
    ("integral_geometry", "crofton_probability", "integral_geometry.check"),
    ("integral_geometry", "verify_projection_formula",
     "integral_geometry.check"),
    ("integral_geometry", "verify_tqc", "integral_geometry.check"),
    ("integral_geometry", "projected_statdim", "integral_geometry.check"),
    ("integral_geometry", "run_identity_suite", "integral_geometry.check"),
    ("regularizers", "analysis_subdiff_cone", "regularizers.reduced_cone"),
    ("regularizers", "reduced_subdiff_cone", "regularizers.reduced_cone"),
    ("regularizers", "reduced_analysis_cone", "regularizers.reduced_cone"),
    ("regularizers", "build_BC_matrices", "regularizers.reduced_cone"),
    ("cli", "main", "cli.command"),
]
FUNCTIONS += [("condition", name, "condition.entry")
              for name in ("restricted_norm", "restricted_sv", "renegar",
                           "renegar_single", "condition_report",
                           "classify_feasibility",
                           "min_perturbation_to_primal", "kappa_bar",
                           "gordon_kappa_bound", "empirical_gordon_check")]
FUNCTIONS += [("bounds", name, "bounds.entry")
              for name in ("sandwich_bounds", "interpolation_bound",
                           "admissible_projection", "min_admissible_m",
                           "projected_condition_bound", "optimal_m_search",
                           "analysis_statdim_bound", "l1_analysis_threshold",
                           "edge_thresholds", "difference_gordon_limit")]

CONE_CLASSES = ("Subspace", "NonnegOrthant", "GeneratorCone",
                "InequalityCone", "L1SubdiffCone", "LinearImage", "PolarCone",
                "ProductCone", "IntersectionCone")

# Entries whose results carry failure counts; the untraced probe wraps only
# these.  Each maps to (kind, name of the argument holding the request).
ACCOUNTED = {
    "estimate_statdim": ("samples", "samples"),
    "estimate_moment": ("samples", "samples"),
    "estimate_width": ("samples", "samples"),
    "estimate_intrinsic_volumes": ("samples", "samples"),
    "descent_statdim_l1": ("samples", "samples"),
    "verify_kinematic": ("draws", "samples"),
    "crofton_probability": ("draws", "samples"),
    "verify_projection_formula": ("draws", "samples"),
    "verify_tqc": ("draws", "samples"),
    "projected_statdim": ("draws", "samples"),
    "run_identity_suite": ("draws", "samples"),
    "phase_transition_experiment": ("solves", "trials"),
}


class Span:
    __slots__ = ("id", "layer", "start", "parent", "child_s", "cone",
                 "iters")

    def __init__(self, sid, layer, start, parent):
        self.id = sid
        self.layer = layer
        self.start = start
        self.parent = parent
        self.child_s = 0.0
        self.cone = None
        self.iters = 0


class Ledger:
    """Requested and failed units per kind (samples, draws, solves).

    A call that raises returns nothing, so all it requested count as
    failed; ``raised`` counts such calls.
    """

    def __init__(self):
        self.requested = defaultdict(int)
        self.failed = defaultdict(int)
        self.raised = defaultdict(int)

    def record(self, kind, requested, failed, raised=False):
        self.requested[kind] += int(requested)
        self.failed[kind] += int(failed)
        self.raised[kind] += int(raised)

    def totals(self):
        return sum(self.requested.values()), sum(self.failed.values())

    def describe(self):
        return {k: {"failed": self.failed[k], "requested": self.requested[k],
                    "raised_calls": self.raised[k]}
                for k in sorted(self.requested)}


def _failed(kind, requested, result):
    """Units a call requested but did not deliver, from its public result."""
    if kind == "solves":
        return sum(row.solver_failures for row in result)
    if hasattr(result, "failures"):
        return result.failures
    return requested - result.samples


class Probe:
    def __init__(self, trace: bool):
        self.trace = trace
        self.ledger = Ledger()
        self.stack: list[Span] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.rows = defaultdict(int)
        self.count = defaultdict(int)          # nonconverged, nonoptimal, ...
        self.samples = defaultdict(list)       # iterations, sweeps, ms
        self.span_log = []                     # (id, parent, layer, start, end)
        self.opened = 0                        # spans opened so far
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"conekit.{name}") for name in
                ("numerics", "cones", "solvers", "statdim",
                 "integral_geometry", "regularizers", "condition", "bounds",
                 "cli")}
        for modname, fname, layer in FUNCTIONS:
            if not self.trace and fname not in ACCOUNTED:
                continue
            orig = getattr(mods[modname], fname)
            self._replace_everywhere(orig, self._function(orig, layer,
                                                          ACCOUNTED.get(fname)))
        if not self.trace:
            return
        self._set(numerics.SeededStream, "gen",
                  self._method(numerics.SeededStream.gen,
                               "numerics.stream_gen"))
        self._set(numerics.SeededStream, "normal_block",
                  self._method(numerics.SeededStream.normal_block,
                               "numerics.normal_block"))
        for cname in ("Cone",) + CONE_CLASSES:
            cls = getattr(cones, cname)
            for meth in ("project_point", "project_batch"):
                if meth in vars(cls):
                    self._set(cls, meth,
                              self._projection(vars(cls)[meth], meth))
            if "__init__" in vars(cls):
                self._set(cls, "__init__",
                          self._method(vars(cls)["__init__"],
                                       "cones.construct"))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, orig, wrapper):
        for name, mod in list(sys.modules.items()):
            if name != "conekit" and not name.startswith("conekit."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _function(self, fn, layer, accounted):
        sig = inspect.signature(fn) if accounted else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(fn, layer, accounted, sig, args, kwargs)
        return wrapper

    def _method(self, fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(fn, layer, None, None, args, kwargs)
        return wrapper

    def _projection(self, fn, meth):
        @functools.wraps(fn)
        def wrapper(cone, *args, **kwargs):
            return self._project(fn, meth, cone, args, kwargs)
        return wrapper

    # -- spans ------------------------------------------------------------

    def _open(self, layer):
        self.opened += 1
        span = Span(self.opened, layer, time.perf_counter(),
                    self.stack[-1] if self.stack else None)
        self.stack.append(span)
        return span

    def _close(self, span):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - span.start
        self.calls[span.layer] += 1
        self.self_s[span.layer] += dur - span.child_s
        if span.parent is not None:
            span.parent.child_s += dur
        if self.trace:
            self.span_log.append((span.id, span.parent.id if span.parent
                                  else 0, span.layer, span.start, end))
        return dur

    def _call(self, fn, layer, accounted, sig, args, kwargs):
        if self.stack and self.stack[-1].layer == layer:
            return fn(*args, **kwargs)
        span = self._open(layer)
        try:
            result = fn(*args, **kwargs)
        except RuntimeError:
            # conekit raises RuntimeError when too many samples, draws or
            # solves fail to converge; the call delivered nothing
            self._close(span)
            if accounted:
                kind, arg = accounted
                n = self._requested(sig, arg, args, kwargs)
                self.ledger.record(kind, n, n, raised=True)
                if kind == "draws":
                    self.count["integral_geometry.check.draws"] += n
                    self.count["integral_geometry.check.failures"] += n
            raise
        except BaseException:
            self._close(span)
            raise
        dur = self._close(span)
        if accounted:
            kind, arg = accounted
            n = self._requested(sig, arg, args, kwargs)
            if kind == "solves":
                n = n * len(result)
            bad = _failed(kind, n, result)
            self.ledger.record(kind, n, bad)
            if kind == "samples":
                self.count["statdim.estimate.dropped"] += bad
            elif kind == "draws":
                self.count["integral_geometry.check.draws"] += n
                self.count["integral_geometry.check.failures"] += bad
        if layer == "solvers.lp":
            self.samples["solvers.lp.ms"].append(1e3 * dur)
            self.samples["solvers.lp.iters"].append(result.iterations)
            self.count["solvers.lp.nonoptimal"] += result.status != "optimal"
        return result

    @staticmethod
    def _requested(sig, arg, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments[arg])

    def _kernel(self, cone, meth):
        if isinstance(cone, cones.IntersectionCone):
            return "cones.dykstra" if meth == "project_point" else None
        if isinstance(cone, (cones.NonnegOrthant, cones.Subspace,
                             cones.L1SubdiffCone)):
            return "cones.closed_form"
        if isinstance(cone, (cones.GeneratorCone, cones.InequalityCone)):
            return "cones.planar" if cone.n == 2 else "cones.nnls"
        if isinstance(cone, cones.LinearImage):
            A = cone.A
            isometric = A.shape[0] >= A.shape[1] and float(np.max(np.abs(
                A.T @ A - np.eye(A.shape[1])), initial=0.0)) <= 1e-10
            return None if isometric else "cones.fista"
        return None

    def _project(self, fn, meth, cone, args, kwargs):
        top = self.stack[-1] if self.stack else None
        if top is not None and top.layer in KERNELS:
            if top.layer == "cones.fista" and meth == "project_batch" \
                    and cone is not top.cone:
                top.iters += 1
            result = fn(cone, *args, **kwargs)
            if top.layer == "cones.nnls" and meth == "project_point" \
                    and cone is top.cone:
                self.samples["cones.nnls.iters"].append(result.iterations)
                self.count["cones.nnls.nonconverged"] += not result.converged
            return result
        kernel = self._kernel(cone, meth)
        if kernel is None:
            return fn(cone, *args, **kwargs)
        span = self._open(kernel)
        span.cone = cone
        try:
            result = fn(cone, *args, **kwargs)
        finally:
            self._close(span)
        if meth == "project_point":
            self.rows[kernel] += 1
            if kernel == "cones.nnls":
                self.samples["cones.nnls.iters"].append(result.iterations)
            if kernel == "cones.dykstra":
                self.samples["cones.dykstra.sweeps"].append(result.iterations)
            if kernel in ("cones.nnls", "cones.dykstra", "cones.fista"):
                self.count[f"{kernel}.nonconverged"] += not result.converged
            if kernel == "cones.fista":
                self.samples["cones.fista.iters"].append(span.iters)
        else:
            X = args[0] if args else kwargs["X"]
            self.rows[kernel] += X.shape[0]
            if kernel == "cones.fista":
                self.samples["cones.fista.iters"].append(span.iters)
                self.count["cones.fista.nonconverged"] += int(
                    np.count_nonzero(~np.asarray(result[2])))
        return result

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        """Write the recorded spans as gzip CSV: id,parent,layer,start,end.

        Ids number the spans in the order they opened, from 1; a parent of
        0 marks a span opened outside any other.
        """
        with gzip.open(path, "wt", newline="\n") as fh:
            fh.write("id,parent,layer,start_s,end_s\n")
            for sid, parent, layer, start, end in self.span_log:
                fh.write(f"{sid},{parent},{layer},{start:.9f},{end:.9f}\n")


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


LAYER_STATS = {
    "numerics.normal_block": ("calls", "self_s"),
    "numerics.haar": ("calls", "self_s"),
    "numerics.stream_gen": ("calls", "self_s"),
    "cones.closed_form": ("calls", "rows", "self_s"),
    "cones.planar": ("calls", "rows", "self_s"),
    "cones.nnls": ("calls", "rows", "self_s", "rows_per_s", "iters_p50",
                   "iters_p99", "nonconverged"),
    "cones.fista": ("calls", "rows", "self_s", "iters_p50", "iters_p99",
                    "nonconverged"),
    "cones.dykstra": ("calls", "self_s", "sweeps_p50", "sweeps_p99",
                      "nonconverged"),
    "cones.construct": ("calls", "self_s"),
    "cones.project": ("calls", "self_s"),
    "solvers.lp": ("calls", "self_s", "ms_p50", "ms_p99", "iters_p50",
                   "iters_p99", "nonoptimal"),
    "solvers.bp": ("calls", "self_s"),
    "solvers.phase": ("calls", "self_s"),
    "statdim.estimate": ("calls", "self_s", "dropped"),
    "statdim.recipe": ("calls", "self_s"),
    "integral_geometry.check": ("calls", "self_s", "draws", "failures"),
    "condition.entry": ("calls", "self_s"),
    "regularizers.reduced_cone": ("calls", "self_s"),
    "bounds.entry": ("calls", "self_s"),
    "cli.command": ("self_s",),
}

UNITS = {"calls": "count", "rows": "count", "self_s": "s",
         "rows_per_s": "rows/s", "iters_p50": "count", "iters_p99": "count",
         "sweeps_p50": "count", "sweeps_p99": "count", "ms_p50": "ms",
         "ms_p99": "ms", "nonconverged": "count", "nonoptimal": "count",
         "dropped": "count", "draws": "count", "failures": "count"}


def layer_metrics(probe: Probe, passes: int, traced_wall_s: float,
                  overhead_frac: float) -> dict:
    """Per-layer metrics from a tracing probe.

    Counts and times are per traced pass (totals divided by ``passes``);
    percentiles are over all calls or rows.  ``traced_wall_s`` is the mean
    wall time of a traced pass and ``overhead_frac`` the traced over the
    untraced time of the same pass, minus one, each the sum over pieces of
    the piece's fastest time.
    """
    out = {}
    iter_key = {"iters_p50": "iters", "iters_p99": "iters",
                "sweeps_p50": "sweeps", "sweeps_p99": "sweeps",
                "ms_p50": "ms", "ms_p99": "ms"}
    for layer, stats in LAYER_STATS.items():
        for stat in stats:
            name = f"{layer}.{stat}"
            if stat == "calls":
                value = probe.calls[layer] / passes
            elif stat == "self_s":
                value = probe.self_s[layer] / passes
            elif stat == "rows":
                value = probe.rows[layer] / passes
            elif stat == "rows_per_s":
                s = probe.self_s[layer]
                value = probe.rows[layer] / s if s > 0 else 0.0
            elif stat in iter_key:
                q = 50 if stat.endswith("p50") else 99
                value = _pct(probe.samples[f"{layer}.{iter_key[stat]}"], q)
            else:
                value = probe.count[name] / passes
            out[name] = {"value": value, "unit": UNITS[stat]}
    attributed = sum(probe.self_s[layer] for layer in LAYER_STATS) / passes
    out["trace.wall_s"] = {"value": traced_wall_s, "unit": "s"}
    out["trace.unattributed_s"] = {"value": traced_wall_s - attributed,
                                   "unit": "s"}
    out["trace.overhead_frac"] = {"value": overhead_frac, "unit": "frac"}
    return out
