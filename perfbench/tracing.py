"""Spans and counters around the program's layer boundaries.

A traced pass replaces each public function listed in :data:`TARGETS` by a
wrapper, at every place its callers look it up (module attributes, names
imported into another module, class attributes), and puts the originals
back afterwards.  A wrapper records a span: name, start, end, parent span
and operation id.  ``splu`` is wrapped where ``global_iteration``,
``local_yamabe``, ``operators`` and scipy's ARPACK shift-invert look it up;
the factor it returns records its triangular solves as spans of their own.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict

from scipy.sparse.linalg._eigen.arpack import arpack as _arpack

from cywbench import _kernels, geometry, global_iteration, local_yamabe, operators, sphere_tools

KERNEL_SPANS = ("_kernels.local_stiffness", "_kernels.local_mass",
                "_kernels.local_tri_mass", "_kernels.local_load")
NORMALIZATION_SPANS = ("global_iteration.negative_scalar_normalization",
                       "global_iteration.positive_mean_curvature_normalization")

# span-name prefix -> layer reported in the self times
LAYERS = {
    "bench": "bench",
    "geometry": "geometry",
    "_kernels": "kernels",
    "operators": "operators",
    "local_yamabe": "local_yamabe",
    "global_iteration": "global_iteration",
    "sphere_tools": "sphere_tools",
    "superlu": "superlu",
}


class Tracer:
    """In-memory spans ``[name, start, end, parent, op]`` and counters."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.op = None
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()


# ---------------------------------------------------------------------------
# counters read from results at the boundary that produced them
# ---------------------------------------------------------------------------


def _count_continuation(tracer, trace):
    tracer.counters["local_yamabe.continuation_steps"] += len(trace.betas)
    zero = trace.metadata.get("beta_zero_solution")
    if zero is not None:
        tracer.counters["local_yamabe.newton_iterations"] += zero.metadata.get(
            "newton_iterations", 0)


def _count_perturbed(tracer, sol):
    tracer.counters["local_yamabe.newton_iterations"] += sol.metadata.get(
        "newton_iterations", 0)


def _count_monotone(tracer, result):
    tracer.counters["global_iteration.monotone_steps"] += len(result[1].iterates) - 1


def _count_condition_a(tracer, verdict):
    tracer.counters["sphere_tools.condition_a_pairs"] += verdict.metadata["num_pairs"]


class _TracedFactor:
    """A SuperLU factor whose ``solve`` calls are spans."""

    def __init__(self, lu, tracer, name):
        self._lu, self._tracer, self._name = lu, tracer, name

    def solve(self, *args, **kwargs):
        sid = self._tracer.open(self._name)
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(sid)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# (owner, attribute, span name, counter hook)
TARGETS = [
    (geometry, "build_preset", "geometry.build_preset", None),
    (geometry, "extract_subdomain", "geometry.extract_subdomain", None),
    (geometry, "construct_admissible_function", "geometry.construct_admissible_function", None),
    (geometry, "mollify", "geometry.mollify", None),
    (geometry, "erode_region", "geometry.erode_region", None),
    (_kernels, "local_stiffness", "_kernels.local_stiffness", None),
    (_kernels, "local_mass", "_kernels.local_mass", None),
    (_kernels, "local_tri_mass", "_kernels.local_tri_mass", None),
    (_kernels, "local_load", "_kernels.local_load", None),
    (operators, "assemble", "operators.assemble", None),
    (local_yamabe, "assemble", "operators.assemble", None),
    (operators, "first_eigenpair", "operators.first_eigenpair", None),
    (operators, "conformal_change", "operators.conformal_change", None),
    (operators.AssembledOperators, "quad_values", "operators.quad_values", None),
    (operators.AssembledOperators, "nonlinear_load", "operators.nonlinear_load", None),
    (local_yamabe, "energy_gate", "local_yamabe.energy_gate", None),
    (local_yamabe, "beta_continuation", "local_yamabe.beta_continuation", _count_continuation),
    (local_yamabe, "solve_perturbed", "local_yamabe.solve_perturbed", _count_perturbed),
    (global_iteration, "prescribe", "global_iteration.prescribe", None),
    (global_iteration, "make_subsolution", "global_iteration.make_subsolution", None),
    (global_iteration, "scale_eigenfunction", "global_iteration.scale_eigenfunction", None),
    (global_iteration, "glue_supersolution", "global_iteration.glue_supersolution", None),
    (global_iteration, "verify_inequalities", "global_iteration.verify_inequalities", None),
    (global_iteration, "monotone_iterate", "global_iteration.monotone_iterate", _count_monotone),
    (global_iteration, "negative_scalar_normalization", NORMALIZATION_SPANS[0], None),
    (global_iteration, "positive_mean_curvature_normalization", NORMALIZATION_SPANS[1], None),
    (sphere_tools, "check_condition_a", "sphere_tools.check_condition_a", _count_condition_a),
]

# (owner, caller label): splu as each caller looks it up
FACTOR_TARGETS = [
    (global_iteration, "global_iteration"),
    (local_yamabe, "local_yamabe"),
    (operators, "operators"),
    (_arpack, "arpack"),
]


def _span_wrapper(fn, tracer, name, hook):
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None:
            hook(tracer, result)
        return result

    return traced


def _factor_wrapper(fn, tracer, caller):
    def traced(*args, **kwargs):
        sid = tracer.open(f"superlu.factor:{caller}")
        try:
            lu = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        return _TracedFactor(lu, tracer, f"superlu.solve:{caller}")

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the targets through ``tracer`` while active, then restore them."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for owner, attr, name, hook in TARGETS:
            patch(owner, attr, _span_wrapper(getattr(owner, attr), tracer, name, hook))
        for owner, caller in FACTOR_TARGETS:
            patch(owner, "splu", _factor_wrapper(owner.splu, tracer, caller))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

# metric -> spans whose total time it is
TIME_METRICS = {
    "geometry.build_preset_s": ("geometry.build_preset",),
    "geometry.construct_admissible_function_s": ("geometry.construct_admissible_function",),
    "geometry.mollify_s": ("geometry.mollify",),
    "operators.assemble_s": ("operators.assemble",),
    "operators.first_eigenpair_s": ("operators.first_eigenpair",),
    "operators.nonlinear_load_s": ("operators.nonlinear_load",),
    "operators.conformal_change_s": ("operators.conformal_change",),
    "local_yamabe.energy_gate_s": ("local_yamabe.energy_gate",),
    "local_yamabe.beta_continuation_s": ("local_yamabe.beta_continuation",),
    "global_iteration.prescribe_s": ("global_iteration.prescribe",),
    "global_iteration.glue_supersolution_s": ("global_iteration.glue_supersolution",),
    "global_iteration.normalization_s": NORMALIZATION_SPANS,
    "global_iteration.lu_factor_s": ("superlu.factor:global_iteration",),
    "global_iteration.monotone_iterate_s": ("global_iteration.monotone_iterate",),
    "sphere_tools.check_condition_a_s": ("sphere_tools.check_condition_a",),
}
# metric -> span whose calls it counts
CALL_METRICS = {
    "geometry.mollify_calls": "geometry.mollify",
    "operators.assemble_calls": "operators.assemble",
    "operators.first_eigenpair_calls": "operators.first_eigenpair",
    "operators.arpack_solves": "superlu.solve:arpack",
    "operators.quad_sweeps": "operators.quad_values",
    "local_yamabe.lu_factorizations": "superlu.factor:local_yamabe",
    "global_iteration.lu_factorizations": "superlu.factor:global_iteration",
    "global_iteration.lu_solves": "superlu.solve:global_iteration",
}
COUNTER_METRICS = ("local_yamabe.continuation_steps", "local_yamabe.newton_iterations",
                   "global_iteration.monotone_steps", "sphere_tools.condition_a_pairs")
SELF_METRICS = {layer: f"self.{layer}_s" for layer in LAYERS.values()}

# name -> unit of every per-pass metric, sorted by name
PASS_METRICS = dict(sorted({
    **dict.fromkeys(TIME_METRICS, "s"),
    **dict.fromkeys(CALL_METRICS, "count"),
    **dict.fromkeys(COUNTER_METRICS, "count"),
    **dict.fromkeys(SELF_METRICS.values(), "s"),
    "kernels.element_s": "s",
}.items()))


def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one pass from its spans and counters."""
    spans = tracer.spans
    total = defaultdict(float)
    calls = Counter()
    child = defaultdict(float)
    for name, start, end, parent, _op in spans:
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            child[parent] += end - start
    self_time = dict.fromkeys(SELF_METRICS.values(), 0.0)
    kernel_s = 0.0
    for sid, (name, start, end, parent, _op) in enumerate(spans):
        self_time[SELF_METRICS[LAYERS[name.split(".", 1)[0]]]] += end - start - child[sid]
        if name in KERNEL_SPANS and (parent is None or spans[parent][0] not in KERNEL_SPANS):
            kernel_s += end - start
    out = {metric: sum(total[n] for n in names) for metric, names in TIME_METRICS.items()}
    out.update({metric: calls[name] for metric, name in CALL_METRICS.items()})
    out.update({metric: tracer.counters[metric] for metric in COUNTER_METRICS})
    out.update(self_time)
    out["kernels.element_s"] = kernel_s
    return out


def median_metrics(per_pass: list) -> dict:
    """Median over passes; a count takes the lower median, so it stays a whole number."""
    return {name: (statistics.median_low if unit == "count" else statistics.median)(
        [p[name] for p in per_pass]) for name, unit in PASS_METRICS.items()}
