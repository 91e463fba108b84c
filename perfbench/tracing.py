"""Spans around convdyn's public functions, recorded from outside the package.

``install`` replaces every public function of the layer modules with a
wrapper, in the defining module and wherever another module imported the
name (``dynamics.nullspace``, ``cli.convolution_power``, ...), plus
``FiniteGroup.__eq__``, ``ProbMeasure.__post_init__``, the CLI handler
table and a few methods.  Each call appends one span (name, query id,
parent span, start, end) to flat arrays held in memory; ``write`` saves
them at the end of the run and ``layer_metrics`` turns them into self
times and counts.  A layer's self time is the duration of its spans minus
the part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("groups", "measures", "transition", "rational_linalg", "dynamics", "montecarlo", "serialize", "cli")

METHODS = (
    ("groups", "FiniteGroup", "__eq__"),
    ("measures", "ProbMeasure", "__post_init__"),
    ("transition", "TransitionMatrix", "as_float_array"),
    ("dynamics", "BasinDescription", "contains"),
)

# Span name -> the metric prefix its self time is summed into.  Names not
# listed fall into "<module>.other"; INHERIT names take their caller's.
BUCKETS = {
    **{f"groups.{f}": "groups.build" for f in (
        "cyclic_group", "dihedral_group", "symmetric_group", "product_group",
        "group_from_table", "build_group", "relabel_group")},
    "groups.validate_table": "groups.validate_table",
    "groups.validate_group": "groups.validate_table",
    "groups.generated_subgroup": "groups.generated_subgroup",
    "groups.coset_decomposition": "groups.coset_decomposition",
    "groups.is_subgroup": "groups.coset_decomposition",
    "groups.FiniteGroup.__eq__": "groups.eq",
    "measures.convolve": "measures.convolve",
    "measures.support_orbit": "measures.support_orbit",
    "measures.set_product": "measures.support_orbit",
    "measures.is_acyclic": "measures.support_orbit",
    "measures.ProbMeasure.__post_init__": "measures.measure_init",
    "transition.matrix_power": "transition.matrix_power",
    "transition.matrix_multiply": "transition.matrix_power",
    "transition.measure_times_matrix": "transition.matrix_power",
    "transition.convolution_power": "transition.matrix_power",
    "transition.power_convergence": "transition.power_convergence",
    "transition.transition_matrix": "transition.transition_matrix",
    "transition.TransitionMatrix.as_float_array": "transition.transition_matrix",
    "rational_linalg.nullspace": "rational_linalg.nullspace",
    "rational_linalg.rref": "rational_linalg.nullspace",
    "rational_linalg.rank": "rational_linalg.nullspace",
    "dynamics.fixed_points": "dynamics.fixed_points",
    "dynamics.accumulation_points": "dynamics.accumulation_points",
    "dynamics.basin": "dynamics.basin",
    "dynamics.BasinDescription.contains": "dynamics.basin",
    "dynamics.limit_of_powers": "dynamics.limit_of_powers",
    "dynamics.omega_limit": "dynamics.omega_limit",
    "montecarlo.empirical_distribution": "montecarlo.empirical_distribution",
    "montecarlo.cdf_thresholds": "montecarlo.empirical_distribution",
    "montecarlo.draw_matrix": "montecarlo.draw_matrix",
    "montecarlo.mix64": "montecarlo.draw_matrix",
    "serialize.load_group": "serialize.load_group",
    "serialize.group_from_json": "serialize.load_group",
    "serialize.load_hom": "serialize.load_group",
    "serialize.hom_from_json": "serialize.load_group",
    "serialize.load_measure": "serialize.load_measure",
    "serialize.measure_from_json": "serialize.load_measure",
    "serialize.dumps": "serialize.dumps",
    "serialize.weights_to_json": "serialize.dumps",
    "serialize.matrix_to_json": "serialize.dumps",
    "cli.render_pretty": "cli.render",
    **{f"cli.cmd_{v}": "cli.handler" for v in (
        "validate", "convolve", "transition", "power", "check_acyclic", "limit", "omega_limit",
        "accumulation_points", "fixed_points", "recurrent", "basin", "perturb", "pushforward", "sample")},
}
INHERIT = {"serialize.resolve_source"}

BUILDERS = {f"groups.{f}" for f in ("cyclic_group", "dihedral_group", "symmetric_group", "product_group", "group_from_table")}

# Buckets reported as self-time metrics "<bucket>_s".
TIME_METRICS = (
    "groups.build", "groups.validate_table", "groups.generated_subgroup", "groups.coset_decomposition",
    "groups.eq", "measures.convolve", "measures.support_orbit", "measures.measure_init",
    "transition.matrix_power", "transition.power_convergence", "transition.transition_matrix",
    "rational_linalg.nullspace", "dynamics.fixed_points", "dynamics.accumulation_points", "dynamics.basin",
    "dynamics.limit_of_powers", "dynamics.omega_limit", "montecarlo.empirical_distribution",
    "montecarlo.draw_matrix", "serialize.load_group", "serialize.load_measure", "serialize.dumps",
    "cli.handler", "cli.render",
)
COUNT_SPANS = {
    "groups.build_calls": BUILDERS,
    "groups.eq_calls": {"groups.FiniteGroup.__eq__"},
    "measures.convolve_calls": {"measures.convolve"},
    "measures.measure_init_calls": {"measures.ProbMeasure.__post_init__"},
    "transition.matrix_multiply_calls": {"transition.matrix_multiply"},
}
COUNTERS = (
    "measures.support_orbit_steps", "transition.exact_max_bits", "transition.power_convergence_iterations",
    "rational_linalg.nullspace_cells", "montecarlo.draws", "serialize.stdout_bytes",
)


def _bits(x) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _hook_orbit(c, args, kwargs, result, exc):
    if result is not None:
        c["measures.support_orbit_steps"] += len(result.sets)


def _hook_power(c, args, kwargs, result, exc):
    if result is not None and result.mode == "exact":
        c["transition.exact_max_bits"] = max(c["transition.exact_max_bits"], max(_bits(w) for w in result.weights))


def _hook_converge(c, args, kwargs, result, exc):
    if result is not None:
        c["transition.power_convergence_iterations"] += result.iterations
    elif exc is not None and type(exc).__name__ == "ConvergenceError":
        from convdyn.transition import DEFAULT_MAX_ITER

        limit = kwargs.get("max_iter", args[2] if len(args) > 2 else None)
        c["transition.power_convergence_iterations"] += DEFAULT_MAX_ITER if limit is None else limit


def _hook_nullspace(c, args, kwargs, result, exc):
    m = args[0]
    c["rational_linalg.nullspace_cells"] += len(m) * (len(m[0]) if m else 0)


def _hook_draws(c, args, kwargs, result, exc):
    cfg = args[0]
    c["montecarlo.draws"] += cfg.trials * cfg.steps


HOOKS = {
    "measures.support_orbit": _hook_orbit,
    "transition.convolution_power": _hook_power,
    "transition.power_convergence": _hook_converge,
    "rational_linalg.nullspace": _hook_nullspace,
    "montecarlo.empirical_distribution": _hook_draws,
}


class Tracer:
    """Flat in-memory span arrays plus the counters the hooks fill."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.qid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_qid = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.counters["cli.startup_s"] = 0.0
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        spans_name, spans_parent, spans_qid = self.name, self.parent, self.qid
        spans_start, spans_end, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(nid)
            spans_parent.append(stack[-1] if stack else -1)
            spans_qid.append(self.current_qid)
            spans_end.append(0.0)
            stack.append(idx)
            spans_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans_end[idx] = perf_counter()
                stack.pop()
                if hook:
                    hook(self.counters, args, kwargs, None, exc)
                raise
            spans_end[idx] = perf_counter()
            stack.pop()
            if hook:
                hook(self.counters, args, kwargs, result, None)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function and patch each place that refers to it."""
        import importlib

        modules = {layer: importlib.import_module(f"convdyn.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in [m for n, m in sys.modules.items() if n == "convdyn" or n.startswith("convdyn.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", original))
        handlers = modules["cli"]._HANDLERS
        for verb, fn in list(handlers.items()):
            self._saved.append((handlers, verb, fn))
            handlers[verb] = wrappers[fn]

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._saved.clear()

    def to_json(self) -> dict:
        return {"names": self.names, "name": list(self.name), "parent": list(self.parent),
                "qid": list(self.qid), "start": list(self.start), "end": list(self.end),
                "counters": self.counters}

    def merge(self, doc: dict, qid: int) -> None:
        """Append another process's spans (a CLI child's) under query ``qid``."""
        offset = len(self.name)
        ids = {}
        for name in doc["names"]:
            if name not in self.names:
                self.names.append(name)
            ids[len(ids)] = self.names.index(name)
        self.name.extend(ids[i] for i in doc["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in doc["parent"])
        self.qid.extend(qid for _ in doc["name"])
        self.start.extend(doc["start"])
        self.end.extend(doc["end"])
        for key, value in doc["counters"].items():
            if key == "transition.exact_max_bits":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def write(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32), qid=np.frombuffer(self.qid, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time per metric bucket, span counts and hook counters."""
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    bucket_of_name = [BUCKETS.get(n, n.split(".")[0] + ".other") for n in tracer.names]
    inherit_ids = {i for i, n in enumerate(tracer.names) if n in INHERIT}
    buckets = [bucket_of_name[i] for i in name.tolist()]
    if inherit_ids:
        for idx in np.flatnonzero(np.isin(name, list(inherit_ids))).tolist():
            p = int(parent[idx])
            buckets[idx] = buckets[p] if p >= 0 else "serialize.other"
    totals: dict[str, float] = {}
    for b, t in zip(buckets, self_time.tolist()):
        totals[b] = totals.get(b, 0.0) + t
    out = {f"{b}_s": totals.get(b, 0.0) for b in TIME_METRICS}
    counts = np.bincount(name, minlength=len(tracer.names))
    for metric, names in COUNT_SPANS.items():
        out[metric] = int(sum(counts[i] for i, n in enumerate(tracer.names) if n in names))
    out.update(tracer.counters)
    sampler_s = out["montecarlo.empirical_distribution_s"] + out["montecarlo.draw_matrix_s"]
    out["montecarlo.draws_per_s"] = out["montecarlo.draws"] / sampler_s if sampler_s else 0.0
    return out
