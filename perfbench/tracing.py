"""Spans around every public function of the schattenlab layers.

The tracer replaces each public function by a wrapper in every module that
holds it (samplers imports log_f_p and batch_means by name, so wrapping only
the defining module would miss those calls), records one span per call with
its name, start, end and parent, and keeps the spans in memory until the
traced passes end.  uninstall() puts the original functions back, so the
untraced passes run the package untouched.
"""

import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("moments", "samplers", "matrixlab", "density", "gammafn", "util", "verify", "cli")

# Not public, but the one place where the oracle's refinement levels can be
# counted; a package without it reports the time per oracle call instead.
LEVEL_HOOK = ("moments", "_sector_sums")

PER_LAYER = (
    ("moments.oracle_s", "s", "lower"),
    ("moments.oracle_calls", "count", "lower"),
    ("moments.oracle_nodes", "count", "lower"),
    ("moments.oracle_s_per_level", "s", "lower"),
    ("moments.oracle_err_bound_max", "1", "lower"),
    ("density.log_f_p_s", "s", "lower"),
    ("density.log_f_p_points_per_s", "1/s", "higher"),
    ("gammafn.s", "s", "lower"),
    ("samplers.exact_s", "s", "lower"),
    ("samplers.exact_draws_per_s", "1/s", "higher"),
    ("matrixlab.svd_s", "s", "lower"),
    ("matrixlab.svd_per_s", "1/s", "higher"),
    ("matrixlab.entry_terms_s", "s", "lower"),
    ("util.batch_means_s", "s", "lower"),
    ("moments.pipeline_self_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.hook_failures", "count", "lower"),
)

# Exceptions a hook may meet when a later package changes what a call returns;
# the span is kept, the hook's counts are left out and the failure is counted
# in trace.hook_failures, so a metric that reads 0 for that reason says so.
_HOOK_ERRORS = (AttributeError, KeyError, TypeError, IndexError, ValueError)


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _rows(x):
    arr = np.asarray(x)
    return int(arr.shape[0]) if arr.ndim >= 2 else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _hook_log_f_p(span, args, kwargs, out):
    span.info["rows"] = _rows(_arg(args, kwargs, 2, "x"))


def _hook_draws(span, args, kwargs, out):
    span.info["rows"] = len(out.points)


def _hook_oracle(span, args, kwargs, out):
    span.info["err_max"] = max((float(e.std_err) for e in out.values()), default=0.0)


HOOKS = {
    "density.log_f_p": _hook_log_f_p,
    "samplers.exact_p2_sample": _hook_draws,
    "samplers.exact_p2_matrix_sample": _hook_draws,
    "moments.quadrature_moments": _hook_oracle,
}


def _public_functions(mod):
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


class Tracer:
    """Installs span-recording wrappers around the layers of one package."""

    def __init__(self, package):
        self.package = package
        self.modules = {}
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"{package.__name__}.{layer}")
            except ImportError:
                continue
        self.spans = []
        self.hook_failures = {}
        self._stack = []
        self._patched = []

    def _wrap(self, name, layer, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(span, args, kwargs, out)
                except _HOOK_ERRORS as exc:
                    key = f"{name}: {type(exc).__name__}"
                    self.hook_failures[key] = self.hook_failures.get(key, 0) + 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        wrappers = {}
        for layer, mod in self.modules.items():
            for name, fn in _public_functions(mod):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", layer, fn))
        layer, name = LEVEL_HOOK
        fn = getattr(self.modules.get(layer), name, None)
        if inspect.isfunction(fn):
            wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", layer, fn))
        for mod in [self.package, *self.modules.values()]:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()


def _outermost(spans, match):
    """Spans that match and have no matching ancestor, so nested calls count once."""
    out = []
    for span in spans:
        if not match(span):
            continue
        parent = span.parent
        while parent is not None and not match(spans[parent]):
            parent = spans[parent].parent
        if parent is None:
            out.append(span)
    return out


def _under(spans, span, names):
    parent = span.parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, passes):
    """Per-layer figures of the traced passes; times and counts are per pass."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration

    def named(*names):
        return [s for s in spans if s.name in names]

    def inclusive(match):
        return sum(s.duration for s in _outermost(spans, match))

    def self_time(match):
        return sum(s.duration - child_time[i] for i, s in enumerate(spans) if match(s))

    def info_sum(items, key):
        return sum(s.info.get(key, 0) for s in items)

    oracle_names = ("moments.quadrature_moments", "moments.quadrature_moment")
    oracle = named("moments.quadrature_moments")
    oracle_s = inclusive(lambda s: s.name in oracle_names)
    levels = len(named("moments." + LEVEL_HOOK[1])) - len(oracle)
    nodes = sum(s.info.get("rows", 0) for s in named("density.log_f_p")
                if _under(spans, s, ("moments.quadrature_moments",)))
    log_f_p = named("density.log_f_p")
    log_f_p_s = inclusive(lambda s: s.name == "density.log_f_p")

    exact_names = ("samplers.exact_p2_sample", "samplers.exact_p2_matrix_sample")
    exact_s = inclusive(lambda s: s.name in exact_names)
    jacobi = named("matrixlab.svd")
    jacobi_s = inclusive(lambda s: s.name == "matrixlab.svd")

    per = 1.0 / max(1, passes)
    return {
        "moments.oracle_s": oracle_s * per,
        "moments.oracle_calls": len(oracle) * per,
        "moments.oracle_nodes": nodes * per,
        "moments.oracle_s_per_level": oracle_s / (levels if levels > 0 else max(1, len(oracle))),
        "moments.oracle_err_bound_max": max((s.info.get("err_max", 0.0) for s in oracle), default=0.0),
        "density.log_f_p_s": log_f_p_s * per,
        "density.log_f_p_points_per_s": _rate(info_sum(log_f_p, "rows"), log_f_p_s),
        "gammafn.s": inclusive(lambda s: s.layer == "gammafn") * per,
        "samplers.exact_s": exact_s * per,
        "samplers.exact_draws_per_s": _rate(info_sum(named(*exact_names), "rows"), exact_s),
        "matrixlab.svd_s": jacobi_s * per,
        "matrixlab.svd_per_s": _rate(len(jacobi), jacobi_s),
        "matrixlab.entry_terms_s": inclusive(lambda s: s.name == "matrixlab.entry_identity_terms") * per,
        "util.batch_means_s": inclusive(lambda s: s.layer == "util") * per,
        "moments.pipeline_self_s": self_time(
            lambda s: s.name in ("moments.sigma_pipeline", "moments.var_mp_pipeline")) * per,
        "verify.self_s": self_time(lambda s: s.layer == "verify") * per,
        "cli.self_s": self_time(lambda s: s.layer == "cli") * per,
        "trace.hook_failures": sum(tracer.hook_failures.values()),
    }
