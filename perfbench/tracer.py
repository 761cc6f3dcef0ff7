"""Outside-in span tracer for the nabla_calc package.

The tracer wraps, from outside the package, every public function and
every public method of every class that a ``nabla_calc.*`` module defines,
in every ``nabla_calc.*`` namespace that binds it (``from .x import f``
copies the binding, so wrapping only the defining module would miss the
copies), plus the registered check functions in ``checks.CHECKS``.  Each
call pushes a span on a stack; a span's self time is its duration minus
the time covered by the spans it caused.

A few functions carry extra counters (bytes computed, distinct-input
fractions, per-check peak allocation).  The time those probes take is
booked to the ``tracer`` row, not to any layer.

Span names drop the ``nabla_calc.`` prefix and a leading underscore of the
module, so ``nabla_calc._kernels.diff_axis`` is ``kernels.diff_axis``.
Use one Tracer per process, from a single thread.
"""

import functools
import hashlib
import inspect
import os
import sys
import time
import tracemalloc
import types

PACKAGE = "nabla_calc"

# private helpers the benchmark names explicitly, as "<module>.<function>"
EXTRA_PRIVATE = ("operators._hom_derivative",)

# functions whose distinct inputs are counted, and the metric that reports it
DISTINCT = {
    "calculus.covariant_derivative": "distinct_input_frac",
    "bundles.induced_tensor_bundle": "distinct_key_frac",
}


def span_name(fn):
    module = fn.__module__.split(".", 1)[1] if "." in fn.__module__ else fn.__module__
    return f"{module.lstrip('_')}.{fn.__qualname__}"


def _digest_array(a):
    import numpy as np

    a = np.ascontiguousarray(a)
    h = hashlib.blake2b(a.view(np.uint8).reshape(-1), digest_size=16)
    return (a.dtype.str, a.shape, h.hexdigest())


def _result_nbytes(result):
    nbytes = getattr(result, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    values = getattr(result, "values", None)
    nbytes = getattr(values, "nbytes", None)
    return nbytes if isinstance(nbytes, int) else 0


class Tracer:
    """Install wrappers, collect spans and counters, then restore everything."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counters = {
            "kernels.diff_axis.bytes_computed": 0,
            "bundles.pointwise_kron.bytes_out": 0,
            "reports.emit_report.bytes_written": 0,
        }
        self.check_wall_s = {}
        self.check_peak_alloc_b = {}
        self.tracer_s = 0.0
        self.largest_array_bytes = 0
        self._stack = []
        self._patches = []
        self._object_keys = {}
        self._probes = {
            "kernels.diff_axis": self._probe_diff_axis,
            "calculus.covariant_derivative": self._probe_covariant_derivative,
            "bundles.induced_tensor_bundle": self._probe_induced_bundle,
            "bundles.pointwise_kron": self._probe_kron,
            "reports.emit_report": self._probe_emit,
        }
        self.distinct = {name: set() for name in DISTINCT}

    # ---- installation -------------------------------------------------

    def _targets(self):
        """(owner, attribute, function) for every binding to wrap."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if (name == PACKAGE or name.startswith(PACKAGE + "."))
            and isinstance(m, types.ModuleType)
        ]
        out = []
        for module in modules:
            for attr, value in sorted(vars(module).items()):
                if isinstance(value, types.FunctionType) and self._wanted(attr, value):
                    out.append((module, attr, value))
                elif (
                    isinstance(value, type)
                    and value.__module__.startswith(PACKAGE + ".")
                    and value.__module__ == module.__name__
                ):
                    for mattr, mvalue in sorted(vars(value).items()):
                        if isinstance(mvalue, types.FunctionType) and not mattr.startswith("_"):
                            out.append((value, mattr, mvalue))
        return out

    @staticmethod
    def _wanted(attr, fn):
        if not fn.__module__.startswith(PACKAGE + "."):
            return False
        if not attr.startswith("_"):
            return True
        return f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}" in EXTRA_PRIVATE

    def install(self):
        checks = sys.modules.get(PACKAGE + ".checks")
        registry = checks.CHECKS if checks is not None else {}
        check_names = {}
        for reg_name, entry in registry.items():
            check_names.setdefault(entry[0], []).append(reg_name)
            self.check_wall_s[reg_name] = 0.0
            self.check_peak_alloc_b[reg_name] = 0
        wrappers = {}

        def wrapper_for(fn):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, check_names.get(fn, ()))
            return wrappers[fn]

        for owner, attr, fn in self._targets():
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper_for(fn))
        for reg_name, entry in list(registry.items()):
            self._patches.append((registry, reg_name, entry))
            registry[reg_name] = (wrapper_for(entry[0]),) + tuple(entry[1:])
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- the wrapper --------------------------------------------------

    def _wrap(self, fn, check_names):
        name = span_name(fn)
        probe = self._probes.get(name)
        stack = self._stack
        signature = inspect.signature(fn) if probe is not None else None
        calls, self_s = self.calls, self.self_s
        calls[name] = 0
        self_s[name] = 0.0
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None or check_names:
                t0 = time.perf_counter()
                if probe is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    probe(bound, None)
                if check_names:
                    mem0 = tracer._mem_reset()
                tracer._book(time.perf_counter() - t0)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            t0 = time.perf_counter()
            tracer.largest_array_bytes = max(
                tracer.largest_array_bytes, _result_nbytes(result)
            )
            if probe is not None:
                probe(bound, result)
            if check_names:
                peak = tracer._mem_peak(mem0)
                for reg in check_names:
                    tracer.check_wall_s[reg] += dur
                    tracer.check_peak_alloc_b[reg] = max(
                        tracer.check_peak_alloc_b[reg], peak
                    )
            tracer._book(time.perf_counter() - t0)
            return result

        return wrapper

    def _book(self, seconds):
        """Charge probe time to the tracer row, outside the caller's self time."""
        self.tracer_s += seconds
        if self._stack:
            self._stack[-1][0] += seconds

    @staticmethod
    def _mem_reset():
        if not tracemalloc.is_tracing():
            return 0
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    @staticmethod
    def _mem_peak(base):
        if not tracemalloc.is_tracing():
            return 0
        return max(0, tracemalloc.get_traced_memory()[1] - base)

    # ---- probes: bound arguments before the call (result None), then after

    def _object_key(self, obj, arrays):
        """Content key of a bundle or metric, computed once per object."""
        hit = self._object_keys.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        key = tuple(_digest_array(getattr(obj, a)) for a in arrays)
        self._object_keys[id(obj)] = (obj, key)
        return key

    def _probe_diff_axis(self, a, result):
        if result is not None:
            self.counters["kernels.diff_axis.bytes_computed"] += a["u"].nbytes + result.nbytes

    def _probe_covariant_derivative(self, a, result):
        if result is None:
            u = a["u"]
            self.distinct["calculus.covariant_derivative"].add(
                (
                    _digest_array(u.values),
                    u.rank,
                    self._object_key(a["bundle"], ("potentials", "fiber_metric")),
                    self._object_key(a["metric"], ("values",)),
                )
            )

    def _probe_induced_bundle(self, a, result):
        if result is None:
            self.distinct["bundles.induced_tensor_bundle"].add(
                (
                    self._object_key(a["bundle"], ("potentials", "fiber_metric")),
                    self._object_key(a["metric"], ("values",)),
                    int(a["slots"]),
                )
            )

    def _probe_kron(self, a, result):
        if result is not None:
            self.counters["bundles.pointwise_kron.bytes_out"] += result.nbytes

    def _probe_emit(self, a, result):
        if result is not None:
            self.counters["reports.emit_report.bytes_written"] += sum(
                os.path.getsize(p) for p in result
            )

    # ---- summary ------------------------------------------------------

    def summary(self, total_s):
        """Per-function, per-layer and per-check figures for a traced region.

        total_s is the wall time of the region; every second of it lands in
        exactly one layer row, the tracer row or the unattributed row.
        """
        functions = {
            name: {"calls": self.calls[name], "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }
        for name, seen in self.distinct.items():
            calls = self.calls[name]
            functions[name][DISTINCT[name]] = len(seen) / calls if calls else 0.0
        layers = {}
        for name, row in functions.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        rows = dict(layers)
        rows["tracer"] = self.tracer_s
        rows["unattributed"] = total_s - sum(layers.values()) - self.tracer_s
        return {
            "total_s": total_s,
            "functions": functions,
            "counters": dict(self.counters),
            "layers": {
                k: {"self_s": v, "share": v / total_s if total_s > 0 else 0.0}
                for k, v in sorted(rows.items())
            },
            "checks": {
                reg: {
                    "wall_s": self.check_wall_s[reg],
                    "peak_alloc_mb": self.check_peak_alloc_b[reg] / 1e6,
                }
                for reg in sorted(self.check_wall_s)
            },
            "largest_array_bytes": self.largest_array_bytes,
        }
