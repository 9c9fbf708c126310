"""Outside-in tracing of the library's layers, installed from the benchmark.

`Tracer.install` wraps every public function of each layer module and
rebinds the wrapper in every `maxsub` module namespace that imported the
original (`from .linalg import rref` would otherwise bypass it).  A
wrapper records a span (task id, name, start, end, parent) in memory.  The
small vector helpers of `linalg`, `reduce_vec` among them, record no span:
they count calls and add their time to their layer.  The hot methods
(`Field` scalar ops, `Subspace.contains_vec`, `Algebra.multiply`) only
count calls, so their own time stays in the caller's self time.  Each
layer's busy time is the time covered by its outermost spans, its self
time the time its spans do not spend in child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

LAYERS = ("linalg", "algebra", "structure", "maximal", "extensions",
          "presentations", "formats", "cli")

# called up to a few hundred thousand times per pass: no span, but counted
# and timed into the layer (see Tracer._leaf)
LEAVES = {
    "linalg": {"zero_vec", "unit_vec", "vec_add", "vec_sub", "vec_scale",
               "vec_is_zero", "mat_vec", "mat_mul", "identity_matrix",
               "reduce_vec", "tensor_index", "all_vectors",
               "gaussian_binomial", "GF"},
}
# called millions of times per pass: counted only
HOT_METHODS = {  # (layer, class, methods, counter name)
    ("linalg", "Field", ("add", "sub", "mul", "neg", "inv"),
     "linalg.field_dispatch.calls"),
    ("linalg", "Subspace", ("contains_vec",), "linalg.contains_vec.calls"),
    ("algebra", "Algebra", ("multiply",), "algebra.multiply.calls"),
}

# functions whose outermost calls get their own busy time
TIMED = {
    "algebra": ("validate_algebra",),
    "structure": ("jacobson_radical", "verify_radical", "semisimple_blocks",
                  "wedderburn_data"),
    "maximal": ("brute_force_maximal", "observed_max_dim", "unit_group",
                "conjugacy_orbit_rep", "enumerate_maximal_families",
                "instantiate_family", "certify_maximal", "spin_up_recheck",
                "classify_type"),
    "extensions": ("tensor_square", "separability_idempotent",
                   "split_complement", "decompose_module"),
}
COUNTED = {
    "linalg": ("rref", "reduce_vec"),
    "algebra": ("is_closed_subspace", "subalgebra_generated"),
    "structure": ("jacobson_radical", "trace_form_radical", "ideal_closure",
                  "minimal_polynomial"),
    "maximal": ("conjugacy_orbit_rep", "certify_maximal"),
    "extensions": ("modules_isomorphic",),
    "formats": ("parse_algebra",),
    "cli": ("run",),
}
# measured by the runner, not by wrappers
PROCESS_METRICS = ("proc.cpu_s", "trace.overhead_frac")
CERTIFICATES = ("burnside", "spin_up", "exhaustive", "not_maximal",
                "inconclusive")


def metric_names() -> list[str]:
    """Every per-layer metric, in the order the benchmark prints them."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.busy_s", f"{layer}.self_s", f"{layer}.failed"]
    for layer, fns in COUNTED.items():
        names += [f"{layer}.{fn}.calls" for fn in fns]
    for layer, fns in TIMED.items():
        names += [f"{layer}.{fn}.busy_s" for fn in fns]
    names += sorted(counter for *_, counter in HOT_METHODS)
    names += ["linalg.rref.cells", "linalg.enumerate_subspaces.yielded",
              "algebra.closure_hit_ratio", "structure.not_split"]
    names += [f"maximal.certify.{c}" for c in CERTIFICATES]
    return names + list(PROCESS_METRICS)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith(".cells"):
        return "cells"
    return "count"


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.task = -1
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self._stack: list[list] = []      # [span index, child seconds]
        self._depth: dict[str, int] = {}  # open spans per layer / function
        self.counts: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def reset(self):
        """Start a new pass; counters are cleared in place."""
        self.counts.clear()
        self.seconds.clear()

    def _add(self, key: str, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _add_s(self, key: str, value: float):
        self.seconds[key] = self.seconds.get(key, 0.0) + value

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {name: sys.modules[f"maxsub.{name}"] for name in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                replaced[fn] = self._wrap(layer, name, fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "maxsub"
                                   or modname.startswith("maxsub.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, attr, replaced[value])
        for layer, cls_name, methods, counter in HOT_METHODS:
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                setattr(cls, meth,
                        _counted(getattr(cls, meth), self.counts, counter))

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        if inspect.isgeneratorfunction(fn):
            return _counted_generator(fn, self.counts, f"{full}.yielded")
        if name in LEAVES.get(layer, ()):
            return self._leaf(layer, full, fn)
        name_id = len(self.names)
        self.names.append(full)
        timed = name in TIMED.get(layer, ())
        inspect_result = _RESULT_HOOKS.get(full)
        tracer = self

        def span(*args, **kwargs):
            if full == "linalg.rref" and args:
                args = (list(args[0]),) + args[1:]
                rows = args[0]
                tracer._add("linalg.rref.cells",
                            len(rows) * len(rows[0]) if rows else 0)
            tracer._add(f"{full}.calls")
            depth = tracer._depth
            layer_depth = depth.get(layer, 0)
            fn_depth = depth.get(full, 0)
            depth[layer] = layer_depth + 1
            depth[full] = fn_depth + 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if layer_depth == 0:
                    tracer._add(f"{layer}.failed")
                raise
            finally:
                end = perf_counter()
                stack.pop()
                depth[layer] = layer_depth
                depth[full] = fn_depth
                took = end - start
                if stack:
                    stack[-1][1] += took
                tracer.spans[index] = (tracer.task, name_id, start, end, parent)
                tracer._add_s(f"{layer}.self_s", took - frame[1])
                if layer_depth == 0:
                    tracer._add_s(f"{layer}.busy_s", took)
                if timed and fn_depth == 0:
                    tracer._add_s(f"{full}.busy_s", took)
            if inspect_result is not None:
                inspect_result(tracer, result)
            return result

        span.__wrapped__ = fn
        return span

    def _leaf(self, layer: str, full: str, fn):
        """Count calls; time the outermost call in its layer, as if it were
        a span with no children, but record none."""
        tracer = self
        key = f"{full}.calls"

        def leaf(*args, **kwargs):
            counts, depth = tracer.counts, tracer._depth
            counts[key] = counts.get(key, 0) + 1
            layer_depth = depth.get(layer, 0)
            if layer_depth:     # inside the layer: its time is already there
                return fn(*args, **kwargs)
            depth[layer] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer._add(f"{layer}.failed")
                raise
            finally:
                took = perf_counter() - start
                depth[layer] = 0
                if tracer._stack:
                    tracer._stack[-1][1] += took
                tracer._add_s(f"{layer}.self_s", took)
                tracer._add_s(f"{layer}.busy_s", took)

        leaf.__wrapped__ = fn
        return leaf

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Every per-layer metric accumulated since the last reset."""
        counts, seconds = self.counts, self.seconds
        out = {}
        for name in metric_names():
            if name in PROCESS_METRICS:
                continue
            if name == "algebra.closure_hit_ratio":
                calls = counts.get("algebra.is_closed_subspace.calls", 0)
                hits = counts.get("algebra.is_closed_subspace.true", 0)
                out[name] = hits / calls if calls else 0.0
            elif name.endswith("_s"):
                out[name] = seconds.get(name, 0.0)
            else:
                out[name] = counts.get(name, 0)
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _counted(fn, counts: dict, key: str):
    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)
    counted.__wrapped__ = fn
    return counted


def _counted_generator(fn, counts: dict, key: str):
    def counted(*args, **kwargs):
        for item in fn(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            yield item
    counted.__wrapped__ = fn
    return counted


def _closure_hit(tracer: Tracer, result):
    if result:
        tracer._add("algebra.is_closed_subspace.true")


def _not_split(tracer: Tracer, result):
    if not result.schur:
        tracer._add("structure.not_split")


def _certificate(tracer: Tracer, result):
    kind = result.method if result.status == "maximal" else result.status
    tracer._add(f"maximal.certify.{kind}")


_RESULT_HOOKS = {
    "algebra.is_closed_subspace": _closure_hit,
    "structure.semisimple_blocks": _not_split,
    "maximal.certify_maximal": _certificate,
}
