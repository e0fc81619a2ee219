"""Spans around the public functions of the package modules.

A wrapper replaces each traced function at every module attribute that
holds it, which is the name its callers look up at call time, so nothing
under src/ changes.  Spans are kept in memory and written when the run
ends; per-layer metrics are computed from them.
"""

import functools
import time
from array import array

# metric prefix -> (module, attribute) pairs wrapped under it.  A prefix
# whose metrics end in .self_s reports span time minus child-span time.
LAYERS = {
    "ffield.count_points": [("ffield", "count_points")],
    "ffield.build_field": [("ffield", "build_field")],
    "padic.warm_gamma_table": [("padic", "PadicCtx.warm_gamma_table")],
    "padic.teichmuller": [("padic", "teichmuller")],
    "padic.checks": [],  # every padic.*_check, found at install time
    "gfunc.evaluate_G": [("gfunc", "evaluate_G")],
    "gfunc.identity": [("gfunc", "check_splitting_identity"),
                       ("gfunc", "check_reduction_identity")],
    "charsum.complex": [("charsum", name) for name in (
        "gauss_sum", "jacobi_sum_complex", "binomial_complex", "greene_F",
        "mccarthy_Fstar", "davenport_hasse_check")],
    "charsum.padic": [("charsum", "jacobi_sum_padic"),
                      ("charsum", "gross_koblitz_jacobi_check")],
    "frobtrace.trace_sum_pair": [("frobtrace", "trace_sum_pair")],
}
SELF_TIME = ("gfunc.evaluate_G", "gfunc.identity", "frobtrace.trace_sum_pair")


class MissingTarget(LookupError):
    """A traced function is gone from the package: the layer map is stale."""


def _time_metric(layer):
    return f"{layer}.self_s" if layer in SELF_TIME else f"{layer}.s"


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = "count"
        if layer == "ffield.build_field":
            out[f"{layer}.misses"] = "count"
        out[_time_metric(layer)] = "s"
    out["trace_overhead_ratio"] = "1"
    return out


class Recorder:
    """In-memory spans: name, start, end, parent span and item id."""

    def __init__(self):
        self.active = False
        self.item = -1  # -1 while setting up
        self.names = []  # span name index -> "module.function"
        self.layer_of = []  # span name index -> layer index
        self.layers = list(LAYERS)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_item = array("i")
        self.outer = array("b")  # 1 unless nested in a span of its own layer
        self._stack = []
        self._depth = [0] * len(self.layers)
        self._build_field = None
        self._misses0 = 0

    def wrap(self, fn, label, layer):
        ix = len(self.names)
        self.names.append(label)
        self.layer_of.append(layer)
        rec, depth, stack, clock = self, self._depth, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            sid = len(rec.start)
            rec.name.append(ix)
            rec.parent.append(stack[-1] if stack else -1)
            rec.span_item.append(rec.item)
            rec.outer.append(depth[layer] == 0)
            rec.end.append(0.0)
            depth[layer] += 1
            stack.append(sid)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[sid] = clock()
                stack.pop()
                depth[layer] -= 1

        return traced

    def install(self, modules):
        """Wrap every LAYERS target; modules maps short name -> module.

        The package root is included so that re-exported names are
        wrapped too.  Raises MissingTarget if a target is gone, so that a
        change to the program's structure cannot pass for an idle layer.
        """
        targets = {layer: list(pairs) for layer, pairs in LAYERS.items()}
        targets["padic.checks"] = [
            ("padic", n) for n in sorted(vars(modules["padic"])) if n.endswith("_check")]
        if not targets["padic.checks"]:
            raise MissingTarget("padic has no *_check functions")
        found = []  # (layer index, label, owner, attribute path, function)
        for li, layer in enumerate(self.layers):
            for mod_name, attr in targets[layer]:
                owner = modules[mod_name]
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, path[-1], None)
                if not callable(fn):
                    raise MissingTarget(f"traced function {mod_name}.{attr} is gone")
                found.append((li, f"{mod_name}.{attr}", owner, path, fn))
        build_field = modules["ffield"].build_field
        if not hasattr(build_field, "cache_info"):
            raise MissingTarget("ffield.build_field is no longer an lru_cache, "
                                "so ffield.build_field.misses cannot be counted")
        self._build_field = build_field
        self._misses0 = build_field.cache_info().misses
        for li, label, owner, path, fn in found:
            wrapper = self.wrap(fn, label, li)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)

    def metrics(self):
        n_layers = len(self.layers)
        calls = [0] * n_layers
        total = [0.0] * n_layers
        child = [0.0] * len(self.start)
        for sid in range(len(self.start)):
            parent = self.parent[sid]
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        for sid in range(len(self.start)):
            if not self.outer[sid]:
                continue
            layer = self.layer_of[self.name[sid]]
            calls[layer] += 1
            dur = self.end[sid] - self.start[sid]
            total[layer] += dur - child[sid] if self.layers[layer] in SELF_TIME else dur
        out = {}
        for li, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = calls[li]
            if layer == "ffield.build_field":
                out[f"{layer}.misses"] = self._build_field.cache_info().misses - self._misses0
            out[_time_metric(layer)] = total[li]
        return out

    def write(self, path, t0):
        """Tab-separated spans, times in seconds from t0."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\titem\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.names[self.name[sid]]}\t{self.start[sid] - t0:.9f}\t"
                    f"{self.end[sid] - t0:.9f}\t{self.parent[sid]}\t{self.span_item[sid]}\n")
