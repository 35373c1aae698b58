"""In-memory span tracer that wraps hsclab's public functions from outside.

Every public function defined in one of the layer modules is replaced, in
every hsclab namespace that holds it, by a recording wrapper.  Modules
import hot functions by name (positivity, warp, cli and acceptance all
bind ``hsc_dirs``, ``metric_jet`` or ``scan_chart`` at import), so
patching the defining module alone would miss most calls.  Modules are
reached through ``importlib`` because the package attribute
``hsclab.curvature`` is the function ``curvature``, not the module.

A span is ``[name, parent_index, start, end, units]``.  Only the
outermost call of a function is recorded: recursive calls, such as
``dsl.eval_value`` walking its expression tree, run unrecorded inside
it.  Self time is a span's duration minus the durations of its direct
children.  Nothing here touches the program's files or its results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from collections import defaultdict
from time import perf_counter

LAYERS = ("dsl", "wirtinger", "curvature", "positivity", "certify", "warp",
          "acceptance", "cli")


def _batch_size(array_like) -> int:
    shape = getattr(array_like, "shape", None)
    if shape is None:
        return 1
    return math.prod(shape[:-1])


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


# Work units recorded on a span, per function: K evaluations for the
# kernel, points for jets and scans.
UNITS = {
    "curvature.hsc_dirs": lambda a, k, out: _batch_size(_arg(a, k, 2, "dirs")),
    "curvature.metric_jet": lambda a, k, out: _batch_size(_arg(a, k, 1, "points")),
    "curvature.metric_jet_from_fd":
        lambda a, k, out: _batch_size(_arg(a, k, 1, "points")),
    "positivity.scan_chart": lambda a, k, out: out.points_scanned,
}


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket
    each traced operation so untraced code runs the original functions."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._active: set = set()
        self._patched: list = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"hsclab.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for key, fn in vars(mod).items():
                if (key.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{key}", fn))
        namespaces = [vars(importlib.import_module("hsclab"))]
        namespaces += [vars(mod) for mod in modules.values()]
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, key, value))
                    ns[key] = hit[1]

    def uninstall(self) -> None:
        while self._patched:
            ns, key, original = self._patched.pop()
            ns[key] = original

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        units = UNITS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = tracer._active
            if name in active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            active.add(name)
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
                active.discard(name)
            if units is not None:
                rec[4] = units(args, kwargs, out)
            return out

        return wrapper


def summarize(spans: list) -> dict:
    """Per function name: calls, inclusive seconds, self seconds, units."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "units": 0})
    for idx, (name, parent, start, end, units) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time[idx]
        agg["units"] += units
    return dict(out)


def count_under(spans: list, name: str, ancestor: str) -> int:
    """Spans called ``name`` with a span called ``ancestor`` above them."""
    inside = [False] * len(spans)
    total = 0
    for idx, (sname, parent, _, _, _) in enumerate(spans):
        inside[idx] = parent >= 0 and (inside[parent] or spans[parent][0] == ancestor)
        if sname == name and inside[idx]:
            total += 1
    return total


def write_spans(spans: list, path: str) -> None:
    """A header line naming the fields, then one JSON array per span in
    call order; parent is an index into that order, times are seconds
    from the first span's start."""
    t0 = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["name", "parent", "start", "end", "units"]}) + "\n")
        for name, parent, start, end, units in spans:
            fh.write(json.dumps([name, parent, round(start - t0, 7),
                                 round(end - t0, 7), units]) + "\n")
