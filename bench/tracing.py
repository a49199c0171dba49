"""Per-layer tracing from outside the library.

``install`` replaces every public function of each layer module, at every
module namespace of the package that binds it, with a wrapper that records
a span (name, start, end, parent, op id).  Self time of a span is its
duration minus the time its child spans cover.

The ``Laurent`` methods are not timed: the closures workloads make millions
of sub-microsecond calls to them, and a wrapper's own clock reads would cost
more than the arithmetic and be charged to the caller's self time.  So
``invariants.determinant`` is the leaf span and its self time includes the
polynomial arithmetic it does.  ``count_laurent`` counts Laurent operations
with a wrapper that reads no clock, for a replay that is not timed.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = ("words", "diagrams", "invariants", "laurent", "surfaces", "plumbing", "stars", "pipeline")

# Span names that differ from "<layer>.<function>".
ALIASES = {
    "invariants.alexander_from_diagram": "invariants.fox",
    "invariants.alexander_from_braid": "invariants.burau",
    "pipeline.decompose_generalized_flat": "pipeline.decompose",
}

# Classes whose static ``from_json`` parses a workload input.
PARSERS = (("diagrams", "Diagram"), ("surfaces", "BraidedSurface"), ("stars", "Star"))

# Laurent special methods counted as operations, besides the public ones.
LAURENT_DUNDERS = ("__init__", "__add__", "__neg__", "__sub__", "__mul__", "__eq__")


class Tracer:
    """Span store plus running per-name totals for one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = -1  # id of the operation being timed; -1 outside operations
        self._next = 0
        self._stack: list[list] = []  # [name id, span id, start, child seconds]
        self._depth: list[int] = []
        # Stored spans, one entry per array.
        self.span_id = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.reset()

    def reset(self):
        """Clear the totals (stored spans stay)."""
        self.inclusive = [0.0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counters: dict[str, float] = {}
        self.root_self = 0.0  # self time of spans opened outside any other span

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for totals in (self.inclusive, self.self_time, self.calls, self._depth):
                totals.append(0)
        return self._ids[name]

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def parent_name(self):
        return self.names[self._stack[-1][0]] if self._stack else None

    def open(self, nid: int):
        span = self._next
        self._next += 1
        self._depth[nid] += 1
        self._stack.append([nid, span, self.clock(), 0.0])

    def close(self):
        end = self.clock()
        nid, span, start, child = self._stack.pop()
        duration = end - start
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.inclusive[nid] += duration
        self.self_time[nid] += duration - child
        self.calls[nid] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][1]
        else:
            self.root_self += duration - child
        self.span_id.append(span)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_op.append(self.op)

    def span(self, name: str, fn, probe=None):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if probe is not None:
                probe(self, args, result)
            return result

        return wrapper

    def generator_span(self, name: str, fn, probe=None):
        """Wrap a generator function; each ``next()`` is one span."""
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close()
                if probe is not None:
                    probe(self, args, item)
                yield item

        return wrapper

    def write(self, path):
        """Write the stored spans as CSV: id,name,start,end,parent,op."""
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            names = self.names
            for row in zip(
                self.span_id, self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op
            ):
                fh.write(f"{row[0]},{names[row[1]]},{row[2]:.7f},{row[3]:.7f},{row[4]},{row[5]}\n")


def _steps(star) -> int:
    return sum(len(ray.steps) for ray in star.rays)


def _determinant_probe(tr, args, result):
    size = len(args[0])
    tr.count("invariants.determinant.dim_sum", size)
    if tr.parent_name() == "invariants.fox":
        tr.maximum("invariants.fox.dim_max", size)


def _handle_probe(tr, args, result):
    tr.count("words.handle_reduce.in_letters", len(args[0].letters))
    tr.count("words.handle_reduce.out_letters", len(result.letters))


def _reduce_step_probe(tr, args, result):
    tr.count("stars.crossings_removed", _steps(args[1]) - _steps(result[1]))


def _accepted_probe(tr, args, result):
    tr.count("pipeline.realizations.accepted")


def _candidate_probe(tr, args, item):
    tr.count("pipeline.realizations.candidates")


PROBES = {
    "invariants.determinant": _determinant_probe,
    "words.handle_reduce": _handle_probe,
    "stars.reduce_step": _reduce_step_probe,
    "pipeline.braided_realization": _accepted_probe,
    "pipeline.realizations": _candidate_probe,  # called per yielded candidate
}


def install(tracer: Tracer, modules: dict):
    """Wrap the layer functions of the imported package; return an undo list."""
    undo = []
    replace = {}  # id(original) -> wrapper
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
            if inspect.isgeneratorfunction(obj):
                wrapper = tracer.generator_span(name, obj, PROBES.get(name))
            else:
                wrapper = tracer.span(name, obj, PROBES.get(name))
            replace[id(obj)] = wrapper
    package = modules["words"].__name__.rsplit(".", 1)[0]
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
    for layer, cls_name in PARSERS:
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__["from_json"]
        undo.append((cls, "from_json", original))
        cls.from_json = staticmethod(tracer.span(f"{layer}.from_json", original.__func__))
    return undo


class LaurentCounter:
    """Counts outermost Laurent method calls; nested calls are part of one."""

    def __init__(self):
        self.ops = 0
        self._inside = False

    def wrap(self, fn):
        def wrapper(*args, **kwargs):
            if self._inside:
                return fn(*args, **kwargs)
            self._inside = True
            self.ops += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._inside = False

        return wrapper


def count_laurent(counter: LaurentCounter, laurent) -> list:
    """Wrap the public and arithmetic methods of the ``Laurent`` class; return an undo list."""
    undo = []
    for attr, original in list(vars(laurent).items()):
        if attr.startswith("_") and attr not in LAURENT_DUNDERS:
            continue
        if isinstance(original, staticmethod):
            wrapped = staticmethod(counter.wrap(original.__func__))
        elif inspect.isfunction(original):
            wrapped = counter.wrap(original)
        else:
            continue  # properties are cheap and belong to their caller
        undo.append((laurent, attr, original))
        setattr(laurent, attr, wrapped)
    return undo


def uninstall(undo):
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)
