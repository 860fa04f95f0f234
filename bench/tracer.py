"""Per-layer spans and exact bytecode counts, both from outside the program.

`Spans` wraps the public functions and methods of each hirzebruch module
by rebinding the names in the module namespaces of this process, so no
source file changes.  A layer's self time is the time of its spans minus
the time of the spans they cause.  Counters ride on the same wrappers.

`BytecodeCounter` traces with `sys.settrace` opcode events and credits
every executed bytecode to the source file of its frame.  The
count repeats exactly for one CPython version and one input, whatever the
machine's load, so it shows an algorithmic change without timing noise.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("partitions", "laurent", "localization", "counting", "ale", "cli")

# Methods that run inside dictionary and set operations.  Wrapping them
# would multiply the overhead while moving no time between layers.
_UNWRAPPED = {"__eq__", "__hash__", "__lt__", "__repr__", "__contains__", "__bool__"}

# (layer, qualified name) -> counter bumped on every call
CALL_COUNTERS = {
    ("partitions", "PartitionDiagram.__init__"): "partitions.diagrams",
    ("laurent", "Character.__init__"): "laurent.character_inits",
    ("laurent", "TPolynomial.__init__"): "laurent.tpoly_inits",
    ("laurent", "QSeries.__init__"): "laurent.qseries_inits",
    ("localization", "tangent_character"): "localization.characters",
    ("localization", "reduced_tangent_character"): "localization.characters",
    ("ale", "ColoredFixedPoint.is_valid"): "ale.candidates",
}
# generator functions whose every yielded item is counted
YIELD_COUNTERS = {
    ("counting", "enumerate_fixed_points"): "counting.points",
    ("counting", "enumerate_reduced_fixed_points"): "counting.points",
    ("ale", "enumerate_colored_fixed_points"): "ale.points",
}


class Spans:
    """Timed spans at every call into a wrapped function, kept in memory."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.cache: dict[str, list[int]] = {"get": [], "put": []}  # ns per call
        self._stack: list[list[int]] = []  # per open span: [time of its children]
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.self_ns, self.total_ns, self.calls, self.counters):
            table.clear()
        for samples in self.cache.values():
            samples.clear()

    def _enter(self) -> int:
        self._stack.append([0])
        return time.perf_counter_ns()

    def _leave(self, layer: str, name: str, start: int) -> int:
        elapsed = time.perf_counter_ns() - start
        children = self._stack.pop()[0]
        self.self_ns[layer] += elapsed - children
        self.total_ns[name] += elapsed
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += elapsed
        return elapsed

    def _wrap_function(self, layer: str, qualname: str, fn):
        name = f"{layer}.{qualname}"
        counter = CALL_COUNTERS.get((layer, qualname))
        spans = self

        if inspect.isgeneratorfunction(fn):
            yields = YIELD_COUNTERS.get((layer, qualname))

            def wrapper(*args, **kwargs):
                # each resumption is a span; the generator's consumer is the parent
                inner = fn(*args, **kwargs)
                while True:
                    start = spans._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        spans._leave(layer, name, start)
                    if yields:
                        spans.counters[yields] += 1
                    yield item

        elif qualname == "Cache.get":

            def wrapper(*args, **kwargs):
                start = spans._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans.cache["get"].append(spans._leave(layer, name, start))
                spans.counters["cli.cache_misses" if result is None else "cli.cache_hits"] += 1
                return result

        else:
            samples = spans.cache["put"] if qualname == "Cache.put" else None

            def wrapper(*args, **kwargs):
                if counter:
                    spans.counters[counter] += 1
                start = spans._enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = spans._leave(layer, name, start)
                    if samples is not None:
                        samples.append(elapsed)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def install(self) -> None:
        """Wrap every public function and method of every layer."""
        modules = [importlib.import_module(f"hirzebruch.{layer}") for layer in LAYERS]
        namespaces = [vars(m) for m in modules] + [vars(importlib.import_module("hirzebruch"))]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj) and not attr.startswith("_"):
                    wrapped = self._wrap_function(layer, attr, obj)
                    # rebind every name that refers to it, e.g. `from .counting import ...`
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is obj:
                                self._saved.append((ns, key, value))
                                ns[key] = wrapped

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr in _UNWRAPPED or (attr.startswith("_") and not attr.startswith("__")):
                continue
            if attr.startswith("__") and not inspect.isfunction(raw):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap_function(layer, qualname, raw.__func__))
            elif inspect.isfunction(raw):
                replacement = self._wrap_function(layer, qualname, raw)
            else:
                continue
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._saved.clear()


class BytecodeCounter:
    """Counts executed bytecodes per source file between `start` and `stop`.

    Only frames entered after `start` are traced, so the caller's own
    frame, and whatever it does between `stop` and the next `start`, is
    not counted.
    """

    def __init__(self) -> None:
        self._cells: dict[str, list[int]] = {}
        self._tracers: dict[str, object] = {}

    def _local_for(self, filename: str):
        cell = self._cells[filename] = [0]

        def local(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            return local

        return local

    def _global(self, frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        filename = frame.f_code.co_filename
        tracer = self._tracers.get(filename)
        if tracer is None:
            tracer = self._tracers[filename] = self._local_for(filename)
        return tracer

    def start(self) -> None:
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)

    @property
    def per_file(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}
