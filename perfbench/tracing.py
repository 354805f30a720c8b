"""Layer spans for the ekrlab benchmark, installed from outside the library.

The tracer wraps every public function of the layer modules by rebinding
each ``ekrlab.*`` module-level name that refers to it, and wraps the two
decoding methods ``Family.edge_tuples`` and ``Family.vertex_masks``.  Nothing
inside ``src/`` changes, so an untraced run executes the library exactly as
a user would.

A span's self time is its duration minus the time covered by the spans it
caused.  Spans are aggregated as they close (per name: entries, self time
and inclusive time; per layer: entries from another layer, self time and
exceptions that left the layer), so a generator step or a hot call costs
one stack push and one pop and nothing is kept per call.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("families", "constructions", "spectral", "certificates", "lp",
          "matching", "search", "io", "cli")

# ekrlab submodule -> layer; limits and errors do no work and stay unwrapped.
MODULE_LAYER = {name: name for name in LAYERS}
MODULE_LAYER["_linalg"] = "spectral"

# Per-edge helpers: a span on each call would cost more than the call, so
# they are only counted.
COUNT_ONLY = {
    ("families", "binomial"): "families.binomial",
    ("families", "rank_colex"): "families.rank",
    ("families", "unrank_colex"): "families.unrank",
    ("families", "validate_ksubset"): "families.validate",
}

# Functions reported together under one span name.
GROUPS = {
    ("families", "edge_tuples"): "families.decode",
    ("families", "vertex_masks"): "families.decode",
    ("families", "degree"): "families.degrees",
    ("families", "degree_profile"): "families.degrees",
    ("families", "vertex_degrees"): "families.degrees",
    ("families", "min_degree"): "families.degrees",
    ("families", "is_intersecting"): "families.intersect",
    ("families", "are_cross_intersecting"): "families.intersect",
    ("lp", "solve_lp_max"): "lp.solve",
    ("io", "parse_family"): "io.parse",
    ("io", "emit_report"): "io.emit",
    ("io", "serialize_family"): "io.emit",
}

# Functions that return a generator: each step is timed as its own span.
GENERATORS = {("search", "maximal_intersecting"): "search.cliques"}


class Tracer:
    """Stack of open spans plus running per-name and per-layer aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, layer, start, child_seconds]
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.layers: dict[str, list] = {}  # layer -> [calls, self_s, raised]
        self.counts: dict[str, int] = {}

    def enter(self, name: str) -> None:
        layer = name.split(".", 1)[0]
        parent = self._stack[-1] if self._stack else None
        # A span nested in one of the same name (recursion, vertex_masks
        # decoding through edge_tuples) is part of the outer call.
        if parent is None or parent[0] != name:
            self.spans.setdefault(name, [0, 0.0, 0.0])[0] += 1
        if parent is None or parent[1] != layer:
            self.layers.setdefault(layer, [0, 0.0, 0])[0] += 1
        self._stack.append([name, layer, self.clock(), 0.0])

    def exit(self, raised: bool = False) -> None:
        name, layer, start, child = self._stack.pop()
        duration = self.clock() - start
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        span[1] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent[0] != name:
            span[2] += duration
        agg = self.layers.setdefault(layer, [0, 0.0, 0])
        agg[1] += duration - child
        if parent is not None:
            parent[3] += duration
        if raised and (parent is None or parent[1] != layer):
            agg[2] += 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def snapshot(self) -> dict:
        """Plain-data copy of the aggregates, for sending between processes."""
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "layers": {k: list(v) for k, v in self.layers.items()},
                "counts": dict(self.counts)}

    def merge(self, snapshot: dict) -> None:
        """Add another tracer's ``snapshot()`` into this one."""
        for table, into in (("spans", self.spans), ("layers", self.layers)):
            for name, values in snapshot[table].items():
                agg = into.setdefault(name, [0] * len(values))
                for i, value in enumerate(values):
                    agg[i] += value
        for name, value in snapshot["counts"].items():
            self.count(name, value)


def _span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(raised=True)
            raise
        tracer.exit()
        if name == "io.parse":
            tracer.count("io.bytes_in", len(args[0]))
        elif name == "io.emit":
            tracer.count("io.bytes_out", len(result))
        return result
    return wrapper


def _generator(tracer: Tracer, name: str, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            gen = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(raised=True)
            raise
        tracer.exit()
        return _steps(tracer, name, counter, gen)
    return wrapper


def _steps(tracer: Tracer, name: str, counter: str, gen):
    while True:
        tracer.enter(name)
        try:
            item = next(gen)
        except StopIteration:
            tracer.exit()
            return
        except BaseException:
            tracer.exit(raised=True)
            raise
        tracer.exit()
        tracer.count(counter)
        yield item


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts
    counts.setdefault(name, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _wrap(tracer: Tracer, layer: str, attr: str, fn):
    key = (layer, attr)
    if key in COUNT_ONLY:
        return _counted(tracer, COUNT_ONLY[key], fn)
    name = GROUPS.get(key, f"{layer}.{attr}")
    if key in GENERATORS:
        return _generator(tracer, name, GENERATORS[key], fn)
    return _span(tracer, name, fn)


class Installation:
    """Wrappers bound into the loaded ekrlab modules; ``remove`` restores them."""

    def __init__(self, tracer: Tracer):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ekrlab" or name.startswith("ekrlab.")]
        wrappers: dict[int, object] = {}
        for module in modules:
            layer = MODULE_LAYER.get(module.__name__.rpartition(".")[2])
            if layer is None:
                continue
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = _wrap(tracer, layer, attr, obj)
        self._restore: list[tuple[object, str, object]] = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._rebind(module, attr, wrappers[id(obj)])
        family = sys.modules["ekrlab.families"].Family
        for attr in ("edge_tuples", "vertex_masks"):
            self._rebind(family, attr, _wrap(tracer, "families", attr, vars(family)[attr]))

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
