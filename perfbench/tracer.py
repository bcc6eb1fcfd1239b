"""Out-of-program tracer: wraps the public functions of each foliate module.

Installing the tracer replaces every public module-level function and every
public method (plus hand-written ``__init__``) of the classes defined in the
layer modules with a wrapper, and rebinds every name in the ``foliate.*``
module namespaces that pointed at an original, so calls made through
``from .x import f`` bindings are seen too.  ``uninstall`` puts the
originals back, so untraced passes run the program unmodified.

Each wrapped stage call records a span (function, start, end, parent span)
and pushes a frame on a stack; when it returns, its duration minus the time
covered by its wrapped children is its self time, charged to its layer.
Functions called once per point, node, foil or component (``PER_POINT``)
are not layer boundaries: they are counted and timed under their own name,
get no span, and their time stays with the layer that called them.  So the
span list grows with the pipeline's stages, not with the number of points,
and a stage that calls a helper per node (``stable`` calling
``lattice_coords``) carries that cost itself.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("generators", "patterns", "cellindex", "shifts", "foliation", "stable", "palm", "cli")

# Functions called once per point, node, foil or component.
PER_POINT = frozenset(
    {
        "cellindex.CellIndex.query_ball",
        "cellindex.CellIndex.count_ball",
        "cellindex.CellIndex.nearest",
        "patterns.distance",
        "patterns.distances_to",
        "patterns.lex_compare",
        "patterns.is_censored",
        "patterns.lattice_coords",
        "patterns.PointPattern.point",
        "foliation.FoliationResult.foil_members",
        "foliation.FoliationResult.component_members",
        "stable.foil_order",
        "stable.delta",
        "stable.orbit",
        "stable.orbit_restricted",
    }
)

CELL_QUERIES = frozenset(f for f in PER_POINT if f.startswith("cellindex."))

COUNTERS = (
    "shifts.points",
    "shifts.defined",
    "foliation.components",
    "foliation.foils",
    "stable.nodes",
    "cellindex.queries",
)


def _count_shift(result, counts) -> None:
    counts["shifts.points"] += len(result.censored)
    counts["shifts.defined"] += int((~result.censored).sum())


def _count_foliation(result, counts) -> None:
    counts["foliation.components"] += len(result.components)
    counts["foliation.foils"] += int(result.n_foils)


def _count_rls(result, counts) -> None:
    counts["stable.nodes"] += len(result.rank)


# Counters read off the value a function returns.
RESULT_COUNTERS = {
    "shifts.evaluate": _count_shift,
    "foliation.foliate": _count_foliation,
    "stable.build_rls_order": _count_rls,
}


class Tracer:
    """Per-pass self time and call counts per function and per layer, and
    an in-memory span list that ``dump`` returns at the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [function index, start, end, parent span, pass]
        self._stack: list[list] = []
        self._swaps: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        self._pass = -1
        self._build()
        self.index = {name: fid for fid, name in enumerate(self.names)}
        self.reset()

    def reset(self) -> None:
        """Start a new pass: clear the aggregates, keep the spans."""
        self._pass += 1
        # Per function: calls, and self time (a per-point function's
        # inclusive time, over the calls not nested in another per-point call).
        self.calls = [0] * len(self.names)
        self.seconds = [0.0] * len(self.names)
        self.layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.layer_entries: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counts: dict[str, int] = {k: 0 for k in COUNTERS}
        self._point_depth = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        if name in PER_POINT:
            return functools.wraps(fn)(self._point_wrapper(fn, fid, name in CELL_QUERIES))
        return functools.wraps(fn)(self._stage_wrapper(fn, fid, name))

    def _point_wrapper(self, fn, fid: int, query: bool):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._point_depth:
                self.calls[fid] += 1
                return fn(*args, **kwargs)
            if query:
                self.counts["cellindex.queries"] += 1
            self._point_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[fid] += clock() - t0
                self.calls[fid] += 1
                self._point_depth = 0

        return traced

    def _stage_wrapper(self, fn, fid: int, name: str):
        layer = name.split(".", 1)[0]
        counter = RESULT_COUNTERS.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[3] != layer:
                self.layer_entries[layer] += 1
            span = len(spans)
            spans.append([fid, 0.0, 0.0, parent[2] if parent else -1, self._pass])
            frame = [fid, 0.0, span, layer]  # function, child time, span, layer
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                own = (t1 - t0) - frame[1]
                self.seconds[fid] += own
                self.layer_self[layer] += own
                self.calls[fid] += 1
                if parent is not None:
                    parent[1] += t1 - t0
                spans[span][1] = t0
                spans[span][2] = t1
            if counter is not None:
                counter(result, self.counts)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)

    def _build(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"foliate.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._build_class(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "foliate" or mod_name.startswith("foliate.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._swaps.append((mod, attr, obj, wrapped[id(obj)]))

    def _build_class(self, cls: type, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and not (
                attr == "__init__" and not dataclasses.is_dataclass(cls)
            ):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapper = type(member)(self._wrap(member.__func__, name))
            elif inspect.isfunction(member):
                wrapper = self._wrap(member, name)
            else:
                continue
            self._swaps.append((cls, attr, member, wrapper))

    # -- results ----------------------------------------------------------

    def function_seconds(self, name: str) -> float:
        fid = self.index.get(name)
        return 0.0 if fid is None else self.seconds[fid]

    def functions(self) -> dict[str, list]:
        """Per function called in this pass: [calls, seconds]."""
        return {n: [c, t] for n, c, t in zip(self.names, self.calls, self.seconds) if c}

    def dump(self) -> dict:
        """Function table and spans, for writing out when the run ends."""
        return {
            "functions": list(self.names),
            "span_fields": ["function", "start_s", "end_s", "parent", "pass"],
            "spans": self.spans,
        }
