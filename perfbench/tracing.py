"""In-memory span tracer installed around pimub's public functions.

The tracer replaces module attributes in every pimub namespace that holds
the original function object (``pimub.cli.build_family`` and
``pimub.mub.build_family`` alike), so calls made between modules become
nested spans.  Nothing inside ``src/pimub`` is changed; ``uninstall``
restores the originals.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span in the same list (or -1) and ``op`` identifies the trial,
set-up or CLI command the span belongs to.  Spans are recorded only while
``op`` is set, so verification work done by the benchmark itself stays out
of the layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

# public functions traced, each named "<module>.<function>" after the
# module that defines it; the span takes the same name
TRACED = (
    "gf2n.make_field",
    "operators.fourier",
    "mub.build_family",
    "mub.build_slope_basis",
    "mub.build_vertical",
    "orbits.enumerate_orbits",
    "orbits.expand_probabilities",
    "tomography.random_pi_state",
    "tomography.exact_probabilities",
    "tomography.sample_counts",
    "tomography.reconstruct",
    "tomography.project_physical",
    "tomography.fidelity",
    "tomography.trace_distance",
)

_NAMESPACES = ("pimub", "pimub.gf2n", "pimub.operators", "pimub.mub",
               "pimub.orbits", "pimub.tomography", "pimub.cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # id(family) -> [family, bases built, labels read]; the family is
        # kept alive so that its id cannot be reused by a later one
        self.families: dict[int, list] = {}
        self.table_points: list[int] = []

    # -- recording ------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if tracer.op is not None:
                if name == "mub.build_family":
                    tracer.families[id(result)] = [result, len(result.bases), set()]
                elif name == "orbits.enumerate_orbits":
                    tracer.table_points.append(result.total_points)
            return result

        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in _NAMESPACES]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"pimub.{module}"), attr)
            wrapper = self._wrap(name, original)
            for ns in modules:
                if getattr(ns, attr, None) is original:
                    self._patched.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

        family_cls = importlib.import_module("pimub.mub").MubFamily
        original_basis = family_cls.basis
        tracer = self

        def basis(family, label):
            entry = tracer.families.get(id(family))
            if entry is not None and entry[0] is family:
                entry[2].add(label)
            return original_basis(family, label)

        self._patched.append((family_cls, "basis", original_basis))
        family_cls.basis = basis

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "families": [[built, len(read)] for _, built, read in self.families.values()],
            "table_points": self.table_points,
        }


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        if tracer.op is None:
            self.index = None
            return self
        parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter(), None, parent, tracer.op])
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        if self.index is not None:
            self.tracer.spans[self.index][2] = time.perf_counter()
            self.tracer._stack.pop()
        return False


# ----------------------------------------------------------------------
# Layer summary
# ----------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part covered by its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def per_op_median(spans: list[list], names: set[str], use_self: bool,
                  selves: list[float]) -> float:
    """Median over operations of the time each spent in the named spans.

    Only operations that entered at least one of the spans count.
    """
    per_op: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, op) in enumerate(spans):
        if name in names:
            per_op[op] += selves[i] if use_self else end - start
    return statistics.median(per_op.values()) if per_op else 0.0


def per_op_count(spans: list[list], name: str) -> float:
    per_op: dict[str, int] = defaultdict(int)
    for span in spans:
        if span[0] == name:
            per_op[span[4]] += 1
    return statistics.median(per_op.values()) if per_op else 0
