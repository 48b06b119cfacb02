"""Spans around calls into derivlab's public functions, taken from outside.

A traced run wraps each function named in ``TARGETS`` in every
``derivlab`` module namespace that binds it (``cli``, ``gns`` and
``commutant`` import names directly, so one binding is not enough), and
methods on their class.  Each call records a span: id, name, start, end,
parent span id and run id (the index of the enclosing ``cli.run`` call).
Spans stay in memory; ``layer_metrics`` turns them into per-function
call counts, self times and byte counts.

Byte counts are computed from argument shapes at 16 bytes per complex
entry, not measured.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np

COMPLEX_BYTES = 16


def nullspace_bytes_in(m, *args, **kwargs) -> int:
    return COMPLEX_BYTES * int(np.size(m))


def kron_bytes_out(a, b, *args, **kwargs) -> int:
    return COMPLEX_BYTES * int(np.size(a)) * int(np.size(b))


def commutant_stack_bytes(gens, *args, **kwargs) -> int:
    """One n^2 x n^2 commutation map per generator, stacked."""
    if len(gens) == 0:
        return 0
    n = np.shape(gens[0])[0]
    return COMPLEX_BYTES * len(gens) * n**4


# (module, qualified name, byte-count metric, function of the call's arguments)
TARGETS = (
    ("numlin", "nullspace", "bytes_in", nullspace_bytes_in),
    ("numlin", "kron", "bytes_out", kron_bytes_out),
    ("numlin", "subspace_distance", None, None),
    ("spectral", "spectral_resolution", None, None),
    ("derivation", "Superoperator.power", None, None),
    ("derivation", "Superoperator.kernel", None, None),
    ("derivation", "ad_superoperator", None, None),
    ("derivation", "kernel_stabilization_report", None, None),
    ("commutant", "commutant", "stack_bytes", commutant_stack_bytes),
    ("commutant", "bicommutant", None, None),
    ("commutant", "kernel_commutant_check", None, None),
    ("gns", "gns_construct", None, None),
    ("gns", "implementing_operator", None, None),
    ("gns", "implementation_check", None, None),
    ("gns", "flow_intertwining_residual", None, None),
    ("gns", "kernel_correspondence_distance", None, None),
    ("gns", "abstract_kernel_stabilization", None, None),
    ("gns", "equilibrium_check", None, None),
    ("gns", "GNSRepresentation.pi", None, None),
    ("heisenberg", "hcr_residual", None, None),
    ("heisenberg", "commutation_residual", None, None),
    ("heisenberg", "rigidity_check", None, None),
    ("heisenberg", "trace_obstruction", None, None),
    ("cli", "generate", None, None),
    ("cli", "equilibrium_instance", None, None),
    ("cli", "run", None, None),
)

ROOT_SPAN = "cli.run"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    size: int = 0


class Tracer:
    """Collects spans in memory.  Single-threaded: the open spans form a
    stack, and a span's parent is the innermost span open when it began."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._run = -1

    def open(self, name: str, size: int = 0) -> Span:
        parent = self._stack[-1].id if self._stack else None
        if parent is None:
            self._run += 1
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self._run, size)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")


def _wrap(fn, name: str, tracer: Tracer, size_fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name, size_fn(*args, **kwargs) if size_fn else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    traced.__wrapped_by_perfbench__ = True
    return traced


def per_span_seconds(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call, timed on a no-op: the direct cost
    of one span, with the best of several repeats on each side."""

    def noop():
        return None

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    bare = min(loop(noop) for _ in range(repeats))
    wrapped = min(loop(_wrap(noop, "noop", Tracer(), None)) for _ in range(repeats))
    return max(wrapped - bare, 0.0) / calls


def _derivlab_modules():
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "derivlab" or key.startswith("derivlab."))
    ]


class Instrumentation:
    """Installs the wrappers and removes every one of them again."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self) -> None:
        modules = _derivlab_modules()
        for module_name, qualname, _metric, size_fn in self.targets:
            name = f"{module_name}.{qualname}"
            home = sys.modules.get(f"derivlab.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = _wrap(original, name, self.tracer, size_fn)
            if owner_name:  # a method: its class is the one binding
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, namespace, attr: str, wrapper) -> None:
        self._patched.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Names in derivlab namespaces or classes that still hold a wrapper."""
        found = []
        for mod in _derivlab_modules():
            for key, value in vars(mod).items():
                if getattr(value, "__wrapped_by_perfbench__", False):
                    found.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, member in vars(value).items():
                        if getattr(member, "__wrapped_by_perfbench__", False):
                            found.append(f"{mod.__name__}.{key}.{attr}")
        return found

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def layer_metrics(spans: list[Span], targets=TARGETS) -> dict[str, dict]:
    """Per target: calls, self_s, and its byte-count metric if it has one."""
    out = {}
    for module_name, qualname, byte_metric, _ in targets:
        entry = {"calls": 0, "self_s": 0.0}
        if byte_metric:
            entry[byte_metric] = 0
        out[f"{module_name}.{qualname}"] = entry
    own = self_times(spans)
    for s in spans:
        entry = out.get(s.name)
        if entry is None:
            continue
        entry["calls"] += 1
        entry["self_s"] += own[s.id]
        for key in entry.keys() - {"calls", "self_s"}:
            entry[key] += s.size
    return out


def root_span_seconds(spans: list[Span]) -> float:
    """Total duration of the top-level ``cli.run`` spans."""
    return sum(s.end - s.start for s in spans if s.parent is None and s.name == ROOT_SPAN)
