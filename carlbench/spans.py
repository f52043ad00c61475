"""Spans around the calls into each layer of carl, recorded from outside the program.

:func:`install` wraps every function named in each module's ``__all__``
(every public function defined in the module where there is no ``__all__``)
and ``ScaledParams.from_product``. The wrapper replaces the function under
every name a carl module holds it by, so calls that one module makes into
another, such as ``carl.sweep.eigen_spectrum`` or ``carl.cli.gain_curve``,
are traced too, and a public function that a later change adds is traced
without editing this file. :func:`uninstall` puts the originals back, so
untraced passes run carl's own code.

A span records its name, start, end, thread and parent. A span opened on a
pool thread, with nothing open on that thread, takes as parent the span open
on the main thread: the sweep call that submitted the work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List

LAYERS = ("params", "cubic", "spectrum", "dynamics", "sweep", "cli")


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent", "children", "steps")

    def __init__(self, name, start, thread, parent):
        self.name, self.start, self.end, self.thread, self.parent = name, start, None, thread, parent
        self.children: List[Span] = []
        self.steps = 0


def evolve_steps(bound: inspect.BoundArguments) -> int:
    """RK4 steps of one ``evolve`` call, per its docstring: whole steps of
    ``dt`` across ``tau_end - init.tau``, plus one shortened step for a
    remainder (the same 1e-9 guards)."""
    bound.apply_defaults()
    span = bound.arguments["tau_end"] - bound.arguments["init"].tau
    dt = bound.arguments["dt"]
    n = int(span / dt + 1e-9)
    return n + (1 if span - n * dt >= 1e-9 * dt else 0)


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.local = threading.local()
        self.main_stack: List[Span] = []
        self.main = threading.main_thread()
        self.saved = []

    def _stack(self) -> List[Span]:
        if threading.current_thread() is self.main:
            return self.main_stack
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn) if name == "dynamics.evolve" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer.main_stack[-1] if tracer.main_stack else None)
            span = Span(name, 0.0, threading.current_thread().name, parent)
            if signature is not None:
                span.steps = evolve_steps(signature.bind(*args, **kwargs))
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self, carl) -> None:
        originals = {}
        for layer in LAYERS:
            mod = getattr(carl, layer)
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                fn = getattr(mod, n)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self.wrap(f"{layer}.{n}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname == "carl" or modname.startswith("carl."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in originals and originals[id(value)][0] is value:
                        self.saved.append((mod, attr, value))
                        setattr(mod, attr, originals[id(value)][1])
        cls = carl.params.ScaledParams
        original = inspect.getattr_static(cls, "from_product")
        self.saved.append((cls, "from_product", original))
        cls.from_product = classmethod(self.wrap("params.from_product", original.__func__))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()

    def take(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans


def _union(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans: List[Span]) -> Dict[str, float]:
    """Per-function and per-layer figures of one pass.

    Self time is a span's duration minus the union of its children's
    intervals; the union, not the sum, because pool threads overlap.
    """
    for s in spans:
        if s.parent is not None:
            s.parent.children.append(s)
    out: Dict[str, float] = defaultdict(float)
    threads = defaultdict(set)
    for s in spans:
        self_s = (s.end - s.start) - _union([(c.start, c.end) for c in s.children], s.start, s.end)
        layer = s.name.split(".", 1)[0]
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += self_s
        out[f"{s.name}.total_s"] += s.end - s.start
        out[f"{layer}.self_s"] += self_s
        threads[s.name].add(s.thread)
        if s.steps:
            out[f"{s.name}.steps"] += s.steps
    for name, ts in threads.items():
        out[f"{name}.threads"] = len(ts)
    return out
