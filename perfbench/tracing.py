"""In-process tracing of the package's public functions, from outside.

`instrument` wraps every public module-level function of the traced
modules and rebinds the wrapper in every `ruledsurf.*` namespace that
holds the original (cli imports the names directly, so patching only the
defining module would miss its calls).  Spans are kept in memory as
[name, start, end, parent] and written out by the caller.  Functions named
in COUNT_ONLY get a call counter and no span: h0_interval_curve runs once
per lattice point, millions of times, and a span per call would swamp the
measurement.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from types import ModuleType
from typing import Iterator

PACKAGE = "ruledsurf"
MODULES = ("cli", "sections", "surfaces", "bundles", "blowups")
COUNT_ONLY = ("sections.h0_interval_curve",)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self = span minus its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        for name, n in self.counts.items():
            out[name][0] += n
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}


def _public_functions(mod: ModuleType) -> Iterator[tuple[str, object]]:
    for name, obj in vars(mod).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind wrapped public functions in every loaded package namespace;
    restore the originals on exit."""
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    wrapped = {}
    for short in MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for name, fn in _public_functions(mod):
            key = f"{short}.{name}"
            make = tracer.counter if key in COUNT_ONLY else tracer.span
            wrapped[id(fn)] = (fn, make(key, fn))
    patched = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if id(value) in wrapped and wrapped[id(value)][0] is value:
                patched.append((ns, attr, value))
                setattr(ns, attr, wrapped[id(value)][1])
    try:
        yield tracer
    finally:
        for ns, attr, value in patched:
            setattr(ns, attr, value)
