"""Spans around the calls into each contextprob layer, from outside the package.

The package itself carries no tracing. ``installed`` patches, for the length
of a ``with`` block:

* every public function one layer module binds from another, at the name the
  caller binds (``contextprob.cli.run_simulation``,
  ``contextprob.verification.reconstruct_via_interference``, ...);
* ``__init__``, public methods and classmethods of the classes each layer
  defines, on the class, so value-object construction and accessors are
  charged to the layer that owns the class rather than to the caller.

A span is recorded only where a call crosses from one layer into another.
Spans are ``(name, layer, start, end, parent)`` tuples kept in a list and
written out once by the caller. A layer's self time is the duration of its
spans minus the time their child spans cover; the self times of all layers
add up to the duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from enum import Enum

LAYERS = ("cli", "simulation", "verification", "eprbohm", "core")


def _layer_of(module_name: str) -> str | None:
    prefix, _, layer = module_name.partition(".")
    return layer if prefix == "contextprob" and layer in LAYERS else None


class Tracer:
    """Collects nested spans in call order; one per process, single-threaded.

    A call records a span only when it enters another layer than the one
    running: a class method called from inside its own layer is part of that
    layer's work already, and spanning it would only add overhead.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[tuple[int, str]] = []

    def wrap(self, fn, name: str, layer: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, layer))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent)

        return traced


def _patch_sites(tracer: Tracer, modules: dict) -> list:
    """(owner, attribute, original, replacement) for every wrapped callable."""
    sites = []
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                owner_layer = _layer_of(obj.__module__)
                if owner_layer is not None and owner_layer != layer:
                    name = f"{module.__name__}.{attr}"
                    sites.append((module, attr, obj, tracer.wrap(obj, name, owner_layer)))
            elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                  and not issubclass(obj, Enum)):
                for meth, raw in list(vars(obj).items()):
                    if meth.startswith("_") and meth != "__init__":
                        continue
                    name = f"{module.__name__}.{obj.__qualname__}.{meth}"
                    if inspect.isfunction(raw):
                        sites.append((obj, meth, raw, tracer.wrap(raw, name, layer)))
                    elif isinstance(raw, classmethod):
                        wrapped = classmethod(tracer.wrap(raw.__func__, name, layer))
                        sites.append((obj, meth, raw, wrapped))
    return sites


@contextmanager
def installed(tracer: Tracer):
    """Patch every layer boundary with ``tracer``'s spans; restore on exit."""
    modules = {layer: importlib.import_module(f"contextprob.{layer}") for layer in LAYERS}
    sites = _patch_sites(tracer, modules)
    for owner, attr, _, replacement in sites:
        setattr(owner, attr, replacement)
    try:
        yield tracer.wrap(modules["cli"].main, "contextprob.cli.main", "cli")
    finally:
        for owner, attr, original, _ in reversed(sites):
            setattr(owner, attr, original)


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    self_s = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def layer_totals(spans: list) -> dict:
    """Per layer: calls and self seconds; per span name: total seconds."""
    totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    by_name: dict = {}
    for (name, layer, start, end, _), own in zip(spans, self_times(spans)):
        totals[layer]["calls"] += 1
        totals[layer]["self_s"] += own
        by_name[name] = by_name.get(name, 0.0) + (end - start)
    return {"layers": totals, "by_name": by_name}
