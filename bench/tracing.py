"""Span tracing at the package's module boundaries, from outside the package.

:class:`Tracer` wraps every plain function that one ``prompt_pricing``
module imports from another, found at run time in the calling module's
namespace (any function whose ``__module__`` is a different
``prompt_pricing`` module), and the benchmark's own top-level calls.
Calls inside a module are not traced.  Each span records its layer (the
callee's module), start, end, parent span and the operation it belongs
to, in flat arrays kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import types
from array import array
from dataclasses import fields
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "scenario", "core", "user_strategy", "homogeneous", "heterogeneous")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.current_op = -1

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn):
        nid = self._id(f"{fn.__module__}.{fn.__qualname__}")
        stack = self._stack
        name_id, parent, op, start, end = self.name_id, self.parent, self.op, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def install(self, package) -> None:
        """Wrap the cross-module function imports of every package module."""
        prefix = package.__name__ + "."
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(prefix + info.name)
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__.startswith(prefix)
                        and value.__module__ != module.__name__):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self.wrap(value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def wrap_api(self, api):
        """A copy of the benchmark's call table with every entry traced."""
        return type(api)(**{f.name: self.wrap(getattr(api, f.name)) for f in fields(api)})

    def spans(self) -> int:
        return len(self.start)

    def truncate(self, count: int) -> None:
        """Forget every span after the first ``count``."""
        for values in (self.name_id, self.parent, self.op, self.start, self.end):
            del values[count:]

    def layer_totals(self, first: int = 0, last: int | None = None) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer over spans ``first..last``.

        A span's self time is its duration minus the durations of its
        direct children, which are nested inside it.
        """
        last = self.spans() if last is None else last
        name_id = _copy(self.name_id)[first:last]
        parent = _copy(self.parent)[first:last]
        dur = (_copy(self.end) - _copy(self.start))[first:last]
        child = np.zeros(last - first)
        inside = parent >= first
        np.add.at(child, parent[inside] - first, dur[inside])
        self_time = dur - child
        layer_of = np.array([n.split(".")[1] for n in self.names])
        span_layer = layer_of[name_id] if len(name_id) else np.array([], dtype=str)
        out = {}
        for layer in np.unique(span_layer):
            mask = span_layer == layer
            out[str(layer)] = (int(mask.sum()), float(self_time[mask].sum()))
        return out

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name_id=_copy(self.name_id),
                 parent=_copy(self.parent), op=_copy(self.op),
                 start=_copy(self.start), end=_copy(self.end))


def _copy(values: array) -> np.ndarray:
    """A numpy copy, so the array can keep growing afterwards."""
    return np.array(values)
