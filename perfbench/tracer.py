"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``matt`` package from outside, so
nothing under ``src/`` changes. A wrapper is installed under every name a
caller can look the function up by: the defining module, every ``matt``
module that imported it with ``from ... import``, or the class for a method.
``uninstall`` puts every original back.

Each wrapped call records one span (name, parent, op id, start, end) in flat
arrays while the run lasts. Self times are computed from the span tree
afterwards: a span's duration minus the durations of its direct children.
Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WRAPPED_MARK = "__perfbench_original__"


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``span`` names the span; it may be a callable of the call's arguments
    (used to split ``chroma_features`` by variant). ``span=None`` makes a
    count-only probe: it counts calls under ``count`` and records no span,
    so its time stays in its caller's self time. ``counters`` add
    ``fn(result, args, kwargs)`` to a named counter after each call.
    """

    target: str
    span: str | Callable | None
    count: str | None = None
    counters: tuple[tuple[str, Callable], ...] = field(default_factory=tuple)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[int, str], float] = {}
        self.op_id = 0
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -- #

    def open_span(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.end.append(float("nan"))
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close_span(self, index: int):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value: float):
        key = (self.op_id, counter)
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _wrap(self, fn, probe: Probe):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if probe.span is None:
                tracer.add(probe.count, 1)
                result = fn(*args, **kwargs)
            else:
                span = probe.span(*args, **kwargs) if callable(probe.span) else probe.span
                index = tracer.open_span(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close_span(index)
            for counter, measure in probe.counters:
                tracer.add(counter, measure(result, args, kwargs))
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    # -- installation -- #

    def install(self, probes):
        """Wrap every probe's target under all names its callers use."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for probe in probes:
                for holder, attr, original in holders(probe.target):
                    setattr(holder, attr, self._wrap(original, probe))
                    self._patches.append((holder, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- analysis -- #

    def spans(self):
        """(name ids, parents, op ids, durations) as numpy arrays."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return (
            np.frombuffer(self.name, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.op, dtype=np.int64),
            end - start,
        )

    def counter(self, name: str, ops) -> float:
        return sum(v for (op, key), v in self.counts.items() if key == name and op in ops)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    own = duration.astype(np.float64).copy()
    has_parent = parent >= 0
    np.subtract.at(own, parent[has_parent], duration[has_parent])
    return own


def holders(target: str):
    """(object, attribute, original) for every name ``target`` is reachable by.

    For a method that is its class. For a function it is every loaded
    ``matt`` module binding that very function object, so a wrapper sees the
    calls of modules that imported the function by name as well.
    """
    module_name, _, attr_path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in attr_path:
        cls_name, attr = attr_path.split(".")
        cls = getattr(module, cls_name)
        return [(cls, attr, cls.__dict__[attr])]
    original = getattr(module, attr_path)
    if hasattr(original, WRAPPED_MARK):
        raise RuntimeError(f"{target} is already wrapped")
    found = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "matt" or name.startswith("matt.")):
            continue
        for attr, value in vars(mod).items():
            if value is original:
                found.append((mod, attr, original))
    return found


def leftover_wrappers() -> list[str]:
    """Names in loaded ``matt`` modules and their classes still bound to a wrapper."""
    left = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "matt" or name.startswith("matt.")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, WRAPPED_MARK):
                left.append(f"{name}.{attr}")
            elif isinstance(value, type) and value.__module__ == name:
                left.extend(
                    f"{name}.{attr}.{a}" for a, v in vars(value).items() if hasattr(v, WRAPPED_MARK)
                )
    return left
