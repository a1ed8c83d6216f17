"""Span tracing for the benchmark's traced run.

Wrappers are installed from outside: every public function defined in a
``zxexact`` module is replaced, in every module that holds a reference to it
(so ``from .interpret import interpret`` bindings in ``rules``, ``derive``
and ``witness`` are reached), by a wrapper that records one span
(name, start, end, parent) while tracing is active.  The scalar operators of
``CycloScalar`` are counted rather than spanned, and a seeded reservoir of
their operand pairs is kept so the scalar layer can be timed afterwards on a
workload's real operands.  Nothing is installed unless ``install`` is called,
and ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import random
import statistics
import sys
import time
from typing import Callable

LAYERS = ("cyclotomic", "diagram", "interpret", "rules", "derive", "witness",
          "bundled", "cli")
SCALAR_OPS = {"mul": "__mul__", "add": "__add__", "eq": "__eq__"}


def layer_module(layer: str):
    """The ``zxexact.<layer>`` module object.

    Taken from ``sys.modules``: the package re-exports ``interpret`` the
    function, which shadows the submodule as a package attribute.
    """
    name = f"zxexact.{layer}"
    if name not in sys.modules:
        importlib.import_module(name)
    return sys.modules[name]


class Tracer:
    def __init__(self, seed: int, reservoir: int = 1000):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index)
        self._stack: list[int] = []
        self.op_calls = {op: 0 for op in SCALAR_OPS}
        self.samples: dict[str, list] = {op: [] for op in SCALAR_OPS}
        self.max_modulus = 0
        self.interpreted: list = []  # (diagram, max_rank) per traced interpret call
        self._reservoir = reservoir
        self._rng = random.Random(f"operands/{seed}")
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (a no-op when inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        spans, stack = self.spans, self._stack
        me = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(me)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            spans[me] = (self._name_id(name), t0, t1, parent)

    def traced_call(self, name: str, fn: Callable, *args):
        """Call ``fn`` as a root span with tracing active for its duration."""
        self.active = True
        try:
            return self.span(name, fn, *args)
        finally:
            self.active = False

    def _wrap_function(self, name: str, fn: Callable) -> Callable:
        tracer = self
        capture = name == "interpret.interpret"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if capture:
                d = args[0] if args else kwargs["d"]
                rank = args[2] if len(args) > 2 else kwargs.get("max_rank")
                tracer.interpreted.append((d, rank))
            return tracer.span(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_scalar_op(self, op: str, fn: Callable) -> Callable:
        tracer = self
        calls, samples = self.op_calls, self.samples[op]
        size, rng = self._reservoir, self._rng

        @functools.wraps(fn)
        def wrapper(a, b):
            if tracer.active:
                n = calls[op] = calls[op] + 1
                if len(samples) < size:
                    samples.append((a, b))
                else:
                    j = rng.randrange(n)
                    if j < size:
                        samples[j] = (a, b)
                m = getattr(a, "modulus", 0)
                if m > tracer.max_modulus:
                    tracer.max_modulus = m
            return fn(a, b)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: layer_module(layer) for layer in LAYERS}
        replacement: dict[int, Callable] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replacement[id(obj)] = self._wrap_function(f"{layer}.{attr}", obj)
        holders = [m for n, m in sys.modules.items()
                   if n == "zxexact" or n.startswith("zxexact.")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                wrapper = replacement.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        scalar = getattr(modules["cyclotomic"], "CycloScalar", None)
        if scalar is not None:
            for op, dunder in SCALAR_OPS.items():
                original = scalar.__dict__.get(dunder)
                if original is not None:
                    self._restore.append((scalar, dunder, original))
                    setattr(scalar, dunder, self._wrap_scalar_op(op, original))

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    # -- reports -------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so self times add up across layers without double counting.
        """
        child_ns = [0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name_id, t0, t1, _) in enumerate(self.spans):
            rec = out.setdefault(self.names[name_id], {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += (t1 - t0) / 1e9
            rec["self_s"] += (t1 - t0 - child_ns[i]) / 1e9
        return out

    def time_in(self, name: str, under: str) -> float:
        """Inclusive seconds of spans ``name`` whose parent span is ``under``."""
        total = 0
        for name_id, t0, t1, parent in self.spans:
            if (self.names[name_id] == name and parent >= 0
                    and self.names[self.spans[parent][0]] == under):
                total += t1 - t0
        return total / 1e9

    def write_spans(self, path) -> None:
        """One JSON array per line: [name, start_ns, end_ns, parent_index]."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, t0, t1, parent in self.spans:
                fh.write(f'["{self.names[name_id]}",{t0},{t1},{parent}]\n')


def replay_scalar_ops(samples: dict[str, list], repeats: int = 5) -> dict[str, float]:
    """Median microseconds per operation over the captured operand pairs.

    Must run with the wrappers uninstalled so the original operators are
    timed.  Each pair is evaluated ``repeats`` times in one timed batch.
    """
    out = {}
    for op, pairs in samples.items():
        per_op = []
        for a, b in pairs:
            if op == "mul":
                t0 = time.perf_counter_ns()
                for _ in range(repeats):
                    a * b
                t1 = time.perf_counter_ns()
            elif op == "add":
                t0 = time.perf_counter_ns()
                for _ in range(repeats):
                    a + b
                t1 = time.perf_counter_ns()
            else:
                t0 = time.perf_counter_ns()
                for _ in range(repeats):
                    a == b
                t1 = time.perf_counter_ns()
            per_op.append((t1 - t0) / repeats / 1e3)
        out[op] = statistics.median(per_op) if per_op else 0.0
    return out
