"""Spans and counters recorded around ywalk's public functions.

``Tracer.install`` replaces every public function of the seven ywalk
modules with a wrapper that records a span (name, start, end, parent,
operation).  ``from .x import y`` copies a name into other modules, so the
wrapper is bound in every ``ywalk.*`` namespace that holds the original.
``ParamPoly`` products and sums are only counted: a span per call would
cost more than the call.  Spans are timed by ``hostspeed.clock_ns``, so
the host-speed samples taken during an operation are not in them.  They
stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path

from hostspeed import clock_ns

MODULES = ("exact", "rootsystem", "walk", "cyclicity", "sl2", "verify", "cli")

COUNTED = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add"}


def spans_path(workload: str, seed: int) -> Path:
    return Path(__file__).resolve().parent / "out" / f"spans-{workload}-seed{seed}.json"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    # -- recording --------------------------------------------------------

    def span(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock_ns(), 0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock_ns()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _observe_cyclicity(self, args, report):
        n = len(args[0])
        pairs = n * (n - 1) // 2 if report.mode == "highest-weight" else n * (n - 1)
        self.counts["cyclicity.factors"] += n
        self.counts["cyclicity.pairs"] += pairs
        self.counts["cyclicity.violations"] += len(report.violations)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public function of the ywalk layers in place."""
        mods = [importlib.import_module(f"ywalk.{m}") for m in MODULES]
        namespaces = [m for k, m in sys.modules.items() if k == "ywalk" or k.startswith("ywalk.")]
        for mod in mods:
            layer = mod.__name__.split(".")[-1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                observe = self._observe_cyclicity if attr == "check_cyclicity" else None
                wrapped = self.span(f"{layer}.{attr}", fn, observe)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
        param_poly = mods[0].ParamPoly
        for method, short in COUNTED.items():
            setattr(param_poly, method, self.count(f"exact.ParamPoly.{short}.calls", vars(param_poly)[method]))

    # -- summaries --------------------------------------------------------

    def layer_stats(self, factors) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name, each
        span scaled by the host-speed factor of its operation (hostspeed.py)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for (name, start, end, _, op), kids in zip(self.spans, child_ns):
            scale = factors[op] / 1e9
            row = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += (end - start) * scale
            row["self_s"] += (end - start - kids) * scale
        return stats

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
