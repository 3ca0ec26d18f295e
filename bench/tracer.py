"""Spans around calls into tscc, recorded from outside the package.

Tracer.install() replaces the public functions and methods listed in
TARGETS by wrappers that record (name, start, end, parent) in memory.
A function imported into several tscc modules (`from .wwl import rank`)
is replaced in each of them, so calls between modules are seen too.
uninstall() puts the originals back, so an untraced run pays nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

_CODES = ("TrivialCode", "SpaceCode", "TimeCode", "TimePCode",
          "DilutedTimeCode", "DilutedSpaceCode")

# (module, attribute or Class.method, span name)
TARGETS = [
    ("tscc.wwl", "rank", "wwl.rank"),
    ("tscc.wwl", "unrank", "wwl.unrank"),
    ("tscc.wwl", "count_wwl", "wwl.count_wwl"),
    ("tscc.wwl", "CountTable.__init__", "wwl.CountTable"),
    ("tscc.wwl", "build_transition_matrix", "wwl.build_transition_matrix"),
    ("tscc.wwl", "dominant_eigenvalue", "wwl.dominant_eigenvalue"),
    ("tscc.wwl", "wwl_capacity", "wwl.wwl_capacity"),
    *[("tscc.constructions", f"{cls}.{op}", f"constructions.{cls}.{op}")
      for cls in _CODES for op in ("encode", "decode")],
    ("tscc.core", "WriteSequence.from_lines", "core.WriteSequence.from_lines"),
    ("tscc.core", "flip_matrix", "core.flip_matrix"),
    ("tscc.core", "check_constraint", "core.check_constraint"),
    ("tscc.bounds", "count_2d_arrays", "bounds.count_2d_arrays"),
    ("tscc.bounds", "bounds_report", "bounds.bounds_report"),
    ("tscc.bounds", "emit_tables", "bounds.emit_tables"),
    ("tscc.cosets", "GoodCodeSearch.double", "cosets.GoodCodeSearch.double"),
    ("tscc.cosets", "xor_autocorrelation", "cosets.xor_autocorrelation"),
    ("tscc.cosets", "CosetCode.__init__", "cosets.CosetCode"),
    ("tscc.cosets", "CosetCode.encode", "cosets.CosetCode.encode"),
    ("tscc.cli", "main", "cli.main"),
]


class Tracer:
    """In-memory span recorder; spans[i] = [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.power_iterations = 0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counts_iterations = name == "wwl.dominant_eigenvalue"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if counts_iterations:
                self.power_iterations += result.iterations
            return result

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "tscc" or name.startswith("tscc.")]
        for module, attr, name in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(cls, meth, wrapped)
                self._patches.append((cls, meth, raw))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            for mod in modules:
                if mod.__dict__.get(attr) is fn:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span, to cut the record into phases."""
        return len(self.spans)

    def summary(self, start: int, stop: int | None = None) -> "Summary":
        return Summary(self.spans, start, len(self.spans) if stop is None else stop)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Summary:
    """Totals over the spans [start, stop) of one phase."""

    def __init__(self, spans, start: int, stop: int):
        self.names = [s[0] for s in spans[start:stop]]
        self.parents = [s[3] - start for s in spans[start:stop]]
        self.duration = [s[2] - s[1] for s in spans[start:stop]]
        children = [0.0] * len(self.names)
        for parent, d in zip(self.parents, self.duration):
            if parent >= 0:
                children[parent] += d
        self.self_time = [d - c for d, c in zip(self.duration, children)]

    def _pick(self, match):
        return (i for i, name in enumerate(self.names) if match(name))

    def calls(self, match) -> int:
        return sum(1 for _ in self._pick(match))

    def total(self, match) -> float:
        """Inclusive time of the calls of match not nested directly in another."""
        return sum(self.duration[i] for i in self._pick(match)
                   if self.parents[i] < 0 or not match(self.names[self.parents[i]]))

    def self_total(self, match) -> float:
        return sum(self.self_time[i] for i in self._pick(match))


def named(name):
    return lambda n: n == name
