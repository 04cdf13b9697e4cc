"""Span tracer that times calls into lmtrees from outside the package.

``Tracer.install`` replaces a public function at every binding its
callers look up: the defining module, each ``lmtrees`` module that
imported it by name, and the package namespace.  Methods are replaced
on their class.  Every call then records one span: name, start and end
in nanoseconds, the index of the enclosing span and the benchmark's
current op id.  Spans stay in memory until ``write`` is called.

Self time of a span is its duration minus the durations of its direct
children.  The run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, fn, name, label, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if label is not None:
                record[0] = label(args, result)
            if observe is not None:
                observe(tracer.counters, result)
            return result

        return traced

    def install(self, owner, attr: str, name: str, label=None, observe=None) -> int:
        """Trace ``owner.attr`` under span ``name``; returns the number of
        bindings replaced.

        ``label(args, result)`` may rename the span after the call and
        ``observe(counters, result)`` may count properties of the result.
        """
        original = getattr(owner, attr)
        traced = self._wrap(original, name, label, observe)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            return 1
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "lmtrees" or module_name.startswith("lmtrees.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    replaced += 1
        return replaced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span opened at the benchmark's own call site."""
        return self._wrap(fn, name, None, None)(*args, **kwargs)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Calls and summed self seconds per span name."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start - child[i]
        return {name: (calls, ns / 1e9) for name, (calls, ns) in totals.items()}

    def write(self, path) -> None:
        """Write one CSV line per span: name, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_ns,end_ns,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{i},{name},{start},{end},{parent},{op}\n")
