"""Span tracing for the benchmark's traced run.

The tracer replaces the public functions of the domset modules, at the
module attributes the program looks them up through, with wrappers that
record one span per call: name, start, end, parent span and op id. The
constructor of `Graph` and the two `as_document` methods are wrapped on
their classes. Nothing under `src/` changes; `uninstall` puts every
original back.

Spans stay in memory and are written out once, by `write`, at the end
of the run. A wrapper records only while `op` is set, so the output
checks that run between ops leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYER_MODULES = ("cli", "graph", "solvers", "oracles", "reduction", "generators")

# ids_of runs once per oracle search node; a span there would cost more
# than the work it times, so its time stays in the caller's self time.
UNWRAPPED = {"graph.ids_of"}

# (module, class, method) -> span name
CLASS_METHODS = (
    ("graph", "Graph", "__init__", "graph.Graph"),
    ("solvers", "SolveResult", "as_document", "solvers.as_document"),
    ("oracles", "OracleResult", "as_document", "oracles.as_document"),
)

# Spans whose return value is kept, for counts taken from the results.
KEEP_RESULT = {
    "solvers.solve_classical",
    "solvers.solve_fixed_i",
    "solvers.solve_auto",
    "oracles.exact_min_dominating_set",
}

NAME, START, END, PARENT, OP, RESULT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, mods) -> None:
        """Wrap every public function of the layer modules, wherever a
        layer module binds it, plus the class methods above."""
        prefix = mods.pkg.__name__ + "."
        for short in LAYER_MODULES:
            module = getattr(mods, short)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith(prefix):
                    continue
                name = fn.__module__[len(prefix):] + "." + fn.__name__
                if name not in UNWRAPPED:
                    self._replace(module, attr, self._wrap(name, fn))
        for short, cls_name, meth, name in CLASS_METHODS:
            cls = getattr(getattr(mods, short), cls_name)
            self._replace(cls, meth, self._wrap(name, vars(cls)[meth]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = name in KEEP_RESULT
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if keep:
                rec[RESULT] = result
            return result

        return traced

    def write(self, path) -> None:
        """Write every span recorded so far as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP],
                }) + "\n")


def layer_times(spans: list[list], first: int, last: int) -> tuple[dict, dict]:
    """Total and self seconds per span name over spans[first:last].

    A span's self time is its duration minus the time its child spans
    cover. Calls are nested on one thread, so children never overlap
    and the covered time is the sum of their durations.
    """
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    for idx in range(first, last):
        s = spans[idx]
        dur = s[END] - s[START]
        total[s[NAME]] += dur
        if s[PARENT] >= first:
            child[s[PARENT]] += dur
    self_time: dict[str, float] = defaultdict(float)
    for idx in range(first, last):
        s = spans[idx]
        self_time[s[NAME]] += s[END] - s[START] - child[idx]
    return total, self_time
