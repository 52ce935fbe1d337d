"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the program: `installed()` rebinds the
public ivenn names in the namespaces that call them (for example
`ivenn.pipeline.train_siamese` and `ivenn.taxonomy.knn`) to wrappers that
open a span around each call, and restores the originals on exit. Nothing
under `src/ivenn` changes.

A span records its name, parent span, request identifier, start and end
(integer nanoseconds of the given clock, so self times add up exactly).
Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager

import ivenn.data
import ivenn.ivp
import ivenn.metrics
import ivenn.mlp
import ivenn.pipeline
import ivenn.space
import ivenn.taxonomy

# Public functions whose calls get a span, named "<module>.<function>"; the
# module is the layer.
TRACED = (
    (ivenn.data, ("load_csv", "split")),
    (ivenn.mlp, ("train_siamese", "forward_batch", "save_params", "load_params")),
    (ivenn.space, ("knn", "build_index")),
    (ivenn.taxonomy, ("fit_taxonomy",)),
    (ivenn.ivp, ("calibrate", "predict", "save_table", "load_table")),
    (ivenn.metrics, ("build_report", "curves_csv", "report_text")),
    (ivenn.pipeline, ("run_pipeline",)),
)
TRACED_METHODS = (
    (ivenn.taxonomy.Taxonomy, "taxonomy", ("assign", "assign_many")),
)
# Namespaces in ivenn whose calls into another layer are traced.
CALLERS = (ivenn.pipeline, ivenn.taxonomy)

# Work counted at a span: span name -> (counter, f(args, result)).
COUNTERS = {
    "data.load_csv": ("rows", lambda args, out: len(out)),
    "mlp.forward_batch": ("rows", lambda args, out: len(out)),
    "mlp.train_siamese": ("pairs", lambda args, out: args[3].epochs * args[3].pairs_per_epoch),
    "ivp.predict": ("empty_category", lambda args, out: int(out.empty_category)),
    "metrics.build_report": ("records", lambda args, out: out.n),
}


class Tracer:
    """Collects spans of one process; single-threaded use only."""

    def __init__(self, clock):
        self.clock = clock  # seconds as a float
        self.spans = []  # [name, parent index or -1, request, start_ns, end_ns]
        self.counts = Counter()  # "<span name>.<counter>" -> total
        self.request = None  # identifier stamped on every span opened next
        self._open = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._open, self.clock
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.request, int(clock() * 1e9), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = int(clock() * 1e9)
                stack.pop()
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](args, out)
            return out

        return traced

    def stats(self, request=None):
        """name -> [calls, total_ns, self_ns] over every span, or over the
        spans of one request. Self time is the span minus its child spans."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name, _, req, start, end), inner in zip(self.spans, child_ns):
            if request is not None and req != request:
                continue
            s = out.setdefault(name, [0, 0, 0])
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - inner
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, req, start, end) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "parent": None if parent < 0 else parent,
                    "request": req, "start_ns": start, "end_ns": end,
                }) + "\n")


@contextmanager
def installed(tracer, *namespaces):
    """Trace every call of a TRACED function made through ivenn's CALLERS or
    through the given extra namespaces (the benchmark's own module)."""
    by_id = {}
    for module, names in TRACED:
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            fn = getattr(module, name)
            by_id[id(fn)] = tracer.wrap(fn, f"{layer}.{name}")
    saved = []
    for ns in (*CALLERS, *namespaces):
        for attr, value in list(vars(ns).items()):
            if id(value) in by_id:
                saved.append((ns, attr, value))
                setattr(ns, attr, by_id[id(value)])
    for cls, layer, names in TRACED_METHODS:
        for name in names:
            fn = vars(cls)[name]
            saved.append((cls, name, fn))
            setattr(cls, name, tracer.wrap(fn, f"{layer}.{name}"))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
