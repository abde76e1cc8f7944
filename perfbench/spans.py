"""In-memory span recorder for the traced run.

A span is (id, name, parent id, run id, start, end, attrs). Spans are kept
in a list and written out once, when the run ends. The layer of a span is
the part of its name before the first dot (`decompose.fit_pca` belongs to
`decompose`). Spans opened in worker threads name their parent explicitly.
"""

import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextmanager
    def span(self, name, parent=None, **attrs):
        stack = self._stack.__dict__.setdefault("ids", [])
        if parent is None and stack:
            parent = stack[-1]["id"]
        with self._lock:
            record = {"id": next(self._ids), "name": name, "parent": parent,
                      "run": self.run_id, "start": 0.0, "end": 0.0,
                      "attrs": dict(attrs)}
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(record) + "\n")


def duration(record):
    return record["end"] - record["start"]


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> its duration minus the part its children cover."""
    children = {}
    for record in spans:
        children.setdefault(record["parent"], []).append(
            (record["start"], record["end"]))
    return {r["id"]: duration(r) - _covered(r["start"], r["end"],
                                             children.get(r["id"], ()))
            for r in spans}


def layer_self_times(spans, layers):
    """Layer -> summed self time of its spans."""
    own = self_times(spans)
    out = {layer: 0.0 for layer in layers}
    for record in spans:
        layer = record["name"].split(".", 1)[0]
        if layer in out:
            out[layer] += own[record["id"]]
    return out
