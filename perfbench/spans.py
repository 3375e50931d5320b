"""In-memory spans around the benchmark's calls into structmv.

A span has a name, a start and an end (``perf_counter_ns``), the span it
ran inside, and the operation it belongs to.  Spans stay in memory and are
written out once, when the run ends.  A span's self time is its duration
minus the time covered by its children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_op = 0

    @contextmanager
    def op(self, name: str, **attrs):
        """Root span of a new operation; yields the span's record."""
        self._next_op += 1
        with self._span(name, self._next_op, attrs) as record:
            yield record

    @contextmanager
    def span(self, name: str, **attrs):
        """Child span inside the current operation; yields its record."""
        if not self._stack:
            raise RuntimeError(f"span {name!r} outside an operation")
        with self._span(name, self.spans[self._stack[-1]]["op"], attrs) as record:
            yield record

    @contextmanager
    def _span(self, name, op, attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def extend(self, spans: list, **attrs):
        """Adopt spans recorded by a child process, renumbering their ids
        and operations after this tracer's own."""
        base_id, base_op = len(self.spans), self._next_op
        for s in spans:
            self.spans.append({
                **s,
                **attrs,
                "id": s["id"] + base_id,
                "parent": None if s["parent"] is None else s["parent"] + base_id,
                "op": s["op"] + base_op,
            })
        self._next_op += max((s["op"] for s in spans), default=0)

    def self_ns(self) -> list:
        """Self time of every span, in the order of ``self.spans``."""
        out = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
