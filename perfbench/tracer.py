"""In-memory spans around calls into the package's layers.

The benchmark wraps each public call it makes in a span. Spans are kept
in a list while the benchmark runs and written out when it ends. With
tracing off the same code paths run through ``OFF``, which records
nothing, so untraced and traced passes execute identical calls.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    on = True

    def __init__(self):
        self.spans = []  # dicts; "parent" is the index of the enclosing span
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Yields the span's attribute dict, so callers can attach counts."""
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs, "start": time.perf_counter(),
               "cpu_start": time.process_time()}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_end"] = time.process_time()
            self._stack.pop()

    def self_times(self) -> list:
        """Per span: its duration minus the part its children cover."""
        children = [[] for _ in self.spans]
        for rec in self.spans:
            if rec["parent"] is not None:
                children[rec["parent"]].append((rec["start"], rec["end"]))
        out = []
        for rec, kids in zip(self.spans, children):
            covered, reach = 0.0, rec["start"]
            for start, end in sorted(kids):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(rec["end"] - rec["start"] - covered)
        return out

    def dump(self, path):
        doc = [{"name": r["name"], "parent": r["parent"], "start": r["start"],
                "end": r["end"], "cpu_s": r["cpu_end"] - r["cpu_start"],
                "attrs": r["attrs"]} for r in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, default=str) + "\n")


class _Off:
    on = False

    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs


OFF = _Off()
