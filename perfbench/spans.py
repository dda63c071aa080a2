"""In-memory spans recorded around calls into the program's layers.

A span has a name, a start and an end on the ``perf_counter`` clock, and
the span that caused it.  Spans stay in memory until :meth:`Tracer.write`;
a layer's self time is its span's duration minus the part covered by its
child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int | None, **attrs) -> dict:
        """Record a span measured elsewhere (another process, or a wrapper)."""
        rec = {"id": len(self.spans), "parent": parent, "name": name,
               "start": start, "end": end, **attrs}
        self.spans.append(rec)
        return rec

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every span, grouped by span name."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            out[s["name"]].append(s["end"] - s["start"] - covered[s["id"]])
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
