"""In-memory spans around the benchmark's own calls into qconc.

A span is (name, tag, start, end, parent).  The name is
``<module>.<function>``, so the part before the first dot is the layer the
call belongs to; the tag carries the input size or variant (``n6``,
``d.rank3``).  Spans are kept in a list and written out once, when the run
ends.  ``NullTracer`` is what untraced runs use: its ``span`` returns one
shared no-op context manager, so the timed code is the same in both modes.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time

_NULL = contextlib.nullcontext()


class NullTracer:
    def span(self, name: str, tag: str = ""):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, tag, start, end, parent index]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, tag, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def median(self, name: str, tag: str = "") -> float:
        values = [s[3] - s[2] for s in self.spans if s[0] == name and s[1] == tag]
        if not values:
            raise KeyError(f"no span {name} [{tag}]")
        return statistics.median(values)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's children excluded.

        A layer's self time is the duration of its spans minus the part of
        that interval covered by their child spans; siblings never overlap
        because every loop is closed.
        """
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        layers: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            layer = s[0].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + t
        return layers


def write_all(path: str, tracers: dict[str, Tracer], self_times: dict[str, float]) -> None:
    """Write every tracer's spans and the per-layer self times as one JSON file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    body = {
        "fields": ["name", "tag", "start", "end", "parent"],
        "spans": {key: t.spans for key, t in tracers.items()},
        "self_s": self_times,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh)
