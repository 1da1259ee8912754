"""In-memory spans and counts recorded around the benchmark's calls into dfteig.

A span is one timed call into a layer: its name, the operation it belongs
to, the dimension, the enclosing span (when nested in time) and its start
and end on the perf_counter clock.  Nothing here is imported by the
package: spans sit in the benchmark's own files, around its own calls.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans and counts in memory; `write` dumps them at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int, n: int):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"id": sid, "name": name, "op": op, "n": n, "parent": parent}
        self.spans.append(record)
        self._open.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException:
            record["failed"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def durations(self, name: str, n: int | None = None) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (n is None or s["n"] == n)
        ]

    def total(self, name: str, n: int | None = None) -> float:
        return sum(self.durations(name, n))

    def median(self, name: str, n: int | None = None) -> float:
        values = self.durations(name, n)
        return statistics.median(values) if values else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
            fh.write("\n")
