"""In-memory spans around calls into the program's public functions.

A span has a name, a start, an end, a parent span and an op id. Spans are
kept in a list and written out once, at the end of a traced run. With
tracing off, ``span`` and ``patch`` cost one branch and record nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator


class Spans:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Record one span; ``attrs`` (sizes, counts) are stored with it."""
        if not self.enabled:
            yield attrs
            return
        record = {"name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None, **attrs}
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patch(self, module, attr: str, name: str) -> Iterator[None]:
        """Wrap ``module.attr`` in a span while the block runs.

        The program looks its own module globals up at call time, so calls
        made inside the package (e.g. ``decompose_support`` calling
        ``pointwise_decomposition``) are recorded too. A missing attribute is
        left alone: the span then simply never occurs.
        """
        original = getattr(module, attr, None)
        if not self.enabled or original is None:
            yield
            return

        def wrapped(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, wrapped)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def median(self, name: str) -> float | None:
        values = self.durations(name)
        return statistics.median(values) if values else None

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the union of the
        intervals its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for r in self.records:
            if r["parent"] is not None:
                children.setdefault(r["parent"], []).append((r["start"], r["end"]))
        out: dict[str, float] = {}
        for k, r in enumerate(self.records):
            covered = 0.0
            reach = r["start"]
            for lo, hi in sorted(children.get(k, [])):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[r["name"]] = out.get(r["name"], 0.0) + (r["end"] - r["start"] - covered)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(json.dumps(r) + "\n")


def timed(fn: Callable, *args, **kwargs) -> tuple[object, float]:
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start
