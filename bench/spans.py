"""Spans recorded in memory around the benchmark's calls into the package."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Iterator


@dataclass
class Span:
    name: str        # "<layer>.<call>", e.g. "solver.solve"
    request: int     # spans of one request share this id
    parent: int      # index of the enclosing span, -1 at top level
    start_ns: int
    end_ns: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = Span(name, request, parent, perf_counter_ns(), 0)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.end_ns = perf_counter_ns()
            self._open.pop()

    def by_request(self) -> dict[int, dict[str, float]]:
        """Seconds per span name within each request (names are unique
        within a request)."""
        out: dict[int, dict[str, float]] = {}
        for s in self.spans:
            out.setdefault(s.request, {})[s.name] = s.seconds
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.request, s.parent, s.start_ns, s.end_ns]
                for s in self.spans]
        path.write_text(json.dumps(
            {"fields": ["name", "request", "parent", "start_ns", "end_ns"],
             "spans": rows}))
