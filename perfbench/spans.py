"""A small span recorder for the traced run, standard library only.

A span has a name, start and end (time.perf_counter seconds), the id of
the span that was open when it started, and the id of the outermost span
of its operation, so all spans of one operation share an identifier.
Spans are kept in memory and written as JSON lines at the end.  Spans whose
name is in `memory_for` also record the tracemalloc peak inside them; that
costs time on every allocation, so the benchmark takes memory peaks in a
separate pass from the timed spans.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Collects spans; a disabled recorder runs the same code and keeps none."""

    def __init__(self, enabled: bool = True, memory_for: frozenset = frozenset()) -> None:
        self.enabled = enabled
        self.memory_for = memory_for
        self.spans: list[dict] = []
        self._open: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
            "open_span", default=None
        )
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; attrs added to the yielded dict are kept with it."""
        if not self.enabled:
            yield attrs
            return
        outer = self._open.get()
        sid = next(self._ids)
        root = outer[1] if outer else sid
        token = self._open.set((sid, root))
        memory = name in self.memory_for
        if memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            if memory:
                attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._open.reset(token)
            self.spans.append(
                {
                    "id": sid,
                    "parent": outer[0] if outer else None,
                    "root": root,
                    "name": name,
                    "start": start,
                    "end": end,
                    **attrs,
                }
            )

    def select(self, name: str, **attrs) -> list[dict]:
        return [
            s
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())
        ]

    def busy_ms(self, name: str, **attrs) -> float:
        return 1e3 * sum(s["end"] - s["start"] for s in self.select(name, **attrs))

    def self_ms(self, name: str, **attrs) -> float:
        """Time in the named spans not covered by their direct children.

        Spans are recorded from one thread, so children never overlap and
        their covered interval is the sum of their durations.
        """
        chosen = {s["id"]: s for s in self.select(name, **attrs)}
        total = sum(s["end"] - s["start"] for s in chosen.values())
        covered = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in chosen)
        return 1e3 * (total - covered)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
