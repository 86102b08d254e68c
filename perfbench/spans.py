"""In-memory span recorder for the traced run.

Every call the benchmark makes into the program goes through ``Spans.timed``,
which reads the clock around the call in both modes. With tracing on it also
keeps a span: name, start, end, parent span and query number. Spans stay in
memory and are written as JSON lines when the run ends. A span's self time is
its duration minus the time its direct children cover.

The recorder times its own bookkeeping, so the traced run can report what
tracing added on top of the calls it measures.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Spans:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.query: int | str | None = None  # measured queries are ints
        self.overhead_ns = 0
        # [id, parent, query, name, start_ns, end_ns]
        self._records: list[list] = []
        self._open: list[int] = []

    def timed(self, name: str, fn, *args):
        """Call ``fn(*args)``; return its result and the elapsed seconds."""
        t0 = perf_counter_ns()
        out = fn(*args)
        t1 = perf_counter_ns()
        if self.enabled:
            self._records.append(
                [len(self._records), self._parent(), self.query, name, t0, t1]
            )
            self.overhead_ns += perf_counter_ns() - t1
        return out, (t1 - t0) / 1e9

    @contextmanager
    def group(self, name: str):
        """A span around several calls; a no-op when tracing is off."""
        if not self.enabled:
            yield
            return
        t0 = perf_counter_ns()
        record = [len(self._records), self._parent(), self.query, name, t0, t0]
        self._records.append(record)
        self._open.append(record[0])
        self.overhead_ns += perf_counter_ns() - t0
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._open.pop()
            record[5] = t1
            self.overhead_ns += perf_counter_ns() - t1

    def _parent(self) -> int | None:
        return self._open[-1] if self._open else None

    def self_times(self) -> list[tuple[list, int]]:
        """Each span with its self time in nanoseconds."""
        child_ns = [0] * len(self._records)
        for rec in self._records:
            if rec[1] is not None:
                child_ns[rec[1]] += rec[5] - rec[4]
        return [(rec, rec[5] - rec[4] - child_ns[rec[0]]) for rec in self._records]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec, self_ns in self.self_times():
                span_id, parent, query, name, t0, t1 = rec
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "query": query,
                            "name": name,
                            "start_ns": t0,
                            "end_ns": t1,
                            "self_ns": self_ns,
                        }
                    )
                    + "\n"
                )
