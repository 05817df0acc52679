"""Span recorder, Chrome-trace writer and per-layer self-time table.

Spans are recorded from the benchmark's own files, around calls into the
runtime's layers: :meth:`SpanRecorder.wrap_method` shadows a bound method
of a live layer object (``app.sweeper.sweep``, ``app.bus.publish``...)
with an instance attribute, so calls made through the object go through
the span.  Nothing under ``src/`` is edited.

Each span records its name, start, end, the span that caused it and the
unit (tick, sweep or event) it belongs to.  Spans stay in memory and are
written out as one Chrome trace (``"ph": "X"`` complete events) when the
run ends.  A layer's self time is its span's duration minus the part its
child spans cover; calls too frequent for one span each (driver reads)
are *charged* to the open span instead, which keeps self times exact
without a span per call.
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Dict, List, Tuple

# Spans kept for the Chrome trace; totals and self times cover every
# span whatever this cap, only the written trace is truncated.
TRACE_SPAN_CAP = 200_000


class SpanRecorder:
    """In-memory span stack with per-name count/total/self accumulators."""

    def __init__(self):
        self.on = False
        self.unit = 0
        self.dropped = 0
        # (id, name, start, end, parent id, unit)
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        # name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        # open spans: [id, name, start, seconds covered by children]
        self._stack: List[list] = []
        self._next_id = 1
        self.origin = perf_counter()

    # -- recording --------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - covered
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < TRACE_SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent, self.unit))
        else:
            self.dropped += 1

    def charge(self, name: str, seconds: float) -> None:
        """Account ``seconds`` spent in ``name`` inside the open span,
        without recording a span of its own."""
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += seconds
        total[2] += seconds
        if self._stack:
            self._stack[-1][3] += seconds

    def wrap(self, name: str, fn):
        """``fn`` recorded as span ``name`` while the recorder is on."""
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.on:
                return fn(*args, **kwargs)
            recorder.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.exit()

        return traced

    def wrap_method(self, obj, method: str, name: str) -> None:
        """Shadow ``obj.method`` with a traced instance attribute."""
        setattr(obj, method, self.wrap(name, getattr(obj, method)))

    # -- reading ----------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def self_time_prefix(self, prefix: str) -> float:
        return sum(
            t[2] for n, t in self.totals.items() if n.startswith(prefix)
        )

    def table(self, root: str) -> str:
        """Per-span self-time table; shares are of the ``root`` spans'
        total, which the self times of everything beneath sum to."""
        wall = self.total(root) or 1.0
        rows = sorted(self.totals.items(), key=lambda kv: -kv[1][2])
        lines = [
            f"{'span':<34}{'calls':>10}{'total_s':>12}{'self_s':>12}"
            f"{'self%':>8}"
        ]
        for name, (calls, total, own) in rows:
            lines.append(
                f"{name:<34}{int(calls):>10}{total:>12.4f}{own:>12.4f}"
                f"{100.0 * own / wall:>7.1f}%"
            )
        return "\n".join(lines)

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """Write the kept spans as a Chrome/Perfetto trace file."""
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": process_name},
            }
        ]
        origin = self.origin
        for span_id, name, start, end, parent, unit in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"id": span_id, "parent": parent, "unit": unit},
                }
            )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {"dropped_spans": self.dropped},
                },
                handle,
            )

