"""Measurement loop shared by the three workloads.

An untraced run sets the workload up several times (``setup_s`` is the
median), drives the last instance through the timed window one unit at
a time (a 10-minute tick, a 1-minute sweep or one event chain), then
checks every output against the workload's reference and reports the
end-to-end metrics.

A traced run sets up two instances of the same seed, one with a span
recorder attached, and drives a fixed number of units (so its counters
repeat exactly for a seed) on both, alternating unit by unit so both
see the same units, heap and host; the wall-time gap between the two
is the tracing overhead.  It reports the per-layer metrics, prints the
self-time table and writes a Chrome trace.

Input generation (occupancy tables, event streams) is kept out of every
timed span and out of ``setup_s``: workloads count it in ``untimed_s``.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
from array import array
from time import perf_counter
from typing import Any, Dict, List, Optional

from perfbench.counters import ROOT_SPAN, layer_metrics
from perfbench.spans import SpanRecorder

# Set-ups per untraced run; setup_s is their median.  Cheap set-ups
# repeat until SETUP_BUDGET_S is spent (up to SETUP_MAX), so a 0.1 s
# set-up gets as steady a median as a 1 s one.
SETUP_REPEATS = 3
SETUP_MAX = 25
SETUP_BUDGET_S = 6.0

# Untraced windows are cut into this many equal time segments; rates
# are reported as the median over segments, which keeps one stall (a
# noisy neighbour, a page-cache flush) from moving a whole run.
SEGMENTS = 5

# Units per traced window, fixed so per-layer counters repeat exactly.
# Fleet sweeps come in fives (one replacement sweep each) and city ticks
# in sixes (one hourly usage-pattern gather each).
TRACED_UNITS = {
    "full": {"city-parking": 72, "fleet-sharded": 40, "home-events": 100_000},
    "tiny": {"city-parking": 12, "fleet-sharded": 10, "home-events": 200},
}

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

WORKLOADS = ("city-parking", "fleet-sharded", "home-events")


def workload_class(name: str):
    if name == "city-parking":
        from perfbench.city import CityParking

        return CityParking
    if name == "fleet-sharded":
        from perfbench.fleet import FleetSharded

        return FleetSharded
    if name == "home-events":
        from perfbench.home import HomeEvents

        return HomeEvents
    raise ValueError(f"unknown workload {name!r}")


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = -(-len(ordered) * pct // 100)
    return ordered[max(1, int(rank)) - 1]


class Window:
    """What one drive through a window of units measured."""

    def __init__(self):
        self.latencies = array("d")
        # per segment: (ops, wall seconds, CPU seconds)
        self.segments: List[tuple] = []

    def median_rate(self) -> float:
        """Median over segments of ops per wall second."""
        return statistics.median(ops / wall for ops, wall, __ in self.segments)

    def median_cpu_per_op(self) -> float:
        """Median over segments of CPU seconds per op."""
        return statistics.median(cpu / ops for ops, __, cpu in self.segments)


def drive(
    workload,
    units: Optional[int],
    seconds: Optional[float] = None,
    min_units: int = 1,
) -> Window:
    """Run units until ``units`` are done, or until ``seconds`` have
    passed and at least ``min_units`` are done.  A timed window is cut
    into :data:`SEGMENTS` segments; a window of fixed units is one."""
    window = Window()
    step = workload.step
    start = perf_counter()
    deadline = start + seconds if seconds is not None else None
    boundaries = (
        [start + seconds * (k + 1) / SEGMENTS for k in range(SEGMENTS - 1)]
        if seconds is not None
        else []
    )
    done = ops_total = 0
    mark = (0, perf_counter(), workload.untimed_s, workload.cpu_seconds())

    def close_segment():
        ops0, wall0, untimed0, cpu0 = mark
        wall = perf_counter() - wall0 - (workload.untimed_s - untimed0)
        cpu = workload.cpu_seconds()
        if ops_total > ops0:
            window.segments.append((ops_total - ops0, wall, cpu - cpu0))
        # Reading worker CPU costs a round trip; the next segment
        # starts after it.
        return (ops_total, perf_counter(), workload.untimed_s, cpu)

    while True:
        if units is not None and done >= units:
            break
        now = perf_counter()
        if deadline is not None and done >= min_units and now >= deadline:
            break
        if boundaries and now >= boundaries[0]:
            boundaries.pop(0)
            mark = close_segment()
        ops, latency = step()
        window.latencies.append(latency)
        ops_total += ops
        done += 1
    close_segment()
    return window


def _peak_rss_mb(workload) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(u["rss_mb"] for u in workload.worker_usage())


def run_untraced(
    name: str,
    seed: int,
    seconds: Optional[float],
    size: str = "full",
    units: Optional[int] = None,
    setups: int = SETUP_REPEATS,
    setup_budget_s: float = SETUP_BUDGET_S,
) -> Dict[str, Any]:
    cls = workload_class(name)
    setup_times: List[float] = []
    while True:
        # Start every set-up, and the timed window, from a collected
        # heap, so garbage left by the previous set-up is not charged
        # to the next.
        gc.collect()
        started = perf_counter()
        workload = cls(seed, size)
        setup_times.append(perf_counter() - started - workload.untimed_s)
        if len(setup_times) >= SETUP_MAX or (
            len(setup_times) >= setups and sum(setup_times) >= setup_budget_s
        ):
            break
        # Free this deployment before the next is built, so no two are
        # ever alive at once (peak RSS is one deployment's).
        workload.close()
        del workload
    gc.collect()
    try:
        window = drive(workload, units, seconds, workload.min_units())
        peak_rss = _peak_rss_mb(workload)
        attempted, failed, failures = workload.check()
        outputs = workload.outputs()
    finally:
        workload.close()
    latency_ms = [s * 1e3 for s in window.latencies]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": window.median_rate(),
        "cpu_us_per_op": window.median_cpu_per_op() * 1e6,
        "latency_p50_ms": percentile(latency_ms, 50),
        "latency_tail_ms": percentile(latency_ms, cls.tail_percentile),
        "peak_rss_mb": peak_rss,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "units": len(window.latencies),
        "outputs": outputs,
    }


def drive_pair(traced, plain, units: int, recorder: SpanRecorder):
    """Run ``units`` units on ``plain`` and on ``traced`` in turn, the
    recorder on only for the traced one; return the wall seconds of
    each, input generation excluded."""
    walls = {traced: 0.0, plain: 0.0}
    for unit in range(units):
        for workload in (plain, traced):
            untimed = workload.untimed_s
            started = perf_counter()
            if workload is traced:
                recorder.on = True
                recorder.unit = unit
                recorder.enter(ROOT_SPAN)
                workload.step()
                recorder.exit()
                recorder.on = False
            else:
                workload.step()
            walls[workload] += (
                perf_counter() - started - (workload.untimed_s - untimed)
            )
    return walls[traced], walls[plain]


def run_traced(
    name: str,
    seed: int,
    size: str = "full",
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    cls = workload_class(name)
    units = TRACED_UNITS[size][name]
    recorder = SpanRecorder()
    plain = cls(seed, size)
    try:
        workload = cls(seed, size, recorder=recorder)
        try:
            before = workload.counters()
            usage_before = workload.worker_usage()
            traced_wall, plain_wall = drive_pair(
                workload, plain, units, recorder
            )
            after = workload.counters()
            usage_after = workload.worker_usage()
            attempted, failed, failures = workload.check()
            outputs = workload.outputs()
        finally:
            workload.close()
    finally:
        plain.close()
    metrics = layer_metrics(
        workload,
        recorder,
        before,
        after,
        usage_before,
        usage_after,
        traced_wall,
        plain_wall,
    )
    if trace_path is not None:
        recorder.write_chrome_trace(trace_path, f"{name} seed {seed}")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "units": units,
        "table": recorder.table(ROOT_SPAN),
        "outputs": outputs,
    }
