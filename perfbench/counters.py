"""Per-layer metrics: counters from ``stats()`` and the metrics registry,
self times from the span recorder.

Every traced run reports every metric below, whatever the workload; a
layer the workload bypasses reads 0.  Metrics whose unit is in
:data:`EXACT_UNITS` are counts over a fixed number of traced units and
repeat exactly for a seed; the others are measured times and ratios.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

EXACT_UNITS = ("count", "B")

# name -> (unit, which direction is better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sema.analyze_s": ("s", "lower"),
    "registry.bind_us_per_device": ("us", "lower"),
    "registry.discover_calls": ("count", "lower"),
    "registry.discover_s": ("s", "lower"),
    "device.reads": ("count", "lower"),
    "device.read_batches": ("count", "lower"),
    "device.batch_rows": ("count", "higher"),
    "device.acts": ("count", "lower"),
    "device.driver_s": ("s", "lower"),
    "sweep.self_s": ("s", "lower"),
    "sweep.demoted_rows": ("count", "lower"),
    "plan.compiles": ("count", "lower"),
    "plan.hits": ("count", "higher"),
    "plan.invalidations": ("count", "lower"),
    "mapreduce.run_s": ("s", "lower"),
    "mapreduce.mapped": ("count", "lower"),
    "mapreduce.shuffled": ("count", "lower"),
    "grouping.window_buffered_peak": ("count", "lower"),
    "component.handler_s": ("s", "lower"),
    "bus.publishes": ("count", "lower"),
    "bus.deliveries": ("count", "lower"),
    "bus.publish_s": ("s", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.invalidations": ("count", "lower"),
    "shard.wire_bytes": ("B", "lower"),
    "shard.delta_rows": ("count", "lower"),
    "shard.quiescent_rows": ("count", "higher"),
    "shard.broadcast_s": ("s", "lower"),
    "shard.coordinator_self_s": ("s", "lower"),
    "shard.worker_cpu_s": ("s", "lower"),
    "shard.worker_skew": ("max/mean", "lower"),
    "shard.resync_sweeps": ("count", "lower"),
    "app.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

# Counters that are levels rather than running totals: reported as
# read at the end of the traced window, not as a difference.
LEVELS = ("grouping.window_buffered_peak",)

# Root span of one unit of work; everything else nests inside it.
ROOT_SPAN = "bench.unit"


def metric_total(app, name: str, **labels) -> float:
    """Sum of a registry metric over its label sets (or the one set
    matching ``labels``)."""
    family = app.metrics.get(name)
    if family is None:
        return 0
    wanted = {(k, str(v)) for k, v in labels.items()}
    total = 0
    for label_items, instrument in family.samples():
        if wanted <= set(label_items):
            total += instrument.value
    return total


def histogram_sum(app, name: str) -> float:
    family = app.metrics.get(name)
    if family is None:
        return 0.0
    return sum(instrument.sum for __, instrument in family.samples())


def app_counters(app) -> Dict[str, float]:
    """Exact counters every application exposes through ``stats``."""
    stats = app.stats
    sweep = stats["sweep"]
    plan = stats["plan"] or {}
    cache = stats["read_cache"] or {}
    return {
        "registry.discover_calls": stats["registry"]["lookups"],
        "device.reads": metric_total(app, "device_reads_total"),
        "device.read_batches": sweep["batch_reads"],
        "device.batch_rows": int(
            histogram_sum(app, "sweep_batch_column_size")
        ),
        "sweep.demoted_rows": sweep["batch_demoted"],
        "plan.compiles": plan.get("compiles", 0),
        "plan.hits": plan.get("hits", 0),
        "plan.invalidations": plan.get("invalidations", 0),
        "mapreduce.mapped": stats["mapreduce"]["mapped"],
        "mapreduce.shuffled": stats["mapreduce"]["shuffled"],
        "grouping.window_buffered_peak": max(
            (w["peak_buffered_values"] for w in stats["windows"].values()),
            default=0,
        ),
        "bus.publishes": stats["bus"]["published"],
        "bus.deliveries": stats["bus"]["delivered"],
        "cache.hits": cache.get("hits", 0),
        "cache.misses": cache.get("misses", 0),
        "cache.invalidations": cache.get("invalidations", 0),
    }


def _usage_delta(before: List[dict], after: List[dict], key: str):
    return [a[key] - b[key] for b, a in zip(before, after)]


def layer_metrics(
    workload,
    recorder,
    before: Dict[str, float],
    after: Dict[str, float],
    usage_before: List[dict],
    usage_after: List[dict],
    traced_wall: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """Every per-layer metric for one traced window."""
    metrics = {name: 0 for name in PER_LAYER}
    for name, value in after.items():
        if name in LEVELS:
            metrics[name] = value
        else:
            metrics[name] = value - before.get(name, 0)
    hits, misses = metrics["cache.hits"], metrics["cache.misses"]
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits else 0.0

    worker_cpu = _usage_delta(usage_before, usage_after, "cpu_s")
    worker_driver = _usage_delta(usage_before, usage_after, "driver_s")
    worker_sweep = _usage_delta(usage_before, usage_after, "sweep_s")
    metrics["sema.analyze_s"] = workload.analyze_s
    bind_s = workload.bind_s + sum(u["bind_s"] for u in usage_after)
    metrics["registry.bind_us_per_device"] = bind_s * 1e6 / workload.devices
    metrics["registry.discover_s"] = recorder.total("registry.discover")
    metrics["device.driver_s"] = recorder.total("device.driver") + sum(
        worker_driver
    )
    metrics["sweep.self_s"] = recorder.self_time("sweep.sweep") + sum(
        worker_sweep
    ) - sum(worker_driver)
    metrics["mapreduce.run_s"] = recorder.total(
        "mapreduce.run", "mapreduce.merge_partials"
    )
    metrics["component.handler_s"] = recorder.self_time_prefix("component.")
    metrics["bus.publish_s"] = recorder.self_time(
        "bus.publish", "bus.dispatch_compiled"
    )
    metrics["app.self_s"] = recorder.self_time("app.advance", "app.publish")
    if worker_cpu:
        broadcast = recorder.total("shard.broadcast", "shard.send")
        metrics["shard.broadcast_s"] = broadcast
        metrics["shard.coordinator_self_s"] = traced_wall - broadcast
        metrics["shard.worker_cpu_s"] = sum(worker_cpu)
        mean = sum(worker_cpu) / len(worker_cpu)
        metrics["shard.worker_skew"] = max(worker_cpu) / mean if mean else 0.0
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
    root = recorder.total(ROOT_SPAN)
    metrics["trace.coverage"] = (
        (root - recorder.self_time(ROOT_SPAN)) / root if root else 0.0
    )
    return metrics
