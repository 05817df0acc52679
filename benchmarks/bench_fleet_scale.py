"""Fleet scale: the million-device shard hot path.

Reproduced shape: the paper's large-scale orchestration claim pushed to
fleet size — one declared design, a million bound devices, and the
sweep/publish pipeline surviving the jump through the PR's three
mechanisms working together:

* **delta wire protocol** — workers track per-position payload digests,
  so steady-state sweep replies carry only the changed rows plus one
  quiescent count instead of a million pickled tuples;
* **persistent columnar cohorts + partition memo** — the per-sweep
  Python cost (cohort formation, shard partitioning) is compiled once
  per registry version instead of re-derived per sweep;
* **overlapped gateway time** — each worker process sleeps only its
  shard's modeled service time, concurrently.

Two headline gates (the PR acceptance bar, run by the CI
``fleet-smoke`` job):

* 4 shard workers sweep the 1M-device fleet at least **3x** faster
  than the single process;
* the delta wire protocol moves at least **5x** fewer bytes over the
  worker pipes than the row-tuple wire format it replaced.  The runtime
  no longer ships row tuples; :class:`RowsWireBaseline` re-encodes each
  delta poll the way the row-tuple format sent it, so the baseline is
  the bytes that format would have moved on the same run.

Published context values must be identical between the sharded and the
single-process runs — sharding changes where sweeps run, never what
they publish.
"""

import json
import os
import pickle
import time

from repro.api import ShardConfig, ShardedRuntime
from repro.simulation.fleet import FleetScaleBootstrap

DEVICES = 1_000_000
SERVICE_TIME = 50e-6  # modeled gateway time per device read
ACTIVITY = 0.02  # P(device active) per tick: ~4% of rows flip per sweep
PERIOD = 60.0  # the bootstrap's ZoneLevels period
SEED = 11
BYTE_SWEEPS = 4
MIN_SPEEDUP_AT_4 = 3.0
MIN_BYTE_CUT = 5.0
ARTIFACT = os.environ.get("FLEET_SCALE_JSON")


class RowsWireBaseline:
    """Bytes the retired row-tuple wire format would have moved.

    Watches every poll the router broadcasts and, once the coordinator
    has merged the replies, encodes the same sweep as the row-tuple
    format sent it: the command ``("poll", (target, name, index,
    "rows", False), ())`` (the fleet runs without a read cache, so no
    invalidations ride along) and, per shard, the reply ``("ok",
    {"dropped", "failed", "events", "kind", "data"})`` with one
    ``(position, key, value)`` tuple per reading, positions ascending,
    read from the coordinator's mirror.  :meth:`rows_bytes` is the
    measured wire bytes plus the difference between those messages and
    the delta messages actually sent.  Grouped gathers only — the
    fleet-scale design has no other kind.
    """

    def __init__(self, runtime):
        self.runtime = runtime
        self.extra = 0
        self._poll = None
        router = runtime.router
        broadcast = router.broadcast
        merge = runtime._merge_delta

        def watched_broadcast(op, args=()):
            before = router._wire_bytes
            replies = broadcast(op, args)
            if op == "poll":
                self._poll = (args, router._wire_bytes - before)
            return replies

        def watched_merge(kind, name, index, polls, placement):
            payload = merge(kind, name, index, polls, placement)
            self._account(kind, name, index, polls)
            return payload

        router.broadcast = watched_broadcast
        runtime._merge_delta = watched_merge

    def _account(self, kind, name, index, polls):
        if kind != "grouped":
            raise ValueError(f"no row-tuple encoding for {kind} gathers")
        (target, *__), delta_bytes = self._poll
        mirror = self.runtime._mirrors[(name, index)]
        command = ("poll", (target, name, index, "rows", False), ())
        rows_bytes = 0
        for shard, reply in enumerate(polls):
            data = [
                (position, mirror.keys[position], mirror.values[position])
                for position in sorted(mirror.shard_positions[shard])
            ]
            rows_reply = {
                "dropped": reply["dropped"],
                "failed": reply["failed"],
                "events": reply["events"],
                "kind": kind,
                "data": data,
            }
            rows_bytes += len(pickle.dumps(command, pickle.HIGHEST_PROTOCOL))
            rows_bytes += len(
                pickle.dumps(("ok", rows_reply), pickle.HIGHEST_PROTOCOL)
            )
        self.extra += rows_bytes - delta_bytes

    def rows_bytes(self) -> int:
        return self.runtime.stats()["router"]["wire_bytes"] + self.extra


def _runtime(shard, service_time):
    bootstrap = FleetScaleBootstrap(
        count=DEVICES,
        seed=SEED,
        service_time=service_time,
        activity=ACTIVITY,
        shard=shard,
    )
    runtime = ShardedRuntime(bootstrap)
    published = []
    runtime.app.bus.subscribe(
        ("context", "ZoneLevels"),
        lambda event: published.append((event.value, event.timestamp)),
    )
    return runtime.start(), published


def timed_serial():
    """Wall time of one single-process sweep (modeled gateway time paid
    serially across the whole fleet)."""
    runtime, published = _runtime(ShardConfig(enabled=False), SERVICE_TIME)
    try:
        started = time.perf_counter()
        runtime.advance(PERIOD)
        return time.perf_counter() - started, published
    finally:
        runtime.stop()


def timed_sharded(workers):
    """Best-of-two sharded sweeps: the first pays the delta
    registration epoch, the second is the steady state this benchmark
    claims."""
    runtime, published = _runtime(
        ShardConfig(enabled=True, workers=workers), SERVICE_TIME
    )
    try:
        best = float("inf")
        for __ in range(2):
            started = time.perf_counter()
            runtime.advance(PERIOD)
            best = min(best, time.perf_counter() - started)
        return best, published
    finally:
        runtime.stop()


def wire_bytes():
    """Bytes over the worker pipes for BYTE_SWEEPS sweeps at zero
    service time (byte counts are independent of modeled latency),
    with the row-tuple baseline for the same sweeps."""
    runtime, __ = _runtime(ShardConfig(enabled=True, workers=4), 0.0)
    baseline = RowsWireBaseline(runtime)
    try:
        runtime.advance(BYTE_SWEEPS * PERIOD)
        stats = runtime.stats()
        return {
            "bytes": stats["router"]["wire_bytes"],
            "rows_bytes": baseline.rows_bytes(),
            "delta_rows": stats["delta_rows"],
            "quiescent_rows": stats["quiescent_rows"],
        }
    finally:
        runtime.stop()


def test_fleet_scale_delta_wire_path(table, benchmark):
    def run_series():
        delta = wire_bytes()
        byte_cut = delta["rows_bytes"] / delta["bytes"]

        serial_s, serial_values = timed_serial()
        sharded_s, sharded_values = timed_sharded(4)
        assert sharded_values[: len(serial_values)] == serial_values
        speedup = serial_s / sharded_s
        return {
            "serial_s": serial_s,
            "sharded_s": sharded_s,
            "speedup": speedup,
            "rows_bytes": delta["rows_bytes"],
            "delta_bytes": delta["bytes"],
            "byte_cut": byte_cut,
            "delta_rows": delta["delta_rows"],
            "quiescent_rows": delta["quiescent_rows"],
        }

    result = benchmark.pedantic(run_series, rounds=1, iterations=1)
    table(
        f"Fleet scale: {DEVICES} devices, 4 workers, "
        f"{SERVICE_TIME * 1e6:.0f} us modeled gateway time per read",
        ("measure", "value"),
        [
            ("serial sweep", f"{result['serial_s']:.1f} s"),
            ("sharded sweep", f"{result['sharded_s']:.1f} s"),
            ("speedup", f"{result['speedup']:.2f}x"),
            (
                "rows wire",
                f"{result['rows_bytes'] / 1e6:.1f} MB / {BYTE_SWEEPS} sweeps",
            ),
            (
                "delta wire",
                f"{result['delta_bytes'] / 1e6:.1f} MB / {BYTE_SWEEPS} sweeps",
            ),
            ("byte cut", f"{result['byte_cut']:.1f}x"),
            ("delta rows", result["delta_rows"]),
            ("quiescent rows", result["quiescent_rows"]),
        ],
    )
    if ARTIFACT:
        with open(ARTIFACT, "w") as handle:
            json.dump(
                {
                    "devices": DEVICES,
                    "service_time_s": SERVICE_TIME,
                    "activity": ACTIVITY,
                    "speedup_at_4": round(result["speedup"], 2),
                    "rows_bytes": result["rows_bytes"],
                    "delta_bytes": result["delta_bytes"],
                    "byte_cut": round(result["byte_cut"], 2),
                    "delta_rows": result["delta_rows"],
                    "quiescent_rows": result["quiescent_rows"],
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
    assert result["speedup"] >= MIN_SPEEDUP_AT_4, (
        f"4-worker fleet sweep speedup {result['speedup']:.2f}x fell "
        f"below the {MIN_SPEEDUP_AT_4:.1f}x acceptance bar"
    )
    assert result["byte_cut"] >= MIN_BYTE_CUT, (
        f"delta wire byte cut {result['byte_cut']:.1f}x fell below the "
        f"{MIN_BYTE_CUT:.1f}x acceptance bar"
    )
