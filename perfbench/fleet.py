"""``fleet-sharded``: the million-device path at a size two cores hold.

100,000 batch-capable sensors in 8 zones report a Boolean ``active``;
about 1 % are active at each 1-minute sweep, drawn afresh, so about 2 %
flip between sweeps.  The fleet runs process-sharded on 2 workers with
the batch path on: columnar reads, cohort plans, the delta wire protocol
and the coordinator merge.  Before every fifth sweep one device is
replaced (an ``unbind`` followed by a late ``rebind``), which bumps the
registry version and forces a delta resync.  MapReduce, windows, the
read cache and device event dispatch are bypassed.

Output checked against the reference: the active count of every zone at
every sweep, and the number of readings each zone delivered.

Worker-side numbers (CPU time, peak RSS, time in drivers and sweeps,
sweep and plan counters) come back through a ``WorkerProbe`` device the
bootstrap binds on each worker: a query-driven read of its ``stats``
source is routed to the owning shard like any other read.
"""

from __future__ import annotations

import json
import random
import resource
import time
import weakref
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.api import (
    Application,
    BatchConfig,
    Context,
    DeviceDriver,
    RuntimeConfig,
    ShardBootstrap,
    ShardConfig,
    ShardContext,
    ShardedRuntime,
    SimulationClock,
    analyze,
)

from perfbench.counters import app_counters, histogram_sum, metric_total

SWEEP_SECONDS = 60.0
ZONES = ("Z0", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7")
ACTIVE_SHARE = 0.01  # two independent 1 % draws differ on ~2 % of devices
WORKERS = 2
REPLACE_EVERY = 5

SIZES = {
    # devices, untraced warm-up sweeps
    "full": (100_000, 3),
    "tiny": (400, 2),
}

DESIGN = """\
device FleetSensor {
    attribute zone as FleetZone;
    source active as Boolean;
}
device WorkerProbe {
    source stats as String;
}
enumeration FleetZone { Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7 }

context ZoneActivity as Integer[] {
    when periodic active from FleetSensor <1 min>
    grouped by zone
    always publish;
}
"""


# -- seeded inputs -------------------------------------------------------


def active_set(seed: int, count: int, sweep: int) -> frozenset:
    """Indices of the devices active at ``sweep`` (pure function)."""
    rng = random.Random(seed * 1_000_003 + sweep)
    return frozenset(rng.sample(range(count), int(count * ACTIVE_SHARE)))


def replacement(seed: int, count: int, sweep: int) -> int:
    """Index of the device replaced before ``sweep``."""
    return random.Random(seed * 7_919 + sweep).randrange(count)


def device_id(index: int) -> str:
    return f"fleet-{index:07d}"


def zone_of(index: int) -> str:
    return ZONES[index % len(ZONES)]


# -- drivers (built inside each worker) -------------------------------------


class FleetSubstrate:
    """Per-process gateway answering one batch read per cohort."""

    def __init__(self, clock, seed: int, count: int):
        self.clock = clock
        self.seed = seed
        self.count = count
        self.index: Dict[str, int] = {}
        self._sweep = None
        self._active: frozenset = frozenset()
        self.driver_s = 0.0
        self.sweep_s = 0.0
        self.bind_s = 0.0

    def active(self) -> frozenset:
        sweep = int(round(self.clock.now() / SWEEP_SECONDS))
        if sweep != self._sweep:
            self._active = active_set(self.seed, self.count, sweep)
            self._sweep = sweep
        return self._active

    def read_batch(self, entity_ids) -> List[bool]:
        started = perf_counter()
        active = self.active()
        index = self.index
        column = [index[e] in active for e in entity_ids]
        self.driver_s += perf_counter() - started
        return column


class FleetDriver(DeviceDriver):
    def __init__(self, substrate: FleetSubstrate, index: int):
        self.substrate = substrate
        self.index = index

    def read(self, source: str) -> bool:
        started = perf_counter()
        value = self.index in self.substrate.active()
        self.substrate.driver_s += perf_counter() - started
        return value

    def read_batch(self, entity_ids, source: str):
        return self.substrate.read_batch(entity_ids)

    def batch_key(self, source: str):
        return self.substrate


class ProbeDriver(DeviceDriver):
    """Reports this worker's resource use and layer counters."""

    def __init__(self, app, substrate: FleetSubstrate):
        self.app = app
        self.substrate = substrate

    def read(self, source: str) -> str:
        stats = self.app.stats
        sweep = stats["sweep"]
        return json.dumps(
            {
                "cpu_s": time.process_time(),
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
                "driver_s": self.substrate.driver_s,
                "sweep_s": self.substrate.sweep_s,
                "bind_s": self.substrate.bind_s,
                "reads": metric_total(
                    self.app, "device_reads_total", device_type="FleetSensor"
                ),
                "batch_rows": int(
                    histogram_sum(self.app, "sweep_batch_column_size")
                ),
                "read_batches": sweep["batch_reads"],
                "demoted": sweep["batch_demoted"],
                "plan_compiles": metric_total(
                    self.app, "cohort_plan_compiles_total"
                ),
                "plan_hits": metric_total(self.app, "cohort_plan_hits_total"),
                "plan_invalidations": stats["plan"]["invalidations"],
            }
        )


class ZoneActivityContext(Context):
    """Counts active devices per zone; keeps what it was delivered so
    the benchmark can check it."""

    def __init__(self):
        super().__init__()
        self.counts: List[Tuple[int, ...]] = []
        self.sizes: List[Tuple[int, ...]] = []

    def on_periodic_active(self, by_zone, discover):
        counts = tuple(sum(by_zone.get(z, ())) for z in ZONES)
        self.counts.append(counts)
        self.sizes.append(tuple(len(by_zone.get(z, ())) for z in ZONES))
        return list(counts)


def probe_ids(workers: int) -> List[str]:
    """One probe entity id owned by each worker shard."""
    ids = []
    for shard in range(workers):
        ctx = ShardContext(shards=workers, index=shard)
        n = 0
        while not ctx.owns(f"probe-{n}"):
            n += 1
        ids.append(f"probe-{n}")
    return ids


# app -> its worker's substrate, so a late rebind reaches the same
# per-process gateway without storing live objects on the bootstrap.
_SUBSTRATES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class FleetBootstrap(ShardBootstrap):
    """Picklable recipe for one process's view of the fleet."""

    count: int
    seed: int
    trace: bool = False

    def fleet(self) -> Sequence[str]:
        return [device_id(i) for i in range(self.count)] + probe_ids(
            WORKERS
        )

    def build(self, ctx: ShardContext) -> Application:
        config = RuntimeConfig(
            clock=SimulationClock(),
            batch=BatchConfig(enabled=True),
            shard=ShardConfig(enabled=True, workers=WORKERS),
            name="fleet-sharded",
        )
        app = Application(analyze(DESIGN), config)
        app.implement("ZoneActivity", ZoneActivityContext())
        if ctx.is_coordinator:
            return app
        substrate = FleetSubstrate(app.clock, self.seed, self.count)
        _SUBSTRATES[app] = substrate
        started = perf_counter()
        for index in range(self.count):
            entity_id = device_id(index)
            if ctx.owns(entity_id):
                self._bind(app, substrate, entity_id, index)
        substrate.bind_s = perf_counter() - started
        for entity_id in probe_ids(WORKERS):
            if ctx.owns(entity_id):
                app.create_device(
                    "WorkerProbe", entity_id, ProbeDriver(app, substrate)
                )
        if self.trace:
            sweep = app.sweeper.sweep

            def timed_sweep(*args, **kwargs):
                started = perf_counter()
                try:
                    return sweep(*args, **kwargs)
                finally:
                    substrate.sweep_s += perf_counter() - started

            app.sweeper.sweep = timed_sweep
        return app

    @staticmethod
    def _bind(app, substrate, entity_id: str, index: int) -> None:
        substrate.index[entity_id] = index
        app.create_device(
            "FleetSensor",
            entity_id,
            FleetDriver(substrate, index),
            zone=zone_of(index),
        )

    def bind_entity(self, app: Application, entity_id: str, position: int):
        """Rebind a replaced device: its id names its index and zone."""
        index = int(entity_id[len("fleet-"):])
        self._bind(app, _SUBSTRATES[app], entity_id, index)


# -- the workload --------------------------------------------------------


class FleetSharded:
    """One started and warmed-up sharded fleet with its 2 workers."""

    tail_percentile = 90

    def __init__(self, seed: int, size: str = "full", recorder=None):
        count, warmup = SIZES[size]
        self.seed = seed
        self.count = count
        # Binding happens in the workers (reported by their probes).
        self.bind_s = 0.0
        self.analyze_s = 0.0
        if recorder is not None:
            started = perf_counter()
            analyze(DESIGN)
            self.analyze_s = perf_counter() - started
        self.runtime = ShardedRuntime(
            FleetBootstrap(count, seed, trace=recorder is not None),
            shard=ShardConfig(enabled=True, workers=WORKERS),
        )
        self.context: ZoneActivityContext = self.runtime.app.implementation(
            "ZoneActivity"
        )
        self.probes = probe_ids(WORKERS)
        self.resyncs = 0
        self.probe_bytes = 0
        if recorder is not None:
            self._trace(recorder)
        self.runtime.start()
        self.sweeps = 0
        self.untimed_s = 0.0
        self.devices = count
        for __ in range(warmup):
            self.step()

    def step(self) -> Tuple[int, float]:
        """One 1-minute sweep, preceded by a device replacement every
        fifth sweep; returns the readings delivered and the wall time of
        the replacement plus the sweep."""
        sweep = self.sweeps + 1
        started = perf_counter()
        if sweep % REPLACE_EVERY == 0:
            index = replacement(self.seed, self.count, sweep)
            self.runtime.unbind(device_id(index))
            self.runtime.rebind(device_id(index))
        self.runtime.advance(SWEEP_SECONDS)
        latency = perf_counter() - started
        self.sweeps = sweep
        return sum(self.context.sizes[-1]), latency

    def min_units(self) -> int:
        return REPLACE_EVERY

    def cpu_seconds(self) -> float:
        return time.process_time() + sum(
            u["cpu_s"] for u in self.worker_usage()
        )

    def worker_usage(self) -> List[dict]:
        before = self._wire_bytes()
        usage = [
            json.loads(self.runtime.query(probe, "stats"))
            for probe in self.probes
        ]
        # Probe replies vary in length; keep them out of shard.wire_bytes.
        self.probe_bytes += self._wire_bytes() - before
        return usage

    def _wire_bytes(self) -> int:
        return self.runtime.stats()["router"]["wire_bytes"]

    def check(self) -> Tuple[int, int, List[str]]:
        failures = []
        per_zone = self.count // len(ZONES)
        sizes = tuple(
            per_zone + (1 if z < self.count % len(ZONES) else 0)
            for z in range(len(ZONES))
        )
        missing = abs(len(self.context.counts) - self.sweeps)
        if missing:
            failures.append(
                f"fleet-sharded: {len(self.context.counts)} deliveries "
                f"for {self.sweeps} sweeps"
            )
        wrong = 0
        for sweep, (counts, got_sizes) in enumerate(
            zip(self.context.counts, self.context.sizes), start=1
        ):
            active = active_set(self.seed, self.count, sweep)
            want = [0] * len(ZONES)
            for index in active:
                want[index % len(ZONES)] += 1
            if list(counts) != want or got_sizes != sizes:
                wrong += 1
        if wrong:
            failures.append(
                f"fleet-sharded: {wrong} of {self.sweeps} sweeps differ "
                "from the reference zone counts"
            )
        return self.sweeps, wrong + missing, failures

    def outputs(self):
        return list(self.context.counts)

    def counters(self) -> Dict[str, float]:
        """Coordinator counters plus the workers' sweep-side ones."""
        counters = app_counters(self.runtime.app)
        usage = self.worker_usage()
        stats = self.runtime.stats()
        counters.update(
            {
                "shard.wire_bytes": stats["router"]["wire_bytes"]
                - self.probe_bytes,
                "shard.delta_rows": stats["delta_rows"],
                "shard.quiescent_rows": stats["quiescent_rows"],
                "shard.resync_sweeps": self.resyncs,
                "device.reads": sum(u["reads"] for u in usage),
                "device.read_batches": sum(u["read_batches"] for u in usage),
                "device.batch_rows": sum(u["batch_rows"] for u in usage),
                "sweep.demoted_rows": sum(u["demoted"] for u in usage),
                "plan.compiles": sum(u["plan_compiles"] for u in usage),
                "plan.hits": sum(u["plan_hits"] for u in usage),
                "plan.invalidations": sum(
                    u["plan_invalidations"] for u in usage
                ),
            }
        )
        return counters

    def close(self) -> None:
        self.runtime.stop()

    def _trace(self, recorder) -> None:
        runtime = self.runtime
        app = runtime.app
        recorder.wrap_method(runtime, "advance", "shard.advance")
        recorder.wrap_method(runtime, "unbind", "registry.unbind")
        recorder.wrap_method(runtime, "rebind", "registry.rebind")
        recorder.wrap_method(app, "advance", "app.advance")
        recorder.wrap_method(runtime.router, "send", "shard.send")
        recorder.wrap_method(app.bus, "publish", "bus.publish")
        recorder.wrap_method(
            self.context, "on_periodic_active", "component.ZoneActivity"
        )
        broadcast = recorder.wrap("shard.broadcast", runtime.router.broadcast)

        def counted(op, args=()):
            # A poll reply flagged "reset" is a delta-protocol resync.
            replies = broadcast(op, args)
            if recorder.on and op == "poll":
                if any(reply.get("reset") for reply in replies):
                    self.resyncs += 1
            return replies

        runtime.router.broadcast = counted
