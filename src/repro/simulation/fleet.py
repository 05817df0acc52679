"""Spawn-safe simulated fleets for the process-sharded runtime.

Two ready-made :class:`~repro.runtime.shard.ShardBootstrap` recipes the
benchmarks, smoke tests and examples build sharded runs from:

* :class:`SimulatedFleetBootstrap` — a zoned sensor fleet behind one
  grouped-MapReduce context (the shard-scaling fleet);
* :class:`FleetScaleBootstrap` — the million-device fleet: a plain
  grouped gather over a mostly-quiescent activity signal (the
  fleet-scale wire-path fleet).

Both are frozen module-level dataclasses, so they survive ``spawn``
pickling, and both build every process's application from scratch over
its own :class:`~repro.simulation.sensors.GatewaySubstrate`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.runtime.app import Application
from repro.runtime.cache import CacheConfig
from repro.runtime.component import Context
from repro.runtime.config import RuntimeConfig
from repro.runtime.plan import BatchConfig
from repro.runtime.shard import ShardBootstrap, ShardConfig, ShardContext
from repro.sema.analyzer import analyze
from repro.simulation.sensors import GatewaySubstrate

__all__ = ["FleetScaleBootstrap", "SimulatedFleetBootstrap"]


_FLEET_DESIGN = """\
device ShardSensor {
    attribute zone as ZoneEnum;
    source level as Integer;
}
enumeration ZoneEnum { Z0, Z1, Z2, Z3 }

context ZoneLoad as Integer {
    when periodic level from ShardSensor <1 min>
    grouped by zone
    with map as Integer reduce as Integer
    always publish;
}
"""

_ZONES = ("Z0", "Z1", "Z2", "Z3")

# app -> the GatewaySubstrate its bootstrap built, so bind_entity can
# attach late entities to the same per-process substrate without
# stashing live (unpicklable) objects on the frozen bootstrap record.
_FLEET_SUBSTRATES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class _ZoneLoadJob:
    """Associative sum-per-zone MapReduce (exact under sharding).

    The combiner keeps the cross-process shuffle O(zones): each worker
    ships one partial sum per zone instead of one pair per device."""

    def map(self, zone, level, collector):
        collector.emit_map(zone, level)

    def combine(self, zone, values, collector):
        collector.emit_combine(zone, sum(values))

    def reduce(self, zone, values, collector):
        collector.emit_reduce(zone, sum(values))


def _level_model(draw: float) -> int:
    return int(draw * 100.0)


@dataclass(frozen=True)
class SimulatedFleetBootstrap(ShardBootstrap):
    """A ready-made picklable bootstrap over a simulated sensor fleet.

    Builds a ``count``-device fleet of ``ShardSensor`` entities (zoned
    round-robin) over one :class:`~repro.simulation.sensors.
    GatewaySubstrate` per process, with a periodic grouped-MapReduce
    ``ZoneLoad`` context.  ``service_time`` models per-device gateway
    read latency — the quantity the shard-scaling benchmark overlaps
    across worker processes.  Module-level and frozen, so it survives
    ``spawn`` pickling; the shard-scaling benchmark and the spawn smoke
    test both build from it.
    """

    count: int = 1000
    seed: int = 0
    service_time: float = 0.0
    shard: Optional[ShardConfig] = None
    batch: bool = False
    cache: bool = False

    def fleet(self) -> Sequence[str]:
        return [f"shard-sensor-{index:06d}" for index in range(self.count)]

    def build(self, ctx: ShardContext) -> Application:
        class ZoneLoadImpl(Context, _ZoneLoadJob):
            def on_periodic_level(self, by_zone, discover):
                return sum(by_zone.values())

        config = RuntimeConfig(
            shard=self.shard if self.shard is not None else ShardConfig(),
            batch=BatchConfig(enabled=self.batch),
            cache=CacheConfig(enabled=self.cache),
        )
        app = Application(analyze(_FLEET_DESIGN), config)
        app.implement("ZoneLoad", ZoneLoadImpl())
        substrate = GatewaySubstrate(
            app.clock,
            seed=self.seed,
            models={"level": _level_model},
            service_time=self.service_time,
        )
        _FLEET_SUBSTRATES[app] = substrate
        for position, entity_id in enumerate(self.fleet()):
            if ctx.owns(entity_id):
                app.create_device(
                    "ShardSensor",
                    entity_id,
                    substrate.driver("level"),
                    zone=_ZONES[position % len(_ZONES)],
                )
        return app

    def bind_entity(
        self, app: Application, entity_id: str, position: int
    ) -> None:
        substrate = _FLEET_SUBSTRATES[app]
        app.create_device(
            "ShardSensor",
            entity_id,
            substrate.driver("level"),
            zone=_ZONES[position % len(_ZONES)],
        )


_FLEET_SCALE_DESIGN = """\
device FleetSensor {
    attribute zone as FleetZone;
    source level as Integer;
}
enumeration FleetZone { Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7 }

context ZoneLevels as Integer {
    when periodic level from FleetSensor <1 min>
    grouped by zone
    always publish;
}
"""

_FLEET_SCALE_ZONES = ("Z0", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7")


def _make_activity_model(activity: float):
    def model(draw: float) -> int:
        return 1 if draw < activity else 0

    return model


@dataclass(frozen=True)
class FleetScaleBootstrap(ShardBootstrap):
    """The million-device benchmark fleet: a plain grouped gather over
    a mostly-quiescent activity signal.

    Each ``FleetSensor`` reports a 0/1 ``level`` (active with
    probability ``activity`` per tick, deterministic in ``(seed,
    entity, time)``), grouped by one of eight zones — the payload shape
    where the delta wire protocol pays: between sweeps only the ~2 ·
    ``activity`` fraction of devices that flipped cross the pipe, the
    rest collapse into the quiescent count, and the columnar batch path
    plus memoized cohort plans keep the worker-side sweep cost flat.
    ``service_time`` models per-device gateway read latency — the
    quantity sharding overlaps across worker processes.  Frozen and
    module-level, so it survives ``spawn`` pickling.
    """

    count: int = 10_000
    seed: int = 0
    service_time: float = 0.0
    activity: float = 0.02
    shard: Optional[ShardConfig] = None

    def fleet(self) -> Sequence[str]:
        return [f"fleet-sensor-{index:07d}" for index in range(self.count)]

    def _create(self, app, substrate, entity_id: str, position: int) -> None:
        app.create_device(
            "FleetSensor",
            entity_id,
            substrate.driver("level"),
            zone=_FLEET_SCALE_ZONES[position % len(_FLEET_SCALE_ZONES)],
        )

    def build(self, ctx: ShardContext) -> Application:
        class ZoneLevelsImpl(Context):
            def on_periodic_level(self, by_zone, discover):
                return sum(sum(levels) for levels in by_zone.values())

        config = RuntimeConfig(
            shard=self.shard if self.shard is not None else ShardConfig(),
            batch=BatchConfig(enabled=True),
        )
        app = Application(analyze(_FLEET_SCALE_DESIGN), config)
        app.implement("ZoneLevels", ZoneLevelsImpl())
        substrate = GatewaySubstrate(
            app.clock,
            seed=self.seed,
            models={"level": _make_activity_model(self.activity)},
            service_time=self.service_time,
        )
        _FLEET_SUBSTRATES[app] = substrate
        for position, entity_id in enumerate(self.fleet()):
            if ctx.owns(entity_id):
                self._create(app, substrate, entity_id, position)
        return app

    def bind_entity(
        self, app: Application, entity_id: str, position: int
    ) -> None:
        self._create(app, _FLEET_SUBSTRATES[app], entity_id, position)
