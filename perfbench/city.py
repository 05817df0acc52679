"""``city-parking``: the paper's parking design at city scale.

About 10,000 presence sensors in 100 lots run the shipped parking design
and logic (``repro.apps.parking``) with scalar drivers and the default
``RuntimeConfig``.  The benchmark steps virtual time in 10-minute ticks
over a seeded diurnal occupancy, so every periodic feature of the design
runs: the MapReduce availability gather, the 24 h occupancy window, the
``when required`` usage-pattern query and the context chain that ends in
panel actuations.  The batch path, the read cache and sharding are
bypassed.

Outputs checked against the reference: every entrance-panel status of
every tick, and every 24 h messenger occupancy report.
"""

from __future__ import annotations

import math
import random
import time
from time import perf_counter
from typing import Dict, List, Tuple

from repro.api import (
    Application,
    DeviceDriver,
    RuntimeConfig,
    SimulationClock,
    analyze,
)
from repro.apps.parking.design import make_design_source
from repro.apps.parking.logic import default_implementations

from perfbench.counters import app_counters, metric_total

TICK_SECONDS = 600.0
TICKS_PER_DAY = 144  # the design's 24 h window over its 10 min period

SIZES = {
    # lots, mean spaces per lot, untraced warm-up ticks
    "full": (100, 100, 3),
    "tiny": (4, 10, 1),
}


# -- seeded inputs -------------------------------------------------------


class OccupancyModel:
    """Seeded diurnal occupancy: which spaces are taken at each tick.

    Lot ``i`` is occupied with probability ``base + amp * day(t)``
    (clipped to [0.02, 1]); a few lots saturate at the daily peak, so
    ``FULL`` statuses and zero-availability lots occur.  A tick's table
    is a pure function of ``(seed, tick)``, so the reference recomputes
    it without the runtime.
    """

    def __init__(self, seed: int, lots: int, mean_capacity: int):
        rng = random.Random(seed)
        self.seed = seed
        self.lots = [f"L{i:03d}" for i in range(lots)]
        # Capacities vary per lot but always sum to lots * mean, so the
        # fleet size (and the work per tick) is the same for every seed.
        spread = max(1, mean_capacity * 2 // 5)
        capacities = []
        for __ in range(lots // 2):
            delta = rng.randint(-spread, spread)
            capacities += [mean_capacity + delta, mean_capacity - delta]
        if lots % 2:
            capacities.append(mean_capacity)
        rng.shuffle(capacities)
        self.capacities: Dict[str, int] = dict(zip(self.lots, capacities))
        self.params = []
        for __ in self.lots:
            if rng.random() < 0.1:
                base, amp = rng.uniform(0.8, 0.9), rng.uniform(0.3, 0.4)
            else:
                base, amp = rng.uniform(0.3, 0.6), rng.uniform(0.1, 0.35)
            self.params.append((base, amp, rng.uniform(-2.0, 2.0)))
        self._tick = None
        self._table: List[bytearray] = []

    def table(self, tick: int) -> List[bytearray]:
        """Per lot, one byte per space: 1 when the space is taken."""
        if tick != self._tick:
            self._table = self._compute(tick)
            self._tick = tick
        return self._table

    def _compute(self, tick: int) -> List[bytearray]:
        rng = random.Random(self.seed * 1_000_003 + tick)
        hour = (tick * TICK_SECONDS / 3600.0) % 24.0
        table = []
        for lot, (base, amp, shift) in zip(self.lots, self.params):
            day = math.sin(math.pi * (hour - 7.0 - shift) / 12.0)
            p = min(1.0, max(0.02, base + amp * day))
            draws = [rng.random() for __ in range(self.capacities[lot])]
            table.append(bytearray(1 if d < p else 0 for d in draws))
        return table


# -- benchmark drivers ---------------------------------------------------


class PresenceDriver(DeviceDriver):
    """Scalar presence sensor reading the occupancy model at the
    current tick."""

    def __init__(self, model, clock, lot_index, space, meter):
        self.model = model
        self.clock = clock
        self.lot_index = lot_index
        self.space = space
        self.meter = meter

    def read(self, source: str):
        meter = self.meter
        if meter is not None and meter.on:
            start = perf_counter()
            value = self._read()
            meter.charge("device.driver", perf_counter() - start)
            return value
        return self._read()

    def _read(self) -> bool:
        tick = int(round(self.clock.now() / TICK_SECONDS))
        return bool(self.model.table(tick)[self.lot_index][self.space])


class PanelDriver(DeviceDriver):
    """Display panel recording every status it is sent."""

    def __init__(self):
        self.history: List[str] = []

    def invoke(self, action: str, **params):
        self.history.append(params["status"])


class MessengerDriver(DeviceDriver):
    def __init__(self):
        self.messages: List[str] = []

    def invoke(self, action: str, **params):
        self.messages.append(params["message"])


# -- the workload --------------------------------------------------------


class CityParking:
    """One built, started and warmed-up city deployment."""

    tail_percentile = 90

    def __init__(self, seed: int, size: str = "full", recorder=None):
        lots, mean_capacity, warmup = SIZES[size]
        self.seed = seed
        self.size = size
        self.model = OccupancyModel(seed, lots, mean_capacity)
        self.clock = SimulationClock()
        started = perf_counter()
        design = analyze(
            make_design_source(
                lots=tuple(self.model.lots),
                entrances=("NORTH", "SOUTH"),
            )
        )
        self.analyze_s = perf_counter() - started
        self.app = app = Application(
            design, RuntimeConfig(clock=self.clock, name="city-parking")
        )
        implementations = default_implementations()
        if recorder is not None:
            _trace_components(recorder, implementations)
        for component, implementation in implementations.items():
            app.implement(component, implementation)
        started = perf_counter()
        for index, lot in enumerate(self.model.lots):
            for space in range(self.model.capacities[lot]):
                app.create_device(
                    "PresenceSensor",
                    f"sensor-{lot}-{space:04d}",
                    PresenceDriver(
                        self.model, self.clock, index, space, recorder
                    ),
                    parkingLot=lot,
                )
        self.sensors = sum(self.model.capacities.values())
        self.bind_s = perf_counter() - started
        self.devices = self.sensors
        self.panels: Dict[str, PanelDriver] = {}
        for lot in self.model.lots:
            self.panels[lot] = PanelDriver()
            app.create_device(
                "ParkingEntrancePanel",
                f"panel-{lot}",
                self.panels[lot],
                location=lot,
            )
        for entrance in ("NORTH", "SOUTH"):
            app.create_device(
                "CityEntrancePanel",
                f"city-{entrance}",
                PanelDriver(),
                location=entrance,
            )
        self.messenger = MessengerDriver()
        app.create_device("Messenger", "messenger", self.messenger)
        if recorder is not None:
            _trace_layers(recorder, app)
        app.start()
        self.ticks = 0
        self.readings = 0
        self.untimed_s = 0.0
        self.untimed_cpu_s = 0.0
        for __ in range(warmup):
            self.step()

    # -- one unit of work --------------------------------------------------

    def step(self) -> Tuple[int, float]:
        """Advance one 10-minute tick; returns the readings gathered and
        the tick's wall time.  The tick's occupancy table is drawn
        first, outside the timed span."""
        tick = self.ticks + 1
        started, cpu = perf_counter(), time.process_time()
        self.model.table(tick)
        self.untimed_s += perf_counter() - started
        self.untimed_cpu_s += time.process_time() - cpu
        started = perf_counter()
        self.app.advance(TICK_SECONDS)
        latency = perf_counter() - started
        self.ticks = tick
        readings = self.sensors * (3 if tick % 6 == 0 else 2)
        self.readings += readings
        return readings, latency

    def min_units(self) -> int:
        """Timed ticks needed before the first 24 h report, so every
        run checks at least one."""
        return max(1, TICKS_PER_DAY - self.ticks)

    def cpu_seconds(self) -> float:
        return time.process_time() - self.untimed_cpu_s

    # -- reference check ---------------------------------------------------

    def check(self) -> Tuple[int, int, List[str]]:
        """Compare every panel status and daily report with the
        reference computed from the occupancy model alone."""
        model = OccupancyModel(self.seed, *SIZES[self.size][:2])
        expected_panels: Dict[str, List[str]] = {
            lot: [] for lot in model.lots
        }
        taken_today = {lot: 0 for lot in model.lots}
        expected_reports: List[str] = []
        for tick in range(1, self.ticks + 1):
            table = model.table(tick)
            for lot, spaces in zip(model.lots, table):
                taken = sum(spaces)
                free = len(spaces) - taken
                expected_panels[lot].append(
                    f"FREE: {free}" if free > 0 else "FULL"
                )
                taken_today[lot] += taken
            if tick % TICKS_PER_DAY == 0:
                share = {
                    lot: taken_today[lot]
                    / (model.capacities[lot] * TICKS_PER_DAY)
                    for lot in model.lots
                }
                report = "; ".join(
                    f"{lot}={share[lot]:.1%}" for lot in sorted(model.lots)
                )
                expected_reports.append(f"24h occupancy: {report}")
                taken_today = {lot: 0 for lot in model.lots}
        failures = []
        attempted = failed = 0
        for lot in model.lots:
            got = self.panels[lot].history
            want = expected_panels[lot]
            attempted += len(want)
            bad = sum(1 for g, w in zip(got, want) if g != w)
            bad += abs(len(got) - len(want))
            failed += bad
            if bad:
                failures.append(
                    f"city-parking: panel {lot}: {bad} of {len(want)} "
                    "statuses differ from the reference"
                )
        attempted += len(expected_reports) + 1
        reads = metric_total(
            self.app, "device_reads_total", device_type="PresenceSensor"
        )
        if reads != self.readings:
            failed += 1
            failures.append(
                f"city-parking: {reads} presence reads for "
                f"{self.readings} readings due"
            )
        got = self.messenger.messages
        for day, want in enumerate(expected_reports):
            if day >= len(got) or got[day] != want:
                failed += 1
                failures.append(
                    f"city-parking: 24h report of day {day + 1} differs "
                    "from the reference"
                )
        if len(got) > len(expected_reports):
            failed += len(got) - len(expected_reports)
            failures.append("city-parking: unexpected extra 24h report")
        return attempted, failed, failures

    def outputs(self):
        """Everything the reference check compares, for determinism
        tests."""
        return (
            {lot: list(p.history) for lot, p in self.panels.items()},
            list(self.messenger.messages),
        )

    # -- resources ---------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        counters = app_counters(self.app)
        counters["device.acts"] = sum(
            len(panel.history) for panel in self.panels.values()
        ) + len(self.messenger.messages)
        return counters

    def worker_usage(self) -> List[dict]:
        return []

    def close(self) -> None:
        self.app.stop()


def _trace_components(recorder, implementations) -> None:
    """Span every user callback (periodic, event, context and query
    handlers) before the application captures them at ``start()``."""
    for component, implementation in implementations.items():
        for attribute in dir(type(implementation)):
            callback = attribute == "when_required" or (
                attribute.startswith("on_")
                and attribute not in ("on_start", "on_stop")
            )
            if callback:
                recorder.wrap_method(
                    implementation, attribute, f"component.{component}"
                )


def _trace_layers(recorder, app) -> None:
    recorder.wrap_method(app, "advance", "app.advance")
    recorder.wrap_method(app.sweeper, "sweep", "sweep.sweep")
    recorder.wrap_method(app.mapreduce, "run", "mapreduce.run")
    recorder.wrap_method(app.bus, "publish", "bus.publish")
    recorder.wrap_method(
        app.bus, "dispatch_compiled", "bus.dispatch_compiled"
    )
    recorder.wrap_method(app.discover, "devices", "registry.discover")
