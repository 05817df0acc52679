"""``home-events``: the small-scale end of the continuum.

About 2,000 homes each have a motion sensor, a light sensor and a lamp,
declared in the benchmark's own design.  One caller pushes seeded motion
events in a closed loop, the home Zipf-skewed, with virtual time
advancing between events on a Poisson schedule so light levels and
cache TTLs change.  Each event runs a context that reads lux and lamp
state query-driven; when the lamp must change, a controller actuates it,
and the actuation invalidates the lamp's cached reads.  The runtime runs
with the read cache and the batch path on, so event dispatch goes
through compiled delivery plans.  Sweeps, grouping, MapReduce and
sharding are bypassed.

Outputs checked against the reference: the lamp actuation sequence and
the final lamp states.  The reference serves lux under the cache's
declared freshness contract (a reading at most ``ttl_seconds`` old, the
``CacheConfig`` default), computed from the inputs alone.
"""

from __future__ import annotations

import bisect
import math
import random
import time
import zlib
from array import array
from time import perf_counter
from typing import Dict, List, Tuple

from repro.api import (
    Application,
    BatchConfig,
    CacheConfig,
    Context,
    Controller,
    DeviceDriver,
    RuntimeConfig,
    SimulationClock,
    analyze,
)

from perfbench.counters import app_counters

DESIGN = """\
device MotionSensor {
    attribute home as Integer;
    source motion as Boolean;
}
device LightSensor {
    attribute home as Integer;
    source lux as Integer;
}
device Lamp {
    attribute home as Integer;
    source power as Boolean;
    action setPower(power as Boolean);
}
structure LampCommand {
    home as Integer;
    power as Boolean;
}
context LampDecision as LampCommand {
    when provided motion from MotionSensor
    get lux from LightSensor
    get power from Lamp
    maybe publish;
}
controller LampController {
    when provided LampDecision
    do setPower on Lamp;
}
"""

DARK_LUX = 200
MEAN_GAP_S = 0.1  # virtual seconds between events (Poisson)
ZIPF_S = 1.1
MOTION_SHARE = 0.6
LUX_STEP_S = 5.0  # light levels hold for 5 virtual seconds
DAY_S = 21_600.0
CHUNK = 20_000  # events generated at a time, outside the timed window

SIZES = {
    # homes, warm-up events
    "full": (2_000, 2_000),
    "tiny": (20, 50),
}


# -- seeded inputs -------------------------------------------------------


def lux_at(factor: float, home: int, now: float) -> int:
    """Light level of ``home`` at virtual time ``now``."""
    step = int(now // LUX_STEP_S)
    daylight = 300.0 + 250.0 * math.sin(
        2.0 * math.pi * step * LUX_STEP_S / DAY_S
    )
    jitter = (home * 2_654_435_761 + step * 40_503) % 97 - 48
    return max(0, int(daylight * factor) + jitter)


class EventSource:
    """The seeded event stream, drawn a chunk at a time: (virtual time,
    home, motion) triples."""

    def __init__(self, seed: int, homes: int):
        self.rng = rng = random.Random(seed)
        self.factors = [rng.uniform(0.3, 1.4) for __ in range(homes)]
        ranked = list(range(homes))
        rng.shuffle(ranked)
        self.ranked = ranked
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(homes)]
        total = sum(weights)
        cumulative, running = [], 0.0
        for weight in weights:
            running += weight
            cumulative.append(running / total)
        self.cumulative = cumulative
        self.now = 0.0

    def chunk(self, count: int) -> Tuple[array, array, bytearray]:
        rng = self.rng
        cumulative = self.cumulative
        ranked = self.ranked
        last = len(cumulative) - 1
        times, homes, motion = array("d"), array("l"), bytearray()
        for __ in range(count):
            self.now += rng.expovariate(1.0 / MEAN_GAP_S)
            times.append(self.now)
            rank = min(last, bisect.bisect_left(cumulative, rng.random()))
            homes.append(ranked[rank])
            motion.append(rng.random() < MOTION_SHARE)
        return times, homes, motion


class Reference:
    """Lamp decisions replayed from the inputs alone, serving lux under
    the read cache's declared freshness contract."""

    def __init__(self, factors: List[float]):
        self.factors = factors
        self.ttl = CacheConfig().ttl_seconds
        self.power = [False] * len(factors)
        self.cached: Dict[int, Tuple[int, float]] = {}

    def replay(self, chunk, start: int, stop: int) -> List[tuple]:
        """Expected actuations for events ``start:stop`` of a chunk."""
        times, homes, motion = chunk
        expected = []
        for k in range(start, stop):
            now, home = times[k], homes[k]
            entry = self.cached.get(home)
            if entry is not None and now - entry[1] <= self.ttl:
                lux = entry[0]
            else:
                lux = lux_at(self.factors[home], home, now)
                self.cached[home] = (lux, now)
            want = bool(motion[k]) and lux < DARK_LUX
            if want != self.power[home]:
                self.power[home] = want
                expected.append((now, home, want))
        return expected


# -- benchmark drivers ---------------------------------------------------


class LightDriver(DeviceDriver):
    def __init__(self, clock, home: int, factor: float, meter):
        self.clock = clock
        self.home = home
        self.factor = factor
        self.meter = meter

    def read(self, source: str) -> int:
        meter = self.meter
        if meter is not None and meter.on:
            start = perf_counter()
            value = lux_at(self.factor, self.home, self.clock.now())
            meter.charge("device.driver", perf_counter() - start)
            return value
        return lux_at(self.factor, self.home, self.clock.now())


class LampDriver(DeviceDriver):
    def __init__(self, clock, home: int, log: list, meter):
        self.clock = clock
        self.home = home
        self.log = log
        self.meter = meter
        self.power = False

    def read(self, source: str) -> bool:
        return self.power

    def invoke(self, action: str, **params):
        meter = self.meter
        start = perf_counter() if meter is not None and meter.on else None
        self.power = params["power"]
        self.log.append((self.clock.now(), self.home, self.power))
        if start is not None:
            meter.charge("device.driver", perf_counter() - start)


# -- components ----------------------------------------------------------


class LampDecisionContext(Context):
    """Lamp on while there is motion in a dark home, off otherwise."""

    def on_motion_from_motion_sensor(self, event, discover):
        home = event.device.home
        lux = discover.devices("LightSensor", home=home).one().lux()
        power = discover.devices("Lamp", home=home).one().power()
        want = event.value and lux < DARK_LUX
        if want == power:
            return None
        return {"home": home, "power": want}


class LampControllerImpl(Controller):
    def on_lamp_decision(self, command, discover) -> None:
        discover.devices("Lamp", home=command.home).act(
            "setPower", power=command.power
        )


# -- the workload --------------------------------------------------------


class HomeEvents:
    """One built, started and warmed-up neighbourhood of homes."""

    tail_percentile = 99

    def __init__(self, seed: int, size: str = "full", recorder=None):
        homes, warmup = SIZES[size]
        self.homes = homes
        self.recorder = recorder
        self.events = EventSource(seed, homes)
        self.clock = SimulationClock()
        started = perf_counter()
        design = analyze(DESIGN)
        self.analyze_s = perf_counter() - started
        self.app = app = Application(
            design,
            RuntimeConfig(
                clock=self.clock,
                cache=CacheConfig(enabled=True),
                batch=BatchConfig(enabled=True),
                name="home-events",
            ),
        )
        decision = LampDecisionContext()
        controller = LampControllerImpl()
        if recorder is not None:
            recorder.wrap_method(
                decision,
                "on_motion_from_motion_sensor",
                "component.LampDecision",
            )
            recorder.wrap_method(
                controller, "on_lamp_decision", "component.LampController"
            )
        app.implement("LampDecision", decision)
        app.implement("LampController", controller)
        self.log: List[Tuple[float, int, bool]] = []
        self.motion: List[DeviceDriver] = []
        self.lamps: List[LampDriver] = []
        started = perf_counter()
        for home in range(homes):
            motion = DeviceDriver()
            self.motion.append(motion)
            app.create_device(
                "MotionSensor", f"motion-{home}", motion, home=home
            )
            app.create_device(
                "LightSensor",
                f"light-{home}",
                LightDriver(
                    self.clock, home, self.events.factors[home], recorder
                ),
                home=home,
            )
            lamp = LampDriver(self.clock, home, self.log, recorder)
            self.lamps.append(lamp)
            app.create_device("Lamp", f"lamp-{home}", lamp, home=home)
        self.bind_s = perf_counter() - started
        self.devices = 3 * homes
        if recorder is not None:
            recorder.wrap_method(app.bus, "publish", "bus.publish")
            recorder.wrap_method(
                app.bus, "dispatch_compiled", "bus.dispatch_compiled"
            )
            recorder.wrap_method(app.discover, "devices", "registry.discover")
            recorder.wrap_method(app.read_cache, "get_or_read", "cache.read")
        app.start()
        self.untimed_s = 0.0
        self.untimed_cpu_s = 0.0
        # The stream is checked a chunk at a time, so memory stays flat
        # however many events a run gets through.
        self.reference = Reference(self.events.factors)
        self.chunk = (array("d"), array("l"), bytearray())
        self.position = self.verified = 0
        self.actuations = self.acted = self.wrong = 0
        self.digest = 0
        self.first_wrong = None
        for __ in range(warmup):
            self.step()

    def step(self) -> Tuple[int, float]:
        """Advance to the next event's time and push it; returns one
        event chain and the push-to-actuation wall time."""
        if self.position >= len(self.chunk[0]):
            started, cpu = perf_counter(), time.process_time()
            self._verify()
            self.chunk = self.events.chunk(CHUNK)
            self.position = self.verified = 0
            self.untimed_s += perf_counter() - started
            self.untimed_cpu_s += time.process_time() - cpu
        times, homes, motion = self.chunk
        k = self.position
        self.clock.run_until(times[k])
        driver = self.motion[homes[k]]
        value = bool(motion[k])
        recorder = self.recorder
        traced = recorder is not None and recorder.on
        started = perf_counter()
        if traced:
            recorder.enter("app.publish")
        driver.push("motion", value)
        if traced:
            recorder.exit()
        latency = perf_counter() - started
        self.position = k + 1
        return 1, latency

    def _verify(self) -> None:
        """Compare the actuations of the events pushed since the last
        call with the reference, then drop them."""
        expected = self.reference.replay(
            self.chunk, self.verified, self.position
        )
        got = self.log
        if got != expected:
            first = next(
                (i for i, pair in enumerate(zip(got, expected))
                 if pair[0] != pair[1]),
                min(len(got), len(expected)),
            )
            self.wrong += max(len(got), len(expected)) - first
            if self.first_wrong is None:
                self.first_wrong = self.actuations + first
        self.actuations += len(expected)
        self.acted += len(got)
        self.digest = zlib.crc32(repr(got).encode(), self.digest)
        self.verified = self.position
        got.clear()

    def min_units(self) -> int:
        return 1

    def cpu_seconds(self) -> float:
        return time.process_time() - self.untimed_cpu_s

    def worker_usage(self) -> List[dict]:
        return []

    def check(self) -> Tuple[int, int, List[str]]:
        """Actuation sequence and final lamp states against the
        reference."""
        self._verify()
        failures = []
        if self.wrong:
            failures.append(
                f"home-events: {self.wrong} of {self.actuations} "
                "actuations differ from the reference (first at "
                f"actuation {self.first_wrong})"
            )
        wrong_final = sum(
            1
            for lamp, want in zip(self.lamps, self.reference.power)
            if lamp.power != want
        )
        if wrong_final:
            failures.append(
                f"home-events: {wrong_final} final lamp states differ "
                "from the reference"
            )
        return (
            self.actuations + self.homes,
            self.wrong + wrong_final,
            failures,
        )

    def outputs(self):
        """Actuation count and digest plus final lamp states."""
        return (
            self.actuations,
            self.digest,
            [lamp.power for lamp in self.lamps],
        )

    def counters(self) -> Dict[str, float]:
        counters = app_counters(self.app)
        counters["device.acts"] = self.acted + len(self.log)
        return counters

    def close(self) -> None:
        self.app.stop()
