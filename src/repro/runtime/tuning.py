"""Self-tuning orchestration: closing the telemetry → config loop.

The paper's large-scale story assumes operators hand-pick deployment
parameters; the runtime grew every knob that matters (sweep workers,
columnar ``min_column``, cache TTLs, breaker thresholds) plus the
telemetry to measure each one.  This module closes the loop online:

* :class:`TuningConfig` — frozen section of
  :class:`~repro.runtime.config.RuntimeConfig`; off by default, so a
  run with ``tuning.enabled = False`` is byte-identical to one that
  predates this module.
* :class:`Knob` / :class:`KnobRegistry` — the named tunables
  (``sweep.workers``, ``batch.min_column``, ``cache.ttl_seconds``,
  ``supervision.failure_threshold`` …), each with a safe range, a step
  rule and the metric signal that moves it.  A knob never mutates a
  config: it derives a *replaced and re-validated* copy through the
  :class:`~repro.runtime.configbase.ConfigBase` protocol, and the
  application swaps the whole record atomically between sweeps.
* :class:`TuningController` — a drift-gated hill climb with an
  epsilon-greedy tie-break.  Each interval it measures an objective
  (built-in: p99 sweep latency from the ``sweep_duration_seconds``
  histogram, mean sweep latency, gather errors; or a pluggable
  cumulative-cost callable).  While **settled** it only watches for
  drift; a drift beyond tolerance opens a **search**: one bounded step
  per interval, rolled back (and cooled down) when the objective
  regresses, accepted otherwise.  Neutral steps are kept so the climb
  can cross plateaus (``min_column`` values between two behaviour
  changes measure identically); the search closes when every direction
  is exhausted, and the controller goes quiet again.

Everything runs on the application clock.  The controller's periodic
job is scheduled *after* the gather jobs, so at every shared timestamp
the sweep completes first and the tick observes it — under a
:class:`~repro.runtime.clock.SimulationClock` the whole feedback loop
is exactly reproducible.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import TuningError
from repro.runtime.configbase import ConfigBase
from repro.telemetry.instrument import Instrumented, MetricSpec

__all__ = [
    "Knob",
    "KnobRegistry",
    "TuningConfig",
    "TuningController",
    "TUNING_OBJECTIVES",
    "run_parking_tuning",
]

DOWN = "down"
UP = "up"

#: Built-in objective signals (all minimised).  ``custom`` requires
#: :meth:`TuningController.set_objective` before the first tick.
TUNING_OBJECTIVES = (
    "sweep_p99",
    "sweep_mean",
    "gather_errors",
    "custom",
)

_SCALES = ("linear", "geometric")


@dataclass(frozen=True)
class TuningConfig(ConfigBase):
    """How (and whether) the adaptive controller runs.

    * ``enabled`` — master switch; ``False`` (default) creates no
      controller, schedules no job, and leaves every run byte-identical
      to the untuned runtime.
    * ``interval_seconds`` — application-clock period between ticks;
      align it with the slowest periodic gather so every tick observes
      fresh sweeps.
    * ``knobs`` — names to tune (must exist in the application's
      :class:`KnobRegistry`); empty tunes every registered knob.
    * ``objective`` — one of :data:`TUNING_OBJECTIVES`.
    * ``epsilon`` — probability of exploring a random eligible move
      instead of the greedy choice while searching.  ``0`` (default)
      keeps the controller fully deterministic.
    * ``warmup_intervals`` — measured intervals to observe before the
      first adjustment.
    * ``cooldown_intervals`` — ticks a knob sits out after a rollback.
    * ``rollback_tolerance`` — relative regression that triggers a
      rollback of the last step (and, symmetrically, the relative
      improvement required to lower the accepted baseline).
    * ``drift_tolerance`` — relative change of the settled baseline
      that re-opens a search.
    * ``seed`` — RNG seed for epsilon exploration.
    """

    enabled: bool = False
    interval_seconds: float = 60.0
    knobs: Tuple[str, ...] = ()
    objective: str = "sweep_p99"
    epsilon: float = 0.0
    warmup_intervals: int = 1
    cooldown_intervals: int = 3
    rollback_tolerance: float = 0.05
    drift_tolerance: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be > 0")
        if not isinstance(self.knobs, tuple):
            object.__setattr__(self, "knobs", tuple(self.knobs))
        if self.objective not in TUNING_OBJECTIVES:
            raise ValueError(
                f"objective must be one of {TUNING_OBJECTIVES}, "
                f"not '{self.objective}'"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be within [0, 1]")
        if self.warmup_intervals < 0:
            raise ValueError("warmup_intervals must be >= 0")
        if self.cooldown_intervals < 0:
            raise ValueError("cooldown_intervals must be >= 0")
        if self.rollback_tolerance < 0:
            raise ValueError("rollback_tolerance must be >= 0")
        if self.drift_tolerance < 0:
            raise ValueError("drift_tolerance must be >= 0")

    _decoders = {"knobs": tuple}


@dataclass(frozen=True)
class Knob(ConfigBase):
    """One named tunable: where it lives, its safe range, how it steps.

    ``name`` is the public dotted identifier; ``section``/``attribute``
    locate the value inside :class:`RuntimeConfig` (``section`` is a
    top-level field, ``attribute`` a field of that section).  ``step``
    is an additive increment under ``scale='linear'`` and a multiplier
    under ``scale='geometric'`` (coarse knobs such as ``min_column``
    cross their whole range in a handful of moves).  ``signal`` names
    the metric family an operator would watch to tune this by hand —
    it is documentation carried next to the range, surfaced by
    ``repro tune`` and the knob catalog docs.
    """

    name: str
    section: str
    attribute: str
    minimum: float
    maximum: float
    step: float = 1.0
    scale: str = "linear"
    integer: bool = True
    signal: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("a knob needs a name")
        if not self.section or not self.attribute:
            raise ValueError(f"knob '{self.name}' needs section.attribute")
        if self.scale not in _SCALES:
            raise ValueError(
                f"knob '{self.name}': scale must be one of {_SCALES}"
            )
        if self.minimum > self.maximum:
            raise ValueError(
                f"knob '{self.name}': minimum {self.minimum} exceeds "
                f"maximum {self.maximum}"
            )
        if self.scale == "geometric":
            if self.step <= 1:
                raise ValueError(
                    f"knob '{self.name}': geometric step must be > 1"
                )
            if self.minimum <= 0:
                raise ValueError(
                    f"knob '{self.name}': geometric scale needs a "
                    "positive minimum"
                )
        elif self.step <= 0:
            raise ValueError(f"knob '{self.name}': step must be > 0")

    # -- value arithmetic ----------------------------------------------------

    def clamp(self, value: float) -> Any:
        """``value`` forced into the safe range (and integer domain)."""
        clamped = min(self.maximum, max(self.minimum, value))
        return round(clamped) if self.integer else clamped

    def step_toward(self, value: float, direction: str) -> Any:
        """The neighbouring value one bounded step away.

        Returns the current value unchanged when the step is a no-op
        (already clamped at the bound) — callers treat that as "this
        direction is exhausted".
        """
        if direction not in (DOWN, UP):
            raise ValueError(f"direction must be '{DOWN}' or '{UP}'")
        if self.scale == "geometric":
            moved = value * self.step if direction == UP else value / self.step
        else:
            moved = value + self.step if direction == UP else value - self.step
        return self.clamp(moved)

    # -- config access -------------------------------------------------------

    def read(self, config: Any) -> Any:
        """Current value of this knob inside a ``RuntimeConfig``."""
        return getattr(getattr(config, self.section), self.attribute)

    def apply(self, config: Any, value: float) -> Any:
        """A re-validated config copy with this knob set (clamped).

        Sections speaking :class:`ConfigBase` replace through the
        protocol; plain frozen policy records (``SupervisionPolicy``)
        go through ``dataclasses.replace``, whose reconstruction
        re-runs their ``__post_init__`` validation just the same.
        """
        section = getattr(config, self.section)
        if section is None:
            raise TuningError(
                f"knob '{self.name}': config section '{self.section}' "
                "is not enabled on this config"
            )
        changed = {self.attribute: self.clamp(value)}
        if isinstance(section, ConfigBase):
            replaced = section.replace(**changed)
        elif dataclasses.is_dataclass(section):
            replaced = dataclasses.replace(section, **changed)
        else:
            raise TuningError(
                f"knob '{self.name}': config section '{self.section}' "
                "is not a frozen config record"
            )
        return config.replace(**{self.section: replaced})


class KnobRegistry:
    """Named tunables of one application, in registration order.

    The registry is the boundary between "a string in a config file"
    and "a field inside the frozen config record": it resolves names,
    clamps values into declared safe ranges, and derives replaced
    configs without ever mutating the running one.
    """

    def __init__(self, knobs: Iterable[Knob] = ()):
        self._knobs: Dict[str, Knob] = {}
        for knob in knobs:
            self.register(knob)

    def register(self, knob: Knob) -> Knob:
        if knob.name in self._knobs:
            raise TuningError(f"knob '{knob.name}' is already registered")
        self._knobs[knob.name] = knob
        return knob

    def get(self, name: str) -> Knob:
        try:
            return self._knobs[name]
        except KeyError:
            known = ", ".join(sorted(self._knobs)) or "<none>"
            raise TuningError(
                f"unknown knob '{name}' (registered: {known})"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._knobs)

    def value_of(self, config: Any, name: str) -> Any:
        return self.get(name).read(config)

    def with_value(self, config: Any, name: str, value: float) -> Any:
        """Re-validated config copy with ``name`` set to ``value``
        (clamped into the knob's safe range)."""
        return self.get(name).apply(config, value)

    def describe(self, config: Any = None) -> List[Dict[str, Any]]:
        """Knob catalog rows (current values when ``config`` given)."""
        rows = []
        for knob in self._knobs.values():
            row: Dict[str, Any] = {
                "name": knob.name,
                "minimum": knob.minimum,
                "maximum": knob.maximum,
                "step": knob.step,
                "scale": knob.scale,
                "signal": knob.signal,
            }
            if config is not None:
                row["value"] = knob.read(config)
            rows.append(row)
        return rows

    def __iter__(self) -> Iterator[Knob]:
        return iter(self._knobs.values())

    def __len__(self) -> int:
        return len(self._knobs)

    def __contains__(self, name: str) -> bool:
        return name in self._knobs

    @classmethod
    def for_config(cls, config: Any) -> "KnobRegistry":
        """The standard catalog, filtered to the subsystems a config
        actually enables (a knob on a disabled subsystem would burn
        trial intervals changing nothing)."""
        registry = cls()
        registry.register(
            Knob(
                name="sweep.workers",
                section="sweep",
                attribute="workers",
                minimum=1,
                maximum=64,
                step=2,
                scale="geometric",
                signal="sweep_duration_seconds",
            )
        )
        registry.register(
            Knob(
                name="sweep.batch_size",
                section="sweep",
                attribute="batch_size",
                minimum=1,
                maximum=1024,
                step=2,
                scale="geometric",
                signal="sweep_batches_total",
            )
        )
        if config.batch.enabled:
            registry.register(
                Knob(
                    name="batch.min_column",
                    section="batch",
                    attribute="min_column",
                    minimum=2,
                    maximum=4096,
                    step=8,
                    scale="geometric",
                    signal="sweep_batch_demoted_total",
                )
            )
        if config.cache.enabled:
            registry.register(
                Knob(
                    name="cache.ttl_seconds",
                    section="cache",
                    attribute="ttl_seconds",
                    minimum=0.05,
                    maximum=600.0,
                    step=2,
                    scale="geometric",
                    integer=False,
                    signal="read_cache_hits_total",
                )
            )
        if config.supervised():
            registry.register(
                Knob(
                    name="supervision.failure_threshold",
                    section="supervision",
                    attribute="failure_threshold",
                    minimum=1,
                    maximum=10,
                    step=1,
                    scale="linear",
                    signal="supervision_breaker_opens_total",
                )
            )
            registry.register(
                Knob(
                    name="supervision.backoff_base_seconds",
                    section="supervision",
                    attribute="backoff_base_seconds",
                    minimum=1.0,
                    maximum=600.0,
                    step=2,
                    scale="geometric",
                    integer=False,
                    signal="supervision_breaker_half_opens_total",
                )
            )
        return registry


@dataclass
class _Trial:
    """One in-flight adjustment awaiting its next-interval verdict."""

    knob: str
    direction: str
    previous_value: Any


# Controller phases.
_WARMUP = "warmup"
_SETTLED = "settled"
_SEARCHING = "searching"


def _opposite(direction: str) -> str:
    return DOWN if direction == UP else UP


class TuningController(Instrumented):
    """Drift-gated hill climb over the application's declared knobs.

    One instance serves one application.  :meth:`start` schedules the
    periodic tick on the application clock *after* the gather jobs so
    every tick observes the sweeps of its own interval; :meth:`tick`
    is also callable directly by tests and offline replays.

    The policy, interval by interval:

    1. **Measure** the objective level for the interval that just
       ended (built-in signals derive it from ``app.metrics``; a
       custom callable supplies a cumulative cost and the controller
       takes deltas).  No observations → no action.
    2. **Warmup / settled** — record the baseline; while the level
       stays within ``drift_tolerance`` of it, do nothing.  Drift
       beyond the band opens a search anchored at the drifted level.
    3. **Searching** — evaluate the pending trial first: a regression
       beyond ``rollback_tolerance`` rolls the knob back, cools it
       down and marks the direction dead; an improvement lowers the
       baseline and keeps momentum; a neutral step is kept (plateau
       traversal) without moving the baseline.  Then propose the next
       move — momentum first, otherwise greedy on observed per-move
       reward with optional epsilon exploration — never proposing a
       dead direction, a cooling knob, the exact undo of the last
       accepted move, or a clamped no-op.  When nothing is proposable
       the search closes and the controller settles at the best point
       found.
    """

    metric_specs = (
        MetricSpec(
            "tuning_ticks_total",
            "_ticks",
            stats_key="ticks",
            help="Controller intervals elapsed (including warmup and "
            "intervals without objective observations).",
        ),
        MetricSpec(
            "tuning_evaluations_total",
            "_evaluations",
            stats_key="evaluations",
            help="Intervals with a measurable objective level.",
        ),
        MetricSpec(
            "tuning_rollbacks_total",
            "_rollbacks",
            stats_key="rollbacks",
            help="Adjustments undone because the objective regressed "
            "beyond the rollback tolerance.",
        ),
        MetricSpec(
            "tuning_drifts_total",
            "_drifts",
            stats_key="drifts",
            help="Settled baselines broken by objective drift (each "
            "one opens a new search).",
        ),
    )

    def __init__(
        self,
        app: Any,
        config: TuningConfig,
        registry: Optional[KnobRegistry] = None,
        objective: Optional[Callable[[], float]] = None,
    ):
        self.app = app
        self.config = config
        self.registry = registry if registry is not None else app.knobs
        names = config.knobs or self.registry.names()
        for name in names:
            self.registry.get(name)  # unknown names fail at wiring time
        self._names: Tuple[str, ...] = tuple(names)
        self._rng = random.Random(config.seed)
        self._objective_fn = objective
        self._job = None
        self._phase = _WARMUP
        self._baseline: Optional[float] = None
        self._trial: Optional[_Trial] = None
        self._dead: set = set()
        self._momentum: Optional[Tuple[str, str]] = None
        self._blocked: Optional[Tuple[str, str]] = None
        self._cooldowns: Dict[str, int] = {}
        self._rewards: Dict[Tuple[str, str], List[float]] = {}
        self._last_cumulative: Optional[float] = None
        self._histogram_counts: Optional[Tuple[Tuple[float, int], ...]] = None
        self._histogram_sum = 0.0
        self._ticks = 0
        self._evaluations = 0
        self._rollbacks = 0
        self._drifts = 0
        self._adjustments: Dict[Tuple[str, str], int] = {}
        self._metrics = None
        self._metric_labels: Dict[str, Any] = {}
        self._trajectory: List[Dict[str, Any]] = []

    # -- wiring ---------------------------------------------------------------

    def set_objective(self, fn: Callable[[], float]) -> None:
        """Install a cumulative-cost objective (monotone callable; the
        controller minimises its per-interval increments).  Required
        before the first tick when ``objective='custom'``."""
        self._objective_fn = fn

    def attach_metrics(self, metrics, **labels: Any) -> None:
        """Counters via the Instrumented protocol, plus a per-knob
        current-value gauge; adjustment counters materialise per
        ``{knob, direction}`` on first use."""
        super().attach_metrics(metrics, **labels)
        self._metrics = metrics
        self._metric_labels = dict(labels)
        for name in self._names:
            metrics.callback(
                "tuning_knob_value",
                lambda name=name: float(
                    self.registry.value_of(self.app.config, name)
                ),
                kind="gauge",
                help="Current value of each tunable knob.",
                knob=name,
                **labels,
            )

    def start(self) -> None:
        """Schedule the periodic tick on the application clock.

        Must run after the gather jobs are scheduled: the simulation
        clock breaks same-timestamp ties by scheduling order, so a
        later-scheduled job with the same period observes every sweep
        of its own interval, every interval.
        """
        if self._job is not None:
            return
        if self.config.objective == "custom" and self._objective_fn is None:
            raise TuningError(
                "objective='custom' requires set_objective() before start()"
            )
        self._job = self.app.clock.schedule_periodic(
            self.config.interval_seconds, self.tick
        )

    def stop(self) -> None:
        if self._job is not None:
            self._job.cancel()
            self._job = None

    # -- the control loop -----------------------------------------------------

    def tick(self) -> None:
        """One controller interval (idempotent against missing data)."""
        self._ticks += 1
        level = self._measure()
        if level is None:
            return
        self._evaluations += 1
        self._decay_cooldowns()

        if self._phase is _WARMUP:
            self._baseline = level
            if self._evaluations > self.config.warmup_intervals:
                self._phase = _SETTLED
            return

        if self._phase is _SETTLED:
            assert self._baseline is not None
            if self._within(level, self._baseline, self.config.drift_tolerance):
                self._baseline = level  # absorb in-band drift
                return
            self._drifts += 1
            self._begin_search(level)
            self._propose()
            return

        # _SEARCHING: judge the pending trial, then keep climbing.
        trial, self._trial = self._trial, None
        if trial is not None:
            if self._judge(trial, level) is False:
                return  # rolled back; let the restored config settle
        self._propose()

    # -- search mechanics -----------------------------------------------------

    def _begin_search(self, level: float) -> None:
        self._phase = _SEARCHING
        self._baseline = level
        self._dead = set()
        self._momentum = None
        self._blocked = None
        self._rewards = {}

    def _judge(self, trial: _Trial, level: float) -> bool:
        """Accept or roll back ``trial`` given the level it produced.

        Returns ``False`` on rollback (the caller pauses proposing for
        one interval so the restored config is what the next
        measurement sees).
        """
        assert self._baseline is not None
        baseline = self._baseline
        move = (trial.knob, trial.direction)
        tolerance = self.config.rollback_tolerance
        band = tolerance * max(abs(baseline), 1e-12)
        self._note_reward(move, baseline - level)
        if level > baseline + band:
            # Regression: undo the step, cool the knob down.
            self.app.apply_config(
                self.registry.with_value(
                    self.app.config, trial.knob, trial.previous_value
                )
            )
            self._rollbacks += 1
            self._record(trial.knob, trial.previous_value, "rollback")
            self._cooldowns[trial.knob] = self.config.cooldown_intervals
            self._dead.add(move)
            self._momentum = None
            return False
        if level < baseline - band:
            # Improvement: new anchor; never undo your own move within
            # this search, and keep pushing the same way first.
            self._baseline = level
            self._dead.discard(move)
            self._blocked = (trial.knob, _opposite(trial.direction))
            self._momentum = move
        else:
            # Neutral plateau step: keep it, keep walking.
            self._momentum = move
        return True

    def _propose(self) -> None:
        """Pick and apply the next trial move, or settle."""
        candidates: List[Tuple[str, str, Any, Any]] = []
        for name in self._names:
            knob = self.registry.get(name)
            current = knob.read(self.app.config)
            for direction in (DOWN, UP):
                move = (name, direction)
                if move in self._dead or move == self._blocked:
                    continue
                if self._cooldowns.get(name):
                    continue
                candidate = knob.step_toward(current, direction)
                if candidate == current:
                    self._dead.add(move)  # clamped at the bound
                    continue
                candidates.append((name, direction, current, candidate))
        if not candidates:
            self._settle()
            return
        chosen = self._choose(candidates)
        name, direction, current, candidate = chosen
        self.app.apply_config(
            self.registry.with_value(self.app.config, name, candidate)
        )
        self._count_adjustment(name, direction)
        self._record(name, candidate, direction)
        self._trial = _Trial(name, direction, current)

    def _choose(
        self, candidates: List[Tuple[str, str, Any, Any]]
    ) -> Tuple[str, str, Any, Any]:
        if self._momentum is not None:
            for entry in candidates:
                if (entry[0], entry[1]) == self._momentum:
                    return entry
        if self.config.epsilon and self._rng.random() < self.config.epsilon:
            return candidates[self._rng.randrange(len(candidates))]
        # Greedy on mean observed reward; untried moves score 0 so a
        # known-good move wins, a known-bad one loses to fresh ground.
        def score(entry):
            history = self._rewards.get((entry[0], entry[1]))
            if not history:
                return 0.0
            return sum(history) / len(history)

        best = candidates[0]
        best_score = score(best)
        for entry in candidates[1:]:
            entry_score = score(entry)
            if entry_score > best_score:
                best, best_score = entry, entry_score
        return best

    def _settle(self) -> None:
        self._phase = _SETTLED
        self._trial = None
        self._momentum = None
        self._blocked = None
        self._dead = set()

    # -- measurement ----------------------------------------------------------

    def _measure(self) -> Optional[float]:
        """Objective level for the interval that just ended, or
        ``None`` when there is nothing to measure yet."""
        objective = self.config.objective
        if self._objective_fn is not None:
            cumulative = float(self._objective_fn())
            previous = self._last_cumulative
            self._last_cumulative = cumulative
            if previous is None:
                return None
            return cumulative - previous
        if objective == "custom":
            raise TuningError(
                "objective='custom' requires set_objective() first"
            )
        if objective == "gather_errors":
            cumulative = float(self.app.metrics.value("app_gather_errors_total"))
            previous = self._last_cumulative
            self._last_cumulative = cumulative
            if previous is None:
                return None
            return cumulative - previous
        return self._measure_sweep_histogram(objective)

    def _measure_sweep_histogram(self, objective: str) -> Optional[float]:
        family = self.app.metrics.get("sweep_duration_seconds")
        if family is None:
            return None
        merged: Dict[float, int] = {}
        total_sum = 0.0
        for _labels, histogram in family.samples():
            for bound, cumulative in histogram.bucket_counts():
                merged[bound] = merged.get(bound, 0) + cumulative
            total_sum += histogram.sum
        counts = tuple(sorted(merged.items()))
        previous, self._histogram_counts = self._histogram_counts, counts
        previous_sum, self._histogram_sum = self._histogram_sum, total_sum
        if previous is None:
            return None
        before = dict(previous)
        deltas = [
            (bound, cumulative - before.get(bound, 0))
            for bound, cumulative in counts
        ]
        observed = deltas[-1][1] if deltas else 0
        if observed <= 0:
            return None
        if objective == "sweep_mean":
            return (total_sum - previous_sum) / observed
        # p99 over the interval's observations, walked through the
        # cumulative-delta buckets; the overflow bucket reports twice
        # the last finite bound (a pessimistic but monotone stand-in).
        rank = 0.99 * observed
        last_finite = 0.0
        for bound, cumulative in deltas:
            if bound != float("inf"):
                last_finite = bound
            if cumulative >= rank:
                return bound if bound != float("inf") else 2 * last_finite
        return 2 * last_finite

    # -- accounting -----------------------------------------------------------

    def _within(self, level: float, baseline: float, tolerance: float) -> bool:
        band = tolerance * max(abs(baseline), 1e-12)
        return abs(level - baseline) <= band

    def _decay_cooldowns(self) -> None:
        for name in list(self._cooldowns):
            self._cooldowns[name] -= 1
            if self._cooldowns[name] <= 0:
                del self._cooldowns[name]

    def _note_reward(self, move: Tuple[str, str], reward: float) -> None:
        self._rewards.setdefault(move, []).append(reward)

    def _count_adjustment(self, name: str, direction: str) -> None:
        move = (name, direction)
        if move not in self._adjustments and self._metrics is not None:
            self._metrics.callback(
                "tuning_adjustments_total",
                lambda move=move: self._adjustments.get(move, 0),
                kind="counter",
                help="Knob adjustments applied, by knob and direction.",
                knob=name,
                direction=direction,
                **self._metric_labels,
            )
        self._adjustments[move] = self._adjustments.get(move, 0) + 1

    def _record(self, name: str, value: Any, event: str) -> None:
        self._trajectory.append(
            {
                "tick": self._ticks,
                "clock": self.app.clock.now(),
                "knob": name,
                "value": value,
                "event": event,
            }
        )

    # -- introspection --------------------------------------------------------

    @property
    def phase(self) -> str:
        return self._phase

    @property
    def trajectory(self) -> List[Dict[str, Any]]:
        """Chronological adjustment/rollback log (JSON-able rows)."""
        return list(self._trajectory)

    def _extra_stats(self) -> Dict[str, Any]:
        return {
            "phase": self._phase,
            "baseline": self._baseline,
            "adjustments": {
                f"{name}:{direction}": count
                for (name, direction), count in sorted(
                    self._adjustments.items()
                )
            },
            "values": {
                name: self.registry.value_of(self.app.config, name)
                for name in self._names
            },
        }

    def report(self) -> Dict[str, Any]:
        """JSON-able summary for the ``repro tune`` CLI."""
        return {
            "objective": self.config.objective,
            "interval_seconds": self.config.interval_seconds,
            "stats": self.stats(),
            "knobs": self.registry.describe(self.app.config),
            "trajectory": self.trajectory,
        }


def run_parking_tuning(
    seed: int = 7,
    duration_seconds: float = 21600.0,
    interval_seconds: float = 600.0,
    flap_fraction: float = 0.5,
    flap_start: float = 1800.0,
    flap_period: float = 300.0,
    knobs: Tuple[str, ...] = (
        "supervision.failure_threshold",
        "supervision.backoff_base_seconds",
    ),
) -> Dict[str, Any]:
    """Run the parking study with the adaptive controller closed over a
    connection-flap plan, and report the tuning trajectory.

    Half the presence sensors flap down/up every ``flap_period`` seconds
    from ``flap_start`` to the end of the run.  The controller minimises
    the number of reads that reach flapping hardware (the injector's
    failure counter — each one is a wasted RPC against a dark device),
    which it can only do by retuning the supervision policy live: trip
    breakers sooner (``failure_threshold`` down) and probe less eagerly
    (``backoff_base_seconds`` up).  The whole loop runs on a
    :class:`~repro.runtime.clock.SimulationClock`, so the report is a
    deterministic function of the arguments; ``repro tune`` prints it.
    """
    # Imported lazily: apps.parking imports the runtime, which imports
    # this module through the config layer.
    from repro.apps.parking.app import build_parking_app
    from repro.faults.chaos import ChaosInjector, FaultPlan
    from repro.faults.policy import StalePolicy, SupervisionPolicy
    from repro.runtime.clock import SimulationClock
    from repro.runtime.config import RuntimeConfig

    clock = SimulationClock()
    config = RuntimeConfig(
        clock=clock,
        name="ParkingTuning",
        supervision=SupervisionPolicy(
            failure_threshold=5,
            backoff_base_seconds=60.0,
            backoff_max_seconds=3600.0,
            jitter=0.0,
            quarantine_after=None,
        ),
        supervision_seed=seed,
        stale=StalePolicy("last_known"),
        tuning=TuningConfig(
            enabled=True,
            interval_seconds=interval_seconds,
            knobs=tuple(knobs),
            objective="custom",
            epsilon=0.0,
            seed=seed,
        ),
    )
    parking = build_parking_app(
        clock=clock,
        availability_period="1 min",
        seed=seed,
        start=False,
        config=config,
    )
    app = parking.application

    flap_duration = duration_seconds - flap_start
    plan = FaultPlan(seed=seed).flap(
        "PresenceSensor",
        start=flap_start,
        duration=flap_duration,
        flap_period=flap_period,
        fraction=flap_fraction,
    )
    injector = ChaosInjector(app, plan).attach()
    # Cumulative cost: every read the flapping hardware still receives.
    app.tuner.set_objective(lambda: float(injector.injected_failures))
    app.start()
    app.advance(duration_seconds)

    tuning = app.tuner.report()
    report: Dict[str, Any] = {
        "seed": seed,
        "duration_seconds": duration_seconds,
        "flap_window": [flap_start, flap_start + flap_duration],
        "flap_period_seconds": flap_period,
        "sensors_total": parking.sensor_count,
        "sensors_flapping": len(injector.targeted_entities),
        "injected_read_failures": injector.injected_failures,
        "gather_errors": app.stats["gather_errors"],
        "tuning": tuning,
        "adjusted": bool(tuning["stats"]["adjustments"]),
    }
    injector.detach()
    app.stop()
    return report
