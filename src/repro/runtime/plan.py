"""Precompiled delivery plans and the batch hot-path configuration.

Two costs dominate event delivery once a fleet grows past a few hundred
devices:

* every published source event re-walks the publisher's ancestor chain
  (``(type_name, source)`` topics) and re-resolves each topic's
  subscriber snapshot through the bus — work whose *result* is fixed by
  the analyzed design and the current subscription set;
* every periodic gather re-derives the grouping membership
  (entity → ``grouped by`` attribute value) by reading each instance's
  attribute record, although membership only changes on bind/unbind.

This module compiles both into flat dispatch tables, the ahead-of-time
move of the DiaSpec compiler line: the declared design already fixes
who receives what, so the runtime can resolve it once and replay it.

:class:`DeliveryPlanner` caches one :class:`SourcePlan` per
``(device_type, source)`` — the topic tuple of the ancestor walk plus
the flattened subscriber list across those topics, in exact publish
order — and one membership table per ``(device_type, attribute)``.
Staleness is detected by two monotonic counters instead of listeners:
the bus bumps its ``epoch`` on every subscribe/unsubscribe and the
registry bumps its ``version`` on every bind/unbind, so a plan is valid
iff both counters still match the values captured at compile time (the
same generation-counter discipline the read cache uses for context
memoization).  A hit is a dict lookup plus two integer compares.

Plans are wired through :class:`BatchConfig` on
:class:`~repro.runtime.config.RuntimeConfig` and are **off by
default**: with ``BatchConfig(enabled=False)`` the application keeps
the per-publish resolution path byte-identical to previous releases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.runtime.configbase import ConfigBase
from repro.telemetry.instrument import Instrumented, MetricSpec

__all__ = [
    "BatchConfig",
    "CohortPlan",
    "CohortPlanner",
    "DeliveryPlanner",
    "SourcePlan",
]

# Column-size buckets: cohorts below min_column never batch, city-scale
# shards batch thousands of reads per column.
BATCH_COLUMN_BUCKETS = (2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384)


@dataclass(frozen=True)
class BatchConfig(ConfigBase):
    """The sweep/publish hot path: columnar reads + compiled dispatch.

    * ``enabled`` — the one switch; ``False`` (default) keeps both the
      per-device scalar read path and the per-publish topic resolution
      byte-identical to the unbatched runtime.  ``True`` issues one
      driver-level :meth:`~repro.runtime.device.DeviceDriver.read_batch`
      per (shard, source) cohort during periodic sweeps (entities that
      cannot batch demote to the scalar path with full supervision
      accounting), precompiles publish fan-out and grouping membership
      into :class:`DeliveryPlanner` tables, and folds a whole column of
      window values per group through the job's combine/reduce in one
      call (incremental accumulators only).
    * ``min_column`` — smallest cohort worth a batch read; smaller
      cohorts take the scalar path (a column of one would only add
      overhead).  The only field ``Application.apply_config`` may
      change on a running application.
    """

    enabled: bool = False
    min_column: int = 2

    def __post_init__(self):
        if self.min_column < 1:
            raise ValueError("min_column must be >= 1")


class SourcePlan:
    """Compiled dispatch for one ``(device_type, source)`` publish.

    ``topics`` is the memoized ancestor-walk topic tuple; ``targets``
    the flattened tuple of bus subscriptions across those topics in
    publish order.  ``epoch``/``version`` are the bus and registry
    counters captured at compile time — the plan is valid while both
    still match.
    """

    __slots__ = ("device_type", "source", "topics", "targets", "epoch",
                 "version")

    def __init__(self, device_type, source, topics, targets, epoch, version):
        self.device_type = device_type
        self.source = source
        self.topics = topics
        self.targets = targets
        self.epoch = epoch
        self.version = version

    def __repr__(self) -> str:
        return (
            f"<SourcePlan {self.device_type}.{self.source} "
            f"topics={len(self.topics)} targets={len(self.targets)}>"
        )


class DeliveryPlanner(Instrumented):
    """Flat dispatch tables for the publish and grouping hot paths.

    One planner serves a whole application.  Compilation is lazy — the
    first publish of a ``(device_type, source)`` pays the ancestor walk
    exactly once — and every subsequent publish is a plan hit until a
    subscription or binding change bumps the respective counter.
    """

    metric_specs = (
        MetricSpec(
            "plan_compiles_total",
            "_compiles",
            stats_key="compiles",
            help="Dispatch plans and grouping tables compiled.",
        ),
        MetricSpec(
            "plan_invalidations_total",
            "_invalidations",
            stats_key="invalidations",
            help="Cached plans discarded after subscription or binding "
            "churn.",
        ),
        MetricSpec(
            "plan_hits_total",
            "_hits",
            stats_key="hits",
            help="Publishes and gathers served from a compiled plan.",
        ),
        MetricSpec(
            "plan_entries",
            "entry_count",
            kind="gauge",
            help="Dispatch plans and grouping tables currently compiled.",
        ),
    )

    def __init__(self, design, bus, registry, metrics=None):
        self.design = design
        self.bus = bus
        self.registry = registry
        self._plans: Dict[Tuple[str, str], SourcePlan] = {}
        # (device_type, attribute) -> (registry version, entity -> key)
        self._memberships: Dict[
            Tuple[str, str], Tuple[int, Dict[str, Any]]
        ] = {}
        self._compiles = 0
        self._invalidations = 0
        self._hits = 0
        if metrics is not None:
            self.attach_metrics(metrics)

    def entry_count(self) -> int:
        return len(self._plans) + len(self._memberships)

    def _extra_stats(self) -> Dict[str, Any]:
        return {
            "plans": len(self._plans),
            "memberships": len(self._memberships),
        }

    # -- publish dispatch ----------------------------------------------------

    def source_plan(self, device_type: str, source: str) -> SourcePlan:
        """The compiled dispatch for one publish (compiling on miss)."""
        key = (device_type, source)
        plan = self._plans.get(key)
        if plan is not None:
            if (
                plan.epoch == self.bus.epoch
                and plan.version == self.registry.version
            ):
                self._hits += 1
                return plan
            self._invalidations += 1
        return self._compile_source(key)

    def _compile_source(self, key: Tuple[str, str]) -> SourcePlan:
        device_type, source = key
        info = self.design.devices[device_type]
        devices = self.design.devices
        topics = tuple(
            ("source", type_name, source)
            for type_name in (device_type, *info.ancestors)
            if source in devices[type_name].sources
        )
        targets = tuple(
            subscription
            for topic in topics
            for subscription in self.bus.snapshot(topic)
        )
        plan = SourcePlan(
            device_type,
            source,
            topics,
            targets,
            self.bus.epoch,
            self.registry.version,
        )
        self._plans[key] = plan
        self._compiles += 1
        return plan

    # -- grouping membership -------------------------------------------------

    def membership(self, device_type: str, attribute: str) -> Dict[str, Any]:
        """Entity → ``grouped by`` attribute value for a device type.

        Compiled over every registered instance of the type (health and
        the ``failed`` flag deliberately ignored — membership is a pure
        function of the binding, so it stays valid across outages) and
        re-derived only when the registry version moves.
        """
        key = (device_type, attribute)
        memo = self._memberships.get(key)
        version = self.registry.version
        if memo is not None:
            if memo[0] == version:
                self._hits += 1
                return memo[1]
            self._invalidations += 1
        mapping = {
            instance.entity_id: instance.attributes.get(attribute, _MISSING)
            for instance in self.registry.instances_of(
                device_type,
                include_failed=True,
                include_quarantined=True,
            )
        }
        self._memberships[key] = (version, mapping)
        self._compiles += 1
        return mapping

    def clear(self) -> None:
        """Drop every compiled table (counts each as an invalidation)."""
        self._invalidations += len(self._plans) + len(self._memberships)
        self._plans.clear()
        self._memberships.clear()

    def __repr__(self) -> str:
        return (
            f"<DeliveryPlanner plans={len(self._plans)} "
            f"memberships={len(self._memberships)} hits={self._hits}>"
        )


class CohortPlan:
    """Persistent (shard, batch_key) cohort partition for one columnar
    sweep shard.

    ``groups`` is a tuple of position tuples — one per ``batch_key``
    cohort, in first-appearance order, positions being indexes into the
    sweep shard's instance column; ``scalar`` the positions whose
    driver declines batching (``batch_key`` is ``None``).  ``version``
    is the registry version captured at compile time: cohort membership
    is a pure function of the bindings, so the plan stays valid until
    the registry moves.  Per-sweep *eligibility* (sampler drops, failed
    flags, breaker health, cache freshness) stays dynamic in the gather
    path — the plan only spares it the per-instance ``batch_key`` calls
    and cohort re-formation every sweep.
    """

    __slots__ = ("groups", "scalar", "version")

    def __init__(self, groups, scalar, version):
        self.groups = groups
        self.scalar = scalar
        self.version = version

    def __repr__(self) -> str:
        return (
            f"<CohortPlan groups={len(self.groups)} "
            f"scalar={len(self.scalar)} v{self.version}>"
        )


class CohortPlanner(Instrumented):
    """Memoized cohort plans for the columnar sweep hot path.

    Keyed by ``(source, shard length, first entity id)`` — a sweep
    shard's membership and order are fixed for a registry version, and
    its first entity identifies it among the shards of one sweep — and
    invalidated by the registry version, the same two-integer-compare
    discipline :class:`DeliveryPlanner` uses.
    """

    metric_specs = (
        MetricSpec(
            "cohort_plan_compiles_total",
            "_compiles",
            stats_key="compiles",
            help="Columnar cohort plans compiled.",
        ),
        MetricSpec(
            "cohort_plan_hits_total",
            "_hits",
            stats_key="hits",
            help="Columnar sweeps served from a memoized cohort plan.",
        ),
    )

    def __init__(self, registry, metrics=None):
        self.registry = registry
        self._plans: Dict[Tuple[str, int, str], CohortPlan] = {}
        self._compiles = 0
        self._hits = 0
        if metrics is not None:
            self.attach_metrics(metrics)

    def plan(self, source: str, instances) -> CohortPlan:
        """The cohort plan for one sweep shard (compiling on miss)."""
        version = self.registry.version
        key = (
            source,
            len(instances),
            instances[0].entity_id if instances else "",
        )
        plan = self._plans.get(key)
        if plan is not None and plan.version == version:
            self._hits += 1
            return plan
        cohorts: Dict[int, list] = {}
        scalar = []
        for position, instance in enumerate(instances):
            batch_key = instance.driver.batch_key(source)
            if batch_key is None:
                scalar.append(position)
            else:
                cohorts.setdefault(id(batch_key), []).append(position)
        plan = CohortPlan(
            tuple(tuple(positions) for positions in cohorts.values()),
            tuple(scalar),
            version,
        )
        self._plans[key] = plan
        self._compiles += 1
        return plan

    def clear(self) -> None:
        self._plans.clear()

    def _extra_stats(self) -> Dict[str, Any]:
        return {"plans": len(self._plans)}

    def __repr__(self) -> str:
        return f"<CohortPlanner plans={len(self._plans)} hits={self._hits}>"


# Sentinel marking an entity without the grouping attribute; the gather
# path turns it into the same BindingError the uncompiled path raises.
_MISSING = object()


def missing() -> object:
    """The sentinel :meth:`DeliveryPlanner.membership` stores for
    entities lacking the grouping attribute."""
    return _MISSING
