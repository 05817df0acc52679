"""Precompiled delivery plans: dispatch identity, invalidation, memos.

Plans must be an invisible optimization: with the batch path on, the
exact same subscribers receive the exact same events (including the
taxonomy rule — subtype publishes reaching supertype subscriptions) and
the bus counters advance identically; a subscription or binding change
must expire the affected plans via the epoch/version counters, never
serve a stale dispatch table.
"""

import pytest

from repro.api import (
    Application,
    BatchConfig,
    CallableDriver,
    Context,
    Controller,
    RuntimeConfig,
    analyze,
)
from repro.errors import BindingError
from repro.runtime.grouping import group_readings, group_readings_planned
from repro.runtime.plan import DeliveryPlanner, missing
from repro.runtime.proxies import make_proxy, make_proxy_set

DESIGN = """\
device MotionSensor {
    attribute zone as String;
    source presence as Boolean;
}
device FancyMotionSensor extends MotionSensor {
    source battery as Float;
}

context Watcher as Integer {
    when provided presence from MotionSensor
    always publish;
}

controller Alarm {
    when provided Watcher do Ring on Bell;
}

device Bell { action Ring; }
"""


class WatcherImpl(Context):
    def __init__(self):
        super().__init__()
        self.events = []

    def on_presence_from_motion_sensor(self, event, discover):
        self.events.append((event.device.entity_id, event.value))
        return len(self.events)


class AlarmImpl(Controller):
    def __init__(self):
        super().__init__()
        self.values = []

    def on_watcher(self, value, discover):
        self.values.append(value)


def build_app(batch=None, fancy=True):
    config = RuntimeConfig(
        batch=batch if batch is not None else BatchConfig()
    )
    app = Application(analyze(DESIGN), config)
    watcher = app.implement("Watcher", WatcherImpl())
    app.implement("Alarm", AlarmImpl())
    device_type = "FancyMotionSensor" if fancy else "MotionSensor"
    instance = app.create_device(
        device_type,
        "m-1",
        CallableDriver(sources={"presence": lambda: True}),
        zone="hall",
    )
    app.start()
    return app, watcher, instance


class TestCompiledDispatch:
    def test_subtype_publish_reaches_supertype_subscription(self):
        app, watcher, instance = build_app(
            batch=BatchConfig(enabled=True), fancy=True
        )
        instance.publish("presence", True)
        assert watcher.events == [("m-1", True)]

    def test_plans_on_equals_plans_off(self):
        plain_app, plain_watcher, plain_instance = build_app(
            batch=BatchConfig(enabled=False)
        )
        plan_app, plan_watcher, plan_instance = build_app(
            batch=BatchConfig(enabled=True)
        )
        for instance in (plain_instance, plan_instance):
            instance.publish("presence", True)
            instance.publish("presence", False)
        assert plan_watcher.events == plain_watcher.events
        # Bus accounting stays truthful through the compiled path: the
        # same number of per-topic publishes and deliveries.
        assert (
            plan_app.bus.stats()["published"]
            == plain_app.bus.stats()["published"]
        )
        assert (
            plan_app.bus.stats()["delivered"]
            == plain_app.bus.stats()["delivered"]
        )

    def test_compile_once_then_hits(self):
        app, __, instance = build_app(batch=BatchConfig(enabled=True))
        for __unused in range(5):
            instance.publish("presence", True)
        stats = app.planner.stats()
        assert stats["compiles"] >= 1
        assert stats["hits"] >= 4
        assert stats["invalidations"] == 0

    def test_subscription_change_invalidates(self):
        app, watcher, instance = build_app(batch=BatchConfig(enabled=True))
        instance.publish("presence", True)
        seen = []
        app.bus.subscribe(
            ("source", "MotionSensor", "presence"),
            lambda event: seen.append(event.value),
        )
        instance.publish("presence", False)
        # The late subscriber is picked up — the old plan expired on the
        # bus epoch bump instead of serving its stale target list.
        assert seen == [False]
        assert len(watcher.events) == 2
        assert app.planner.stats()["invalidations"] >= 1

    def test_binding_change_invalidates(self):
        app, watcher, instance = build_app(batch=BatchConfig(enabled=True))
        instance.publish("presence", True)
        before = app.planner.stats()["invalidations"]
        other = app.create_device(
            "MotionSensor",
            "m-2",
            CallableDriver(sources={"presence": lambda: False}),
            zone="yard",
        )
        other.publish("presence", False)
        assert watcher.events[-1] == ("m-2", False)
        # The original plan (compiled before the bind) expires on the
        # registry version bump the next time its key publishes.
        instance.publish("presence", True)
        assert app.planner.stats()["invalidations"] >= before + 1
        assert watcher.events[-1] == ("m-1", True)

    def test_unsubscribed_callback_stops_firing(self):
        app, watcher, instance = build_app(batch=BatchConfig(enabled=True))
        instance.publish("presence", True)
        app.stop()
        instance.publish("presence", False)
        assert watcher.events == [("m-1", True)]

    def test_disabled_plans_leave_planner_unset(self):
        app, __, __unused = build_app(batch=BatchConfig(enabled=False))
        assert app.planner is None


class TestTopicMemo:
    def test_memo_primed_at_bind(self):
        app, __, __unused = build_app(batch=BatchConfig(enabled=False))
        assert ("FancyMotionSensor", "presence") in app._topic_memo
        topics = app._topic_memo[("FancyMotionSensor", "presence")]
        assert topics == (
            ("source", "FancyMotionSensor", "presence"),
            ("source", "MotionSensor", "presence"),
        )

    def test_subtype_only_source_does_not_walk_to_ancestor(self):
        app, __, __unused = build_app(batch=BatchConfig(enabled=False))
        topics = app._topics_for(
            app.design.devices["FancyMotionSensor"], "battery"
        )
        assert topics == (("source", "FancyMotionSensor", "battery"),)


class TestMembership:
    def test_membership_matches_group_readings(self):
        app, __, __unused = build_app(batch=BatchConfig(enabled=True))
        app.create_device(
            "MotionSensor",
            "m-2",
            CallableDriver(sources={"presence": lambda: False}),
            zone="yard",
        )
        planner = app.planner
        membership = planner.membership("MotionSensor", "zone")
        readings = [
            (instance, idx)
            for idx, instance in enumerate(app.registry)
            if instance.info.name.endswith("MotionSensor")
        ]
        assert group_readings_planned(
            readings, membership, "zone"
        ) == group_readings(readings, "zone")

    def test_membership_recompiles_on_bind(self):
        app, __, __unused = build_app(batch=BatchConfig(enabled=True))
        planner = app.planner
        first = planner.membership("MotionSensor", "zone")
        assert set(first) == {"m-1"}
        assert planner.membership("MotionSensor", "zone") is first
        app.create_device(
            "MotionSensor",
            "m-2",
            CallableDriver(sources={"presence": lambda: False}),
            zone="yard",
        )
        second = planner.membership("MotionSensor", "zone")
        assert set(second) == {"m-1", "m-2"}

    def test_missing_attribute_raises_binding_error(self):
        app, __, instance = build_app(batch=BatchConfig(enabled=True))
        membership = app.planner.membership("MotionSensor", "nonsense")
        assert membership["m-1"] is missing()
        with pytest.raises(BindingError):
            group_readings_planned(
                [(instance, 1.0)], membership, "nonsense"
            )

    def test_clear_counts_invalidations(self):
        app, __, instance = build_app(batch=BatchConfig(enabled=True))
        instance.publish("presence", True)
        app.planner.membership("MotionSensor", "zone")
        entries = app.planner.entry_count()
        assert entries >= 2
        app.planner.clear()
        assert app.planner.entry_count() == 0
        assert app.planner.stats()["invalidations"] >= entries


class TestProxyCache:
    def test_make_proxy_memoized_per_instance(self):
        app, __, instance = build_app()
        assert make_proxy(instance) is make_proxy(instance)

    def test_proxy_set_reuses_cached_proxies(self):
        app, __, instance = build_app()
        proxy = make_proxy(instance)
        proxy_set = make_proxy_set("MotionSensor", [instance])
        assert proxy_set[0] is proxy

    def test_unbind_clears_cached_proxy(self):
        app, __, instance = build_app()
        make_proxy(instance)
        app.unbind_device("m-1")
        assert getattr(instance, "_cached_proxy", None) is None

    def test_delivered_events_reuse_one_proxy(self):
        app, watcher, instance = build_app(batch=BatchConfig(enabled=True))
        proxy = make_proxy(instance)
        instance.publish("presence", True)
        assert watcher.events and make_proxy(instance) is proxy


class TestPlannerStandalone:
    def test_repr_and_stats_shape(self):
        app, __, instance = build_app(batch=BatchConfig(enabled=True))
        instance.publish("presence", True)
        planner = app.planner
        assert "DeliveryPlanner" in repr(planner)
        stats = planner.stats()
        assert {"compiles", "hits", "invalidations", "plans"} <= set(stats)

    def test_planner_without_metrics(self):
        app, __, __unused = build_app(batch=BatchConfig(enabled=False))
        planner = DeliveryPlanner(app.design, app.bus, app.registry)
        plan = planner.source_plan("FancyMotionSensor", "presence")
        assert plan.topics == (
            ("source", "FancyMotionSensor", "presence"),
            ("source", "MotionSensor", "presence"),
        )
        assert planner.source_plan("FancyMotionSensor", "presence") is plan
