"""F4/F8/F10/F11: the parking management application end to end."""

import pytest

from repro.apps.parking import (
    ParkingAvailabilityContext,
    build_parking_app,
)
from repro.mapreduce.engine import ThreadExecutor


@pytest.fixture
def app():
    return build_parking_app(
        capacities={"A22": 10, "B16": 5, "D6": 8}, seed=11
    )


class TestParkingAvailability:
    """Figure 10: MapReduce counts free spaces per lot every 10 minutes."""

    def test_counts_match_environment(self, app):
        app.advance(600)
        for lot, panel in app.entrance_panels.items():
            free = app.environment.free_count(lot)
            assert panel.status in (f"FREE: {free}", "FULL")

    def test_panels_update_each_period(self, app):
        app.advance(3600)
        for panel in app.entrance_panels.values():
            assert len(panel.history) == 6

    def test_full_lot_displays_full(self):
        # Freeze the environment (huge step) so the forced state holds
        # through the first gathering sweep.
        app = build_parking_app(
            capacities={"A22": 3}, seed=1,
            environment_step_seconds=10_000.0,
        )
        for space in range(3):
            app.environment.force("A22", space, True)
        app.advance(600)
        assert app.entrance_panels["A22"].status == "FULL"

    def test_mapreduce_context_standalone(self):
        """The Figure 10 phases, called directly."""
        from repro.mapreduce.api import MapCollector, ReduceCollector

        context = ParkingAvailabilityContext()
        collector = MapCollector()
        context.map("A22", False, collector)
        context.map("A22", True, collector)
        assert collector.pairs == [("A22", 1)]
        reducer = ReduceCollector()
        context.reduce("A22", [1, 1, 1], reducer)
        assert reducer.pairs == [("A22", 3)]

    def test_mapreduce_combine_standalone(self):
        """The combiner is a mini-reduce: partial sums per map chunk."""
        from repro.mapreduce.api import CombineCollector, ReduceCollector

        context = ParkingAvailabilityContext()
        combiner = CombineCollector()
        context.combine("A22", [1, 1], combiner)
        assert combiner.pairs == [("A22", 2)]
        reducer = ReduceCollector()
        context.reduce("A22", [2, 1], reducer)
        assert reducer.pairs == [("A22", 3)]


class TestParkingSuggestion:
    def test_city_panels_show_ranked_lots(self, app):
        app.advance(600)
        for panel in app.city_panels.values():
            assert panel.status.startswith("Parking: ")

    def test_suggestions_prefer_free_lots(self):
        app = build_parking_app(
            capacities={"A22": 10, "B16": 10}, seed=2
        )
        for space in range(10):
            app.environment.force("B16", space, True)
        app.advance(600)
        status = next(iter(app.city_panels.values())).status
        assert status.split()[1] == "A22"

    def test_usage_patterns_feed_suggestions(self, app):
        app.advance(2 * 3600)
        patterns = app.application.query_context("ParkingUsagePattern")
        assert {p.parkingLot for p in patterns} == {"A22", "B16", "D6"}
        assert all(p.level in ("HIGH", "MODERATE", "LOW") for p in patterns)


class TestAverageOccupancy:
    def test_daily_report_after_window(self):
        app = build_parking_app(
            capacities={"A22": 6, "B16": 4},
            occupancy_window="1 hr",
            seed=3,
        )
        app.advance(3600)
        assert len(app.messenger.messages) == 1
        message = app.messenger.messages[0]
        assert message.startswith("24h occupancy:")
        assert "A22=" in message and "B16=" in message

    def test_no_report_before_window(self, app):
        app.advance(12 * 3600)
        assert app.messenger.messages == []

    def test_occupancy_values_bounded(self):
        app = build_parking_app(
            capacities={"A22": 6}, occupancy_window="1 hr", seed=4
        )
        app.advance(2 * 3600)
        for message in app.messenger.messages:
            percent = float(message.split("=")[1].rstrip("%"))
            assert 0.0 <= percent <= 100.0


class TestScaleContinuum:
    """Figure 1: the same design runs at any infrastructure size."""

    def test_paper_scale(self):
        app = build_parking_app(seed=5)
        assert app.sensor_count == 120

    def test_city_scale(self):
        capacities = {f"LOT_{i:03d}": 20 for i in range(50)}
        app = build_parking_app(capacities=capacities, seed=6)
        assert app.sensor_count == 1000
        app.advance(600)
        assert all(
            panel.history for panel in app.entrance_panels.values()
        )

    def test_thread_executor_produces_same_panels(self):
        serial = build_parking_app(
            capacities={"A22": 20, "B16": 20}, seed=7
        )
        threaded = build_parking_app(
            capacities={"A22": 20, "B16": 20},
            seed=7,
            mapreduce_executor=ThreadExecutor(workers=4),
        )
        serial.advance(600)
        threaded.advance(600)
        assert {
            lot: panel.status for lot, panel in serial.entrance_panels.items()
        } == {
            lot: panel.status
            for lot, panel in threaded.entrance_panels.items()
        }


class TestDeploymentDetails:
    def test_sensor_attributes_registered(self, app):
        sensor = app.application.registry.get("sensor-A22-0000")
        assert sensor.attributes == {"parkingLot": "A22"}

    def test_panel_discovery_by_location(self, app):
        panels = app.application.discover.parking_entrance_panels()
        assert len(panels) == 3
        assert len(panels.where_location("B16")) == 1

    def test_supertype_discovery_spans_panel_kinds(self, app):
        panels = app.application.discover.display_panels()
        assert len(panels) == 3 + 2  # entrance + city panels

    def test_design_warnings_empty(self, app):
        assert app.application.design.report.warnings == []


class TestDescriptorShardedDeployment:
    """The descriptor's ``topology.shard`` section runs the same
    deployment process-sharded, byte-identical to single-process."""

    CAPACITIES = {"A22": 6, "B16": 5}

    def run_deployment(self, shard):
        from repro.apps.parking.app import (
            build_sharded_parking_app,
            parking_descriptor,
        )

        descriptor = parking_descriptor(
            capacities=self.CAPACITIES, shard=shard
        )
        runtime = build_sharded_parking_app(descriptor, seed=3)
        published = []
        for name in runtime.app.design.contexts:
            runtime.app.bus.subscribe(
                ("context", name),
                lambda event, name=name: published.append(
                    (name, repr(event.value))
                ),
            )
        try:
            runtime.advance(1800.0)
            panel = runtime.app.registry.get("panel-A22").driver
            return {
                "published": published,
                "panel": list(panel.history),
                "read": runtime.query("sensor-A22-0000", "presence"),
            }
        finally:
            runtime.stop()

    def test_sharded_matches_single_process(self):
        single = self.run_deployment(None)
        sharded = self.run_deployment({"workers": 2})
        assert sharded == single
        assert single["panel"]  # the run actually drove the panels

    def test_descriptor_without_shard_stays_single_process(self):
        from repro.apps.parking.app import (
            build_sharded_parking_app,
            parking_descriptor,
        )

        runtime = build_sharded_parking_app(
            parking_descriptor(capacities=self.CAPACITIES)
        )
        try:
            assert runtime.sharded is False
            assert runtime.worker_stats() == []
        finally:
            runtime.stop()
