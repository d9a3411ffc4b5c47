"""Integration tests: full testbed scenarios."""

import dataclasses

import numpy as np
import pytest

from repro.core import ScenarioSpec, TestbedScenario
from repro.core.system import ResilienceStats, default_training_dataset


@pytest.fixture(scope="module")
def training_dataset():
    return default_training_dataset(seed=11, n_cars=60)


@pytest.fixture(scope="module")
def small_single_result(training_dataset):
    config = ScenarioSpec(n_vehicles=16, duration_s=3.0, seed=7)
    scenario = TestbedScenario.single_rsu(config, dataset=training_dataset)
    return scenario.run()


class TestResilienceStats:
    def test_merge_carries_every_field(self):
        """A sharded run folds per-shard stats with ``merge``; a field
        it skipped would silently read as zero under sharding."""
        values = {}
        for index, spec in enumerate(dataclasses.fields(ResilienceStats)):
            default = getattr(ResilienceStats(), spec.name)
            if isinstance(default, dict):
                values[spec.name] = {f"rsu-{index}": index + 1.0}
            elif isinstance(default, list):
                values[spec.name] = [f"entry-{index}"]
            else:
                values[spec.name] = index + 1
        merged = ResilienceStats()
        merged.merge(ResilienceStats(**values))
        assert merged == ResilienceStats(**values)
        # Counters add, maps union, the log extends.
        merged.merge(
            ResilienceStats(
                records_lost=5,
                restarted_at_s={"other": 2.0},
                fault_log=["later"],
            )
        )
        assert merged.records_lost == values["records_lost"] + 5
        assert merged.restarted_at_s == {**values["restarted_at_s"], "other": 2.0}
        assert merged.fault_log == values["fault_log"] + ["later"]
        assert merged.poll_failures == values["poll_failures"]


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_vehicles=0)
        with pytest.raises(ValueError):
            ScenarioSpec(duration_s=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(handover_fraction=1.5)


class TestSingleRsu:
    def test_end_to_end_latency_under_50ms(self, small_single_result):
        """The paper's headline scalability claim at the small end."""
        assert 0.0 < small_single_result.mean_e2e_ms() < 55.0

    def test_latency_components_positive(self, small_single_result):
        assert small_single_result.mean_tx_ms() > 0.0
        assert small_single_result.mean_processing_ms() > 0.0
        assert small_single_result.mean_dissemination_ms() > 0.0

    def test_component_ordering(self, small_single_result):
        """Tx latency is small relative to processing + dissemination."""
        result = small_single_result
        assert result.mean_tx_ms() < result.mean_processing_ms()
        assert result.mean_e2e_ms() > result.mean_dissemination_ms()

    def test_per_vehicle_bandwidth_near_20kbps(self, small_single_result):
        """Fig. 6c: each vehicle uses ~20 Kb/s."""
        bandwidth = small_single_result.per_vehicle_bandwidth_bps()
        assert 10_000 < bandwidth < 30_000

    def test_every_vehicle_transmitted(self, small_single_result):
        for stats in small_single_result.vehicle_stats.values():
            assert stats.records_sent > 0

    def test_warnings_were_delivered(self, small_single_result):
        total = sum(
            s.warnings_received
            for s in small_single_result.vehicle_stats.values()
        )
        assert total > 0

    def test_deterministic_given_seed(self, training_dataset):
        def run():
            config = ScenarioSpec(n_vehicles=8, duration_s=2.0, seed=99)
            return TestbedScenario.single_rsu(
                config, dataset=training_dataset
            ).run()

        first, second = run(), run()
        assert first.mean_e2e_ms() == second.mean_e2e_ms()
        assert first.total_bandwidth_bps() == second.total_bandwidth_bps()

    def test_latency_grows_gently_with_vehicles(self, training_dataset):
        """Fig. 6a shape: 8 -> 64 vehicles adds only a few ms."""

        def mean_e2e(n):
            config = ScenarioSpec(n_vehicles=n, duration_s=3.0, seed=7)
            return (
                TestbedScenario.single_rsu(config, dataset=training_dataset)
                .run()
                .mean_e2e_ms()
            )

        small, large = mean_e2e(8), mean_e2e(64)
        assert large < small + 15.0
        assert large < 55.0


class TestCorridor:
    @pytest.fixture(scope="class")
    def corridor_result(self, training_dataset):
        config = ScenarioSpec(
            n_vehicles=16, duration_s=3.0, seed=7, handover_fraction=0.25
        )
        scenario = TestbedScenario.corridor(
            config, motorways=4, dataset=training_dataset
        )
        return scenario.run()

    def test_five_rsus(self, corridor_result):
        assert len(corridor_result.rsu_metrics) == 5
        assert "rsu-mw-link" in corridor_result.rsu_metrics

    def test_summaries_flowed_on_handover(self, corridor_result):
        sent = sum(
            m.summaries_sent for m in corridor_result.rsu_metrics.values()
        )
        received = corridor_result.rsu_metrics["rsu-mw-link"].summaries_received
        expected = 4 * int(16 * 0.25)
        assert sent == expected
        assert received == expected

    def test_link_rsu_sees_more_traffic(self, corridor_result):
        """Fig. 6d: the collaborating link RSU's bandwidth is higher
        than each motorway RSU's (CO-DATA + migrated vehicles)."""
        link = corridor_result.rsu_metrics["rsu-mw-link"].bandwidth_in_bps
        for name, metrics in corridor_result.rsu_metrics.items():
            if name != "rsu-mw-link":
                assert link > metrics.bandwidth_in_bps

    def test_dissemination_latency_in_paper_range(self, corridor_result):
        """Fig. 6b: dissemination is poll (10 ms mean 5) + handling
        (~7 ms) — of order 10-20 ms."""
        dissemination = corridor_result.mean_dissemination_ms()
        assert 6.0 < dissemination < 25.0

    def test_bandwidth_far_below_dsrc_limit(self, corridor_result):
        for metrics in corridor_result.rsu_metrics.values():
            assert metrics.bandwidth_in_bps < 27e6


class TestTripChurn:
    """Mid-run spawn/retire: the building blocks the city workload's
    trip-churn model maps onto at testbed scale."""

    @pytest.fixture(scope="class")
    def churn_result(self, training_dataset):
        from repro.geo import RoadType

        config = ScenarioSpec(n_vehicles=4, duration_s=3.0, seed=7)
        scenario = TestbedScenario.single_rsu(
            config, dataset=training_dataset
        )
        _, replay = TestbedScenario._train_replay_split(training_dataset)
        records = [r for r in replay if r.road_type is RoadType.MOTORWAY]
        scenario.spawn_vehicles(
            "rsu-motorway", 2, at_s=1.0, records=records
        )
        scenario.schedule_retire([1, 2], at_s=1.5)
        result = scenario.run()
        return scenario, result

    def test_spawned_vehicles_join_and_report(self, churn_result):
        scenario, result = churn_result
        # Ids 5 and 6 are assigned when the spawn fires, after the
        # four build-time vehicles (ids start at 1).
        assert set(result.vehicle_stats) == {1, 2, 3, 4, 5, 6}
        for car_id in (5, 6):
            assert result.vehicle_stats[car_id].records_sent > 0

    def test_retired_vehicles_stop_producing(self, churn_result):
        scenario, result = churn_result
        by_id = {v.car_id: v for v in scenario.vehicles}
        assert by_id[1].retired and by_id[2].retired
        assert not by_id[3].retired
        # Retired at 1.5 s of 3.0 s: roughly half the sends of a
        # vehicle that ran the full scenario.
        assert (
            result.vehicle_stats[1].records_sent
            < result.vehicle_stats[3].records_sent
        )

    def test_late_spawn_sends_less_than_full_run(self, churn_result):
        _, result = churn_result
        # Spawned at 1.0 s, so it had 2/3 of the runtime.
        assert (
            result.vehicle_stats[5].records_sent
            < result.vehicle_stats[3].records_sent
        )

    def test_retire_unknown_id_raises(self, training_dataset):
        config = ScenarioSpec(n_vehicles=2, duration_s=1.0, seed=7)
        scenario = TestbedScenario.single_rsu(
            config, dataset=training_dataset
        )
        scenario.schedule_retire([99], at_s=0.5)
        with pytest.raises(KeyError):
            scenario.run()

    def test_spawn_count_validated(self, training_dataset):
        config = ScenarioSpec(n_vehicles=2, duration_s=1.0, seed=7)
        scenario = TestbedScenario.single_rsu(
            config, dataset=training_dataset
        )
        with pytest.raises(ValueError):
            scenario.spawn_vehicles("rsu-motorway", 0, at_s=0.5, records=[])
