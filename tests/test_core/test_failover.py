"""Tests for RSU failure and vehicle failover."""

import pytest

from repro.core import ScenarioSpec, TestbedScenario
from repro.core.system import default_training_dataset
from repro.faults import FaultProfile, RsuKill
from repro.geo import RoadType
from repro.obs.audit import audit_scenario
from repro.streaming.producer import RetryPolicy


@pytest.fixture(scope="module")
def training_dataset():
    return default_training_dataset(seed=11, n_cars=60)


def _failover(at_s, failover_to="rsu-mw-2"):
    """Kill ``rsu-mw-1`` at ``at_s`` and re-home its vehicles, with no
    per-car state replayed."""
    return FaultProfile(
        "failover",
        (
            RsuKill(
                "rsu-mw-1", at_s=at_s, failover_to=failover_to, replay_state=False
            ),
        ),
    )


class TestRsuFailure:
    def test_failed_rsu_stops_detecting(self, training_dataset):
        config = ScenarioSpec(n_vehicles=8, duration_s=3.0, seed=5)
        scenario = TestbedScenario.single_rsu(config, dataset=training_dataset)
        rsu = scenario.rsus["rsu-motorway"]
        scenario.sim.at(1.5, rsu.fail)
        scenario.run()
        assert rsu.failed
        # No detections after the failure instant.
        assert all(e.detected_at <= 1.6 for e in rsu.events)

    def test_failed_rsu_refuses_handover(self, training_dataset):
        config = ScenarioSpec(n_vehicles=8, duration_s=2.0, seed=5)
        scenario = TestbedScenario.corridor(
            config, motorways=2, dataset=training_dataset
        )
        rsu = scenario.rsus["rsu-mw-1"]
        scenario.sim.run_until(1.0)
        rsu.fail()
        # Handover silently yields False (history is lost with the node).
        assert rsu.handover(1, "rsu-mw-link") is False

    def test_failover_rehomes_vehicles(self, training_dataset):
        config = ScenarioSpec(
            n_vehicles=8, duration_s=4.0, seed=5, faults=_failover(2.0)
        )
        scenario = TestbedScenario.corridor(
            config, motorways=2, dataset=training_dataset
        )
        result = scenario.run()

        failed = scenario.rsus["rsu-mw-1"]
        fallback = scenario.rsus["rsu-mw-2"]
        assert failed.failed
        # The fallback RSU processed roughly double traffic after t=2.
        assert (
            result.rsu_metrics["rsu-mw-2"].n_events
            > result.rsu_metrics["rsu-mw-1"].n_events
        )
        # All original rsu-mw-1 vehicles now point at rsu-mw-2.
        assert all(v.rsu is not failed for v in scenario.vehicles)
        # Detection continued: fallback kept issuing events past t=2.
        assert any(e.detected_at > 3.0 for e in fallback.events)

    def test_failover_inside_an_ack_loss_window_appends_each_record_once(
        self, training_dataset
    ):
        """Records the dead RSU appended while its acks were lost sit in
        the retry buffers at the failover; the fallback must not append
        them again, or the telemetry audit counts them twice."""
        config = ScenarioSpec(
            n_vehicles=8,
            duration_s=3.0,
            seed=5,
            producer_retry=RetryPolicy(),
            faults=_failover(1.3),
        )
        scenario = TestbedScenario.corridor(
            config, motorways=2, dataset=training_dataset
        )
        failed = scenario.rsus["rsu-mw-1"]
        held = []

        def held_by_the_dead_broker() -> None:
            held.append(
                sum(
                    v._producer.buffered - v._producer.buffered_unappended
                    for v in scenario.vehicles
                    if v.rsu is failed
                )
            )

        scenario.sim.at(1.0, lambda: failed.drop_acks_until(2.0))
        scenario.sim.at(1.299, held_by_the_dead_broker)
        scenario.run()
        assert held[0] > 0  # the window really left appended records buffered
        assert audit_scenario(scenario).failures == []

    def test_failover_to_self_rejected(self, training_dataset):
        config = ScenarioSpec(
            n_vehicles=4,
            duration_s=1.0,
            seed=5,
            faults=_failover(0.5, failover_to="rsu-mw-1"),
        )
        scenario = TestbedScenario.corridor(
            config, motorways=2, dataset=training_dataset
        )
        with pytest.raises(ValueError):
            scenario.run()

    def test_warnings_continue_after_failover(self, training_dataset):
        """End-to-end resilience: drivers keep receiving warnings."""
        config = ScenarioSpec(
            n_vehicles=16, duration_s=4.0, seed=5, faults=_failover(2.0)
        )
        scenario = TestbedScenario.corridor(
            config, motorways=2, dataset=training_dataset
        )
        scenario.run()
        late_warnings = 0
        for vehicle in scenario.vehicles:
            late_warnings += sum(
                1
                for latency, received in zip(
                    vehicle.stats.e2e_latencies_s,
                    vehicle.stats.dissemination_latencies_s,
                )
                if latency > 0  # any received warning counts
            )
        assert late_warnings > 0
