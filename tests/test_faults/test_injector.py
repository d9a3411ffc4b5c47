"""Fault injection against wired-up corridor scenarios.

Each test builds a small corridor, injects one fault kind, and checks
the system's absorbed response: recovery after a broker restart,
vehicle failover with state replay, partition healing, burst-loss
restoration, and CO-DATA degradation with re-merge on recovery.
"""

import pytest

from repro.core.system import TestbedScenario, default_training_dataset
from repro.experiments.resilience import (
    count_duplicate_detections,
    resilience_corridor,
)
from repro.faults import (
    BrokerCrash,
    BurstLoss,
    FaultInjector,
    FaultProfile,
    LinkPartition,
    RsuKill,
    profile,
)
from repro.obs.audit import audit_scenario


@pytest.fixture(scope="module")
def training_dataset():
    return default_training_dataset(seed=11, n_cars=60)


def corridor(training_dataset, fault_profile=None, **overrides):
    builder = (
        TestbedScenario.builder()
        .vehicles(overrides.pop("n_vehicles", 4))
        .duration(overrides.pop("duration_s", 3.0))
        .seed(3)
    )
    if fault_profile is not None:
        builder = builder.faults(fault_profile)
    return builder.corridor(
        motorways=overrides.pop("motorways", 2), dataset=training_dataset
    )


class TestBrokerCrash:
    def test_crash_restart_resumes_detection(self, training_dataset):
        scenario = corridor(
            training_dataset, profile("broker_crash", 3.0), duration_s=3.0
        )
        result = scenario.run()
        res = result.resilience
        assert res.broker_crashes == 1
        kinds = [e.kind for e in res.fault_log]
        assert kinds == ["broker_crash", "broker_restart"]
        # The restarted pipeline picks up after its last committed
        # micro-batch and keeps detecting.
        restarted = res.restarted_at_s["rsu-mw-1"]
        detected = scenario.rsus["rsu-mw-1"].events.detected_at()
        assert (detected >= restarted).any()
        # Retries through the outage and the ack-loss window never
        # double-detect: broker-side sequence dedupe caught them all.
        assert count_duplicate_detections(scenario) == 0
        assert res.records_lost == 0
        assert res.records_retried > 0
        assert res.duplicates_rejected > 0

    def test_crash_without_retry_policy_loses_telemetry(
        self, training_dataset
    ):
        # The same fault on a legacy-configured corridor (no retry):
        # telemetry refused during the outage is gone for good.
        prof = FaultProfile(
            "crash", (BrokerCrash("rsu-mw-1", at_s=1.2, restart_after_s=0.3),)
        )
        scenario = (
            TestbedScenario.builder()
            .vehicles(4)
            .duration(3.0)
            .seed(3)
            .faults(prof)
            .retry(None)
            .corridor(motorways=2, dataset=training_dataset)
        )
        result = scenario.run()
        assert result.resilience.records_lost > 0
        assert result.resilience.records_retried == 0

    def test_overlapping_crashes_take_the_union(self, training_dataset):
        # Two outage windows on one RSU, the second opening inside the
        # first: the node is down for their union and restarts once,
        # when the last window closes (the second restart() used to hit
        # "StreamingContext already started").
        prof = FaultProfile(
            "overlap",
            (
                BrokerCrash("rsu-mw-link", at_s=1.0, restart_after_s=1.0),
                BrokerCrash("rsu-mw-link", at_s=1.5, restart_after_s=1.0),
            ),
        )
        scenario = (
            TestbedScenario.builder()
            .vehicles(8)
            .duration(4.0)
            .seed(3)
            .faults(prof)
            .observe()
            .corridor(motorways=2, dataset=training_dataset)
        )
        result = scenario.run()
        res = result.resilience
        assert [e.kind for e in res.fault_log] == [
            "broker_crash", "broker_crash", "broker_restart", "broker_restart",
        ]
        # One shutdown actually happened; the node came back at 2.5 s,
        # not at the first window's 2.0 s.
        assert res.broker_crashes == 1
        assert res.restarted_at_s == {"rsu-mw-link": 2.5}
        link = scenario.rsus["rsu-mw-link"]
        assert link.broker.available and link.crashed_at is None
        detected = link.events.detected_at()
        assert not ((detected > 1.0) & (detected < 2.5)).any()
        assert (detected >= 2.5).any()
        audit_scenario(scenario).check()


class TestRsuKill:
    def test_vehicles_fail_over_with_replayed_state(self, training_dataset):
        scenario = corridor(
            training_dataset, profile("rsu_kill", 3.0), duration_s=3.0
        )
        scenario.run()
        failed = scenario.rsus["rsu-mw-1"]
        fallback = scenario.rsus["rsu-mw-2"]
        assert failed.failed
        for vehicle in scenario.vehicles:
            assert vehicle.rsu is not failed
        entry = next(
            e for e in scenario._injector.log if e.kind == "rsu_kill"
        )
        assert "failover_to=rsu-mw-2" in entry.detail
        assert "replayed=4" in entry.detail
        # The survivor keeps detecting for the migrated vehicles.
        migrated = {
            v.car_id for v in scenario.vehicles if v.rsu is fallback
        }
        assert migrated & set(fallback.events.car_ids().tolist())

    def test_restart_of_a_killed_node_is_skipped(self, training_dataset):
        """A ``BrokerCrash`` whose restart lands after an ``RsuKill`` of
        the same RSU used to raise ``RSU ... failed permanently`` out of
        the run; the node stays dead and the injector says so."""
        events = (
            RsuKill("rsu-mw-1", at_s=1.0, failover_to="rsu-mw-2"),
            BrokerCrash("rsu-mw-1", at_s=1.0, restart_after_s=0.5),
        )
        scenario = corridor(
            training_dataset, FaultProfile("kill-then-restart", events)
        )
        result = scenario.run()
        kinds = [e.kind for e in result.resilience.fault_log]
        assert kinds == ["rsu_kill", "broker_crash", "broker_restart_skipped"]
        assert scenario.rsus["rsu-mw-1"].failed
        assert not scenario.rsus["rsu-mw-1"].broker.available
        assert audit_scenario(scenario).ok

    def test_kill_requires_fallback(self, training_dataset):
        scenario = corridor(training_dataset)
        injector = FaultInjector(scenario)
        with pytest.raises(ValueError, match="failover_to"):
            injector.install(
                FaultProfile("bad", (RsuKill("rsu-mw-1", at_s=1.0),))
            )


class TestLinkPartition:
    def test_partition_heals(self, training_dataset):
        scenario = corridor(
            training_dataset, profile("partition", 3.0), duration_s=3.0
        )
        scenario.run()
        kinds = [e.kind for e in scenario._injector.log]
        assert kinds == ["partition", "partition_heal"]
        link = scenario.rsus["rsu-mw-1"]._links["rsu-mw-link"]
        assert link.up

    def test_unknown_link_fails_at_install(self, training_dataset):
        scenario = corridor(training_dataset)
        injector = FaultInjector(scenario)
        with pytest.raises(KeyError, match="no link"):
            injector.install(
                FaultProfile(
                    "bad",
                    (
                        LinkPartition(
                            "rsu-mw-1", "rsu-mw-2", at_s=1.0, duration_s=0.5
                        ),
                    ),
                )
            )


class TestBurstLoss:
    def test_loss_prob_restored_after_burst(self, training_dataset):
        scenario = corridor(
            training_dataset, profile("burst_loss", 3.0), duration_s=3.0
        )
        scenario.run()
        assert scenario.channels["rsu-mw-1"].loss_prob == 0.0
        kinds = [e.kind for e in scenario._injector.log]
        assert kinds == ["burst_loss", "burst_loss_end"]


class TestDegradation:
    def test_link_rsu_degrades_and_recovers(self, training_dataset):
        # CO-DATA reaches the link RSU only on handover, so feed its
        # CO-DATA topic directly: one summary arms the silence
        # timeout, a second (after the degradation) re-merges.
        from repro.core.features import CO_DATA, PredictionSummary

        scenario = (
            TestbedScenario.builder()
            .vehicles(2)
            .duration(4.0)
            .seed(3)
            .upstream_timeout(1.0)
            .corridor(motorways=1, dataset=training_dataset)
        )
        link = scenario.rsus["rsu-mw-link"]

        def summary_at(car_id):
            def produce():
                payload = PredictionSummary(
                    car_id=car_id,
                    mean_normal_prob=0.9,
                    n_predictions=5,
                    last_class=0,
                    from_road_id=1,
                    timestamp=scenario.sim.now,
                ).to_payload()
                link.broker.produce(
                    CO_DATA,
                    link._serde_for(CO_DATA).serialize(payload),
                    timestamp=scenario.sim.now,
                )

            return produce

        scenario.sim.at(0.5, summary_at(1))
        scenario.sim.at(3.0, summary_at(2))
        result = scenario.run()
        kinds = [
            kind
            for _, kind in result.resilience.degradation_events[
                "rsu-mw-link"
            ]
        ]
        # (a further "degraded" may follow if silence resumes before
        # the run ends; the first two transitions are the contract)
        assert kinds[:2] == ["degraded", "recovered"]
        # The silence timeout tripped ~1s after the last arrival, and
        # the re-merge happened on the t=3.0 arrival.
        events = result.resilience.degradation_events["rsu-mw-link"]
        assert 1.5 <= events[0][0] <= 2.0
        assert events[1][0] == pytest.approx(3.0, abs=0.1)


class TestInstall:
    def test_double_install_rejected(self, training_dataset):
        scenario = corridor(training_dataset)
        injector = FaultInjector(scenario)
        prof = FaultProfile(
            "p", (BurstLoss("rsu-mw-1", at_s=1.0, duration_s=0.5),)
        )
        injector.install(prof)
        with pytest.raises(RuntimeError, match="already installed"):
            injector.install(prof)

    def test_unknown_event_type_rejected(self, training_dataset):
        scenario = corridor(training_dataset)
        injector = FaultInjector(scenario)
        with pytest.raises(TypeError, match="unknown fault event"):
            injector.install(FaultProfile("p", ("not-an-event",)))

    def test_unknown_target_fails_at_install(self, training_dataset):
        scenario = corridor(training_dataset)
        injector = FaultInjector(scenario)
        with pytest.raises(KeyError):
            injector.install(
                FaultProfile("p", (BrokerCrash("rsu-nope", at_s=1.0),))
            )


class TestChaosInvariants:
    def test_chaos_profile_conserves_every_record(
        self, training_dataset, audit_invariants
    ):
        """The acceptance fault profile (crash + kill + partition +
        burst loss, overlapping) must not lose a single record or
        warning unaccounted: everything sent is detected, dead on a
        crashed broker, still queued, or explicitly counted lost."""
        scenario = corridor(
            training_dataset,
            profile("chaos", 6.0),
            duration_s=6.0,
            n_vehicles=8,
        )
        scenario.run()
        report = audit_invariants(scenario)
        assert report.ok
        # The profile actually exercised the loss paths being audited.
        assert report.terms["telemetry"]["lost_on_air"] > 0
        assert any(
            terms["records_dead_on_crash"] > 0
            or terms["unconsumed"] > 0
            for name, terms in report.terms.items()
            if name.startswith("detection[")
        )

    def test_chaos_recovery_stays_inside_the_acceptance_bounds(
        self, training_dataset
    ):
        """The resilience acceptance bounds: crash to first
        post-restart detection within 2 simulated seconds, retries
        deduplicated to zero duplicate detections, nothing evicted from
        a retry buffer, and at least 80 % of the fault-free run's
        warnings still delivered."""
        report = resilience_corridor(
            "chaos",
            n_vehicles=8,
            duration_s=4.0,
            motorways=2,
            dataset=training_dataset,
        )
        assert report.recovery_time_s  # a broker did crash and recover
        assert report.max_recovery_time_s <= 2.0
        assert report.duplicate_detections == 0
        assert report.records_dropped == 0
        assert report.warning_delivery_ratio >= 0.80

    def test_fault_counters_track_injector_log(self, training_dataset):
        """With observability on, every injected fault shows up in the
        faults.injected{kind} counters, one per log entry."""
        from repro.obs.metrics import active, disable, enable

        scenario = corridor(
            training_dataset, profile("chaos", 4.0), duration_s=4.0
        )
        registry = enable()
        try:
            result = scenario.run()
        finally:
            disable()
        assert active() is None
        snap = registry.snapshot()
        by_kind = {}
        for entry in result.resilience.fault_log:
            by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
        assert by_kind, "chaos profile injected nothing"
        for kind, count in by_kind.items():
            assert snap.counter_value("faults.injected", kind=kind) == count
