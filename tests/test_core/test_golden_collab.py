"""Golden equivalence: a disabled collaboration plane changes nothing.

The bandwidth-adaptive CO-DATA plane (:mod:`repro.core.collab`) is
opt-in: a :class:`CollabConfig` whose gating, delta-encoding, and
priority features are all off (and whose mode is the seed's
handover-only forwarding) must leave every engine bit-for-bit on the
PR 6/PR 7 baseline path — the RSU constructs no plane, the CO-DATA
serde stays unframed, and no refresh recurrence is scheduled.

These tests run the same seeded corridor with *no* collab config and
with an explicitly *disabled* one, and compare exactly — the serial
corridor, the shards=4 engine against serial, and the city engine.
"""

import pytest

from repro.core.collab import CollabConfig
from repro.core.scenario import ScenarioBuilder, paper_corridor
from repro.core.system import TestbedScenario


def _builder(collab):
    builder = (
        ScenarioBuilder()
        .vehicles(4)
        .duration(2.0)
        .seed(7)
        .handover(0.5)
        .serde("struct")
    )
    if collab is not None:
        builder = builder.collab(collab)
    return builder


def _run_corridor(dataset, collab):
    scenario = _builder(collab).corridor(motorways=2, dataset=dataset)
    return scenario.run(), scenario


def _event_stream(scenario):
    return {
        name: [
            (
                e.car_id,
                e.generated_at,
                e.arrived_at,
                e.detected_at,
                e.abnormal,
                e.true_label,
            )
            for e in rsu.events
        ]
        for name, rsu in scenario.rsus.items()
    }


def _vehicle_signature(result):
    return {
        car: (
            stats.records_sent,
            stats.bytes_sent,
            stats.warnings_received,
            stats.records_lost,
            stats.poll_failures,
            stats.e2e_latencies_s,
            stats.dissemination_latencies_s,
        )
        for car, stats in result.vehicle_stats.items()
    }


def _assert_bit_identical(baseline_run, collab_run):
    baseline_result, baseline_scenario = baseline_run
    collab_result, collab_scenario = collab_run
    assert _event_stream(baseline_scenario) == _event_stream(collab_scenario)
    assert _vehicle_signature(baseline_result) == _vehicle_signature(
        collab_result
    )
    for name in baseline_result.rsu_metrics:
        baseline_m = baseline_result.rsu_metrics[name]
        collab_m = collab_result.rsu_metrics[name]
        assert collab_m.warnings_issued == baseline_m.warnings_issued
        assert collab_m.n_events == baseline_m.n_events
        assert collab_m.summaries_sent == baseline_m.summaries_sent
        assert collab_m.summaries_received == baseline_m.summaries_received
        assert collab_m.bandwidth_in_bps == baseline_m.bandwidth_in_bps
        assert collab_m.mean_tx_ms == baseline_m.mean_tx_ms
        assert collab_m.mean_queuing_ms == baseline_m.mean_queuing_ms
        # A disabled plane must not even *account* — the co counters
        # stay zero, exactly as on main before the plane existed.
        assert collab_m.co_bytes_sent == 0
        assert collab_m.co_bytes_suppressed == 0
        assert collab_m.co_msgs_gated == 0
        assert collab_m.co_stale_dropped == 0
    assert (
        sum(
            stats.warnings_received
            for stats in collab_result.vehicle_stats.values()
        )
        > 0
    )


class TestDisabledPlaneIsInert:
    def test_default_config_is_disabled(self):
        assert not CollabConfig().enabled

    def test_rsu_constructs_no_plane(self, labeled_dataset):
        _, scenario = _run_corridor(labeled_dataset, CollabConfig())
        for rsu in scenario.rsus.values():
            assert rsu.collab is None

    def test_corridor_bit_identical(self, labeled_dataset, audit_invariants):
        """No-config vs disabled-config: every event, warning, latency
        sample, and bandwidth counter agrees."""
        baseline_run = _run_corridor(labeled_dataset, None)
        collab_run = _run_corridor(labeled_dataset, CollabConfig())
        audit_invariants(baseline_run[1])
        audit_invariants(collab_run[1])
        _assert_bit_identical(baseline_run, collab_run)

    def test_sharded_bit_identical_to_serial(self, labeled_dataset):
        """shards=4 with a disabled config must reproduce the serial
        no-config run warning-for-warning."""
        serial_scenario = (
            paper_corridor()
            .vehicles(8)
            .duration(2.0)
            .serde("struct")
            .corridor(motorways=2, dataset=labeled_dataset)
        )
        serial_result = serial_scenario.run()
        serial_warnings = {
            name: rsu.warning_log()
            for name, rsu in serial_scenario.rsus.items()
        }
        sharded_scenario = (
            paper_corridor()
            .vehicles(8)
            .duration(2.0)
            .serde("struct")
            .collab(CollabConfig())
            .shards(4)
            .corridor(motorways=2, dataset=labeled_dataset)
        )
        sharded_result = sharded_scenario.run()
        assert sharded_scenario.warning_logs == serial_warnings
        assert sum(len(w) for w in serial_warnings.values()) > 0
        assert _vehicle_signature(sharded_result) == _vehicle_signature(
            serial_result
        )

    def test_city_digest_unaffected(self):
        """The city engine ignores the collab field today; pin that a
        disabled config in the builder leaves its digest untouched."""
        baseline = (
            TestbedScenario.builder()
            .seed(3)
            .duration(300.0)
            .city(count_scale=0.01)
            .run()
        )
        with_config = (
            TestbedScenario.builder()
            .seed(3)
            .duration(300.0)
            .collab(CollabConfig())
            .city(count_scale=0.01)
            .run()
        )
        assert with_config.digest_signature() == baseline.digest_signature()
        assert with_config.warnings_total == baseline.warnings_total
        assert baseline.audit() == []


class TestEnabledSpecValidation:
    def test_enabled_plane_rejects_faults(self):
        from repro.core.scenario import ScenarioSpec
        from repro.faults.events import FaultProfile

        with pytest.raises(ValueError, match="fault-free"):
            ScenarioSpec(
                n_vehicles=4,
                duration_s=2.0,
                collab=CollabConfig(mode="refresh"),
                faults=FaultProfile(name="noop", events=()),
            )

    def test_priority_requires_htb(self):
        from repro.core.scenario import ScenarioSpec

        with pytest.raises(ValueError, match="use_htb"):
            ScenarioSpec(
                n_vehicles=4,
                duration_s=2.0,
                use_htb=False,
                collab=CollabConfig(mode="refresh", priority=True),
            )
