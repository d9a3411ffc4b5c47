"""Golden equivalence: the block hot path vs the per-record path.

The perf refactor (TelemetryBlock / DetectionEventLog / struct serdes) must be behaviour-preserving, not just approximately
right: same verdicts, same warning stream, same handover summaries,
same latency statistics, bit for bit.  These tests run the same seeded
scenario on the RSU's block path and on the per-record reference body
(``oracles.use_per_record_rsu``), under each serde, and compare the
outputs exactly.
"""

import numpy as np
import pytest

from repro.core.block import DetectionEventLog
from repro.dataset.schema import NO_LABEL, TelemetryBlock
from repro.core.detector import AD3Detector
from repro.core.rsu import DetectionEvent
from repro.core.scenario import ScenarioSpec
from repro.core.system import TestbedScenario
from repro.geo.roadnet import RoadType
from tests.test_core.oracles import use_per_record_rsu


# ----------------------------------------------------------------------
# Records and blocks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def motorway_split(trip_split):
    train, test = trip_split
    return (
        [r for r in train if r.road_type is RoadType.MOTORWAY],
        [r for r in test if r.road_type is RoadType.MOTORWAY][:400],
    )


def test_block_round_trips_records(motorway_split):
    import dataclasses

    _, test = motorway_split
    block = TelemetryBlock.from_records(test)
    # trip_id is not a wire field (record_to_payload drops it too), so
    # the block round-trips every field the wire carries, exactly.
    expected = [dataclasses.replace(r, trip_id=0) for r in test]
    assert block.records() == expected
    assert len(block) == len(test)


def test_block_road_type_check_matches_record_check(motorway_split):
    train, _ = motorway_split
    detector = AD3Detector(RoadType.MOTORWAY_LINK)
    block = TelemetryBlock.from_records(train[:5])
    with pytest.raises(ValueError, match="motorway"):
        detector._check_block_road_type(block)


# ----------------------------------------------------------------------
# Event-log equivalence
# ----------------------------------------------------------------------
def test_event_log_matches_list_semantics():
    log = DetectionEventLog()
    event = DetectionEvent(
        car_id=3,
        generated_at=1.0,
        arrived_at=1.1,
        detected_at=1.2,
        abnormal=True,
        true_label=0,
    )
    log.append(event)
    log.append_block(
        car_ids=np.array([4, 5]),
        generated_at=np.array([2.0, 2.1]),
        arrived_at=np.array([2.2, 2.3]),
        detected_at=2.5,
        abnormal=np.array([False, True]),
        labels=np.array([1, NO_LABEL], dtype=np.int8),
    )
    assert len(log) == 3
    events = list(log)
    assert events[0] == event
    assert events[1] == DetectionEvent(4, 2.0, 2.2, 2.5, False, 1)
    assert events[2] == DetectionEvent(5, 2.1, 2.3, 2.5, True, None)
    # materialized values are plain python types, like the legacy path
    assert isinstance(events[1].car_id, int)
    assert isinstance(events[1].generated_at, float)
    assert isinstance(events[2].abnormal, bool)
    # vectorized accessors agree with the materialized objects
    assert log.tx_s().tolist() == [e.tx_s for e in events]
    assert log.queuing_s().tolist() == [e.queuing_s for e in events]
    assert log.abnormal().tolist() == [True, False, True]


# ----------------------------------------------------------------------
# Full-scenario equivalence (the golden test)
# ----------------------------------------------------------------------
def _run_corridor(dataset, serde_profile):
    config = ScenarioSpec(
        n_vehicles=4,
        duration_s=2.0,
        seed=7,
        handover_fraction=0.5,
        serde_profile=serde_profile,
    )
    scenario = TestbedScenario.corridor(config, motorways=2, dataset=dataset)
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
            stats.warnings_received,
            stats.e2e_latencies_s,
            stats.dissemination_latencies_s,
        )
        for car, stats in result.vehicle_stats.items()
    }


@pytest.mark.parametrize("serde_profile", ["json", "struct"])
def test_columnar_pipeline_is_bit_identical(
    labeled_dataset, serde_profile, audit_invariants, monkeypatch
):
    """Same seeds, same serde: block and per-record runs must agree on
    every event, warning, summary count, and latency sample."""
    with monkeypatch.context() as patch:
        per_record = use_per_record_rsu(patch)
        legacy_result, legacy_scenario = _run_corridor(
            labeled_dataset, serde_profile
        )
    columnar_result, columnar_scenario = _run_corridor(
        labeled_dataset, serde_profile
    )
    # not vacuous: the reference detected every record of the run
    assert sum(per_record) == sum(
        len(rsu.events) for rsu in legacy_scenario.rsus.values()
    ) > 0
    # Both engines must also conserve every record and warning.
    audit_invariants(legacy_scenario)
    audit_invariants(columnar_scenario)
    assert _event_stream(legacy_scenario) == _event_stream(columnar_scenario)
    assert _vehicle_signature(legacy_result) == _vehicle_signature(
        columnar_result
    )
    for name in legacy_result.rsu_metrics:
        legacy_m = legacy_result.rsu_metrics[name]
        columnar_m = columnar_result.rsu_metrics[name]
        assert legacy_m.warnings_issued == columnar_m.warnings_issued
        assert legacy_m.summaries_sent == columnar_m.summaries_sent
        assert legacy_m.summaries_received == columnar_m.summaries_received
        assert legacy_m.mean_tx_ms == columnar_m.mean_tx_ms
        assert legacy_m.mean_queuing_ms == columnar_m.mean_queuing_ms
    # detection quality reports agree too
    for name, rsu in legacy_scenario.rsus.items():
        legacy_report = rsu.detection_report()
        columnar_report = columnar_scenario.rsus[name].detection_report()
        if legacy_report is None:
            assert columnar_report is None
        else:
            assert legacy_report.accuracy == columnar_report.accuracy
            assert legacy_report.f1 == columnar_report.f1


def test_struct_profile_preserves_verdicts(labeled_dataset):
    """Across serdes the wire format changes (sizes, hence tx times),
    but every verdict, warning, and summary count must match: both
    formats round-trip the Table II values exactly."""
    json_result, json_scenario = _run_corridor(labeled_dataset, "json")
    struct_result, struct_scenario = _run_corridor(labeled_dataset, "struct")
    for name, rsu in json_scenario.rsus.items():
        other = struct_scenario.rsus[name]
        assert [e.car_id for e in rsu.events] == [
            e.car_id for e in other.events
        ]
        assert [e.abnormal for e in rsu.events] == [
            e.abnormal for e in other.events
        ]
        assert rsu.warnings_issued == other.warnings_issued
        assert rsu.summaries_sent == other.summaries_sent
    # struct telemetry is well under half the JSON size on the wire
    json_bw = json_result.total_bandwidth_bps()
    struct_bw = struct_result.total_bandwidth_bps()
    assert struct_bw < 0.5 * json_bw


def test_warning_threshold_streak_equivalence(labeled_dataset, monkeypatch):
    """The block path's streak recurrence must debounce exactly like the
    per-record loop when warning_threshold > 1."""

    def run():
        config = ScenarioSpec(n_vehicles=6, duration_s=2.0, seed=11)
        scenario = TestbedScenario.single_rsu(config, dataset=labeled_dataset)
        for rsu in scenario.rsus.values():
            rsu.config.warning_threshold = 3
        result = scenario.run()
        return (
            {n: m.warnings_issued for n, m in result.rsu_metrics.items()},
            _event_stream(scenario),
        )

    with monkeypatch.context() as patch:
        batches = use_per_record_rsu(patch)
        per_record = run()
    assert sum(batches) > 0
    assert per_record == run()
