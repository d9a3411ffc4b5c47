"""The invariant audit itself: conservation on clean runs, violation
detection when the books are cooked, report plumbing."""

import pytest

from repro.core.system import TestbedScenario
from repro.obs.audit import InvariantReport, assert_invariants, audit_scenario


def _small_corridor(**overrides):
    builder = (
        TestbedScenario.builder()
        .vehicles(overrides.pop("n_vehicles", 4))
        .duration(overrides.pop("duration_s", 2.0))
        .seed(5)
        .serde("struct")
    )
    for name, value in overrides.items():
        builder = getattr(builder, name)(value)
    return builder.corridor(motorways=2)


def test_clean_run_conserves_everything():
    scenario = _small_corridor()
    scenario.run()
    report = audit_scenario(scenario)
    assert report.ok
    assert report.failures == []
    terms = report.terms
    assert terms["telemetry"]["records_sent"] == sum(
        v.stats.records_sent for v in scenario.vehicles
    )
    # every named invariant produced terms
    assert "warnings" in terms
    assert any(name.startswith("detection[") for name in terms)
    assert any(name.startswith("collaboration[") for name in terms)


def test_handover_run_classifies_departed_warnings():
    scenario = _small_corridor(handover=0.5, duration_s=3.0)
    scenario.run()
    report = assert_invariants(scenario)
    # Handover happened: departures were recorded for the audit.
    assert any(v._departures for v in scenario.vehicles)
    warning_terms = report.terms["warnings"]
    assert warning_terms["warnings_emitted"] == (
        warning_terms["warnings_delivered"]
        + warning_terms["warnings_orphaned"]
        + warning_terms["warnings_late"]
        + warning_terms["warnings_pending"]
    )


def test_telemetry_law_counts_frames_the_channel_still_holds():
    """A run frozen between two micro-batch ticks, *without* the
    end-of-run flush: frames deferred on the channels (and those on the
    air) are neither appended nor lost yet, and the law balances only
    because the audit reads them off the channels."""
    scenario = _small_corridor(n_vehicles=16)
    until = scenario.config.duration_s
    for rsu in scenario.rsus.values():
        rsu.start(until=until)
    for vehicle in scenario.vehicles:
        vehicle.start(until=until)
    scenario.sim.run_until(1.337)
    for vehicle in scenario.vehicles:
        vehicle.stop()
    for rsu in scenario.rsus.values():
        rsu.stop()
    assert sum(c.pending_frames for c in scenario.channels.values()) > 0
    report = audit_scenario(scenario)
    assert report.ok, report.failures
    assert report.terms["telemetry"]["still_in_flight"] > 0


def test_cooked_books_are_caught():
    scenario = _small_corridor()
    scenario.run()
    # Claim one extra warning was issued: conservation must fail loudly.
    rsu = next(iter(scenario.rsus.values()))
    rsu.warnings_issued += 1
    report = audit_scenario(scenario)
    assert not report.ok
    assert any("warning" in failure for failure in report.failures)
    with pytest.raises(AssertionError, match="warning"):
        report.check()
    with pytest.raises(AssertionError):
        assert_invariants(scenario)
    rsu.warnings_issued -= 1  # restore (scenario objects are cheap, but be tidy)


def test_telemetry_violation_caught():
    scenario = _small_corridor()
    scenario.run()
    vehicle = scenario.vehicles[0]
    vehicle.stats.records_sent += 7
    report = audit_scenario(scenario)
    assert not report.ok
    assert any("telemetry" in failure for failure in report.failures)


def test_report_to_dict_shape():
    report = InvariantReport(
        terms={"telemetry": {"a": 1}}, failures=["broken"]
    )
    as_dict = report.to_dict()
    assert as_dict == {
        "ok": False,
        "terms": {"telemetry": {"a": 1}},
        "failures": ["broken"],
    }
