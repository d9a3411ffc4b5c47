"""Golden equivalence: the batched data plane vs the per-event path.

The batched data plane replaces per-frame DSRC transmit events and HTB
refills with deferred micro-batches (contention resolved at RSU
pre-poll ticks, lazy root-bucket accrual, template-patched delivery,
block uplink fetches).  The claim is not "approximately the same" but
**bit-identical**: the per-frame RNG draw order is preserved, so every
counter and every latency sample must match the event data plane
exactly under the same configuration.

These tests run the same seeded corridor through both dataplanes — with
and without a mid-run handover — and compare the outputs exactly, the
same shape of check as ``test_golden_equivalence.py`` applies to the
columnar refactor.

Both planes disseminate the same way — every poll is *settled*, none
run (``test_golden_dissemination.py`` holds that against the executed
recurrence) — and the comparison covers
the accounting too: broker downlink counters, per-vehicle consumer
positions and consumed counters, and the read state left on departed
brokers.  Dissemination mode and a fault-free retry policy are
independent of the dataplane, so ``notify`` and ``RetryPolicy()`` ride
the same comparison as further cases.
"""

import dataclasses

import pytest

from repro.core import vehicle as vehicle_module
from repro.core.scenario import ScenarioSpec, paper_corridor
from repro.core.system import TestbedScenario
from repro.faults import profile
from repro.fuzz.oracles import accounting_signature
from repro.geo import RoadType
from repro.core.vehicle import VehicleNode
from repro.streaming.producer import RetryPolicy


def _run_corridor(
    dataset,
    dataplane,
    serde_profile,
    handover_fraction=0.0,
    n_vehicles=4,
    prepare=None,
    stop_at=None,
    **spec_overrides,
):
    config = ScenarioSpec(
        n_vehicles=n_vehicles,
        duration_s=2.0,
        seed=7,
        handover_fraction=handover_fraction,
        columnar=True,
        serde_profile=serde_profile,
        dataplane=dataplane,
        **spec_overrides,
    )
    scenario = TestbedScenario.corridor(config, motorways=2, dataset=dataset)
    if prepare is not None:
        prepare(scenario)
    if stop_at is None:
        return scenario.run(), scenario
    # A run abandoned before the loops' ``until``: same teardown order
    # as ``run()``, minus the drain window.
    for rsu in scenario.rsus.values():
        rsu.start(until=config.duration_s)
    for vehicle in scenario.vehicles:
        vehicle.start(until=config.duration_s)
    scenario.sim.run_until(stop_at)
    for channel in scenario.channels.values():
        channel.flush(scenario.sim.now)
    for vehicle in scenario.vehicles:
        vehicle.stop()
    for rsu in scenario.rsus.values():
        rsu.stop()
    return None, scenario


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


def _assert_same_accounting(event_scenario, batched_scenario):
    event = accounting_signature(event_scenario)
    batched = accounting_signature(batched_scenario)
    assert event["brokers"] == batched["brokers"]
    assert event["vehicles"] == batched["vehicles"]
    # vacuity guard: vehicles fetched warnings that were not theirs
    assert sum(out for out, _ in batched["brokers"].values()) > sum(
        v.stats.warnings_received for v in batched_scenario.vehicles
    )


def _assert_bit_identical(event_run, batched_run):
    event_result, event_scenario = event_run
    batched_result, batched_scenario = batched_run
    assert _event_stream(event_scenario) == _event_stream(batched_scenario)
    _assert_same_accounting(event_scenario, batched_scenario)
    assert _vehicle_signature(event_result) == _vehicle_signature(
        batched_result
    )
    for name in event_result.rsu_metrics:
        event_m = event_result.rsu_metrics[name]
        batched_m = batched_result.rsu_metrics[name]
        assert event_m.warnings_issued == batched_m.warnings_issued
        assert event_m.n_events == batched_m.n_events
        assert event_m.summaries_sent == batched_m.summaries_sent
        assert event_m.summaries_received == batched_m.summaries_received
        assert event_m.bandwidth_in_bps == batched_m.bandwidth_in_bps
        assert event_m.mean_tx_ms == batched_m.mean_tx_ms
        assert event_m.mean_queuing_ms == batched_m.mean_queuing_ms
        assert event_m.mean_processing_ms == batched_m.mean_processing_ms
    # the batched run delivered actual warnings, not a trivially empty
    # trajectory that would make the comparison vacuous
    assert (
        sum(
            stats.warnings_received
            for stats in batched_result.vehicle_stats.values()
        )
        > 0
    )


@pytest.mark.parametrize(
    "serde_profile, overrides",
    [
        pytest.param("json", {}, id="json"),
        pytest.param("struct", {}, id="struct"),
        pytest.param("json", {"dissemination": "notify"}, id="json-notify"),
        pytest.param(
            "struct",
            {"dissemination": "notify", "handover_fraction": 0.5},
            id="struct-notify-handover",
        ),
        pytest.param(
            "struct", {"producer_retry": RetryPolicy()}, id="struct-retry"
        ),
        pytest.param(
            "json",
            {"producer_retry": RetryPolicy(), "handover_fraction": 0.25},
            id="json-retry-handover",
        ),
        pytest.param(
            "struct",
            {
                "dissemination": "notify",
                "producer_retry": RetryPolicy(),
                "handover_fraction": 0.25,
                "n_vehicles": 16,
            },
            id="struct-notify-retry-handover",
        ),
    ],
)
def test_batched_dataplane_is_bit_identical(
    labeled_dataset, serde_profile, overrides, audit_invariants
):
    """Same seeds, same serde: batched and per-event runs must agree on
    every event, warning, latency sample, and bandwidth counter —
    including the JSON profile, where template struct sends fall back to
    generic per-record serialization, and whatever the dissemination
    mode or (fault-free) retry policy."""
    event_run = _run_corridor(
        labeled_dataset, "event", serde_profile, **overrides
    )
    batched_run = _run_corridor(
        labeled_dataset, "batched", serde_profile, **overrides
    )
    audit_invariants(event_run[1])
    audit_invariants(batched_run[1])
    _assert_bit_identical(event_run, batched_run)


def test_batched_dataplane_survives_handover(labeled_dataset):
    """A mid-run handover migrates vehicles across RSUs: deferred frames
    must flush on the old channel (or be abandoned, if not yet
    effective), still bit-identically."""
    event_run = _run_corridor(
        labeled_dataset, "event", "struct", handover_fraction=0.5
    )
    batched_run = _run_corridor(
        labeled_dataset, "batched", "struct", handover_fraction=0.5
    )
    _assert_bit_identical(event_run, batched_run)
    # the handover actually happened (summaries crossed RSUs)
    assert any(
        m.summaries_received > 0
        for m in batched_run[0].rsu_metrics.values()
    )


def test_batched_dataplane_survives_trip_churn(labeled_dataset):
    """Vehicles spawned and retired mid-run: a retired vehicle's pending
    poll must not fire, and its skipped polls settle at retirement."""
    _, replay = TestbedScenario._train_replay_split(labeled_dataset)
    records = [r for r in replay if r.road_type is RoadType.MOTORWAY]

    def churn(scenario):
        scenario.spawn_vehicles("rsu-mw-1", 2, at_s=0.7, records=records)
        scenario.schedule_retire([1, 2, 9], at_s=1.2)

    event_run = _run_corridor(
        labeled_dataset, "event", "struct", handover_fraction=0.5,
        prepare=churn,
    )
    batched_run = _run_corridor(
        labeled_dataset, "batched", "struct", handover_fraction=0.5,
        prepare=churn,
    )
    _assert_bit_identical(event_run, batched_run)
    assert sum(v.retired for v in batched_run[1].vehicles) == 3
    assert len(batched_run[1].vehicles) == 14


def test_batched_dataplane_settles_when_stopped_early(labeled_dataset):
    """Stopping before the loops' ``until`` settles up to *now*, not up
    to ``until``."""
    _, event_scenario = _run_corridor(
        labeled_dataset, "event", "struct", handover_fraction=0.5,
        stop_at=1.337,
    )
    _, batched_scenario = _run_corridor(
        labeled_dataset, "batched", "struct", handover_fraction=0.5,
        stop_at=1.337,
    )
    _assert_same_accounting(event_scenario, batched_scenario)
    assert {
        v.car_id: (v.stats.warnings_received, v.stats.e2e_latencies_s)
        for v in event_scenario.vehicles
    } == {
        v.car_id: (v.stats.warnings_received, v.stats.e2e_latencies_s)
        for v in batched_scenario.vehicles
    }


def test_batched_dataplane_matches_under_truncated_polls(
    labeled_dataset, monkeypatch
):
    """A poll budget smaller than an emission batch: settlement cuts
    the poll short by the budget rule and a later grid instant reads
    what it left — on both dataplanes alike
    (``test_golden_dissemination.py`` holds the same budget against the
    executed recurrence)."""
    monkeypatch.setattr(vehicle_module, "_POLL_MAX_RECORDS", 3)
    delays = []
    receive = VehicleNode._receive_warning

    def recording(self, polled_at, detected_at, generated_at):
        delays.append(polled_at - detected_at)
        receive(self, polled_at, detected_at, generated_at)

    monkeypatch.setattr(VehicleNode, "_receive_warning", recording)
    event_run = _run_corridor(
        labeled_dataset, "event", "struct", handover_fraction=0.5,
        n_vehicles=24,
    )
    batched_run = _run_corridor(
        labeled_dataset, "batched", "struct", handover_fraction=0.5,
        n_vehicles=24,
    )
    _assert_bit_identical(event_run, batched_run)
    # the budget really cut polls short: with no outage, a warning read
    # more than a poll interval after its append was passed over by the
    # first grid instant that could have read it
    assert max(delays) > 0.010 + 1e-6


@pytest.mark.parametrize("serde_profile", ["struct", "json"])
def test_warning_memos_stay_bounded(
    labeled_dataset, serde_profile, monkeypatch
):
    """The broker-shared memos of ``notify`` wake-up polls, their one
    user (slab column scans under struct, decoded warnings under JSON),
    hold a few recent entries however long the run,
    and evicting cannot change a result: bound 1 gives the same run."""

    def run():
        config = ScenarioSpec(
            n_vehicles=12,
            duration_s=10.0,
            seed=7,
            columnar=True,
            serde_profile=serde_profile,
            dataplane="batched",
            dissemination="notify",
        )
        scenario = TestbedScenario.corridor(
            config, motorways=2, dataset=labeled_dataset
        )
        result = scenario.run()
        sizes = [len(getattr(r.broker, memo)) for r in scenario.rsus.values()]
        return _vehicle_signature(result), sizes, result

    struct = serde_profile == "struct"
    memo = "warning_scan_memo" if struct else "warning_decode_memo"
    monkeypatch.setattr(vehicle_module, "_DECODE_MEMO_ENTRIES", 16)
    signature, sizes, result = run()
    bound = vehicle_module._SCAN_MEMO_ENTRIES if struct else 16
    assert 0 < max(sizes) <= bound
    # far more entries were produced than are kept
    issued = [m.warnings_issued for m in result.rsu_metrics.values()]
    assert min(issued) > 4 * bound
    monkeypatch.setattr(vehicle_module, "_DECODE_MEMO_ENTRIES", 1)
    monkeypatch.setattr(vehicle_module, "_SCAN_MEMO_ENTRIES", 1)
    tight_signature, tight_sizes, _ = run()
    assert max(tight_sizes) == 1
    assert tight_signature == signature


@pytest.mark.parametrize("seed", [1, 2, 4, 9])
def test_handover_abandons_telemetry_of_the_old_road(seed, audit_invariants):
    """Four of scenario seeds 1-10 used to crash the paper corridor on
    both dataplanes: a motorway frame still waiting out an HTB delay or
    on the air at the handover reached the link RSU, whose detector has
    no model for it.  Such telemetry is abandoned — counted, so the
    telemetry conservation law still balances — and never delivered."""
    results = {}
    for dataplane in ("event", "batched"):
        spec = dataclasses.replace(
            paper_corridor().build(),
            n_vehicles=128,
            duration_s=4.0,
            serde_profile="struct",
            seed=seed,
            dataplane=dataplane,
            observability=True,
        )
        scenario = TestbedScenario.corridor(spec)
        result = scenario.run()
        audit_invariants(scenario)
        assert result.resilience.records_abandoned > 0
        results[dataplane] = (
            result.resilience.records_abandoned,
            _vehicle_signature(result),
            accounting_signature(scenario),
        )
    assert results["event"] == results["batched"]


def test_batched_dataplane_rejects_unsupported_configs():
    """The batched plane is explicit about what it does not model."""
    with pytest.raises(ValueError, match="batched dataplane"):
        ScenarioSpec(n_vehicles=2, duration_s=1.0, dataplane="batched", shards=2)
    with pytest.raises(ValueError, match="batched dataplane"):
        ScenarioSpec(
            n_vehicles=2,
            duration_s=1.0,
            dataplane="batched",
            faults=profile("chaos", 1.0),
        )
    with pytest.raises(ValueError, match="unknown dataplane"):
        ScenarioSpec(n_vehicles=2, duration_s=1.0, dataplane="turbo")
