"""Golden pins of the telemetry uplink, written by the path it replaced.

The corridor has one uplink: frames are deferred on the DSRC channel
and their contention is resolved once per RSU pre-poll flush, HTB is
charged lazily, delivery patches a pre-serialized template.  Until the
per-frame event uplink was deleted the two were run side by side and
compared exactly; every pin in ``golden_uplink_pins.json`` is the
sha256 the **event** uplink produced for the case, on the last tree
that had both.  The claim they carry is not "approximately the same"
but bit-identical: same per-frame RNG draw order, so every event,
warning, latency sample, broker counter and consumer position matches.

A frame may wait for the next flush only while nothing can tell
(``docs/ARCHITECTURE.md``, "When a frame may wait").  The cases the
block uplink could not run before that rule had its mechanisms —
fault profiles, ``schedule_failover``, a crash with shaper-delayed
frames, a cross-shard handover with abandoned frames — are pinned here
too, each with the guard that shows it is not vacuous.

The event uplink is gone, so nothing can write such a pin again: a
deliberate behaviour change edits ``golden_uplink_pins.json`` by hand,
in a reviewed diff.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core import vehicle as vehicle_module
from repro.core.scenario import (
    DEFAULT_UPSTREAM_TIMEOUT_S,
    ScenarioSpec,
    paper_corridor,
)
from repro.core.system import TestbedScenario, collect_rsu_metrics
from repro.core.vehicle import VehicleNode
from repro.faults import BrokerCrash, FaultProfile, corridor_profiles
from repro.fuzz.oracles import accounting_signature, sharded_signature
from repro.geo import RoadType
from repro.net.dsrc import DsrcChannel
from repro.parallel.engine import ShardedScenario
from repro.streaming.producer import RetryPolicy

PINS = json.loads(
    Path(__file__).with_name("golden_uplink_pins.json").read_text()
)


def _build(
    dataset,
    serde_profile,
    handover_fraction=0.0,
    n_vehicles=4,
    prepare=None,
    **spec_overrides,
):
    config = ScenarioSpec(
        n_vehicles=n_vehicles,
        duration_s=2.0,
        seed=7,
        handover_fraction=handover_fraction,
        columnar=True,
        serde_profile=serde_profile,
        **spec_overrides,
    )
    scenario = TestbedScenario.corridor(config, motorways=2, dataset=dataset)
    if prepare is not None:
        prepare(scenario)
    return scenario


def _run(dataset, serde_profile, **kwargs):
    scenario = _build(dataset, serde_profile, **kwargs)
    return scenario.run(), scenario


def _run_until(scenario, stop_at):
    """A run abandoned before the loops' ``until``: ``run()`` minus the
    drain window."""
    until = scenario.config.duration_s
    for rsu in scenario.rsus.values():
        rsu.start(until=until)
    for vehicle in scenario.vehicles:
        vehicle.start(until=until)
    scenario.sim.run_until(stop_at)
    scenario.wind_down()


def _faulty(name, duration_s=2.0):
    """Spec fields of a run under a named fault profile, with the
    delivery guarantees ``ScenarioBuilder.faults`` switches on."""
    return {
        "faults": corridor_profiles(duration_s)[name],
        "producer_retry": RetryPolicy(),
        "upstream_timeout_s": DEFAULT_UPSTREAM_TIMEOUT_S,
    }


def _event_stream(scenario):
    return {
        name: [
            (
                e.car_id,
                e.generated_at,
                e.arrived_at,
                e.detected_at,
                bool(e.abnormal),
                None if e.true_label is None else int(e.true_label),
            )
            for e in rsu.events
        ]
        for name, rsu in scenario.rsus.items()
    }


def _vehicle_signature(scenario):
    return {
        str(v.car_id): (
            v.stats.records_sent,
            v.stats.bytes_sent,
            v.stats.warnings_received,
            v.stats.records_lost,
            v.stats.poll_failures,
            v.stats.e2e_latencies_s,
            v.stats.dissemination_latencies_s,
        )
        for v in scenario.vehicles
    }


def _rsu_metrics(scenario):
    metrics = collect_rsu_metrics(scenario.rsus, scenario.config.duration_s)
    return {
        name: (
            m.warnings_issued,
            m.n_events,
            m.summaries_sent,
            m.summaries_received,
            m.bandwidth_in_bps,
            m.mean_tx_ms,
            m.mean_queuing_ms,
            m.mean_processing_ms,
        )
        for name, m in metrics.items()
    }


def _sha256(payload):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _digest(scenario):
    """Everything the two uplinks were compared on, as one sha256:
    every detection event, every vehicle's counters and latency
    samples, broker downlink counters and consumer positions (also
    those left on departed brokers), the eight RSU metrics."""
    return _sha256(
        {
            "events": _event_stream(scenario),
            "vehicles": _vehicle_signature(scenario),
            "accounting": accounting_signature(scenario),
            "rsu_metrics": _rsu_metrics(scenario),
        }
    )


def _assert_pinned(case, digest):
    assert digest == PINS[case], f"{case}: uplink drifted from its pin"


def _warnings_received(scenario):
    return sum(v.stats.warnings_received for v in scenario.vehicles)


def _assert_not_vacuous(scenario):
    # actual warnings were delivered, and vehicles fetched warnings
    # that were not theirs (the accounting has something to disagree on)
    assert _warnings_received(scenario) > 0
    assert sum(
        rsu.broker.records_out for rsu in scenario.rsus.values()
    ) > _warnings_received(scenario)


# ----------------------------------------------------------------------
# Fault-free cases (the block uplink ran these before; pins replace the
# second run they were compared to)
# ----------------------------------------------------------------------
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
    labeled_dataset, serde_profile, overrides, audit_invariants, request
):
    """Same seeds, same serde: every event, warning, latency sample and
    bandwidth counter as the per-event uplink produced them — including
    the JSON profile, where template struct sends fall back to generic
    per-record serialization, and whatever the dissemination mode or
    (fault-free) retry policy."""
    _, scenario = _run(labeled_dataset, serde_profile, **overrides)
    audit_invariants(scenario)
    _assert_not_vacuous(scenario)
    _assert_pinned(f"fault_free[{request.node.callspec.id}]", _digest(scenario))


def test_batched_dataplane_survives_handover(labeled_dataset):
    """A mid-run handover migrates vehicles across RSUs: deferred frames
    must flush on the old channel (or be abandoned, if not yet
    effective), still bit-identically."""
    result, scenario = _run(labeled_dataset, "struct", handover_fraction=0.5)
    _assert_not_vacuous(scenario)
    # the handover actually happened (summaries crossed RSUs)
    assert any(m.summaries_received > 0 for m in result.rsu_metrics.values())
    _assert_pinned("handover", _digest(scenario))


def test_batched_dataplane_survives_trip_churn(labeled_dataset):
    """Vehicles spawned and retired mid-run: a retired vehicle's pending
    poll must not fire, and its skipped polls settle at retirement."""
    _, replay = TestbedScenario._train_replay_split(labeled_dataset)
    records = [r for r in replay if r.road_type is RoadType.MOTORWAY]

    def churn(scenario):
        scenario.spawn_vehicles("rsu-mw-1", 2, at_s=0.7, records=records)
        scenario.schedule_retire([1, 2, 9], at_s=1.2)

    _, scenario = _run(
        labeled_dataset, "struct", handover_fraction=0.5, prepare=churn
    )
    _assert_not_vacuous(scenario)
    assert sum(v.retired for v in scenario.vehicles) == 3
    assert len(scenario.vehicles) == 14
    _assert_pinned("trip_churn", _digest(scenario))


def test_batched_dataplane_settles_when_stopped_early(labeled_dataset):
    """Stopping before the loops' ``until`` settles up to *now*, not up
    to ``until``."""
    scenario = _build(labeled_dataset, "struct", handover_fraction=0.5)
    _run_until(scenario, 1.337)
    _assert_not_vacuous(scenario)
    _assert_pinned("stopped_early", _digest(scenario))


def test_batched_dataplane_matches_under_truncated_polls(
    labeled_dataset, monkeypatch
):
    """A poll budget smaller than an emission batch: settlement cuts
    the poll short by the budget rule and a later grid instant reads
    what it left (``test_golden_dissemination.py`` holds the same
    budget against the executed recurrence)."""
    monkeypatch.setattr(vehicle_module, "_POLL_MAX_RECORDS", 3)
    delays = []
    receive = VehicleNode._receive_warning

    def recording(self, polled_at, detected_at, generated_at):
        delays.append(polled_at - detected_at)
        receive(self, polled_at, detected_at, generated_at)

    monkeypatch.setattr(VehicleNode, "_receive_warning", recording)
    _, scenario = _run(
        labeled_dataset, "struct", handover_fraction=0.5, n_vehicles=24
    )
    _assert_not_vacuous(scenario)
    # the budget really cut polls short: with no outage, a warning read
    # more than a poll interval after its append was passed over by the
    # first grid instant that could have read it
    assert max(delays) > 0.010 + 1e-6
    _assert_pinned("truncated_polls", _digest(scenario))


@pytest.mark.parametrize("seed", [1, 2, 4, 9])
def test_handover_abandons_telemetry_of_the_old_road(seed, audit_invariants):
    """Four of scenario seeds 1-10 used to crash the paper corridor: a
    motorway frame still waiting out an HTB delay or on the air at the
    handover reached the link RSU, whose detector has no model for it.
    Such telemetry is abandoned — counted, so the telemetry
    conservation law still balances — and never delivered."""
    spec = dataclasses.replace(
        paper_corridor().build(),
        n_vehicles=128,
        duration_s=4.0,
        serde_profile="struct",
        seed=seed,
        observability=True,
    )
    scenario = TestbedScenario.corridor(spec)
    result = scenario.run()
    audit_invariants(scenario)
    assert result.resilience.records_abandoned > 0
    _assert_pinned(
        f"old_road[{seed}]",
        _sha256(
            [
                result.resilience.records_abandoned,
                _vehicle_signature(scenario),
                accounting_signature(scenario),
            ]
        ),
    )


# ----------------------------------------------------------------------
# When a frame may not wait: the five cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("serde_profile", ["struct", "json"])
@pytest.mark.parametrize("name", sorted(corridor_profiles()))
def test_fault_profiles_equal_the_event_uplink(
    labeled_dataset, name, serde_profile, audit_invariants
):
    """Every named fault profile, with a handover in the run.  While a
    broker is down or losing acks, or a producer holds a backlog, each
    frame resolves at its own instant (``flush_at``): refusal, buffer
    entry, backoff timer, ack loss and eviction happen when they did
    on the event uplink."""
    result, scenario = _run(
        labeled_dataset,
        serde_profile,
        handover_fraction=0.25,
        n_vehicles=8,
        **_faulty(name),
    )
    audit_invariants(scenario)
    _assert_not_vacuous(scenario)
    assert result.resilience.fault_log
    if "crash" in name or name == "chaos":
        assert result.resilience.records_retried > 0
    _assert_pinned(f"faults[{name}-{serde_profile}]", _digest(scenario))


def test_chaos_under_notify_equals_the_event_uplink(labeled_dataset):
    result, scenario = _run(
        labeled_dataset,
        "struct",
        handover_fraction=0.25,
        n_vehicles=8,
        dissemination="notify",
        **_faulty("chaos"),
    )
    _assert_not_vacuous(scenario)
    assert result.resilience.records_retried > 0
    _assert_pinned("faults[chaos-struct-notify]", _digest(scenario))


@pytest.mark.parametrize("at_s", [0.9, 0.93, 1.01])
def test_failover_settles_the_channel_first(labeled_dataset, at_s):
    """``schedule_failover`` shuts a broker outside the fault injector.
    ``RsuNode.fail`` settles the uplink first: without that hook the
    frames the event uplink had delivered by ``at_s`` reach a broker
    already shut (8 / 4 / 1 records lost at these three instants)."""
    result, scenario = _run(
        labeled_dataset,
        "struct",
        n_vehicles=16,
        prepare=lambda s: s.schedule_failover("rsu-mw-1", "rsu-mw-2", at_s),
    )
    _assert_not_vacuous(scenario)
    assert scenario.rsus["rsu-mw-1"].failed
    assert result.resilience.records_lost == 0
    _assert_pinned(f"failover[{at_s}]", _digest(scenario))


def test_frame_on_the_air_across_a_failover(labeled_dataset):
    """The failover lands while a vehicle of the failed RSU has a frame
    on the air; its delivery, 0.1 ms later, appends to the fallback
    broker.  Frames other vehicles sent to the fallback RSU since its
    last tick deliver earlier and are still waiting for a flush: the
    delivery flushes the vehicle's new channel first, or the fallback's
    IN-DATA holds them in the wrong order."""
    at_s = 0.91385
    seen = {}

    def prepare(scenario):
        scenario.schedule_failover("rsu-mw-1", "rsu-mw-2", at_s)

        def look():
            old, new = (scenario.channels[n] for n in ("rsu-mw-1", "rsu-mw-2"))
            seen["on_air"] = [due for due, _ in old._on_air.values()]
            seen["waiting"] = [frame[0] for frame in new._pending]

        scenario.sim.at(at_s, look, label="look")

    result, scenario = _run(
        labeled_dataset, "struct", n_vehicles=16, prepare=prepare
    )
    _assert_not_vacuous(scenario)
    assert result.resilience.records_lost == 0
    # a frame was on the air, and one that reached the fallback's medium
    # before it lands was still deferred there
    assert seen["on_air"] and min(seen["waiting"]) < min(seen["on_air"])
    _assert_pinned("failover_frame_on_air", _digest(scenario))


def test_crash_with_shaper_delayed_frames(labeled_dataset, monkeypatch):
    """A starved HTB root delays frames past the instant they were
    sent; a crash then finds frames that are not on the medium yet, and
    ``settle`` gives each its own flush event."""
    carried = []
    settle = DsrcChannel.settle

    def recording(channel):
        settle(channel)
        carried.append(channel.pending_frames)

    monkeypatch.setattr(DsrcChannel, "settle", recording)

    def starve(scenario):
        for shaper in scenario.shapers.values():
            shaper.root.rate_bps = 60_000.0
            shaper.root.burst_bytes = shaper.root.tokens = 0.0
            for leaf in shaper.leaves():
                leaf.burst_bytes = leaf.tokens = 150.0

    crash = FaultProfile(
        "crash", (BrokerCrash("rsu-mw-1", at_s=0.9, restart_after_s=0.3),)
    )
    result, scenario = _run(
        labeled_dataset,
        "json",
        handover_fraction=0.25,
        n_vehicles=8,
        htb_floor_bps=12_000.0,
        prepare=starve,
        faults=crash,
        producer_retry=RetryPolicy(),
    )
    _assert_not_vacuous(scenario)
    assert result.resilience.records_abandoned > 0
    assert result.resilience.records_retried > 0
    _assert_pinned("crash_shaper_delayed", _digest(scenario))
    # frames were shaper-delayed across the crash
    assert carried and max(carried) > 0


def test_cross_shard_handover_abandons_frames_on_the_air(labeled_dataset):
    """``detach`` flushes the channel, then ships the due times of the
    vehicle's frames still on the air and still shaper-delayed; the
    receiving shard counts them abandoned, as the serial handover
    does."""
    spec = dataclasses.replace(
        paper_corridor().build(),
        n_vehicles=128,
        duration_s=2.0,
        serde_profile="struct",
        seed=1,
        shards=2,
    )
    scenario = ShardedScenario(spec)
    result = scenario.run()
    assert result.resilience.records_abandoned > 0
    _assert_pinned(
        "two_shards_abandoned",
        _sha256(
            [
                result.resilience.records_abandoned,
                sharded_signature(scenario, result),
            ]
        ),
    )


# ----------------------------------------------------------------------
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
            dissemination="notify",
        )
        scenario = TestbedScenario.corridor(
            config, motorways=2, dataset=labeled_dataset
        )
        result = scenario.run()
        sizes = [len(getattr(r.broker, memo)) for r in scenario.rsus.values()]
        return _vehicle_signature(scenario), sizes, result

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

