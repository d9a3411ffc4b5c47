"""Golden equivalence: the virtual poll grid vs every poll executed.

A polling vehicle runs none of its 10 ms polls; each is *settled* — its
position advances and fetched / consumed counters reproduced from the
partitions' append clocks, its refusal by a down broker counted from
the broker's outage log, the warnings for this car it read received
with the grid instant as their time.  ``VehicleNode.legacy_tick`` keeps
the real recurrence (the seed's loop: one simulator event per poll,
each record deserialized per vehicle) and is the live oracle here: the
same seeded
corridor runs both ways and must agree on every vehicle counter and
latency sample — ``poll_failures`` included, which no digest covers —
on the resilience accounting, on every RSU's warning log, and on the
downlink accounting (broker ``records_out`` / ``bytes_out``, consumer
positions, the read state left on departed brokers).

The hazards pinned, each by the scenario that would expose it: polls
refused inside an outage; a warning appended just before a crash,
which the first poll after the restart reads; outages spanning a
handover, open at a retirement and open at the end of an abandoned run; a poll budget
smaller than an emission batch; and the cross-shard handover, where
the sending shard settles before it ships the next grid instant.
"""

import dataclasses

import pytest

from repro.core import vehicle as vehicle_module
from repro.core.scenario import ScenarioBuilder
from repro.core.vehicle import VehicleNode
from repro.faults.events import (
    BrokerCrash,
    FaultProfile,
    RsuKill,
    corridor_profiles,
)
from repro.faults.injector import FaultInjector
from repro.fuzz.oracles import accounting_signature
from repro.geo import RoadType
from repro.simkernel import Simulator

DURATION_S = 3.0  # the handover fires at 1.5 s


def _scenario(dataset, faults=None, n_vehicles=6, prepare=None):
    builder = (
        ScenarioBuilder()
        .vehicles(n_vehicles)
        .duration(DURATION_S)
        .seed(7)
        .serde("struct")
        .handover(0.5)
    )
    if faults is not None:
        builder = builder.faults(faults)
    scenario = builder.corridor(motorways=2, dataset=dataset)
    if prepare is not None:
        prepare(scenario)
    return scenario


def _run_until(scenario, stop_at):
    """``run()`` abandoned at ``stop_at``, before the loops' ``until``:
    same start and teardown order, no drain window."""
    config = scenario.config
    if config.faults is not None:
        scenario._injector = FaultInjector(scenario)
        scenario._injector.install(config.faults)
    for rsu in scenario.rsus.values():
        rsu.start(until=config.duration_s)
    for vehicle in scenario.vehicles:
        vehicle.start(until=config.duration_s)
    scenario.sim.run_until(stop_at)
    scenario.wind_down()


def _observables(scenario):
    return {
        "vehicles": {
            v.car_id: dataclasses.asdict(v.stats) for v in scenario.vehicles
        },
        "resilience": scenario._collect_resilience().to_dict(),
        "warnings": {
            name: rsu.warning_log() for name, rsu in scenario.rsus.items()
        },
        "accounting": accounting_signature(scenario),
    }


def _both_ways(dataset, monkeypatch, stop_at=None, **kwargs):
    """The scenario on the virtual grid and on the executed recurrence;
    returns ``(virtual, executed)`` finished scenarios."""
    scenarios = []
    for legacy in (False, True):
        with monkeypatch.context() as patch:
            patch.setattr(VehicleNode, "legacy_tick", legacy)
            scenario = _scenario(dataset, **kwargs)
        if stop_at is None:
            scenario.run()
        else:
            _run_until(scenario, stop_at)
        scenarios.append(scenario)
    return scenarios


def _assert_same(virtual, executed):
    ours, oracle = _observables(virtual), _observables(executed)
    for aspect in oracle:
        assert ours[aspect] == oracle[aspect], aspect
    # not vacuous: the oracle really ran every poll, the grid did not
    assert virtual.sim.events_fired < executed.sim.events_fired / 2
    assert sum(v.stats.warnings_received for v in virtual.vehicles) > 0


def _record_receipts(monkeypatch):
    """Every ``(car, poll instant, detected_at)`` a vehicle receives,
    whichever way the poll that read it came about."""
    receipts = []
    receive = VehicleNode._receive_warning

    def recording(self, polled_at, detected_at, generated_at):
        receipts.append((self.car_id, polled_at, detected_at))
        receive(self, polled_at, detected_at, generated_at)

    monkeypatch.setattr(VehicleNode, "_receive_warning", recording)
    return receipts


def _poll_failures(scenario):
    return sum(v.stats.poll_failures for v in scenario.vehicles)


@pytest.mark.parametrize("name", sorted(corridor_profiles()))
def test_named_fault_profiles(labeled_dataset, monkeypatch, name):
    profile = corridor_profiles(DURATION_S)[name]
    virtual, executed = _both_ways(labeled_dataset, monkeypatch, faults=profile)
    _assert_same(virtual, executed)
    crashes = any(isinstance(e, BrokerCrash) for e in profile.events)
    assert (_poll_failures(virtual) > 0) == crashes


FAULT_SCHEDULES = {
    "crash_spanning_the_handover": (BrokerCrash("rsu-mw-1", 1.3, 0.5),),
    "crash_on_the_link_rsu": (
        BrokerCrash("rsu-mw-link", 1.7, 0.4, ack_loss_s=0.1),
        BrokerCrash("rsu-mw-2", 2.3, 0.3),
    ),
    "kill_then_crash_of_the_fallback": (
        RsuKill("rsu-mw-1", 1.0, failover_to="rsu-mw-2"),
        BrokerCrash("rsu-mw-2", 1.3, 0.5),
    ),
    "overlapping_crashes": (
        BrokerCrash("rsu-mw-1", 1.0, 0.6),
        BrokerCrash("rsu-mw-1", 1.3, 0.6),
    ),
    "crash_still_open_at_the_end": (BrokerCrash("rsu-mw-2", 2.5, 5.0),),
}


@pytest.mark.parametrize("name", sorted(FAULT_SCHEDULES))
def test_fault_schedules(labeled_dataset, monkeypatch, name):
    profile = FaultProfile(name, FAULT_SCHEDULES[name])
    virtual, executed = _both_ways(labeled_dataset, monkeypatch, faults=profile)
    _assert_same(virtual, executed)
    assert _poll_failures(virtual) > 0


def test_warning_waiting_behind_an_outage_is_read_after_it(
    labeled_dataset, monkeypatch
):
    """A crash half a millisecond after a warning append: the warned
    vehicle's polls are refused for the whole outage and the first grid
    instant at or after the restart reads the warning — else it is
    never read and ``warnings_received`` falls short."""
    calm = _scenario(labeled_dataset)
    calm.run()
    appended_at = next(
        detected_at
        for detected_at, *_ in calm.rsus["rsu-mw-1"].warning_log()
        if detected_at > 0.9
    )
    profile = FaultProfile(
        "crash_on_a_fresh_warning",
        (BrokerCrash("rsu-mw-1", appended_at + 0.0005, 0.3),),
    )
    receipts = _record_receipts(monkeypatch)
    virtual, executed = _both_ways(labeled_dataset, monkeypatch, faults=profile)
    assert {
        v.car_id: v.stats.warnings_received for v in virtual.vehicles
    } == {v.car_id: v.stats.warnings_received for v in executed.vehicles}
    _assert_same(virtual, executed)
    # settled receipts carry the instant the executed poll ran at
    settled = receipts[: len(receipts) // 2]
    assert sorted(settled) == sorted(receipts[len(settled) :])
    # the hazard occurred: warnings of that append sat out the outage
    # and were read at the first grid instant once the broker was back
    (down_at, up_at), = virtual.rsus["rsu-mw-1"].broker.outages
    waited = [
        polled_at
        for _, polled_at, detected_at in settled
        if detected_at == round(appended_at, 6) and polled_at >= down_at
    ]
    interval = virtual.vehicles[0].poll_interval_s
    assert waited
    assert all(up_at <= polled_at < up_at + interval for polled_at in waited)


def test_no_poll_becomes_a_simulator_event(labeled_dataset, monkeypatch):
    """Not even the poll that reads a warning for the vehicle: a
    ``poll``-mode run schedules nothing labelled ``vehicle-*-poll``,
    and receives what the recurrence that schedules them all does."""
    scheduled = {}
    for name in ("at", "after", "every", "every_group"):

        def recording(self, *args, _schedule=getattr(Simulator, name), **kwargs):
            scheduled.setdefault(self, set()).add(kwargs.get("label"))
            return _schedule(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, name, recording)
    virtual, executed = _both_ways(labeled_dataset, monkeypatch)
    _assert_same(virtual, executed)
    polls = {f"vehicle-{v.car_id}-poll" for v in virtual.vehicles}
    assert polls <= scheduled[executed.sim]
    assert not polls & scheduled[virtual.sim]
    assert f"vehicle-{virtual.vehicles[0].car_id}-produce" in scheduled[virtual.sim]


def test_outage_open_when_the_run_is_abandoned(labeled_dataset, monkeypatch):
    """Stopping mid-outage, before ``until``: refused polls are counted
    up to *now*, not to the window's (infinite) end or to ``until``."""
    profile = FaultProfile("open", (BrokerCrash("rsu-mw-1", 1.0, 1.0),))
    virtual, executed = _both_ways(
        labeled_dataset, monkeypatch, faults=profile, stop_at=1.337
    )
    _assert_same(virtual, executed)
    assert _poll_failures(virtual) > 0


def test_truncating_poll_budget_under_a_crash(labeled_dataset, monkeypatch):
    """A budget smaller than an emission batch: settlement replays the
    budget rule instant by instant, around the outage."""
    monkeypatch.setattr(vehicle_module, "_POLL_MAX_RECORDS", 3)
    profile = FaultProfile("crash", (BrokerCrash("rsu-mw-1", 1.0, 0.4),))
    virtual, executed = _both_ways(
        labeled_dataset, monkeypatch, faults=profile, n_vehicles=24
    )
    _assert_same(virtual, executed)
    assert _poll_failures(virtual) > 0
    assert max(
        v._consumer.records_consumed for v in virtual.vehicles
    ) > 3  # polls were cut short and resumed


def test_trip_churn_across_an_outage(labeled_dataset, monkeypatch):
    """Vehicles spawned before a crash and retired during it: a retiring
    vehicle settles into the open window."""
    _, replay = labeled_dataset.split_by_trip(0.8, seed=0)
    records = [r for r in replay if r.road_type is RoadType.MOTORWAY]

    def churn(scenario):
        scenario.spawn_vehicles("rsu-mw-1", 2, at_s=0.7, records=records)
        scenario.schedule_retire([1, 2, 9], at_s=1.2)

    profile = FaultProfile("crash", (BrokerCrash("rsu-mw-1", 1.0, 0.5),))
    virtual, executed = _both_ways(
        labeled_dataset, monkeypatch, faults=profile, prepare=churn
    )
    _assert_same(virtual, executed)
    retired = [v for v in virtual.vehicles if v.retired]
    assert len(retired) == 3
    # cars 1 and 2 sat on the crashed broker: refused from 1.0 to 1.2
    assert sum(v.stats.poll_failures for v in retired) > 30


def test_batched_dataplane_under_the_executed_recurrence(
    labeled_dataset, monkeypatch
):
    """``legacy_tick`` is the one switch: a fuller medium, where many
    frames wait for each flush, changes nothing about it."""
    _assert_same(*_both_ways(labeled_dataset, monkeypatch, n_vehicles=16))


class TestShardedHandover:
    """2 shards == serial on a corridor whose handover crosses shards.

    Scenario seed 9 at 64 vehicles per RSU is one of the runs that used
    to crash: telemetry generated on the motorway was still on its way
    at the handover and reached the link RSU.  It is abandoned now, on
    both engines alike."""

    @staticmethod
    def _builder():
        return (
            ScenarioBuilder()
            .vehicles(64)
            .duration(2.0)
            .seed(9)
            .serde("struct")
            .handover(0.25)
            .observe()
        )

    @pytest.fixture(scope="class")
    def runs(self, labeled_dataset):
        serial = self._builder().corridor(dataset=labeled_dataset)
        sharded = self._builder().shards(2).corridor(dataset=labeled_dataset)
        return serial, serial.run(), sharded, sharded.run()

    def test_vehicle_stats_with_poll_failures(self, runs):
        _, serial_result, _, sharded_result = runs
        assert {
            car: dataclasses.asdict(stats)
            for car, stats in sharded_result.vehicle_stats.items()
        } == {
            car: dataclasses.asdict(stats)
            for car, stats in serial_result.vehicle_stats.items()
        }

    def test_warning_logs(self, runs):
        serial, _, sharded, _ = runs
        assert sharded.warning_logs == {
            name: rsu.warning_log() for name, rsu in serial.rsus.items()
        }

    def test_downlink_accounting(self, runs):
        """Per broker: the polls a transferred vehicle never ran are
        settled by the shard it left, against the broker it left."""
        serial, serial_result, sharded, sharded_result = runs
        for name in serial.rsus:
            for counter in ("broker.records_out", "broker.bytes_out"):
                assert sharded_result.obs.counter_value(
                    counter, rsu=name
                ) == serial_result.obs.counter_value(counter, rsu=name), (
                    name,
                    counter,
                )
        assert serial_result.obs.counter_total("broker.records_out") > 0

    def test_stale_telemetry_abandoned_alike(self, runs, audit_invariants):
        serial, serial_result, sharded, sharded_result = runs
        audit_invariants(serial)
        assert serial_result.resilience.records_abandoned > 0
        assert (
            sharded_result.resilience.to_dict()
            == serial_result.resilience.to_dict()
        )
        assert sharded.plan.cross_edges(sharded.topology)
