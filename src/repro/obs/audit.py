"""Cross-cutting conservation invariants over a finished scenario.

Every telemetry record a vehicle generates must be accounted for
somewhere; so must every warning an RSU emits and every CO-DATA summary
a handover forwards.  The audit walks a finished (serial)
:class:`~repro.core.system.TestbedScenario` and checks four
conservation laws, each a strict integer equality:

1. **Telemetry conservation** (per scenario)::

       records_sent == appended_in_data + lost_on_air + refused_by_broker
                     + dropped_from_retry_buffer + abandoned_at_handover
                     + still_buffered + still_in_flight

2. **Detection conservation** (per RSU)::

       appended_in_data == records_detected + records_dead_on_crash
                         + unconsumed

   ``records_dead_on_crash`` are records polled into a micro-batch
   whose completion found the broker down; auto-commit after every poll
   means a restart never re-processes them, so they must be counted
   dead, not merely delayed.

3. **Collaboration conservation** (per RSU)::

       appended_co_data == summaries_received + co_unconsumed

4. **Warning conservation** (per scenario)::

       warnings_emitted == warnings_delivered + warnings_orphaned
                         + warnings_late + warnings_pending

   ``orphaned``: appended before the target car's vehicle migrated
   away, never polled.  ``late``: appended to the *old* RSU's OUT-DATA
   after the car had already migrated (its telemetry was still in the
   detection pipeline).  ``pending``: appended but not yet polled when
   the run ended.  The per-car attribution needs the OUT-DATA consumer
   positions captured at each migration, which vehicles record only
   when observability is on — run the scenario with
   ``ScenarioSpec.observability=True`` (or ``ScenarioBuilder.observe()``).

Known limits: the audit reads the scenario's live objects, so it
applies to single-process runs (for sharded runs, audit the serial
comparator and cross-check the merged snapshot's totals); ack-loss
fault windows require the producer retry policy to be enabled (the
default whenever ``faults`` is set), otherwise a telemetry record can
be both appended and counted lost; and a vehicle must not re-attach to
an RSU it previously left (no current topology does).

All reads go through ``Topic.partition(i).read`` — *not*
``Broker.fetch`` — so the audit never mutates broker byte/record
counters: auditing a scenario leaves it bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.features import CO_DATA, IN_DATA, OUT_DATA


@dataclass
class InvariantReport:
    """Computed conservation terms plus any violated equalities."""

    #: invariant name -> {term: value}
    terms: Dict[str, Dict[str, int]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self) -> "InvariantReport":
        """Raise ``AssertionError`` listing every violated invariant."""
        if self.failures:
            raise AssertionError(
                "invariant audit failed:\n  " + "\n  ".join(self.failures)
            )
        return self

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "terms": {k: dict(v) for k, v in self.terms.items()},
            "failures": list(self.failures),
        }


def _topic_end_offsets(broker, topic_name: str) -> int:
    """Records ever appended to a topic (reads survive a dead broker)."""
    try:
        topic = broker.topic(topic_name)
    except Exception:
        return 0
    return sum(
        topic.partition(index).end_offset
        for index in range(topic.num_partitions)
    )


def _read_partition(partition, from_offset: int):
    remaining = partition.end_offset - max(from_offset, partition.start_offset)
    if remaining <= 0:
        return []
    return partition.read(from_offset, remaining)


def _records_for_car(records, serde, car_id: int) -> int:
    count = 0
    for record in records:
        if int(serde.deserialize(record.value).get("car", -1)) == car_id:
            count += 1
    return count


def audit_scenario(scenario) -> InvariantReport:
    """Audit a finished single-process scenario; see the module docs."""
    report = InvariantReport()
    _audit_telemetry(scenario, report)
    _audit_detection(scenario, report)
    _audit_collaboration(scenario, report)
    _audit_warnings(scenario, report)
    return report


def assert_invariants(scenario) -> InvariantReport:
    """Audit and raise ``AssertionError`` on any violation."""
    return audit_scenario(scenario).check()


# ----------------------------------------------------------------------
def _audit_telemetry(scenario, report: InvariantReport) -> None:
    sent = sum(v.stats.records_sent for v in scenario.vehicles)
    appended = sum(
        _topic_end_offsets(rsu.broker, IN_DATA)
        for rsu in scenario.rsus.values()
    )
    lost_on_air = sum(
        channel.frames_lost for channel in scenario.channels.values()
    )
    refused = sum(v.stats.records_lost for v in scenario.vehicles)
    dropped = sum(v._producer.records_dropped for v in scenario.vehicles)
    abandoned = sum(v._producer.records_abandoned for v in scenario.vehicles)
    # A buffered record whose ack was lost is in the log already:
    # appended, not also buffered.
    buffered = sum(v._producer.buffered_unappended for v in scenario.vehicles)
    # Deferred on a channel or on the air: a run stopped between two
    # flushes leaves frames in both places.
    in_flight = sum(
        channel.frames_in_flight for channel in scenario.channels.values()
    )
    terms = {
        "records_sent": sent,
        "appended_in_data": appended,
        "lost_on_air": lost_on_air,
        "refused_by_broker": refused,
        "dropped_from_retry_buffer": dropped,
        "abandoned_at_handover": abandoned,
        "still_buffered": buffered,
        "still_in_flight": in_flight,
    }
    report.terms["telemetry"] = terms
    accounted = (
        appended + lost_on_air + refused + dropped + abandoned + buffered
        + in_flight
    )
    if sent != accounted:
        report.failures.append(
            f"telemetry: records_sent={sent} != accounted={accounted} {terms}"
        )


def _audit_detection(scenario, report: InvariantReport) -> None:
    for name, rsu in scenario.rsus.items():
        consumer = getattr(rsu, "_in_consumer", None)
        events = getattr(rsu, "events", None)
        if consumer is None or events is None:
            continue
        appended = _topic_end_offsets(rsu.broker, IN_DATA)
        detected = len(events)
        dead = getattr(rsu, "records_dead_on_crash", 0)
        unconsumed = 0
        for (topic, partition), position in consumer._positions.items():
            if topic != IN_DATA:
                continue
            end = rsu.broker.topic(topic).partition(partition).end_offset
            unconsumed += max(0, end - position)
        terms = {
            "appended_in_data": appended,
            "records_detected": detected,
            "records_dead_on_crash": dead,
            "unconsumed": unconsumed,
        }
        report.terms[f"detection[{name}]"] = terms
        if appended != detected + dead + unconsumed:
            report.failures.append(
                f"detection[{name}]: appended={appended} != "
                f"detected+dead+unconsumed="
                f"{detected + dead + unconsumed} {terms}"
            )


def _audit_collaboration(scenario, report: InvariantReport) -> None:
    for name, rsu in scenario.rsus.items():
        consumer = getattr(rsu, "_co_consumer", None)
        if consumer is None:
            continue
        appended = _topic_end_offsets(rsu.broker, CO_DATA)
        received = rsu.summaries_received
        unconsumed = 0
        for (topic, partition), position in consumer._positions.items():
            if topic != CO_DATA:
                continue
            end = rsu.broker.topic(topic).partition(partition).end_offset
            unconsumed += max(0, end - position)
        # Delta frames dropped for a missing/mismatched receiver
        # baseline were consumed but never counted as received; the
        # plane accounts them separately (zero on legacy paths, so the
        # seed-era equality is unchanged).
        stale = getattr(rsu, "summaries_stale_dropped", 0)
        terms = {
            "appended_co_data": appended,
            "summaries_received": received,
            "co_stale_dropped": stale,
            "co_unconsumed": unconsumed,
        }
        report.terms[f"collaboration[{name}]"] = terms
        if appended != received + stale + unconsumed:
            report.failures.append(
                f"collaboration[{name}]: appended={appended} != "
                f"received+stale+unconsumed={received + stale + unconsumed} "
                f"{terms}"
            )


def _audit_warnings(scenario, report: InvariantReport) -> None:
    emitted = sum(
        rsu.warnings_issued + rsu.warnings_ack_lost
        for rsu in scenario.rsus.values()
    )
    delivered = sum(v.stats.warnings_received for v in scenario.vehicles)
    orphaned = late = pending = 0
    for vehicle in scenario.vehicles:
        serde = vehicle._out_serde
        # Departed attachments: positions/end-offsets captured at each
        # migration (vehicles record them when observability is on).
        for broker, positions, ends in getattr(vehicle, "_departures", ()):
            try:
                topic = broker.topic(OUT_DATA)
            except Exception:
                continue
            for partition_index, position in positions.items():
                partition = topic.partition(partition_index)
                end_at_migrate = ends[partition_index]
                for record in _read_partition(partition, position):
                    value = serde.deserialize(record.value)
                    if int(value.get("car", -1)) != vehicle.car_id:
                        continue
                    if record.offset < end_at_migrate:
                        orphaned += 1
                    else:
                        late += 1
        # Current attachment: appended but not yet polled.
        consumer = vehicle._consumer
        if consumer is not None:
            for (topic_name, partition_index), position in (
                consumer._positions.items()
            ):
                if topic_name != OUT_DATA:
                    continue
                partition = vehicle.rsu.broker.topic(topic_name).partition(
                    partition_index
                )
                pending += _records_for_car(
                    _read_partition(partition, position), serde, vehicle.car_id
                )
    terms = {
        "warnings_emitted": emitted,
        "warnings_delivered": delivered,
        "warnings_orphaned": orphaned,
        "warnings_late": late,
        "warnings_pending": pending,
    }
    report.terms["warnings"] = terms
    accounted = delivered + orphaned + late + pending
    if emitted != accounted:
        report.failures.append(
            f"warnings: emitted={emitted} != accounted={accounted} {terms}"
        )
