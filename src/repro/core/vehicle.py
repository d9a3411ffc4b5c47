"""The vehicle node: 10 Hz telemetry producer + warning consumer.

Vehicles replay telemetry records through the DSRC channel to their
RSU's ``IN-DATA`` topic ("each vehicle transmits records of the dataset
at a frequency of 10 Hz") and poll ``OUT-DATA`` every 10 ms for
warnings ("each Kafka consumer pulls every 10 ms to avoid consuming the
bandwidth").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.features import IN_DATA, OUT_DATA, record_to_payload
from repro.dataset.schema import TelemetryRecord
from repro.net.dsrc import DsrcChannel
from repro.net.htb import HtbShaper
from repro.simkernel.simulator import Simulator
from repro.streaming.broker import BrokerUnavailable
from repro.streaming.consumer import Consumer, OwnRecord
from repro.streaming.producer import Producer, RetryPolicy
from repro.streaming.serde import (
    JsonSerde,
    RawSerde,
    Serde,
    STRUCT_MAGIC,
    STRUCT_VERSION,
)

#: Template patch: the telemetry struct layout ends in
#: ``generated_at f64 | arrived_at f64``, so a pre-serialized frame is
#: finalized by packing both timestamps over its last 16 bytes.
_TS_PATCH = struct.Struct("<dd")

#: Records one warning poll may fetch (the consumer's default budget).
_POLL_MAX_RECORDS = 500

#: Bounds of the broker-shared warning memos of ``notify`` wake-up polls
#: (oldest evicted first; a miss only recomputes).  A slab scan is dead
#: once the vehicles its emission batch woke have polled: a few entries
#: per partition do.
_SCAN_MEMO_ENTRIES = 12
_DECODE_MEMO_ENTRIES = 1024


def _memo_put(memo: dict, key, value, limit: int) -> None:
    if len(memo) >= limit:
        del memo[next(iter(memo))]
    memo[key] = value


#: Marker for a stripe record whose wire template has not been built yet
#: (templates are serialized on first send, not eagerly for the whole
#: stripe — replay touches only a fraction of a large stripe).
_UNBUILT = object()


@dataclass
class VehicleStats:
    """Per-vehicle measurements."""

    records_sent: int = 0
    bytes_sent: int = 0
    warnings_received: int = 0
    #: Telemetry that reached the RSU but was refused by a down broker
    #: (and, without a retry policy, lost for good).
    records_lost: int = 0
    #: Warning polls refused by a down broker.
    poll_failures: int = 0
    e2e_latencies_s: List[float] = field(default_factory=list)
    dissemination_latencies_s: List[float] = field(default_factory=list)

    def bandwidth_bps(self, elapsed_s: float) -> float:
        if elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        return self.bytes_sent * 8.0 / elapsed_s


class VehicleNode:
    """One emulated vehicle.

    Parameters
    ----------
    sim:
        Simulation kernel.
    car_id:
        Vehicle identity; warnings are filtered on it.
    records:
        Telemetry records to replay (cycled when exhausted).
    rsu:
        The RSU currently serving this vehicle.
    channel:
        Shared DSRC medium toward that RSU.
    shaper:
        HTB shaper (the testbed's netem emulation); optional.
    update_rate_hz:
        Telemetry frequency (paper: 10 Hz).
    poll_interval_s:
        Warning-poll period (paper: 10 ms).
    consumer_processing_s:
        Modelled consumer-side handling time added to each warning
        delivery (the paper decomposes dissemination as
        ``10 + 7.2 +- 4.4 ms``).
    rng:
        Seeded stream for consumer-processing jitter.
    serdes:
        Per-topic serde overrides, matching the RSU's
        (:func:`repro.core.wire.topic_serdes`); compact JSON when
        absent.
    dissemination:
        ``"poll"`` (the paper's loop: pull OUT-DATA every 10 ms) or
        ``"notify"`` (wake on the broker's produce notification —
        lower dissemination latency, but a push channel real Kafka
        does not offer; keep ``"poll"`` when reproducing the paper's
        latency numbers).
    retry:
        :class:`~repro.streaming.producer.RetryPolicy` for telemetry
        produce: buffered retries with backoff plus idempotent
        sequence numbers.  ``None`` (default, the seed behaviour)
        drops telemetry refused by a down broker.

    The telemetry uplink runs in blocks: a frame is deferred onto the
    channel's queue (contention resolves at the RSU's pre-poll flush,
    RNG draw order preserved, or at the frame's own instant while its
    broker or producer is degraded — :meth:`_put_on_channel`), HTB is
    charged lazily, and delivery patches a pre-serialized template.

    A ``"poll"`` vehicle's 10 ms poll grid is virtual: the grid is the
    drawn phase plus repeated interval addition, and no instant of it
    becomes a simulator event.  Every poll is *settled*: accounted in
    closed form from the partitions' append clocks and the broker's
    outage log (:meth:`_settle`).  The broker routes the append of a
    warning for this car here by record key; settlement hands each back
    at the grid instant whose poll read it (:meth:`_receive_own`).
    """

    #: The settlement oracle and nothing else (class level, snapshotted
    #: at construction): ``True`` runs the poll grid as a real
    #: recurrence — every 10 ms poll executed, every OUT-DATA warning
    #: deserialized per vehicle.  Results are bit-identical either way,
    #: which is what the golden dissemination suite holds
    #: :meth:`_settle` to; nothing in ``src`` sets it.
    legacy_tick = False

    def __init__(
        self,
        sim: Simulator,
        car_id: int,
        records: Iterable[TelemetryRecord],
        rsu,
        channel: DsrcChannel,
        shaper: Optional[HtbShaper] = None,
        update_rate_hz: float = 10.0,
        poll_interval_s: float = 0.010,
        consumer_processing_s: float = 7.2e-3,
        consumer_jitter_s: float = 4.4e-3,
        rng: Optional[np.random.Generator] = None,
        serdes: Optional[Dict[str, Serde]] = None,
        dissemination: str = "poll",
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if update_rate_hz <= 0:
            raise ValueError("update rate must be positive")
        if poll_interval_s <= 0:
            raise ValueError("poll interval must be positive")
        if dissemination not in ("poll", "notify"):
            raise ValueError(f"unknown dissemination mode: {dissemination!r}")
        self.sim = sim
        self.car_id = car_id
        self._legacy_tick = bool(self.legacy_tick)
        self._payloads: List[dict] = []
        self._prepare_payloads(list(records))
        self.rsu = rsu
        self.channel = channel
        rsu.attach_uplink(channel)
        self.shaper = shaper
        self.update_period_s = 1.0 / update_rate_hz
        self.poll_interval_s = poll_interval_s
        self.consumer_processing_s = consumer_processing_s
        self.consumer_jitter_s = consumer_jitter_s
        self._rng = rng or np.random.default_rng(car_id)
        self._serdes: Dict[str, Serde] = dict(serdes or {})
        default = JsonSerde()
        #: Serde for the telemetry envelopes this vehicle produces.
        self.serde = self._serdes.get(IN_DATA, default)
        self._out_serde = self._serdes.get(OUT_DATA, default)
        #: Cached wire dtype of OUT-DATA (struct profile only): lets a
        #: poll scan a warning slab with one numpy compare instead of
        #: decoding record by record.
        self._warning_dtype = getattr(self._out_serde, "dtype", None)
        self.dissemination = dissemination
        # Telemetry goes through a Producer so the delivery guarantees
        # (bounded retry buffer, idempotent sequences) apply.  The
        # envelope is serialized by the vehicle (the wire size gates
        # the DSRC airtime), so the producer's serde is a passthrough.
        # A retry policy implies idempotence: retries must never
        # double-count a record the broker already appended.
        self._producer = Producer(
            rsu.broker,
            serde=RawSerde(),
            client_id=f"vehicle-{car_id}",
            sim=sim,
            retry=retry,
            idempotent=retry is not None,
        )
        self._producer.before_retry = self._flush_channel
        self.stats = VehicleStats()
        self._consumer: Optional[Consumer] = None
        self._cancel_produce = None
        self._cancel_poll = None
        self._cancel_notify = None
        self._wakeup_pending = False
        self._started = False
        self._retired = False
        self._leaf_name = f"vehicle-{car_id}"
        self._key_bytes = str(car_id).encode()
        # The virtual warning-poll grid: first instant not settled, the
        # loop's end, and the warnings for this car appended to the
        # attached broker that no settled poll has read yet.
        self._grid_live = False
        self._next_poll = 0.0
        self._poll_until: Optional[float] = None
        self._own_unread: List[OwnRecord] = []
        # When this vehicle last changed road (a ``drop_pending``
        # handover): telemetry generated earlier is stale.
        self._road_since = float("-inf")
        self._detached = False
        # One entry per handover: (old_broker, OUT-DATA read positions,
        # OUT-DATA end offsets at the moment of migration).  The
        # invariant audit scans these to classify warnings left behind
        # on abandoned brokers; nothing in the run itself reads them.
        self._departures: List[Tuple[object, Dict[int, int], Dict[int, int]]] = []
        self._attach_consumer()

    # ------------------------------------------------------------------
    def _attach_consumer(self) -> None:
        self._consumer = Consumer(
            self.rsu.broker,
            group=None,
            serde=self._out_serde,
            client_id=f"vehicle-{self.car_id}",
        )
        self._consumer.subscribe([OUT_DATA])
        self._consumer.seek_to_end()
        # Warnings left unread on the broker behind us stay unread.
        self._own_unread.clear()
        if self._cancel_notify is not None:
            self._cancel_notify()
            self._cancel_notify = None
        if self._started:
            self._subscribe()

    def _subscribe(self) -> None:
        """Register the OUT-DATA wake-up: every produce in ``notify``
        mode; on the poll grid only appends keyed with this car id (the
        RSU keys a warning by the warned car)."""
        broker = self.rsu.broker
        if self.dissemination == "notify":
            self._cancel_notify = broker.subscribe_notify(
                OUT_DATA, self._on_out_data_produced
            )
        elif not self._legacy_tick:
            self._cancel_notify = broker.subscribe_key(
                OUT_DATA, self._key_bytes, self._own_warning_appended
            )

    def _on_out_data_produced(self, metadata) -> None:
        # Coalesce: many warnings produced at the same instant (one
        # micro-batch) wake the consumer once.
        if self._wakeup_pending:
            return
        self._wakeup_pending = True
        self.sim.after(
            0.0, self._wakeup_poll, label=f"vehicle-{self.car_id}-wakeup"
        )

    def _wakeup_poll(self) -> None:
        self._wakeup_pending = False
        if self._legacy_tick:
            self._poll_warnings()
        else:
            self._poll_warnings_block()

    def start(self, until: Optional[float] = None) -> None:
        """Begin the produce loop and the warning consumption."""
        if self._cancel_produce is not None:
            raise RuntimeError(f"vehicle {self.car_id} already started")
        self._started = True
        # Desynchronise vehicles: each starts at a random phase within
        # its first update period, as real beacons are unaligned.
        phase = float(self._rng.uniform(0.0, self.update_period_s))
        self._cancel_produce = self.sim.every_group(
            self.update_period_s,
            self._send_telemetry,
            start=self.sim.now + phase,
            until=until,
            label=f"vehicle-{self.car_id}-produce",
        )
        if self.dissemination == "notify":
            self._subscribe()
            return
        poll_phase = float(self._rng.uniform(0.0, self.poll_interval_s))
        self._start_polling(self.sim.now + poll_phase, until)

    def _start_polling(self, first: float, until: Optional[float]) -> None:
        """Poll OUT-DATA on the grid ``first, first + interval, ...``.

        Virtual polling keeps the exact grid a recurrence would walk
        (same float-accumulated instants) but runs none of its polls:
        empty, dropping other cars' warnings, refused by a down broker
        or reading a warning for this car, each is settled (see
        :meth:`_settle`).
        """
        if self._legacy_tick:
            self._cancel_poll = self.sim.every_group(
                self.poll_interval_s,
                self._poll_warnings,
                start=first,
                until=until,
                label=f"vehicle-{self.car_id}-poll",
            )
            return
        self._grid_live = True
        self._next_poll = first
        self._poll_until = until
        self._subscribe()

    @property
    def retired(self) -> bool:
        return self._retired

    def retire(self) -> None:
        """End this vehicle's trip mid-run: stop producing and polling.

        Unlike :meth:`stop` at scenario teardown, retirement is a
        workload event (the trip ended), so it is idempotent and flags
        the vehicle for churn accounting.  The consumer stays attached:
        warnings already appended — or still materializing from
        telemetry in the pipeline — remain countable as pending, so the
        warning conservation law holds under churn.
        """
        if self._retired:
            return
        self._retired = True
        self.stop()

    def stop(self) -> None:
        self._settle()
        self._started = False
        self._grid_live = False
        if self._cancel_produce is not None:
            self._cancel_produce()
            self._cancel_produce = None
        if self._cancel_poll is not None:
            self._cancel_poll()
            self._cancel_poll = None
        if self._cancel_notify is not None:
            self._cancel_notify()
            self._cancel_notify = None

    # ------------------------------------------------------------------
    def migrate(
        self, new_rsu, new_channel: DsrcChannel, drop_pending: bool = False
    ) -> None:
        """Handover: switch to a new RSU and its channel.

        The caller is responsible for triggering the old RSU's
        ``handover`` (CO-DATA summary transfer); the vehicle only
        re-homes its producer and consumer.  Telemetry not yet appended
        — buffered for the old (possibly dead) RSU, waiting out an HTB
        delay, or on the air — lands on the new one: at-least-once
        across the failover, deduped by sequence number.
        ``drop_pending`` abandons it instead (counted in the producer's
        ``records_abandoned``), for handovers onto a different road
        where the old records are stale (the new RSU has no model for
        them).
        """
        carried: List[Tuple] = []
        if new_channel is not self.channel:
            # Resolve everything due on the old medium while the old
            # producer is still bound — those deliveries belong to the
            # old broker.  Frames still deferred (shaper-delayed past
            # now) move to the new channel and contend on that medium
            # when their time comes.
            self.channel.flush(self.sim.now)
            carried = self.channel.take_pending(self)
        self._record_departure()
        self.rsu = new_rsu
        self.channel = new_channel
        new_rsu.attach_uplink(new_channel)
        self._producer.rebind(new_rsu.broker, drop_pending=drop_pending)
        if drop_pending:
            # A frame on the air is abandoned (and counted) at its
            # delivery, being older than the road.
            self._producer.records_abandoned += len(carried)
            carried = []
            self._road_since = self.sim.now
        self._attach_consumer()
        for eff_time, _seq, size, deliver, _owner in carried:
            self._put_on_channel(eff_time, size, deliver)

    def _record_departure(self) -> None:
        """Snapshot the OUT-DATA read state on the broker being left.

        The audit later classifies un-consumed warnings on the old
        broker as orphaned (already appended when we left) or late
        (emitted afterwards, from telemetry still in the old pipeline).
        """
        self._settle()
        old_broker = self.rsu.broker
        positions = {
            partition: position
            for (topic, partition), position in self._consumer._positions.items()
            if topic == OUT_DATA
        }
        try:
            topic = old_broker.topic(OUT_DATA)
        except Exception:
            return
        ends = {
            partition: topic.partition(partition).end_offset
            for partition in positions
        }
        self._departures.append((old_broker, positions, ends))

    def set_records(self, records: Iterable[TelemetryRecord]) -> None:
        """Switch the replayed sub-dataset (paper: migrated producers
        "start reading from the motorway link subdataset")."""
        items = list(records)
        if not items:
            raise ValueError("record stream cannot be empty")
        self._prepare_payloads(items)

    def _prepare_payloads(self, records: List[TelemetryRecord]) -> None:
        """Precompute the wire payload for every record in the stripe.

        Replay cycles a fixed stripe, so each record's ``IN-DATA``
        payload — including the feature-context work inside
        :func:`record_to_payload` — is computed once here instead of on
        every 10 Hz tick.  The car-identity override is applied once
        too ("car" is already the first key, so insertion order and
        hence the serialized bytes are unchanged).  Payloads are never
        mutated after this point, so frames in flight may share them;
        an empty stripe is tolerated at construction (it only fails if
        a tick actually fires).
        """
        payloads = []
        for record in records:
            payload = record_to_payload(record)
            payload["car"] = self.car_id
            payloads.append(payload)
        #: The replayed records, kept for introspection (the payloads
        #: drop fields like ``trip_id`` that never go on the wire).
        self._stripe = records
        self._payloads = payloads
        # Wire templates, parallel to the payloads; each is serialized
        # on the first send of its record (the serde is assigned after
        # this runs, and replay may touch only a fraction of a large
        # stripe).
        self._payload_index = 0
        self._templates: List[object] = [_UNBUILT] * len(payloads)

    # ------------------------------------------------------------------
    # Cross-process handover (sharded engine)
    # ------------------------------------------------------------------
    @property
    def detached(self) -> bool:
        """True once this vehicle was shipped to another shard."""
        return self._detached

    def detach(self) -> dict:
        """Freeze this vehicle for a cross-process handover.

        Captures everything the receiving shard needs to continue the
        exact same trajectory: the RNG mid-stream state and the *exact*
        next produce/poll instants (interval recurrences accumulate
        floating point, so these cannot be recomputed from a phase; the
        polls before now are settled here, against the broker being
        left).  A cross-shard handover is a change of road, so
        telemetry not yet appended is abandoned as by
        ``migrate(drop_pending=True)``: the channel is flushed, and the
        frames then still on the air and those waiting out an HTB delay
        ship as their due times only, for the receiving shard to count.
        The vehicle then goes inert: its remaining scheduled events on
        this shard become no-ops.
        """
        if self._detached:
            raise RuntimeError(f"vehicle {self.car_id} already detached")
        self.channel.flush(self.sim.now)
        produce_next = (
            self._cancel_produce.next_time
            if self._cancel_produce is not None
            else None
        )
        # Settle against the broker being left, so that ``_next_poll``
        # is the first grid instant not before now.
        self._settle()
        if self._cancel_poll is not None:
            poll_next = self._cancel_poll.next_time
        elif self._grid_live and (
            self._poll_until is None or self._next_poll < self._poll_until
        ):
            poll_next = self._next_poll
        else:
            # Not polling, or the grid ran past ``until``: the
            # recurrence's ``next_time`` rule.
            poll_next = None
        state = {
            "car_id": self.car_id,
            "rng_state": self._rng.bit_generator.state,
            "stats": self.stats,
            "produce_next": produce_next,
            "poll_next": poll_next,
            "inflight": self.channel.on_air(self),
            "pending_tx": [
                frame[0] for frame in self.channel.take_pending(self)
            ],
        }
        self.stop()
        self._detached = True
        # what is on the air lands here after the vehicle has left
        self._road_since = self.sim.now
        return state

    def resume(
        self,
        produce_next: Optional[float],
        poll_next: Optional[float],
        until: Optional[float] = None,
    ) -> None:
        """Restart the periodic loops mid-stream after a transfer.

        Unlike :meth:`start` this draws no phases from the RNG: the
        exact next-fire instants come from the sending shard's
        :meth:`detach`, so the resumed loops continue the same
        float-accumulated grids the serial engine would have produced.
        ``None`` for either instant means that loop had already ended.
        """
        if self._started:
            raise RuntimeError(f"vehicle {self.car_id} already running")
        self._started = True
        if produce_next is not None:
            self._cancel_produce = self.sim.every_group(
                self.update_period_s,
                self._send_telemetry,
                start=produce_next,
                until=until,
                label=f"vehicle-{self.car_id}-produce",
            )
        if self.dissemination == "notify":
            self._subscribe()
        elif poll_next is not None:
            self._start_polling(poll_next, until)

    # ------------------------------------------------------------------
    def _build_template(self, index: int):
        """Serialize one stripe record's wire template on first use.

        When the payload serializes to a fixed-size struct frame, the
        per-send wire bytes differ from this template only in the two
        trailing timestamps — so each send just patches
        ``generated_at``/``arrived_at`` over a template copy instead of
        serializing the envelope twice (once for the airtime-gating
        size, once at delivery).  A JSON-fallback payload caches
        ``None``; its sends serialize the envelope through the serde.
        """
        serde = self.serde
        wire_size = getattr(serde, "wire_size", None)
        template = None
        if wire_size is not None:
            frame = serde.serialize(
                {
                    "data": self._payloads[index],
                    "generated_at": 0.0,
                    "arrived_at": None,
                }
            )
            if len(frame) == wire_size and frame[0] == STRUCT_MAGIC:
                template = frame
        self._templates[index] = template
        return template

    def _send_telemetry(self) -> None:
        """One 10 Hz beacon, with shaping and contention deferred.

        - HTB is charged through :meth:`~repro.net.htb.HtbShaper.send`
          (the shared root bucket accrues lazily).
        - The frame joins the channel's queue at its effective time;
          contention resolves at the next flush with the per-frame RNG
          draw order preserved (:meth:`_put_on_channel`).
        - Delivery serializes from the record's pre-built template when
          it struct-encodes (timestamps patched in place), else through
          the serde.
        """
        payloads = self._payloads
        if not payloads:
            next(iter(()))  # StopIteration, as cycle() on an empty stripe
        index = self._payload_index
        self._payload_index = index + 1 if index + 1 < len(payloads) else 0
        template = self._templates[index]
        if template is _UNBUILT:
            template = self._build_template(index)
        now = self.sim.now
        if template is not None:
            size = len(template)

            def deliver(
                at_time: float,
                template=template,
                generated_at=now,
                sent_on=self.channel,
            ) -> None:
                if generated_at < self._road_since:
                    # on the air across a handover onto another road
                    self._producer.records_abandoned += 1
                    return
                if sent_on is not self.channel:
                    # On the air across a failover: this appends to the
                    # new broker, so frames that reached the new medium
                    # earlier and still wait for its tick land first.
                    self._flush_channel()
                frame = bytearray(template)
                _TS_PATCH.pack_into(frame, size - 16, generated_at, at_time)
                try:
                    self._producer.send(
                        IN_DATA,
                        bytes(frame),
                        key=self._key_bytes,
                        timestamp=at_time,
                    )
                except BrokerUnavailable:
                    self.stats.records_lost += 1

        else:
            data = payloads[index]
            size = len(
                self.serde.serialize(
                    {"data": data, "generated_at": now, "arrived_at": None}
                )
            )

            def deliver(
                at_time: float,
                data=data,
                generated_at=now,
                sent_on=self.channel,
            ) -> None:
                if generated_at < self._road_since:
                    # on the air across a handover onto another road
                    self._producer.records_abandoned += 1
                    return
                if sent_on is not self.channel:
                    self._flush_channel()  # as above
                envelope = {
                    "data": data,
                    "generated_at": generated_at,
                    "arrived_at": at_time,
                }
                try:
                    self._producer.send(
                        IN_DATA,
                        self.serde.serialize(envelope),
                        key=self._key_bytes,
                        timestamp=at_time,
                    )
                except BrokerUnavailable:
                    self.stats.records_lost += 1

        delay = 0.0
        if self.shaper is not None:
            delay = self.shaper.send(self._leaf_name, size, now)
        self._put_on_channel(now + delay, size, deliver)
        self.stats.records_sent += 1
        self.stats.bytes_sent += size

    def _put_on_channel(self, eff_time: float, size: int, deliver) -> None:
        """Hand one frame to the (current) channel.  Its contention and
        delivery may wait for the RSU's next tick only while nothing can
        tell; with a retry backlog, or a broker that is down or losing
        acks, the frame resolves at its own instant instead."""
        channel = self.channel
        channel.enqueue(eff_time, size, deliver, owner=self)
        if (
            self.sim.now < self.rsu.broker.unsteady_until
            or self._producer._buffer
        ):
            channel.flush_at(eff_time)

    def _flush_channel(self) -> None:
        self.channel.flush(self.sim.now)

    def _settle(self) -> None:
        """Account the polls at grid instants before now (and the
        loop's ``until``), none of which ran: each fetched and dropped
        other cars' warnings, was refused by a down broker, or read
        warnings for this car, which are received here.  The grid is
        the drawn phase plus repeated interval addition, the real
        recurrence's float sums."""
        if not self._grid_live:
            return
        limit = self.sim.now
        if self._poll_until is not None:
            limit = min(limit, self._poll_until)
        self._next_poll, refused = self._consumer.settle_polls(
            self._next_poll,
            self.poll_interval_s,
            limit,
            _POLL_MAX_RECORDS,
            self._own_unread,
            self._receive_own,
        )
        self.stats.poll_failures += refused

    def _own_warning_appended(self, metadata) -> None:
        """A warning for this car hit OUT-DATA: the poll at the first
        grid instant at or after now reads it, or a later one when the
        broker is down by then or the budget cuts that poll short; one
        at or past ``until`` never runs and it stays unread."""
        self._settle()
        self._own_unread.append(
            ((OUT_DATA, metadata.partition), metadata.offset, self.sim.now)
        )

    def _receive_own(self, instant: float, entry: OwnRecord) -> None:
        """The poll at ``instant`` read this warning: decode the bytes
        it fetched."""
        (topic, partition), offset, _ = entry
        log = self._consumer.broker.topic(topic).partition(partition)
        value = self._out_serde.deserialize(log.read(offset, 1)[0].value)
        self._receive_warning(
            instant, float(value["t"]), float(value["generated_at"])
        )

    def _poll_warnings(self) -> None:
        """The ``legacy_tick`` poll: every record deserialized here,
        per vehicle."""
        try:
            records = self._consumer.poll(_POLL_MAX_RECORDS)
        except BrokerUnavailable:
            self.stats.poll_failures += 1
            return
        for record in records:
            value = record.value
            if int(value.get("car", -1)) == self.car_id:
                self._receive_warning(
                    self.sim.now,
                    float(value["t"]),
                    float(value["generated_at"]),
                )

    def _receive_warning(
        self, polled_at: float, detected_at: float, generated_at: float
    ) -> None:
        """Count one warning for this car, read by the poll at
        ``polled_at``.  The jitter draw is the only RNG use here: one
        per own warning, in record order."""
        jitter = float(
            self._rng.uniform(-self.consumer_jitter_s, self.consumer_jitter_s)
        )
        handling = max(0.0, self.consumer_processing_s + jitter)
        received_at = polled_at + handling
        self.stats.warnings_received += 1
        self.stats.dissemination_latencies_s.append(received_at - detected_at)
        self.stats.e2e_latencies_s.append(received_at - generated_at)

    def _poll_warnings_block(self) -> None:
        """One ``notify`` wake-up's poll: scan OUT-DATA as block segments.

        Consumes through :meth:`~repro.streaming.consumer.Consumer.poll_block`
        — same partition order, position advances, and byte accounting
        as ``poll`` — and filters for this car's warnings without
        per-record objects: a uniform struct segment is one
        ``np.frombuffer`` over the broker's slab plus one column scan
        (every vehicle wakes on every emission batch, so most records
        are other cars').  Mixed/JSON segments fall back to the decode
        loop with the broker-shared memo, so a warning is decoded once
        per broker, not once per vehicle.
        """
        try:
            segments = self._consumer.poll_block(_POLL_MAX_RECORDS)
        except BrokerUnavailable:
            self.stats.poll_failures += 1
            return
        dtype = self._warning_dtype
        car_id = self.car_id
        broker = self.rsu.broker
        now = self.sim.now
        for segment in segments:
            if (
                dtype is not None
                and segment.is_uniform
                and segment.record_size == dtype.itemsize
            ):
                # The vehicles woken by one emission batch fetch it
                # from the same offsets, so the column extraction runs
                # once per batch in a broker-shared memo, not once per
                # vehicle.
                scan_cache = broker.warning_scan_memo
                key = (
                    segment.topic,
                    segment.partition,
                    segment.next_offset,
                    segment.count,
                )
                entry = scan_cache.get(key)
                if entry is None:
                    rows = np.frombuffer(segment.data, dtype=dtype)
                    if rows.size and (rows["version"] == STRUCT_VERSION).all():
                        entry = (
                            rows["car"].tolist(),
                            rows["t"].tolist(),
                            rows["generated_at"].tolist(),
                        )
                        _memo_put(scan_cache, key, entry, _SCAN_MEMO_ENTRIES)
                if entry is not None:
                    cars, ts, gens = entry
                    for i, car in enumerate(cars):
                        if car == car_id:
                            self._receive_warning(now, ts[i], gens[i])
                    continue
            cache = broker.warning_decode_memo
            serde = self._out_serde
            for raw in segment.value_list():
                value = cache.get(raw)
                if value is None:
                    value = serde.deserialize(raw)
                    _memo_put(cache, raw, value, _DECODE_MEMO_ENTRIES)
                if int(value.get("car", -1)) == car_id:
                    self._receive_warning(
                        now, float(value["t"]), float(value["generated_at"])
                    )

    def __repr__(self) -> str:
        return (
            f"VehicleNode(car_id={self.car_id}, rsu={self.rsu.name!r}, "
            f"sent={self.stats.records_sent})"
        )
