"""The vehicle node: 10 Hz telemetry producer + warning consumer.

Vehicles replay telemetry records through the DSRC channel to their
RSU's ``IN-DATA`` topic ("each vehicle transmits records of the dataset
at a frequency of 10 Hz") and poll ``OUT-DATA`` every 10 ms for
warnings ("each Kafka consumer pulls every 10 ms to avoid consuming the
bandwidth").
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter, is_, itemgetter, lt, truth
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import IN_DATA, OUT_DATA, payload_columns
from repro.core.wire import topic_serdes
from repro.dataset.generator import SyntheticDataset
from repro.dataset.schema import TelemetryBlock, TelemetryRecord
from repro.net.dsrc import DsrcChannel
from repro.net.htb import HtbShaper, repeat_ranks
from repro.simkernel.simulator import Simulator
from repro.streaming.broker import BrokerUnavailable
from repro.streaming.consumer import Consumer, OwnRecord
from repro.streaming.producer import Producer, RetryPolicy, send_block
from repro.streaming.serde import Serde

#: Records one warning poll may fetch (the consumer's default budget).
_POLL_MAX_RECORDS = 500


class ReplayPool(SequenceABC):
    """Telemetry rows that vehicles replay, kept as columns (a
    :class:`~repro.dataset.schema.TelemetryBlock` and each row's trip
    id), with their ``IN-DATA`` payloads and wire templates made once
    for the whole pool.

    A pool is a sequence of records; ``pool[index::count]`` — a
    vehicle's stripe — is a view on the same rows, and a record is
    materialized only when one is asked for.  The pool a view was
    sliced from computes, on first use, its payload columns
    (:func:`~repro.core.features.payload_columns`, from the block's
    columns) and, per struct layout, its template rows (the serde's
    ``encode_batch``, with car id 0); a view gathers its rows of
    both.  The rows of a stripe differ from the pool's only in the car
    id, which each vehicle writes in (:meth:`VehicleNode._prepare_payloads`).
    """

    def __init__(self, block: TelemetryBlock, trip_id: np.ndarray) -> None:
        self._block = block
        self._trip_id = trip_id
        self._rows = np.arange(len(block))
        self._root = self
        self._columns: Optional[Dict[str, list]] = None
        self._dicts: Optional[List[dict]] = None
        self._encoded: Dict[tuple, np.ndarray] = {}

    @classmethod
    def of(cls, records: Iterable[TelemetryRecord]) -> "ReplayPool":
        """``records`` as a pool: itself when it is one (or a view),
        else the records' columns."""
        if isinstance(records, ReplayPool):
            return records
        dataset = SyntheticDataset.from_records(records)
        return cls(dataset.block, dataset.trip_id)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = object.__new__(ReplayPool)
            view._block = self._block
            view._trip_id = self._trip_id
            view._rows = self._rows[index]
            view._root = self._root
            return view
        return self._materialize(self._rows[[index]])[0]

    def __iter__(self):
        return iter(self._materialize(self._rows))

    def _materialize(self, rows: np.ndarray) -> List[TelemetryRecord]:
        return self._block.take(rows).records(self._trip_id[rows])

    def __repr__(self) -> str:
        return f"ReplayPool(n={len(self)})"

    def _payload_columns(self) -> Dict[str, list]:
        root = self._root
        if root._columns is None:
            root._columns = payload_columns(root._block)
        return root._columns

    def payloads(self) -> List[dict]:
        """The rows' ``IN-DATA`` payloads, each the record's own (car id
        included): shared, never to be mutated."""
        root = self._root
        if root._dicts is None:
            columns = self._payload_columns()
            root._dicts = [dict(zip(columns, row)) for row in zip(*columns.values())]
        return list(map(root._dicts.__getitem__, self._rows.tolist()))

    def templates(self, serde) -> np.ndarray:
        """A copy of the rows' wire templates under the struct
        ``serde``, one ``(n, wire_size)`` uint8 row each: the record's
        payload with car id 0, ``generated_at`` 0.0 and ``arrived_at``
        unset."""
        root = self._root
        if serde.fields not in root._encoded:
            n = len(root._block)
            columns = dict(self._payload_columns(), car=[0] * n)
            columns.update(gen=[0.0] * n, arr=[None] * n)
            joined = b"".join(serde.encode_batch(columns))
            root._encoded[serde.fields] = np.frombuffer(
                joined, dtype=np.uint8
            ).reshape(n, serde.wire_size)
        return root._encoded[serde.fields][self._rows]


#: What :func:`_first_degraded` reads off a vehicle's producer, which
#: is bound to its RSU's broker: the broker's unsteady horizon and the
#: retry backlog, one C-level fetch each.
_UNSTEADY_UNTIL = attrgetter("broker.unsteady_until")
_BACKLOG = attrgetter("_buffer")
_BROKER = attrgetter("broker")
_PRODUCER = attrgetter("_producer")
_ROAD_SINCE = attrgetter("_road_since")
_CHANNEL = attrgetter("channel")
_KEY = attrgetter("_key_bytes")


def _first_degraded(
    producers: Sequence[Producer], instants: Iterable[float]
) -> int:
    """Index of the first of ``producers`` whose vehicle's frame, sent
    or landing at its instant, cannot wait for a flush — its broker is
    down or losing acks then, or it holds a retry backlog;
    ``len(producers)`` if none.  The one "may this frame wait" rule
    (:meth:`VehicleNode._degraded` asks it of one frame)."""
    first = len(producers)
    for flags in (
        list(map(lt, instants, map(_UNSTEADY_UNTIL, producers))),
        list(map(truth, map(_BACKLOG, producers))),
    ):
        if True in flags:
            first = min(first, flags.index(True))
    return first


#: A fleet slot's fields: stripe's first store row, length, next record
#: to replay, beacons and bytes sent since the stats last folded them,
#: shaper (index into ``Fleet._shapers``, -1: none) and its leaf's row.
_STRIPE, _LENGTH, _REPLAY, _SENT, _SENT_BYTES, _SHAPED, _LEAF_ROW = range(7)


class Fleet:
    """The data plane of one :class:`DsrcChannel`'s vehicles, as
    columns over its cohort slots (``channel.columns["fleet"]``): each
    slot's replay position, send counters and HTB leaf, and every
    joined stripe's rows in one append-only store.  A beacon's frame is
    ``(store row, generated_at, sent_on)``; the channel's delivered
    frames land through :func:`land_frames`.  The OUT-DATA appends keyed
    with its vehicles' car ids reach it once per block (:meth:`warned`).

    The vehicles on a channel share one IN-DATA ``serde``, and it
    decides what the store holds.  Under a struct serde, template rows
    of one ``(rows, wire_size)`` uint8 array
    (:meth:`ReplayPool.templates`): a frame's bytes are its row with
    both timestamps written in.  Under JSON, the payload dicts: a
    frame's bytes are its envelope, serialized.
    """

    def __init__(self, channel: DsrcChannel, serde: Serde) -> None:
        self.channel = channel
        self.serde = serde
        capacity = len(channel.columns["next"])
        channel.columns["fleet"] = np.zeros((capacity, 7), dtype=np.int64)
        self._stored = 0  # store rows taken by joined stripes
        self._rows: Optional[np.ndarray] = None
        self._payloads: List[dict] = []
        if serde.wire_size is not None:
            self._rows = np.zeros((0, serde.wire_size), dtype=np.uint8)
        self._empty = False  # a stripe joined empty
        self._shapers: List[HtbShaper] = []
        self._owners: Dict[bytes, "VehicleNode"] = {}
        channel.fleet = self
        channel.lander = land_frames

    @classmethod
    def of(cls, channel: DsrcChannel, serde: Serde) -> "Fleet":
        """``channel``'s fleet, made on first use.  Raises
        :class:`ValueError` for an IN-DATA ``serde`` whose frames the
        fleet does not store: the vehicles on a channel share one."""
        fleet = channel.fleet or cls(channel, serde)
        if serde.wire_size != fleet.serde.wire_size:
            raise ValueError(
                f"a {type(serde).__name__} vehicle on a channel of "
                f"{type(fleet.serde).__name__} vehicles"
            )
        return fleet

    def templates(self, stripe: "ReplayPool", car_id: int) -> Optional[np.ndarray]:
        """``stripe``'s template rows with ``car_id`` written in, or
        ``None`` when this fleet stores payloads.  Raises
        :class:`~repro.streaming.serde.SerdeError` for a car id the
        layout cannot hold."""
        if self._rows is None:
            return None
        rows = stripe.templates(self.serde)
        self.serde.fill(rows, "car", car_id)
        return rows

    def joined(self, slot: int, vehicle: "VehicleNode") -> None:
        """Store ``vehicle``'s stripe for ``slot``; replay resumes where
        the vehicle left off.  The store only grows: a stripe stays
        while frames in flight may still name its rows."""
        start = self._stored
        stop = self._stored = start + len(vehicle._stripe)
        if self._rows is None:
            self._payloads.extend(vehicle._payloads)
        else:
            if stop > len(self._rows):
                capacity = max(stop, 2 * len(self._rows))
                self._rows = np.resize(self._rows, (capacity, self._rows.shape[1]))
            self._rows[start:stop] = vehicle._templates
        self._empty = self._empty or start == stop
        self.channel.columns["fleet"][slot, :_SHAPED] = (
            start, stop - start, vehicle._replay, 0, 0
        )
        self.shape(slot, vehicle)

    def shape(self, slot: int, vehicle: "VehicleNode") -> None:
        """Point ``slot`` at the HTB leaf of ``vehicle``'s shaper."""
        shaper = vehicle.shaper
        leaf = (-1, 0)
        if shaper is not None:
            if shaper not in self._shapers:
                self._shapers.append(shaper)
            leaf = (self._shapers.index(shaper), shaper.row(vehicle._leaf_name))
        self.channel.columns["fleet"][slot, _SHAPED:] = leaf

    def fold(self, slot: int, vehicle: "VehicleNode") -> None:
        """Move the slot's send counters into ``vehicle``'s stats."""
        state = self.channel.columns["fleet"]
        stats = vehicle._stats
        stats.records_sent += state[slot, _SENT].item()
        stats.bytes_sent += state[slot, _SENT_BYTES].item()
        state[slot, _SENT:_SHAPED] = 0

    def left(self, slot: int, vehicle: "VehicleNode") -> None:
        """``vehicle`` leaves ``slot``: it keeps its counts and where
        its replay stands, for the channel it joins next."""
        self.fold(slot, vehicle)
        vehicle._replay = self.channel.columns["fleet"][slot, _REPLAY].item()

    def emit(
        self,
        instants: np.ndarray,
        slots: np.ndarray,
        vehicles: List["VehicleNode"],
    ) -> None:
        """Send the beacons due at a flush, ``instants[i]`` of
        ``vehicles[i]`` (cohort slot ``slots[i]``), in kernel order.

        - Each beacon replays its vehicle's next stripe row; the
          replay positions and send counters move column-wise, in
          rounds when a vehicle is due more than once.  A beacon's
          size is its frame's before delivery (``arrived_at`` unset).
        - HTB is charged at each instant, the whole block in order
          (:meth:`~repro.net.htb.HtbShaper.send_rows`).
        - The frames join the channel's queue at their effective times
          as one block of rows: :func:`land_frames` builds the bytes.
        - A vehicle that cannot wait for a flush at its instant
          (:func:`_first_degraded`) ends the block: its frame resolves
          at its own instant (``flush_at``), and the rule is asked
          afresh for the beacons after it.
        """
        channel = self.channel
        state = channel.columns["fleet"]
        records = np.empty((len(slots), 7), dtype=np.int64)
        for rank in repeat_ranks(slots):  # a vehicle due twice: in turn
            record = state[slots[rank]]
            if self._empty and not record[:, _LENGTH].all():
                next(iter(()))  # StopIteration, as cycle() on an empty stripe
            records[rank] = record
            record[:, _REPLAY] += 1
            record[:, _REPLAY] %= record[:, _LENGTH]
            record[:, _SENT] += 1
            state[slots[rank]] = record
        rows = records[:, _STRIPE] + records[:, _REPLAY]
        at = instants.tolist()
        if self._rows is None:
            sizes = list(map(len, self.values(rows.tolist(), at, [None] * len(at))))
        else:
            sizes = [self._rows.shape[1]] * len(at)
        np.add.at(state[:, _SENT_BYTES], slots, sizes)
        eff_times = at
        if self._shapers:
            delays = np.zeros(len(at))
            shaped = records[:, _SHAPED]
            charged = np.asarray(sizes, dtype=np.float64)
            for index in np.unique(shaped).tolist():  # one per RSU, or none
                if index >= 0:
                    mine = shaped == index
                    delays[mine] = self._shapers[index].send_rows(
                        records[mine, _LEAF_ROW], charged[mine], instants[mine]
                    )
            eff_times = (instants + delays).tolist()
        frames = list(zip(rows.tolist(), at, repeat(channel)))
        producers = list(map(_PRODUCER, vehicles))
        start, count = 0, len(at)
        while start < count:
            row = start + _first_degraded(producers[start:], at[start:])
            stop = min(row + 1, count)
            channel.enqueue_block(
                eff_times[start:stop],
                sizes[start:stop],
                vehicles[start:stop],
                frames[start:stop],
            )
            start = stop
            if row < count:
                channel.flush_at(eff_times[row])

    def values(
        self, rows: List[int], generated: Iterable[float], times: Iterable
    ) -> List[bytes]:
        """The wire bytes of the frames of store rows ``rows``,
        generated at ``generated`` and arrived at ``times``: template
        rows with both timestamps written in, column-wise, or the
        envelopes serialized."""
        if self._rows is None:
            return self.serde.encode_batch(
                {
                    "data": list(map(self._payloads.__getitem__, rows)),
                    "generated_at": list(generated),
                    "arrived_at": list(times),
                }
            )
        block = self._rows[rows]
        stamped = block.view(self.serde.dtype)[:, 0]
        stamped["gen"] = list(generated)
        stamped["arr"] = list(times)
        return block.view(np.dtype((np.void, block.shape[1]))).ravel().tolist()

    def warned(
        self,
        keys: Sequence[bytes],
        partitions: Sequence[int],
        offsets: Sequence[int],
    ) -> None:
        """Warnings for this fleet's cars hit OUT-DATA: each goes on its
        vehicle's unread list, for the poll at the first grid instant at
        or after now to read it, or a later one when the broker is down
        by then or the budget cuts that poll short; one at or past
        ``until`` never runs and it stays unread.  Only queued here:
        settlement is path-independent, so it waits for whoever reads
        the grid (:meth:`VehicleNode.stop`, ``detach``, a migrate)."""
        entries = zip(
            zip(repeat(OUT_DATA), partitions), offsets, repeat(self.channel.sim.now)
        )
        for vehicle, entry in zip(map(self._owners.__getitem__, keys), entries):
            vehicle._own_unread.append(entry)


def land_frames(delivered: List[Tuple[float, Tuple]]) -> None:
    """Land the frames one flush delivered, in delivery order.

    Each is a vehicle's channel row ``(eff_time, seq, size, vehicle,
    frame)`` with its delivery time, ``frame`` being ``(store row,
    generated_at, sent_on)`` (:meth:`Fleet.emit`).  Per frame, what a
    delivery event would have checked: a frame generated before its
    vehicle last changed road is abandoned (counted); one sent on
    another channel than its vehicle's now (on the air across a
    failover) first flushes that channel, whose earlier frames land
    ahead of it.  Consecutive frames bound for one steady broker land
    as one IN-DATA block (:func:`~repro.streaming.producer.send_block`);
    a frame whose broker is down or losing acks, or whose producer
    holds a retry backlog, goes through ``Producer.send`` alone.  When
    no frame needs any of that — the steady state — the whole delivery
    is one block, the checks made column-wise and the bytes made by
    the sending fleet at once (:func:`_wire_values`).
    """
    rows = list(map(itemgetter(1), delivered))
    vehicles: List["VehicleNode"] = list(map(itemgetter(3), rows))
    frames: List[Tuple] = list(map(itemgetter(4), rows))
    producers = list(map(_PRODUCER, vehicles))
    now = vehicles[0].sim.now
    generated = map(itemgetter(1), frames)
    if (
        not any(map(lt, generated, map(_ROAD_SINCE, vehicles)))
        and all(map(is_, map(itemgetter(2), frames), map(_CHANNEL, vehicles)))
        and _first_degraded(producers, repeat(now)) == len(producers)
        and len(set(map(_BROKER, producers))) == 1
    ):
        _land_block(vehicles, list(map(itemgetter(0), delivered)), frames)
        return
    vehicles, times, frames = [], [], []
    broker = None
    for at_time, (_, _, _, vehicle, frame) in delivered:
        if frame[1] < vehicle._road_since:
            vehicle._producer.records_abandoned += 1
            continue
        if frame[2] is not vehicle.channel:
            _land_block(vehicles, times, frames)
            vehicle.channel.flush(now)
        if vehicle._degraded(now):
            _land_block(vehicles, times, frames)
            vehicle._land_one(at_time, frame)
            continue
        if vehicle._producer.broker is not broker:
            _land_block(vehicles, times, frames)
            broker = vehicle._producer.broker
        vehicles.append(vehicle)
        times.append(at_time)
        frames.append(frame)
    _land_block(vehicles, times, frames)


def _land_block(vehicles, times, frames) -> None:
    """Send the block gathered so far, and empty the lists."""
    if frames:
        send_block(
            list(map(_PRODUCER, vehicles)),
            IN_DATA,
            list(map(_KEY, vehicles)),
            _wire_values(frames, times),
        )
        for column in (vehicles, times, frames):
            column.clear()


def _wire_values(frames: List[Tuple], times: List[float]) -> List[bytes]:
    """The wire bytes of frames delivered at ``times``, each made by the
    fleet of the channel it was sent on (:meth:`Fleet.values`): at once
    when that is one channel, as in the steady state."""
    channels = set(map(itemgetter(2), frames))
    if len(channels) == 1:
        return channels.pop().fleet.values(
            list(map(itemgetter(0), frames)), map(itemgetter(1), frames), times
        )
    return [
        sent_on.fleet.values([row], [generated_at], [at_time])[0]
        for (row, generated_at, sent_on), at_time in zip(frames, times)
    ]


@dataclass
class VehicleStats:
    """Per-vehicle measurements.

    A view: the send counters live in the vehicle's channel's
    :class:`Fleet` columns and are folded in here whenever
    :attr:`VehicleNode.stats` is read and when the vehicle leaves its
    channel (``stop``, ``retire``, ``migrate``, ``detach``).  They are
    settled, not live: beacons are counted by a flush of the channel
    (each RSU micro-batch tick), warning polls when something reads the
    vehicle's poll grid (the same four).  Mid-run they lag by up to one
    tick (``records_sent``, ``bytes_sent``) or a whole run
    (``warnings_received``, its latencies, ``poll_failures``); read them
    after :meth:`VehicleNode.stop` (a scenario's ``wind_down`` stops
    every vehicle) for the figures per-event beacons and polls would
    give.
    """

    #: Beacons sent (settled at each flush of the channel).
    records_sent: int = 0
    bytes_sent: int = 0
    #: Warnings read by the polls settled so far.
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
        The serde of each topic, matching the RSU's
        (:func:`repro.core.wire.topic_serdes`); the JSON profile's when
        absent.  Every vehicle on a channel shares one IN-DATA serde.
    retry:
        :class:`~repro.streaming.producer.RetryPolicy` for telemetry
        produce: buffered retries with backoff plus idempotent
        sequence numbers.  ``None`` (default, the seed behaviour)
        drops telemetry refused by a down broker.

    The vehicle is the control plane's handle: its payload rows, send
    counters and HTB leaf live in its channel's :class:`Fleet`, in the
    cohort slot it holds while it beacons.

    The 10 Hz beacon grid is virtual: the vehicle joins its
    channel's cohort, and whoever flushes the channel first sends every
    beacon due by then (:meth:`Fleet.emit`: HTB charged at the beacon's
    instant, the frame deferred as a row).  Contention resolves at the
    RSU's pre-poll flush, RNG draw order preserved; the frames one
    flush delivers land as one IN-DATA block (:func:`land_frames`).
    While the broker is down or losing acks, or the producer holds a
    retry backlog, each beacon is an event at its own instant and its
    frame resolves then (:meth:`arm`).

    Hence :attr:`stats` are settled, not live: call :meth:`stop` (or
    flush the channel, for the send counters) before reading them
    mid-run; see :class:`VehicleStats`.

    The vehicle's 10 ms poll grid is virtual: the grid is the
    drawn phase plus repeated interval addition, and no instant of it
    becomes a simulator event.  Every poll is *settled*: accounted in
    closed form from the partitions' append clocks and the broker's
    outage log (:meth:`_settle`).  The broker routes the append of a
    warning for this car to the fleet by record key (:meth:`Fleet.warned`);
    settlement hands each back at the grid instant whose poll read it
    (:meth:`_receive_own`).
    """

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
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if update_rate_hz <= 0:
            raise ValueError("update rate must be positive")
        if poll_interval_s <= 0:
            raise ValueError("poll interval must be positive")
        self.sim = sim
        self.car_id = car_id
        self.rsu = rsu
        self.channel = channel
        serdes = topic_serdes() if serdes is None else serdes
        #: Serde for the telemetry envelopes this vehicle produces.
        self.serde = serdes[IN_DATA]
        self._out_serde = serdes[OUT_DATA]
        Fleet.of(channel, self.serde)
        rsu.attach_uplink(channel)
        self._beacon: Optional[int] = None
        self._shaper = shaper
        self.update_period_s = 1.0 / update_rate_hz
        self.poll_interval_s = poll_interval_s
        self.consumer_processing_s = consumer_processing_s
        self.consumer_jitter_s = consumer_jitter_s
        self._rng = rng or np.random.default_rng(car_id)
        self._prepare_payloads(records)
        # Telemetry goes through a Producer so the delivery guarantees
        # (bounded retry buffer, idempotent sequences) apply.  The
        # envelope is serialized by the vehicle (the wire size gates
        # the DSRC airtime); the producer appends the bytes as they are.
        # A retry policy implies idempotence: retries must never
        # double-count a record the broker already appended.
        self._producer = Producer(
            rsu.broker,
            client_id=f"vehicle-{car_id}",
            sim=sim,
            retry=retry,
            idempotent=retry is not None,
        )
        self._producer.before_retry = self._flush_channel
        self._stats = VehicleStats()
        self._consumer: Optional[Consumer] = None
        # The virtual beacon grid: the channel's ticket for it while it
        # runs (``_beacon``), the loop's end, and the event of the next
        # beacon while frames cannot wait (``arm``).
        self._beacon_until: Optional[float] = None
        self._armed = None
        self._cancel_notify = None
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
        """Register for the OUT-DATA appends keyed with this car id (the
        RSU keys a warning by the warned car), through the channel's
        fleet (:meth:`Fleet.warned`)."""
        fleet = Fleet.of(self.channel, self.serde)
        fleet._owners[self._key_bytes] = self
        self._cancel_notify = self.rsu.broker.subscribe_key(
            OUT_DATA, self._key_bytes, fleet.warned
        )

    @property
    def stats(self) -> VehicleStats:
        """This vehicle's measurements, with the send counters its
        channel's fleet holds folded in."""
        self._fold()
        return self._stats

    @stats.setter
    def stats(self, stats: VehicleStats) -> None:
        self._fold()
        self._stats = stats

    def _fold(self) -> None:
        slot = self._slot()
        if slot is not None:
            self.channel.fleet.fold(slot, self)

    def _slot(self) -> Optional[int]:
        """This vehicle's cohort slot on its channel, while it beacons."""
        return None if self._beacon is None else self.channel.slot(self._beacon)

    @property
    def shaper(self) -> Optional[HtbShaper]:
        """The HTB shaper charged for this vehicle's beacons (leaf
        ``vehicle-<car id>``), or ``None``."""
        return self._shaper

    @shaper.setter
    def shaper(self, shaper: Optional[HtbShaper]) -> None:
        self._shaper = shaper
        slot = self._slot()
        if slot is not None:
            self.channel.fleet.shape(slot, self)

    def start(self, until: Optional[float] = None) -> None:
        """Begin the produce loop and the warning consumption."""
        if self._started:
            raise RuntimeError(f"vehicle {self.car_id} already started")
        self._started = True
        # Desynchronise vehicles: each starts at a random phase within
        # its first update period, as real beacons are unaligned.
        phase = float(self._rng.uniform(0.0, self.update_period_s))
        self._start_beacons(self.sim.now + phase, until)
        poll_phase = float(self._rng.uniform(0.0, self.poll_interval_s))
        self._start_polling(self.sim.now + poll_phase, until)

    def _start_beacons(self, first: float, until: Optional[float]) -> None:
        """Beacon on the grid ``first, first + interval, ...`` while an
        instant is before ``until`` — the instants a recurrence would
        fire at, none of them an event while frames may wait."""
        self._beacon_until = until
        if until is not None and first >= until:
            return
        self._beacon = self.channel.join(
            self, first, self.update_period_s, until
        )
        self.arm()

    def _next_beacon(self) -> Optional[float]:
        """The grid's first instant not sent yet; ``None`` once it
        reached ``until`` or stopped."""
        if self._beacon is None:
            return None
        return self.channel.next_beacon(self._beacon)

    def _stop_beacons(self) -> None:
        """Send the beacons due by now, then leave the grid."""
        if self._armed is not None:
            self.sim.cancel(self._armed)
            self._armed = None
        if self._beacon is not None:
            self.channel.emit_due(self.sim.now)
            self.channel.leave(self._beacon)
            self._beacon = None

    def _start_polling(self, first: float, until: Optional[float]) -> None:
        """Poll OUT-DATA on the grid ``first, first + interval, ...``.

        Virtual polling keeps the exact grid a recurrence would walk
        (same float-accumulated instants) but runs none of its polls:
        empty, dropping other cars' warnings, refused by a down broker
        or reading a warning for this car, each is settled (see
        :meth:`_settle`).
        """
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
        self._stop_beacons()
        self._started = False
        self._grid_live = False
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
        now = self.sim.now
        old_channel = self.channel
        # The beacons due by now were sent on the old road.
        old_channel.emit_due(now)
        carried: List[Tuple] = []
        if new_channel is not old_channel:
            # Resolve everything due on the old medium while the old
            # producer is still bound — those deliveries belong to the
            # old broker.  Frames still deferred (shaper-delayed past
            # now) move to the new channel and contend on that medium
            # when their time comes.
            old_channel.flush(now)
            carried = old_channel.take_pending(self)
            if self._beacon is not None:
                following = old_channel.next_beacon(self._beacon)
                old_channel.leave(self._beacon)
                self._beacon = None
                if following is not None:
                    Fleet.of(new_channel, self.serde)
                    self._beacon = new_channel.join(
                        self, following, self.update_period_s,
                        self._beacon_until,
                    )
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
            self._road_since = now
        self._attach_consumer()
        if carried:
            # They land behind what the new medium holds by now; each
            # resolves at its own instant if it cannot wait.
            new_channel.emit_due(now)
            degraded = self._degraded(now)
            for eff_time, _, size, _, frame in carried:
                new_channel.enqueue(eff_time, size, self, frame)
                if degraded:
                    new_channel.flush_at(eff_time)
        self.arm()

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
        "start reading from the motorway link subdataset").  A
        :class:`ReplayPool` view (a stripe of the scenario's pool) is
        replayed as it is; other records become a pool of their own."""
        stripe = ReplayPool.of(records)
        if not stripe:
            raise ValueError("record stream cannot be empty")
        # the beacons due by now replayed the old stripe
        self.channel.emit_due(self.sim.now)
        self._prepare_payloads(stripe)
        slot = self._slot()
        if slot is not None:
            # the new stripe replays from its first record
            self.channel.fleet.fold(slot, self)
            self.channel.fleet.joined(slot, self)

    def _prepare_payloads(self, records: Iterable[TelemetryRecord]) -> None:
        """Take the wire templates of the stripe this vehicle replays.

        ``records`` is a :class:`ReplayPool` view — a vehicle group's
        stripe of its scenario's pool — or any records, which become a
        pool of their own.  Under a struct serde the pool encodes its
        rows once for all the vehicles striping it, into template rows
        (each record's payload with car id 0 and unset timestamps);
        here the stripe's rows are gathered and this car's id is
        written into them (:meth:`Fleet.templates`, which raises for a
        car id the layout cannot hold).  A beacon's wire bytes differ
        from its template only in the two timestamps, so each send
        writes them in instead of serializing.  Under JSON a send
        serializes the envelope of its payload (:attr:`_payloads`).
        Payloads are never mutated after this point, so frames in
        flight may share them; an empty stripe is tolerated at
        construction (it only fails if a beacon is actually due).
        """
        stripe = ReplayPool.of(records)
        #: The replayed records, kept for introspection (the payloads
        #: drop fields like ``trip_id`` that never go on the wire).
        self._stripe = stripe
        self._templates = Fleet.of(self.channel, self.serde).templates(
            stripe, self.car_id
        )
        self._payload_list: Optional[List[dict]] = None
        # The next record to replay while in no cohort (else the fleet's).
        self._replay = 0

    @property
    def _payloads(self) -> List[dict]:
        """The stripe's ``IN-DATA`` payloads with this car's id."""
        if self._payload_list is None:
            car = self.car_id
            self._payload_list = [
                {**payload, "car": car} for payload in self._stripe.payloads()
            ]
        return self._payload_list

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
        # Sends the beacons due by now: the first instant not sent, None
        # once the grid ran past ``until``.
        self.channel.flush(self.sim.now)
        produce_next = self._next_beacon()
        # Settle against the broker being left, so that ``_next_poll``
        # is the first grid instant not before now.
        self._settle()
        if self._grid_live and (
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
            self._start_beacons(produce_next, until)
        if poll_next is not None:
            self._start_polling(poll_next, until)

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """While this vehicle's frames cannot wait for a flush (its
        broker down or losing acks, a retry backlog), its next beacon is
        a simulator event; it re-arms only while that lasts.  Whoever
        makes frames unable to wait calls this after sending the
        beacons due by then (``RsuNode.crash``/``fail``/
        ``drop_acks_until``, :meth:`migrate`)."""
        if self._armed is not None:
            return
        following = self._next_beacon()
        if following is not None and self._degraded(self.sim.now):
            self._armed = self.sim.at(
                following,
                self._beacon_event,
                label=f"vehicle-{self.car_id}-produce",
            )

    def _beacon_event(self) -> None:
        self._armed = None
        self.channel.emit_due(self.sim.now)
        self.arm()

    def _degraded(self, at: float) -> bool:
        """Whether a frame of this vehicle sent or landing at ``at``
        cannot wait for a flush: the broker is down or losing acks, or
        the producer holds a retry backlog (:func:`_first_degraded`)."""
        return _first_degraded([self._producer], [at]) == 0

    def _land_one(self, at_time: float, frame: Tuple) -> None:
        """Deliver one frame through :meth:`Producer.send`: the path
        where refusal, buffering, ack loss and retry order apply."""
        try:
            self._producer.send(
                IN_DATA,
                _wire_values([frame], [at_time])[0],
                key=self._key_bytes,
            )
        except BrokerUnavailable:
            self._stats.records_lost += 1

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
        read: List[Tuple[float, OwnRecord]] = []
        self._next_poll, refused = self._consumer.settle_polls(
            self._next_poll,
            self.poll_interval_s,
            limit,
            _POLL_MAX_RECORDS,
            self._own_unread,
            read.extend,
        )
        self._stats.poll_failures += refused
        if read:
            self._receive_own(read)

    def _receive_own(self, read: List[Tuple[float, OwnRecord]]) -> None:
        """The settled polls read these warnings, ``(instant, entry)`` in
        the order the polls returned them: decode the bytes they fetched
        as columns and receive them all at once."""
        values = self._consumer.broker.topic(OUT_DATA).values_at(
            [partition for _, ((_, partition), _, _) in read],
            [offset for _, (_, offset, _) in read],
        )
        columns = self._out_serde.decode_batch(values)
        self._receive_warnings(
            [instant for instant, _ in read], columns["t"], columns["generated_at"]
        )

    def _receive_warnings(
        self,
        polled: Sequence[float],
        detected: Sequence[float],
        generated: Sequence[float],
    ) -> None:
        """Count the warnings for this car read by the polls at
        ``polled``, in record order.  The jitter draws are the only RNG
        use here, one per warning in record order: one vector draw,
        which is those scalar draws bit for bit."""
        jitter = self._rng.uniform(
            -self.consumer_jitter_s, self.consumer_jitter_s, size=len(polled)
        )
        handling = np.maximum(0.0, self.consumer_processing_s + jitter)
        received = np.asarray(polled, dtype=np.float64) + handling
        stats = self._stats
        stats.warnings_received += len(polled)
        stats.dissemination_latencies_s.extend(
            (received - np.asarray(detected, dtype=np.float64)).tolist()
        )
        stats.e2e_latencies_s.extend(
            (received - np.asarray(generated, dtype=np.float64)).tolist()
        )

    def __repr__(self) -> str:
        return (
            f"VehicleNode(car_id={self.car_id}, rsu={self.rsu.name!r}, "
            f"sent={self.stats.records_sent})"
        )
