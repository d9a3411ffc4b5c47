"""Reference paths the corridor golden suites hold production to.

Neither runs in any scenario; each is switched in for one run with
pytest's ``monkeypatch``:

- :func:`use_per_record_rsu` — the RSU's original detection body: every
  record of a micro-batch deserialized on its own, scored through
  ``detect`` / ``observe`` on the block of those records, and its
  history, streak, event and warning bookkept one record at a time.
  The block path (``RsuNode._detect_batch``: one slab decode,
  ``detect``, array bookkeeping) must reproduce it bit for bit
  (``test_golden_equivalence.py``).
- :func:`use_executed_polls` — a ``"poll"`` vehicle's 10 ms grid as a
  real recurrence: one simulator event per poll, a ``poll_block`` each,
  and every OUT-DATA record keyed to the vehicle deserialized.  The
  virtual grid's settlement must reproduce it bit for bit
  (``test_golden_dissemination.py``).
"""

from typing import List, Tuple

from repro.core import vehicle as vehicle_module
from repro.core.features import IN_DATA
from repro.core.rsu import DetectionEvent, RsuNode
from repro.core.vehicle import VehicleNode
from repro.core.wire import decode_telemetry_block
from repro.dataset.schema import ABNORMAL, TelemetryBlock
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.streaming.broker import BrokerUnavailable


# ----------------------------------------------------------------------
# The per-record RSU
# ----------------------------------------------------------------------
def _detect_per_record(self, batch, completion_time: float) -> None:
    serde = self._serde_for(IN_DATA)
    rows = [decode_telemetry_block([value], serde) for value in batch.collect()]
    records = [row.records()[0] for row in rows]
    stamps = [(row.generated_at.item(), row.arrived_at.item()) for row in rows]
    detector = self._active_detector()
    if self.degraded:
        self.degraded_batches += 1
    with span("rsu.detect", rsu=self.name):
        block = TelemetryBlock.from_records(records)
        classes, probs = detector.detect(block, self.summaries)
        detector.observe(block)
    registry = obs_metrics.active()
    if registry is not None:
        arrivals = [arrived for _, arrived in stamps]
        self._observe_batch(
            registry,
            len(records),
            sum(1 for cls in classes if int(cls) == ABNORMAL),
            completion_time - sum(arrivals) / len(arrivals),
        )
    warned: List[Tuple[int, int, float, float]] = []
    for (generated_at, arrived_at), record, cls, prob in zip(
        stamps, records, classes, probs
    ):
        history = self._history.setdefault(record.car_id, [])
        history.append(float(prob))
        if len(history) > self.config.history_limit:
            del history[: -self.config.history_limit]
        self._last_class[record.car_id] = int(cls)
        abnormal = int(cls) == ABNORMAL
        self.events.append(
            DetectionEvent(
                car_id=record.car_id,
                generated_at=generated_at,
                arrived_at=arrived_at,
                detected_at=completion_time,
                abnormal=abnormal,
                true_label=record.label,
            )
        )
        if abnormal:
            streak = self._abnormal_streak.get(record.car_id, 0) + 1
            self._abnormal_streak[record.car_id] = streak
        else:
            self._abnormal_streak[record.car_id] = 0
        if abnormal and (
            self._abnormal_streak[record.car_id] >= self.config.warning_threshold
        ):
            warned.append(
                (
                    record.car_id,
                    record.road_id,
                    record.speed_kmh,
                    generated_at,
                )
            )
    if warned:
        self._emit_warnings(*zip(*warned), completion_time)


def use_per_record_rsu(patch) -> List[int]:
    """Every RSU running while ``patch`` holds detects per record.

    Returns the sizes of the batches it detected, in order, so a test
    can check that the reference really ran."""
    sizes: List[int] = []

    def detect(self, batch, completion_time: float) -> None:
        sizes.append(len(batch))
        _detect_per_record(self, batch, completion_time)

    patch.setattr(RsuNode, "_detect_batch", detect)
    return sizes


# ----------------------------------------------------------------------
# The executed poll grid
# ----------------------------------------------------------------------
def _poll_executed(self) -> None:
    consumer = self._consumer
    try:
        segments = consumer.poll_block(vehicle_module._POLL_MAX_RECORDS)
    except BrokerUnavailable:
        self.stats.poll_failures += 1
        return
    own = []
    for segment in segments:
        # the records' keys, off the log: this car's warnings are keyed
        # by its id
        log = consumer.broker.topic(segment.topic).partitions[segment.partition]
        keys = log._keys[segment.next_offset - segment.count : segment.next_offset]
        own.extend(
            self._out_serde.deserialize(value)
            for key, value in zip(keys, segment.value_list())
            if key == self._key_bytes
        )
    if own:
        self._receive_warnings(
            [self.sim.now] * len(own),
            [float(value["t"]) for value in own],
            [float(value["generated_at"]) for value in own],
        )


def use_executed_polls(patch) -> None:
    """Every vehicle started while ``patch`` holds runs its grid as a
    recurrence and registers no per-key wake-up."""
    stop = VehicleNode.stop

    def _subscribe(self) -> None:
        pass

    def _start_polling(self, first: float, until) -> None:
        self._cancel_poll = self.sim.every(
            self.poll_interval_s,
            lambda: _poll_executed(self),
            start=first,
            until=until,
            label=f"vehicle-{self.car_id}-poll",
        )

    def _stop(self) -> None:
        cancel = getattr(self, "_cancel_poll", None)
        if cancel is not None:
            cancel()
            self._cancel_poll = None
        stop(self)

    patch.setattr(VehicleNode, "_subscribe", _subscribe)
    patch.setattr(VehicleNode, "_start_polling", _start_polling)
    patch.setattr(VehicleNode, "stop", _stop)
