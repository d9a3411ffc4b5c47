"""The RSU node: ingestion, micro-batch detection, dissemination,
collaboration.

One :class:`RsuNode` is the paper's edge unit (Fig. 3): a Kafka broker
with the three topics, a Spark-style 50 ms micro-batch pipeline running
the detector, warnings written to ``OUT-DATA``, and ``CO-DATA``
summaries exchanged with adjacent RSUs over a wired link at vehicle
handover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.block import NO_LABEL, DetectionEventLog, TelemetryBlock
from repro.core.collab import (
    BAND_REFRESH,
    BAND_URGENT,
    CollabConfig,
    CollabPlane,
    SendPlan,
    SummaryRxCache,
)
from repro.core.features import (
    CO_DATA,
    IN_DATA,
    OUT_DATA,
    PredictionSummary,
    WarningMessage,
    payload_to_record,
)
from repro.core.wire import (
    SummaryFrame,
    SummaryFrameSerde,
    decode_telemetry_block,
    decode_telemetry_segments,
)
from repro.dataset.schema import ABNORMAL
from repro.microbatch.batch import BlockBatch
from repro.microbatch.context import ProcessingModel, StreamingContext
from repro.ml.base import Detector, as_detector
from repro.net.link import WiredLink
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.simkernel.simulator import Simulator
from repro.streaming.broker import Broker, BrokerUnavailable
from repro.streaming.consumer import Consumer
from repro.streaming.serde import JsonSerde, Serde


@dataclass
class RsuConfig:
    """Per-RSU tunables, defaulting to the paper's testbed settings."""

    batch_interval_s: float = 0.050
    topic_partitions: int = 3
    processing_model: ProcessingModel = field(default_factory=ProcessingModel)
    #: Keep at most this many recent NB probabilities per car for the
    #: handover summary.
    history_limit: int = 200
    #: Consecutive abnormal records required before a warning fires.
    #: 1 (the paper's behaviour) warns on every abnormal record; higher
    #: values debounce flicker at the cost of detection delay ("less
    #: disturbance to other drivers with false warnings", Sec. VI-D4).
    warning_threshold: int = 1
    #: Run the columnar micro-batch pipeline (poll raw bytes, decode
    #: the whole batch into a :class:`TelemetryBlock`, score and
    #: bookkeep on arrays).  ``False`` keeps the original per-record
    #: loop; both produce bit-identical events and warnings — the
    #: golden-equivalence tests pin this.
    columnar: bool = True
    #: Poll the pipeline through :meth:`Consumer.poll_block`: micro-
    #: batches arrive as contiguous wire slabs (zero-copy off the
    #: broker's columnar partition slabs) instead of per-record
    #: objects.  Requires ``columnar``; scenarios set it whenever
    #: that is on.
    block: bool = False
    #: Per-topic serde overrides (e.g. :func:`repro.core.wire.topic_serdes`
    #: for the binary profile); topics not listed use compact JSON.
    serdes: Optional[Dict[str, Serde]] = None
    #: Seconds of CO-DATA silence (after at least one summary arrived)
    #: before a collaborating RSU degrades to road-only detection.
    #: ``None`` (default) disables degradation — the seed behaviour.
    upstream_timeout_s: Optional[float] = None
    #: Bandwidth-adaptive CO-DATA plane (utility gating, delta
    #: encoding, priority bands — :class:`~repro.core.collab.CollabConfig`).
    #: ``None``, or a default (disabled) config, keeps the seed
    #: handover-only collaboration bit-identical.
    collab: Optional[CollabConfig] = None

    def __post_init__(self) -> None:
        if self.warning_threshold < 1:
            raise ValueError("warning_threshold must be >= 1")
        if self.block and not self.columnar:
            raise ValueError("block polling requires the columnar pipeline")
        if self.upstream_timeout_s is not None and self.upstream_timeout_s <= 0:
            raise ValueError("upstream_timeout_s must be positive")


@dataclass
class DetectionEvent:
    """One record's journey through the RSU, for latency accounting
    and online quality measurement."""

    car_id: int
    generated_at: float  # vehicle produced the packet
    arrived_at: float  # packet reached the broker (after DSRC)
    detected_at: float  # micro-batch completion
    abnormal: bool  # the detector's verdict
    #: Offline sigma-cutoff label carried by the replayed record
    #: (None when replaying unlabelled data).
    true_label: Optional[int] = None

    @property
    def queuing_s(self) -> float:
        return self.detected_at - self.arrived_at

    @property
    def tx_s(self) -> float:
        return self.arrived_at - self.generated_at


class RsuNode:
    """A roadside unit: broker + micro-batch detection + collaboration.

    Parameters
    ----------
    sim:
        Simulation kernel.
    name:
        RSU identity (``"rsu-motorway-1"``).
    detector:
        A fitted detector: :class:`AD3Detector`,
        :class:`CollaborativeDetector`, or :class:`CentralizedDetector`.
    config:
        Tunables.
    jitter_rng:
        Seeded RNG for processing jitter (``None`` = deterministic).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        detector,
        config: Optional[RsuConfig] = None,
        jitter_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.detector = as_detector(detector)
        #: Road-only fallback for degraded operation: the collaborative
        #: detector's local NB (absent on detectors that do not fuse
        #: upstream context, which never degrade).
        self._fallback_detector: Optional[Detector] = (
            as_detector(self.detector.nb)
            if getattr(self.detector, "nb", None) is not None
            else None
        )
        self.config = config or RsuConfig()
        self.broker = Broker(name, clock=lambda: sim.now)
        for topic in (IN_DATA, OUT_DATA, CO_DATA):
            self.broker.create_topic(topic, self.config.topic_partitions)
        self._default_serde = JsonSerde()
        self._serdes: Dict[str, Serde] = dict(self.config.serdes or {})
        # The collaboration plane wraps the CO-DATA serde before the
        # collab consumer is built, so framed payloads (deltas / full
        # resyncs) deserialize to SummaryFrame markers.
        collab_config = self.config.collab
        self.collab: Optional[CollabPlane] = None
        self._collab_rx: Optional[SummaryRxCache] = None
        if collab_config is not None and collab_config.enabled:
            inner = self._serde_for(CO_DATA)
            self._serdes[CO_DATA] = SummaryFrameSerde(inner)
            self.collab = CollabPlane(
                collab_config,
                inner,
                history_weight=getattr(
                    self.detector, "history_weight", 0.5
                ),
                upstream_timeout_s=self.config.upstream_timeout_s,
            )
            self._collab_rx = SummaryRxCache(inner)
        self._in_consumer = self._make_pipeline_consumer()
        self._co_consumer = self._make_collab_consumer()
        jitter_source = None
        if jitter_rng is not None:
            jitter_source = lambda: float(jitter_rng.uniform(-1.0, 1.0))
        self.context = StreamingContext(
            sim,
            self._in_consumer,
            interval_s=self.config.batch_interval_s,
            processing_model=self.config.processing_model,
            jitter_source=jitter_source,
            raw=self.config.columnar,
            block=self.config.block,
            name=name,
        )
        self.context.stream.foreach_batch(self._on_batch)
        # Collaboration state
        self.summaries: Dict[int, PredictionSummary] = {}
        self._history: Dict[int, List[float]] = {}
        self._last_class: Dict[int, int] = {}
        self._abnormal_streak: Dict[int, int] = {}
        self._links: Dict[str, WiredLink] = {}
        self._neighbors: Dict[str, "RsuNode"] = {}
        # Resilience state
        self.crashed_at: Optional[float] = None
        self.restarted_at: Optional[float] = None
        #: Open :meth:`crash` windows; the node is down while > 0.
        self._open_crashes = 0
        self.degraded = False
        #: (time, "degraded" | "recovered") transitions, in order.
        self.degradation_events: List[Tuple[float, str]] = []
        self.degraded_batches = 0
        self._last_co_arrival: Optional[float] = None
        # Measurements
        self.events: DetectionEventLog = DetectionEventLog()
        self.warnings_issued = 0
        #: Every warning emitted, in emission order:
        #: ``(detected_at, car_id, road_id, speed_kmh, generated_at)``.
        #: The sharded engine's golden-equivalence checks compare these
        #: tuples exactly against the single-process run.
        self.warning_records: List[Tuple[float, int, int, float, float]] = []
        #: Warnings appended but unacknowledged (broker ack-loss
        #: window); they still reach vehicles.
        self.warnings_ack_lost = 0
        self.summaries_sent = 0
        self.summaries_received = 0
        self.summaries_lost = 0
        #: Delta frames dropped for a missing/mismatched receiver
        #: baseline (healed by the sender's next full resync).
        self.summaries_stale_dropped = 0
        # CO-DATA priority scheduling (attached by the scenario when
        # the collab plane's priority band is on).
        self.co_shaper = None
        self._co_leaves: Dict[str, str] = {}
        self._co_refresh = None
        #: Records polled into a micro-batch whose completion found the
        #: broker down — consumed (and committed) but never detected.
        self.records_dead_on_crash = 0
        self.failed = False
        #: The DSRC channel vehicles reach this RSU over
        #: (:meth:`attach_uplink`).
        self._uplink = None

    def _make_pipeline_consumer(self) -> Consumer:
        consumer = Consumer(
            self.broker,
            group=f"{self.name}-pipeline",
            serde=self._serde_for(IN_DATA),
        )
        consumer.subscribe([IN_DATA])
        return consumer

    def _make_collab_consumer(self) -> Consumer:
        consumer = Consumer(
            self.broker,
            group=f"{self.name}-collab",
            serde=self._serde_for(CO_DATA),
        )
        consumer.subscribe([CO_DATA])
        return consumer

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def connect(self, other: "RsuNode", link: WiredLink) -> None:
        """Attach a wired link toward ``other`` for CO-DATA traffic."""
        if other.name in self._neighbors:
            raise ValueError(f"{self.name!r} already connected to {other.name!r}")
        self._neighbors[other.name] = other
        self._links[other.name] = link

    @property
    def neighbor_names(self) -> List[str]:
        return sorted(self._neighbors)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach_co_shaper(
        self, shaper, urgent_leaf: str, refresh_leaf: str
    ) -> None:
        """Schedule CO-DATA sends under ``shaper``'s two priority
        bands (urgent = decision-changing, refresh = staleness-only)."""
        self.co_shaper = shaper
        self._co_leaves = {BAND_URGENT: urgent_leaf, BAND_REFRESH: refresh_leaf}

    def start(self, until: Optional[float] = None) -> None:
        self.context.start(until=until)
        self._start_co_refresh(until)

    def _start_co_refresh(self, until: Optional[float]) -> None:
        if (
            self.collab is not None
            and self.config.collab.mode == "refresh"
            and self._co_refresh is None
        ):
            self._co_refresh = self.sim.every(
                self.config.collab.refresh_interval_s,
                self._collab_refresh_tick,
                until=until,
                label=f"{self.name}-co-refresh",
            )

    def _cancel_co_refresh(self) -> None:
        if self._co_refresh is not None:
            self._co_refresh.cancel()
            self._co_refresh = None

    def stop(self) -> None:
        self.context.stop()
        self._cancel_co_refresh()

    def attach_uplink(self, channel) -> None:
        """Serve ``channel`` as this RSU's telemetry uplink.

        Vehicles defer their frames on the channel.  Every micro-batch
        tick first resolves the contention of the frames effective by
        the tick instant, landing them on IN-DATA exactly where
        per-frame delivery events would have; and before the broker's
        goes away (:meth:`fail`, :meth:`crash`) the channel is settled,
        so each frame meets the broker it would have met at its own
        delivery instant.
        """
        if self._uplink is channel:
            return
        if self._uplink is not None:
            raise ValueError(f"RSU {self.name!r} already has an uplink channel")
        self._uplink = channel
        self.context.pre_poll = lambda: channel.flush(self.sim.now)

    def _settle_uplink(self) -> None:
        if self._uplink is not None:
            self._uplink.settle()

    def fail(self) -> None:
        """Take the node down permanently (edge-node outage).

        The pipeline stops, the broker refuses clients, and the node
        refuses further collaboration; already-queued telemetry is lost
        with the node.  Vehicles must re-home to a neighbouring RSU
        (see :meth:`repro.core.system.TestbedScenario.schedule_failover`).
        """
        self._settle_uplink()
        self.failed = True
        self.crashed_at = self.sim.now
        self.context.stop()
        self._cancel_co_refresh()
        self.broker.shutdown()

    def crash(self) -> None:
        """Broker-process crash: like :meth:`fail`, but recoverable.

        The broker's durable state (logs, committed offsets) survives;
        :meth:`restart` brings the node back and the pipeline resumes
        from its last committed micro-batch.  Overlapping outages take
        the union: a crash while already down only deepens the outage,
        and the node comes back when the last window's restart arrives.
        """
        self._open_crashes += 1
        if self._open_crashes > 1:
            return
        self._settle_uplink()
        self.crashed_at = self.sim.now
        self.context.stop()
        self._cancel_co_refresh()
        self.broker.shutdown()

    def restart(self, until: Optional[float] = None) -> None:
        """Recover from :meth:`crash`: restart broker and pipeline.

        Both consumers are recreated under their original groups, so
        their positions restore from the broker's *committed* offsets —
        records that arrived after the last commit are reprocessed
        (at-least-once), never skipped.
        """
        if self.failed:
            raise RuntimeError(f"RSU {self.name!r} failed permanently")
        if self._open_crashes > 0:
            self._open_crashes -= 1
            if self._open_crashes > 0:
                return
        self.broker.restart()
        self._in_consumer = self._make_pipeline_consumer()
        self._co_consumer = self._make_collab_consumer()
        self.context.consumer = self._in_consumer
        self.crashed_at = None
        self.restarted_at = self.sim.now
        self.context.start(until=until)
        self._start_co_refresh(until)

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def _serde_for(self, topic: str) -> Serde:
        """The serde wired to ``topic`` (compact JSON by default)."""
        return self._serdes.get(topic, self._default_serde)

    def _drain_co_data(self) -> None:
        """Fold newly arrived CO-DATA summaries into detection state.

        Arriving summaries also end a degradation episode: the history
        re-merges (:meth:`PredictionSummary.merge`) and the next batch
        goes back through the collaborative detector.
        """
        arrived = 0
        for record in self._co_consumer.poll():
            value = record.value
            if self._collab_rx is not None:
                if isinstance(value, SummaryFrame):
                    summary = self._collab_rx.resolve(value)
                    if summary is None:
                        # Delta with no (or a mismatched-epoch)
                        # baseline: drop it and wait for the sender's
                        # full resync.  The conservation audit counts
                        # these explicitly.
                        self.summaries_stale_dropped += 1
                        continue
                else:
                    summary = PredictionSummary.from_payload(value)
                # A refresh stream re-announces the same accumulating
                # history, so the latest frame supersedes the held
                # summary — merging would double-count the shared
                # prediction prefix.
                self.summaries[summary.car_id] = summary
                self.summaries_received += 1
                arrived += 1
                continue
            summary = PredictionSummary.from_payload(value)
            existing = self.summaries.get(summary.car_id)
            if existing is not None:
                merged = PredictionSummary.merge([existing, summary])
                self.summaries[summary.car_id] = merged
            else:
                self.summaries[summary.car_id] = summary
            self.summaries_received += 1
            arrived += 1
        if arrived:
            self._last_co_arrival = self.sim.now
            if self.degraded:
                self.degraded = False
                self.degradation_events.append((self.sim.now, "recovered"))
                registry = obs_metrics.active()
                if registry is not None:
                    registry.counter(
                        "rsu.degradation_transitions",
                        rsu=self.name,
                        kind="recovered",
                    ).inc()

    def _check_upstream_silence(self) -> None:
        """Degrade to road-only detection when CO-DATA goes silent.

        Armed only after the first summary arrives: an RSU that never
        had an upstream has nothing to lose.  Requires a configured
        ``upstream_timeout_s`` and a detector with a road-only
        fallback (``.nb``).
        """
        timeout = self.config.upstream_timeout_s
        if (
            timeout is None
            or self.degraded
            or self._fallback_detector is None
            or self._last_co_arrival is None
        ):
            return
        if self.sim.now - self._last_co_arrival > timeout:
            self.degraded = True
            self.degradation_events.append((self.sim.now, "degraded"))
            registry = obs_metrics.active()
            if registry is not None:
                registry.counter(
                    "rsu.degradation_transitions",
                    rsu=self.name,
                    kind="degraded",
                ).inc()

    def _active_detector(self) -> Detector:
        """The detector for this batch: road-only NB while degraded."""
        if self.degraded and self._fallback_detector is not None:
            return self._fallback_detector
        return self.detector

    def _on_batch(self, batch, completion_time: float) -> None:
        """Detect anomalies in one micro-batch and disseminate warnings."""
        if not self.broker.available:
            # The node went down while this batch was in flight; its
            # results die with the process.  Their offsets were already
            # committed at poll time, so a restart never replays them —
            # the detection-conservation invariant counts them here.
            self.records_dead_on_crash += len(batch)
            return
        # Summaries must fold in even on idle ticks, so a handover
        # arriving before the target sees any telemetry is not lost.
        self._drain_co_data()
        self._check_upstream_silence()
        registry = obs_metrics.active()
        if registry is not None and self._last_co_arrival is not None:
            registry.gauge(
                "rsu.co_staleness_s", agg="max", rsu=self.name
            ).set(self.sim.now - self._last_co_arrival)
        if batch.is_empty():
            return
        with span("rsu.batch", rsu=self.name):
            if self.config.columnar:
                self._on_batch_block(batch, completion_time)
            else:
                self._on_batch_records(batch, completion_time)

    def _on_batch_records(self, batch, completion_time: float) -> None:
        """The original per-record loop (``columnar=False``)."""
        payloads = batch.collect()
        records = [payload_to_record(p["data"]) for p in payloads]
        detector = self._active_detector()
        if self.degraded:
            self.degraded_batches += 1
        with span("rsu.detect", rsu=self.name):
            classes, probs = detector.detect(records, self.summaries)
            # Online detectors keep learning from what they just scored
            # (prequential: predict first, then observe); the protocol
            # makes observe a no-op everywhere else.
            detector.observe(records)
        registry = obs_metrics.active()
        if registry is not None:
            arrivals = [p["arrived_at"] for p in payloads]
            self._observe_batch(
                registry,
                len(records),
                sum(1 for cls in classes if int(cls) == ABNORMAL),
                completion_time - sum(arrivals) / len(arrivals),
            )
        warned: List[Tuple[int, int, float, float]] = []
        for payload, record, cls, prob in zip(payloads, records, classes, probs):
            history = self._history.setdefault(record.car_id, [])
            history.append(float(prob))
            if len(history) > self.config.history_limit:
                del history[: -self.config.history_limit]
            self._last_class[record.car_id] = int(cls)
            abnormal = int(cls) == ABNORMAL
            self.events.append(
                DetectionEvent(
                    car_id=record.car_id,
                    generated_at=payload["generated_at"],
                    arrived_at=payload["arrived_at"],
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
                self._abnormal_streak[record.car_id]
                >= self.config.warning_threshold
            ):
                warned.append(
                    (
                        record.car_id,
                        record.road_id,
                        record.speed_kmh,
                        payload["generated_at"],
                    )
                )
        if warned:
            self._emit_warnings(*zip(*warned), completion_time)

    def _on_batch_block(self, batch, completion_time: float) -> None:
        """The columnar hot path: the batch carries raw wire bytes,
        decoded into one :class:`TelemetryBlock` shared by detection,
        bookkeeping, and the event log.  Block-mode batches carry
        contiguous slab segments instead of per-record byte strings and
        decode zero-copy straight off the broker log."""
        if isinstance(batch, BlockBatch):
            block = decode_telemetry_segments(
                batch.segments, serde=self._serde_for(IN_DATA)
            )
        else:
            block = decode_telemetry_block(
                batch.collect(), serde=self._serde_for(IN_DATA)
            )
        detector = self._active_detector()
        if self.degraded:
            self.degraded_batches += 1
        with span("rsu.detect", rsu=self.name):
            classes, probs = detector.detect_block(block, self.summaries)
            detector.observe_block(block)
        abnormal = np.asarray(classes) == ABNORMAL
        registry = obs_metrics.active()
        if registry is not None:
            self._observe_batch(
                registry,
                len(block),
                int(abnormal.sum()),
                completion_time - float(np.mean(block.arrived_at)),
            )
        self.events.append_block(
            block.car_id,
            block.generated_at,
            block.arrived_at,
            completion_time,
            abnormal,
            block.label,
        )
        self._bookkeep(block, classes, probs, abnormal, completion_time)

    def _bookkeep(
        self,
        block: TelemetryBlock,
        classes: np.ndarray,
        probs: np.ndarray,
        abnormal: np.ndarray,
        completion_time: float,
    ) -> None:
        """Per-car history / streak / warning state: the per-record
        recurrence in record order (which is also per-car order), on
        plain lists.  At 10 Hz a car appears about once per micro-batch,
        so there is no group of rows to vectorize over."""
        cars = block.car_id.tolist()
        probs_list = probs.tolist()
        classes_list = np.asarray(classes).tolist()
        flags = abnormal.tolist()
        history_map = self._history
        streaks = self._abnormal_streak
        limit = self.config.history_limit
        threshold = self.config.warning_threshold
        warned: List[int] = []
        for position, car in enumerate(cars):
            history = history_map.setdefault(car, [])
            history.append(probs_list[position])
            if len(history) > limit:
                del history[:-limit]
            self._last_class[car] = classes_list[position]
            if flags[position]:
                streak = streaks.get(car, 0) + 1
                streaks[car] = streak
                if streak >= threshold:
                    warned.append(position)
            else:
                streaks[car] = 0
        self._emit_block_warnings(block, warned, completion_time)

    def _emit_block_warnings(
        self, block: TelemetryBlock, positions, detected_at: float
    ) -> None:
        """Warn the cars of the block rows at ``positions``."""
        if len(positions):
            self._emit_warnings(
                block.car_id[positions].tolist(),
                block.road_id[positions].tolist(),
                block.speed_kmh[positions].tolist(),
                block.generated_at[positions].tolist(),
                detected_at,
            )

    def _observe_batch(
        self, registry, n_records: int, n_abnormal: int, latency_s: float
    ) -> None:
        """Batch-granularity metrics (never per record: the columnar
        hot path's per-record budget rules that out)."""
        registry.counter("rsu.records_detected", rsu=self.name).inc(n_records)
        registry.counter("rsu.records_abnormal", rsu=self.name).inc(n_abnormal)
        registry.histogram(
            "rsu.batch_latency_ms",
            obs_metrics.LATENCY_MS_EDGES,
            rsu=self.name,
        ).observe(latency_s * 1e3)

    def _emit_warnings(
        self, cars, roads, speeds, generated_ats, detected_at: float
    ) -> None:
        """Produce one micro-batch's warnings into OUT-DATA, in order,
        as one block encoded with the topic's serde."""
        n = len(cars)
        columns = WarningMessage.payload_columns(
            cars, roads, speeds, detected_at
        )
        columns["generated_at"] = generated_ats
        serde = self._serde_for(OUT_DATA)
        encode_batch = getattr(serde, "encode_batch", None)
        frames = encode_batch(columns) if encode_batch is not None else None
        if frames is not None:
            size = len(frames) // n
            values = [frames[at : at + size] for at in range(0, n * size, size)]
        else:
            # JSON profile, or a row the struct layout cannot hold.
            values = [
                serde.serialize(dict(zip(columns, row)))
                for row in zip(*columns.values())
            ]
        try:
            self.broker.produce_block(
                OUT_DATA,
                [str(car).encode() for car in cars],
                values,
                timestamp=detected_at,
            )
        except BrokerUnavailable:
            # Only reachable in an ack-loss window (a down broker has
            # no running pipeline): the warnings *were* appended, just
            # unacknowledged — vehicles still receive them.  The metric
            # counters for both branches are folded from these plain
            # attributes at finalize — never a registry lookup per
            # warning on the hot path.
            self.warnings_ack_lost += n
            return
        self.warnings_issued += n
        self.warning_records.extend(
            zip(repeat(detected_at), cars, roads, speeds, generated_ats)
        )

    def warning_log(self) -> List[Tuple[float, int, int, float, float]]:
        """The acknowledged warnings, in emission order."""
        return list(self.warning_records)

    # ------------------------------------------------------------------
    # Collaboration (handover)
    # ------------------------------------------------------------------
    def build_summary(self, car_id: int) -> Optional[PredictionSummary]:
        """Summarise the car's prediction history for handover.

        If an upstream RSU already forwarded a summary for this car,
        it is merged with the local history — the paper's "the process
        which is carried on": driver-awareness accumulates along the
        whole trip, not just across one hop.
        """
        history = self._history.get(car_id)
        inherited = self.summaries.get(car_id)
        if not history:
            return inherited
        local = PredictionSummary(
            car_id=car_id,
            mean_normal_prob=float(np.mean(history)),
            n_predictions=len(history),
            last_class=self._last_class.get(car_id, 1),
            from_road_id=0,
            timestamp=self.sim.now,
        )
        if inherited is None:
            return local
        return PredictionSummary.merge([inherited, local])

    def _collab_refresh_tick(self) -> None:
        """Re-announce per-car driver summaries downstream
        (``mode="refresh"``), pruned by the plane's utility gate and
        charged to the HTB priority bands when attached.

        Deterministic order: ascending car id, then sorted peer name —
        the same total order the sharded engine's barrier reproduces.
        """
        if self.failed or not self.broker.available or not self._neighbors:
            return
        now = self.sim.now
        plans: List[SendPlan] = []
        peers = self.neighbor_names
        for car_id in sorted(self._history):
            summary = self.build_summary(car_id)
            if summary is None:
                continue
            for peer in peers:
                plan = self.collab.prepare(peer, summary, now)
                if plan is not None:
                    plans.append(plan)
        if not plans:
            return
        if self.co_shaper is not None:
            requests = [
                (self._co_leaves[plan.band], len(plan.payload))
                for plan in plans
            ]
            delays = self.co_shaper.send_prioritized(requests, now)
        else:
            delays = [0.0] * len(plans)
        for plan, delay in zip(plans, delays):
            if delay > 0.0:
                self.sim.after(
                    delay,
                    lambda p=plan: self._transmit_co(p),
                    label="co-shaped",
                )
            else:
                self._transmit_co(plan)

    def _transmit_co(self, plan: SendPlan) -> None:
        """Put one planned CO-DATA frame on the wired link."""
        target = self._neighbors.get(plan.peer)
        link = self._links.get(plan.peer)
        if target is None or link is None:
            return
        payload = plan.payload

        def deliver(at_time: float, data=payload) -> None:
            try:
                target.broker.produce(CO_DATA, data, timestamp=at_time)
            except BrokerUnavailable:
                self.summaries_lost += 1
                self.collab.mark_lost(plan.peer, plan.car)

        if link.send(len(payload), deliver) is None:
            self.summaries_lost += 1
            self.collab.mark_lost(plan.peer, plan.car)
        else:
            self.summaries_sent += 1

    def handover(self, car_id: int, target_name: str) -> bool:
        """Forward the car's summary to an adjacent RSU's CO-DATA.

        Returns ``True`` if a summary existed and was sent.  The
        summary travels the wired link; on delivery it is produced into
        the target broker's ``CO-DATA`` topic (the paper's Fig. 4 flow).
        """
        if self.failed:
            return False  # a dead node cannot forward its history
        if target_name not in self._neighbors:
            raise KeyError(
                f"{self.name!r} has no link to {target_name!r}; "
                f"connected: {self.neighbor_names}"
            )
        summary = self.build_summary(car_id)
        if summary is None:
            return False
        if self.collab is not None:
            # Plane path: handover is never gated (it is this RSU's
            # last word on the car) and always resyncs in full when
            # delta encoding is on.
            plan = self.collab.prepare(
                target_name, summary, self.sim.now, handover=True
            )
            self._transmit_co(plan)
            self.collab.forget_car(car_id)
            self._history.pop(car_id, None)
            self._last_class.pop(car_id, None)
            self.summaries.pop(car_id, None)
            return True
        target = self._neighbors[target_name]
        link = self._links[target_name]
        # Serialize with the CO-DATA serde: the IN-DATA serde may be a
        # telemetry-specific binary format the target's collab consumer
        # cannot read.
        payload = self._serde_for(CO_DATA).serialize(summary.to_payload())

        def deliver(at_time: float, data=payload) -> None:
            try:
                target.broker.produce(CO_DATA, data, timestamp=at_time)
            except BrokerUnavailable:
                # The target is down mid-flight: the summary is lost
                # (CO-DATA transfer is fire-and-forget, per the paper).
                self.summaries_lost += 1

        if link.send(len(payload), deliver) is None:
            # Partitioned link: dropped at the sender, no delivery.
            # (Metric counters fold from these attributes at finalize.)
            self.summaries_lost += 1
        else:
            self.summaries_sent += 1
        # The car's history now belongs to the next road.
        self._history.pop(car_id, None)
        self._last_class.pop(car_id, None)
        self.summaries.pop(car_id, None)
        return True

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def detection_report(self):
        """Online detection quality over this RSU's labelled events.

        Returns a
        :class:`~repro.ml.metrics.BinaryClassificationReport` computed
        from the events whose replayed record carried a label, or
        ``None`` if there are none — the *in-situ* counterpart of the
        paper's offline Fig. 7 evaluation.
        """
        from repro.dataset.schema import ABNORMAL, NORMAL
        from repro.ml.metrics import evaluate_binary

        labels = self.events.true_labels()
        mask = labels != NO_LABEL
        if not mask.any():
            return None
        y_true = labels[mask].astype(np.int64)
        y_pred = np.where(self.events.abnormal()[mask], ABNORMAL, NORMAL)
        return evaluate_binary(y_true, y_pred)

    def bandwidth_in_bps(self, elapsed_s: float) -> float:
        """Mean ingest bandwidth over the run (Fig. 6c/6d)."""
        if elapsed_s <= 0:
            raise ValueError("elapsed time must be positive")
        return self.broker.bytes_in * 8.0 / elapsed_s

    def mean_processing_ms(self) -> float:
        return self.context.mean_processing_ms()

    def __repr__(self) -> str:
        return (
            f"RsuNode(name={self.name!r}, events={len(self.events)}, "
            f"warnings={self.warnings_issued})"
        )
