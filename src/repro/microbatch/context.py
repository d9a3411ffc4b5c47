"""StreamingContext: micro-batch scheduling on the simulation clock.

The paper creates "micro-batches of 50 ms (RDDs) to read data from the
topic IN-DATA, on which we apply the algorithm".  The context ticks on
that interval, polls the source consumer, and models the batch's
processing latency with a calibrated linear cost model so the
experiments reproduce Fig. 6a's processing-time curve (7.3 ms at 8
vehicles to 11.7 ms at 256).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.microbatch.batch import Batch, BlockBatch
from repro.microbatch.dstream import DStream
from repro.obs import metrics as obs_metrics
from repro.simkernel.simulator import Simulator
from repro.streaming.consumer import Consumer


@dataclass(frozen=True)
class ProcessingModel:
    """Linear batch-processing cost: ``base + per_record * n``.

    Defaults are calibrated to the paper's testbed (Intel i7-5820K, 6
    Spark workers): Fig. 6a reports ~7.3 ms average processing at 8
    vehicles (~4 records per 50 ms batch) and ~11.7 ms at 256 (~128
    records), i.e. ~35 us of marginal cost per record over a ~7 ms
    floor (task scheduling + model scoring fixed costs).
    """

    base_s: float = 7.2e-3
    per_record_s: float = 35e-6
    #: Processing jitter as a fraction of the mean (uniform), modelling
    #: JVM/GC noise on the testbed.  Set to 0 for fully deterministic runs.
    jitter_fraction: float = 0.10

    def duration(self, n_records: int, jitter: float = 0.0) -> float:
        """Processing time for a batch of ``n_records``.

        ``jitter`` in [-1, 1] scales the jitter fraction.
        """
        if n_records < 0:
            raise ValueError("record count cannot be negative")
        mean = self.base_s + self.per_record_s * n_records
        return mean * (1.0 + self.jitter_fraction * jitter)


@dataclass
class BatchMetrics:
    """Per-batch measurements collected by the context."""

    batch_time: float
    n_records: int
    processing_s: float
    completion_time: float

    @property
    def processing_ms(self) -> float:
        return self.processing_s * 1e3


class StreamingContext:
    """Polls a consumer every interval and runs DStream pipelines.

    Parameters
    ----------
    sim:
        Simulation kernel providing the clock.
    consumer:
        Source consumer (subscribed to the paper's ``IN-DATA``).
    interval_s:
        Micro-batch interval; the paper uses 50 ms.
    processing_model:
        Batch cost model.
    jitter_source:
        Zero-argument callable in [-1, 1] driving processing jitter;
        inject a seeded RNG for reproducibility.  ``None`` disables
        jitter.
    raw:
        Poll without deserializing: batches then carry the raw wire
        bytes, and the sink is expected to batch-decode them (the
        columnar RSU path does, via
        :func:`repro.core.wire.decode_telemetry_block`).
    block:
        Poll via :meth:`Consumer.poll_block`: batches are
        :class:`~repro.microbatch.batch.BlockBatch` wire slabs instead
        of per-record lists, and sinks must understand them (the
        block-mode RSU does).  Implies raw semantics.
    name:
        Label for this context's metrics (the owning RSU's name);
        contexts without a name report under ``rsu=""``.

    The ``pre_poll`` attribute, when set, is a zero-argument callable
    invoked at the top of every tick, before the lag observation and
    the poll.  The scenario hooks the RSU's deferred DSRC
    channel flush here: frames whose contention resolves at or before
    the tick instant are appended to the broker exactly where the
    per-frame delivery events would have put them.
    """

    def __init__(
        self,
        sim: Simulator,
        consumer: Consumer,
        interval_s: float = 0.050,
        processing_model: Optional[ProcessingModel] = None,
        jitter_source: Optional[Callable[[], float]] = None,
        raw: bool = False,
        block: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive: {interval_s}")
        self.sim = sim
        self.consumer = consumer
        self.interval_s = interval_s
        self.processing_model = processing_model or ProcessingModel()
        self.jitter_source = jitter_source
        self.raw = raw
        self.block = block
        self.name = name or ""
        self.stream = DStream()
        self.metrics: List[BatchMetrics] = []
        self.pre_poll: Optional[Callable[[], None]] = None
        self._stop: Optional[Callable[[], None]] = None
        self._busy_until = 0.0

    def start(self, until: Optional[float] = None) -> None:
        """Begin ticking every ``interval_s`` until ``until``.

        Contexts started at the same instant with the same interval
        (every RSU in a scenario starts at t=0 with the paper's 50 ms
        cadence) coalesce into one kernel tick group: one queue entry
        fires all their polls, in start order — the same order their
        independent tick events fired in before coalescing.
        """
        if self._stop is not None:
            raise RuntimeError("StreamingContext already started")
        self._stop = self.sim.every_group(
            self.interval_s, self._tick, until=until, label="microbatch-tick"
        )

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        batch_time = self.sim.now
        if self.pre_poll is not None:
            # Deferred-uplink flush: contended frames due at or
            # before this instant land on the broker first, exactly as
            # their per-frame delivery events would have.
            self.pre_poll()
        registry = obs_metrics.active()
        if registry is not None:
            # Consumer lag *before* the poll = IN-DATA queue depth as
            # the batch is cut (pure read: lag() never commits).
            registry.histogram(
                "broker.in_data_depth",
                obs_metrics.DEPTH_EDGES,
                rsu=self.name,
            ).observe(self.consumer.lag())
        if self.block:
            segments = self.consumer.poll_block()
            batch = BlockBatch(segments, batch_time=batch_time)
            if registry is not None and segments:
                registry.counter(
                    "dataplane.block_segments", rsu=self.name
                ).inc(len(segments))
                registry.counter(
                    "dataplane.block_records", rsu=self.name
                ).inc(len(batch))
        else:
            records = self.consumer.poll(deserialize=not self.raw)
            batch = Batch([r.value for r in records], batch_time=batch_time)
        jitter = self.jitter_source() if self.jitter_source else 0.0
        duration = self.processing_model.duration(len(batch), jitter)
        # Batches queue behind an in-flight batch (single processing
        # slot, like one Spark streaming query): if the previous batch
        # has not finished, this one starts when it does.
        start_time = max(batch_time, self._busy_until)
        completion = start_time + duration
        self._busy_until = completion
        self.metrics.append(
            BatchMetrics(
                batch_time=batch_time,
                n_records=len(batch),
                processing_s=duration,
                completion_time=completion,
            )
        )
        if registry is not None:
            registry.histogram(
                "microbatch.batch_size",
                obs_metrics.BATCH_SIZE_EDGES,
                rsu=self.name,
            ).observe(len(batch))
            registry.histogram(
                "microbatch.processing_ms",
                obs_metrics.LATENCY_MS_EDGES,
                rsu=self.name,
            ).observe(duration * 1e3)
        self.sim.at(
            completion,
            lambda b=batch, t=completion: self.stream.process(b, t),
            label="microbatch-complete",
        )

    # ------------------------------------------------------------------
    @property
    def batches_processed(self) -> int:
        return len(self.metrics)

    def mean_processing_ms(self, skip_empty: bool = True) -> float:
        """Average per-batch processing time in milliseconds."""
        samples = [
            m.processing_ms
            for m in self.metrics
            if not (skip_empty and m.n_records == 0)
        ]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)
