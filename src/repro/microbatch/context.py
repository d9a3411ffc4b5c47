"""The micro-batch loop on the simulation clock.

The paper creates "micro-batches of 50 ms (RDDs) to read data from the
topic IN-DATA, on which we apply the algorithm".  The context ticks on
that interval, polls the source consumer, and models the batch's
processing latency with a calibrated linear cost model so the
experiments reproduce Fig. 6a's processing-time curve (7.3 ms at 8
vehicles to 11.7 ms at 256).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional

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


class BlockBatch:
    """A micro-batch of contiguous wire-byte segments.

    Holds the :class:`~repro.streaming.records.BlockSegment` slabs a
    :meth:`Consumer.poll_block` returned — per-record objects are never
    materialized between the broker log and the vectorized sink (the
    RSU decodes the segments with one ``np.frombuffer`` each).
    ``batch_time`` is the start of the micro-batch interval the records
    were collected in (simulated seconds).

    Segments borrow append-only slab storage, so a BlockBatch stays
    readable while it waits in the processing queue even as the
    partition keeps appending.
    """

    __slots__ = ("segments", "batch_time", "_count")

    def __init__(self, segments, batch_time: float = 0.0) -> None:
        self.segments = list(segments)
        self.batch_time = batch_time
        self._count = sum(segment.count for segment in self.segments)

    def __len__(self) -> int:
        return self._count

    def collect(self) -> List[Any]:
        """Materialize the per-record value bytes, in segment order
        (partition by partition, each in offset order)."""
        values: List[Any] = []
        for segment in self.segments:
            values.extend(segment.value_list())
        return values


class StreamingContext:
    """Polls a consumer every interval and hands each batch to one callback.

    Parameters
    ----------
    sim:
        Simulation kernel providing the clock.
    consumer:
        Source consumer (subscribed to the paper's ``IN-DATA``).
    on_batch:
        ``on_batch(batch, completion_time)``: receives every
        :class:`BlockBatch` at the simulated instant its processing
        completes.  The batch holds wire slabs, so the callback owns
        the decode.
    interval_s:
        Micro-batch interval; the paper uses 50 ms.
    processing_model:
        Batch cost model.
    jitter_source:
        Zero-argument callable in [-1, 1] driving processing jitter;
        inject a seeded RNG for reproducibility.  ``None`` disables
        jitter.
    name:
        Label for this context's metrics (the owning RSU's name);
        contexts without a name report under ``rsu=""``.

    The ``pre_poll`` attribute, when set, is a zero-argument callable
    invoked at the top of every tick, before the lag observation and
    the poll.  The RSU hooks its DSRC channel's flush here, so every
    frame delivered at or before the tick instant is on the broker
    when the batch is cut.
    """

    def __init__(
        self,
        sim: Simulator,
        consumer: Consumer,
        on_batch: Callable[[BlockBatch, float], None],
        interval_s: float = 0.050,
        processing_model: Optional[ProcessingModel] = None,
        jitter_source: Optional[Callable[[], float]] = None,
        name: Optional[str] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive: {interval_s}")
        self.sim = sim
        self.consumer = consumer
        self.on_batch = on_batch
        self.interval_s = interval_s
        self.processing_model = processing_model or ProcessingModel()
        self.jitter_source = jitter_source
        self.name = name or ""
        self.metrics: List[BatchMetrics] = []
        self.pre_poll: Optional[Callable[[], None]] = None
        self._stop: Optional[Callable[[], None]] = None
        self._busy_until = 0.0

    def start(self, until: Optional[float] = None) -> None:
        """Begin ticking every ``interval_s`` until ``until``.

        Contexts started at the same instant with the same interval
        (every RSU in a scenario starts at t=0 with the paper's 50 ms
        cadence) tick at the same instants, in start order.
        """
        if self._stop is not None:
            raise RuntimeError("StreamingContext already started")
        self._stop = self.sim.every(
            self.interval_s, self._tick, until=until, label="microbatch-tick"
        )

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def _tick(self) -> None:
        batch_time = self.sim.now
        if self.pre_poll is not None:
            self.pre_poll()
        registry = obs_metrics.active()
        if registry is not None:
            # Consumer lag *before* the poll = IN-DATA queue depth as
            # the batch is cut (pure read: lag() never commits).
            registry.histogram(
                "broker.in_data_depth", obs_metrics.DEPTH_EDGES, rsu=self.name
            ).observe(self.consumer.lag())
        batch = BlockBatch(self.consumer.poll_block(), batch_time=batch_time)
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
                "microbatch.batch_size", obs_metrics.BATCH_SIZE_EDGES, rsu=self.name
            ).observe(len(batch))
            registry.histogram(
                "microbatch.processing_ms", obs_metrics.LATENCY_MS_EDGES, rsu=self.name
            ).observe(duration * 1e3)
        self.sim.at(
            completion,
            partial(self.on_batch, batch, completion),
            label="microbatch-complete",
        )

    @property
    def batches_processed(self) -> int:
        return len(self.metrics)

    def mean_processing_ms(self) -> float:
        """Average processing time of the non-empty batches, in ms."""
        samples = [m.processing_ms for m in self.metrics if m.n_records]
        return sum(samples) / len(samples) if samples else 0.0
