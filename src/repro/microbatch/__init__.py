"""Micro-batch executor (the Spark Streaming substitute).

The paper's pipeline consumes the ``IN-DATA`` topic through Spark
Streaming with **50 ms micro-batches**; Spark serves only as that
executor.  :class:`~repro.microbatch.context.StreamingContext`
reproduces it on the simulation clock: every batch interval it polls
the source consumer into a :class:`BlockBatch` of wire-byte segments,
models the batch's processing latency with a calibrated cost model (so
Fig. 6a's processing-time curve is reproducible), and hands the batch
to one ``on_batch(batch, completion_time)`` callback when processing
completes.  Batches queue behind an in-flight batch: one processing
slot, like one Spark streaming query.
"""

from repro.microbatch.context import (
    BatchMetrics,
    BlockBatch,
    ProcessingModel,
    StreamingContext,
)

__all__ = [
    "BatchMetrics",
    "BlockBatch",
    "ProcessingModel",
    "StreamingContext",
]
