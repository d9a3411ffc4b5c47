"""Sharded multi-process scenario execution.

The corridor workload is embarrassingly shardable by design: RSUs are
independent except for CO-DATA summaries and vehicle handovers at trunk
boundaries (the paper's own scaling argument — one RSU per road trunk).
This package partitions a scenario's RSUs across worker processes
(:mod:`repro.parallel.plan`), runs an independent
:class:`~repro.simkernel.simulator.Simulator` per shard, and exchanges
the only cross-shard traffic at 50 ms micro-batch barriers over
shared-memory rings (:mod:`repro.parallel.barrier`,
:mod:`repro.streaming.shm`) via a conservative time-stepped protocol
on the shard runtime (:mod:`repro.parallel.runtime`, shared with
:mod:`repro.city`) —
parallel runs are deterministic and warning-for-warning identical to the
single-process engine.
"""

from repro.parallel.engine import ParallelExecutionError, ShardedScenario
from repro.parallel.plan import ShardPlan, ShardPlanner

__all__ = [
    "ParallelExecutionError",
    "ShardPlan",
    "ShardPlanner",
    "ShardedScenario",
]
