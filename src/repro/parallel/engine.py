"""The sharded execution engine: barrier loop, routing, result merge.

:class:`ShardedScenario` is the multi-process counterpart of
:meth:`TestbedScenario.corridor` + :meth:`~TestbedScenario.run`: same
spec in, same :class:`~repro.core.system.ScenarioResult` out, with the
corridor's RSUs partitioned across worker processes by
:class:`~repro.parallel.plan.ShardPlanner`.

The protocol is conservative time-stepping: every worker runs strictly
up to the next global barrier (the union of the micro-batch tick grid
and the handover instants), then the engine moves the accumulated
cross-shard frames — CO-DATA summaries, vehicle transfers — to their
owning shards before anyone proceeds.  Because the
wired-link latency (0.5 ms) is far below the 50 ms batch interval, a
frame shipped one barrier late still lands in the same micro-batch the
serial engine would put it in; the golden-equivalence tests pin this
warning-for-warning.
"""

from __future__ import annotations

import logging
import time
from typing import Dict, List, Optional

from repro.core.scenario import ScenarioSpec
from repro.core.system import (
    ResilienceStats,
    ScenarioResult,
    corridor_bundle,
)
from repro.core.topology import corridor_topology
from repro.obs.metrics import RegistrySnapshot
from repro.parallel.barrier import FRAME_METRICS, frame_target, sync_schedule
from repro.parallel.plan import ShardPlan, ShardPlanner
from repro.parallel.runtime import (
    DEFAULT_RING_CAPACITY,
    ParallelExecutionError,
    ShardPool,
    WindowTiming,
    critical_path_cpu_s,
    total_worker_cpu_s,
)
from repro.parallel.worker import ShardContext, shard_worker_main

__all__ = ["ParallelExecutionError", "ShardedScenario", "WindowTiming"]

logger = logging.getLogger(__name__)


class ShardedScenario:
    """A corridor scenario executed across worker processes.

    Parameters mirror :meth:`TestbedScenario.corridor`; ``shards``
    defaults to ``config.shards``.  Fault injection and producer retry
    are rejected: their failure semantics (broker outages observed by
    remote producers, retry backoff across a detach) are not modelled
    across shard boundaries — run them single-process.
    """

    def __init__(
        self,
        config: ScenarioSpec,
        motorways: int = 4,
        dataset=None,
        link_detector_kind: str = "cad3",
        shards: Optional[int] = None,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        n_shards = int(shards if shards is not None else config.shards)
        if n_shards < 1:
            raise ValueError(f"shards must be >= 1, got {n_shards}")
        if config.faults is not None:
            raise ValueError(
                "fault injection is not supported under sharding; "
                "run the fault profile with shards=1"
            )
        if config.producer_retry is not None:
            raise ValueError(
                "producer retry is not supported under sharding; "
                "run the retry policy with shards=1"
            )
        self.config = config
        self.motorways = motorways
        self.topology = corridor_topology(config, motorways)
        self.bundle = corridor_bundle(
            config, dataset=dataset, link_detector_kind=link_detector_kind
        )
        self.plan: ShardPlan = ShardPlanner().plan(self.topology, n_shards)
        self.ring_capacity = ring_capacity
        # Filled by run():
        self.window_timings: List[WindowTiming] = []
        self.build_cpu_s: List[float] = []
        self.wall_s = 0.0
        self.undelivered_frames = 0
        #: Per-RSU warning tuples, for golden-equivalence comparison.
        self.warning_logs: Dict[str, list] = {}
        #: Latest per-shard metrics snapshot, decoded off the rings as
        #: the run progresses (observability runs only).
        self.shard_snapshots: Dict[int, RegistrySnapshot] = {}

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    def critical_path_cpu_s(self) -> float:
        """See :func:`repro.parallel.runtime.critical_path_cpu_s`."""
        return critical_path_cpu_s(self.build_cpu_s, self.window_timings)

    def total_worker_cpu_s(self) -> float:
        """See :func:`repro.parallel.runtime.total_worker_cpu_s`."""
        return total_worker_cpu_s(self.build_cpu_s, self.window_timings)

    # ------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        schedule = sync_schedule(
            self.config.batch_interval_s,
            self.config.duration_s,
            [handover.at_s for handover in self.topology.handovers],
        )
        shards = [
            ShardContext(self.config, self.topology, self.bundle, tuple(names))
            for names in self.plan.assignments
        ]
        with ShardPool(shard_worker_main, shards, self.ring_capacity) as pool:
            self.build_cpu_s = list(pool.build_cpu_s)
            self.window_timings = pool.window_timings
            wall_start = time.perf_counter()
            for barrier in schedule:
                pool.round(
                    ("step", barrier, barrier == schedule[-1]),
                    "done",
                    self._route,
                    barrier_s=barrier,
                )
            self.wall_s = time.perf_counter() - wall_start

            results = pool.collect(deliver=False)
            self.undelivered_frames = pool.staged_frames
            if self.undelivered_frames:
                logger.warning(
                    "%d cross-shard frames produced after the final barrier "
                    "were dropped (handover too close to scenario end)",
                    self.undelivered_frames,
                )
            return self._merge(results, pool.obs)

    # ------------------------------------------------------------------
    def _route(self, source: int, kind: int, buf: bytes) -> Optional[int]:
        if kind == FRAME_METRICS:
            # Addressed to the engine, not a shard — no routing header
            # (frame_target would read garbage).  Cumulative: replace,
            # don't add.
            self.shard_snapshots[source] = RegistrySnapshot.decode(buf)
            return None
        return self.plan.shard_of(frame_target(buf))

    def _merge(self, results: List[dict], obs) -> ScenarioResult:
        rsu_metrics: Dict[str, object] = {}
        vehicle_stats: Dict[int, object] = {}
        warning_logs: Dict[str, list] = {}
        resilience = ResilienceStats()
        for result in results:
            rsu_metrics.update(result["rsu_metrics"])
            vehicle_stats.update(result["vehicle_stats"])
            warning_logs.update(result["warnings"])
            resilience.merge(result["resilience"])
        ordered_names = self.topology.rsu_names()
        self.warning_logs = {name: warning_logs[name] for name in ordered_names}
        return ScenarioResult(
            config=self.config,
            duration_s=self.config.duration_s,
            rsu_metrics={name: rsu_metrics[name] for name in ordered_names},
            vehicle_stats=dict(sorted(vehicle_stats.items())),
            resilience=resilience,
            obs=obs,
        )
