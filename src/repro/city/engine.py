"""City-scale churn engine: trip arrivals, migrations, rebalancing.

Execution model
---------------
Time advances in fixed mesoscopic ticks (default 60 s).  Each tick, per
RSU, in a fixed order and from that RSU's own named RNG stream:

1. **Admission** — vehicle moves produced by the *previous* tick are
   applied, globally ordered by a stable ``(destination, source)``
   lexsort.
2. **Arrivals** — a Poisson draw sized by the RSU's demand weight and
   the hour-of-day multiplier; each new vehicle gets an exponential
   total trip duration and an exponential residence under this RSU.
3. **Expiry** — vehicles whose residence ends either retire (trip over)
   or migrate to a uniformly drawn neighbour with a fresh residence.
4. **Detection** — a binomial draw flags abnormal vehicles; the flagged
   id set is folded into the RSU's rolling SHA-256 warning digest.

Determinism argument
--------------------
Per-RSU warning digests are invariant to shard count and rebalance
schedule:

- every draw an RSU makes comes from its own named stream
  (``city.<rsu>``) in the fixed order above, so *what* an RSU draws
  depends only on its own state, never on which worker hosts it;
- moves produced at tick ``t`` are applied at tick ``t+1`` everywhere
  (serial and sharded alike), and the stable ``(dst, src)`` lexsort
  admits them in an order independent of frame arrival order — equal
  sort keys can only originate from a single source bundle, because a
  source RSU lives in exactly one shard per tick;
- a rebalance ships the whole RSU — arrays, counters, digest, *and its
  exact RNG bit-generator state* — strictly between ticks over the
  same shared-memory rings the corridor engine uses, so the receiving
  worker continues the draw sequence bit for bit.

Hence shards=N produces digests bit-identical to shards=1, rebalancing
or not — pinned by ``tests/test_city/test_engine.py``.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.city.kernel import build_shard_state
from repro.city.model import CitySpec
from repro.city.reference import MoveBundle
from repro.city.topology import CityTopology, build_city_topology
from repro.city.worker import CityWorkerContext, city_worker_main
from repro.obs.metrics import RegistrySnapshot
from repro.obs.trace import (
    SpanRecorder,
    active_recorder,
    disable_tracing,
    enable_tracing,
)
from repro.parallel.barrier import frame_target
from repro.parallel.plan import ShardPlanner
from repro.parallel.runtime import (
    DEFAULT_RING_CAPACITY,
    ShardPool,
    WindowTiming,
    critical_path_cpu_s,
    total_worker_cpu_s,
)

__all__ = ["CityEngine", "CityResult", "profile_from_snapshot", "run_city"]

#: Span names emitted by the fused kernel's five tick phases, in tick
#: order — the contract between ``CitySpec(profile=True)``, the worker
#: fold, and the ``repro city --profile`` report.
PROFILE_PHASES = (
    "city.moves",
    "city.arrivals",
    "city.churn",
    "city.detect",
    "city.digest",
)


def profile_from_snapshot(obs: RegistrySnapshot) -> Dict[str, Dict[str, float]]:
    """Per-phase breakdown from the folded ``span.city.*_ms`` histograms
    (the cross-process path: workers can only ship spans as metrics)."""
    breakdown: Dict[str, Dict[str, float]] = {}
    for phase in PROFILE_PHASES:
        hist = obs.histograms.get((f"span.{phase}_ms", ()))
        if hist is None:
            continue
        _edges, _counts, total_ms, count = hist
        if not count:
            continue
        breakdown[phase] = {
            "count": float(count),
            "total_ms": float(total_ms),
            "mean_ms": float(total_ms) / float(count),
        }
    return breakdown


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
@dataclass
class CityResult:
    """Everything a city run reports; the digest map is the correctness
    currency (bit-identical across shard counts)."""

    n_rsus: int
    n_shards: int
    n_ticks: int
    digests: Dict[str, str]
    warnings: Dict[str, int]
    spawned: int
    retired: int
    final_active: int
    in_flight: int
    migrations_produced: int
    migrations_applied: int
    peak_concurrent: int
    mean_concurrent: float
    rebalance_events: List[dict] = field(default_factory=list)
    serial_cpu_s: float = 0.0
    build_cpu_s: Tuple[float, ...] = ()
    window_timings: List[WindowTiming] = field(default_factory=list)
    wall_s: float = 0.0
    obs: Optional[RegistrySnapshot] = None
    #: Per-phase tick-time breakdown (``CitySpec(profile=True)`` only):
    #: span name -> {count, total_ms, mean_ms[, max_ms]}.
    profile: Optional[Dict[str, Dict[str, float]]] = None

    @property
    def warnings_total(self) -> int:
        return sum(self.warnings.values())

    def digest_signature(self) -> str:
        """One hex digest over the whole city's per-RSU digest map."""
        rollup = hashlib.sha256()
        for name in sorted(self.digests):
            rollup.update(name.encode("utf-8"))
            rollup.update(bytes.fromhex(self.digests[name]))
        return rollup.hexdigest()

    def critical_path_cpu_s(self) -> float:
        if self.n_shards == 1:
            return self.serial_cpu_s
        return critical_path_cpu_s(self.build_cpu_s, self.window_timings)

    def total_worker_cpu_s(self) -> float:
        if self.n_shards == 1:
            return self.serial_cpu_s
        return total_worker_cpu_s(self.build_cpu_s, self.window_timings)

    def audit(self) -> List[str]:
        """Conservation-law check; an empty list means the run is green."""
        violations: List[str] = []
        if self.spawned != self.retired + self.final_active + self.in_flight:
            violations.append(
                "vehicle conservation: spawned "
                f"{self.spawned} != retired {self.retired} + active "
                f"{self.final_active} + in-flight {self.in_flight}"
            )
        if self.migrations_produced != self.migrations_applied + self.in_flight:
            violations.append(
                "migration conservation: produced "
                f"{self.migrations_produced} != applied "
                f"{self.migrations_applied} + in-flight {self.in_flight}"
            )
        if len(self.digests) != self.n_rsus:
            violations.append(
                f"digest coverage: {len(self.digests)} of {self.n_rsus} RSUs"
            )
        if self.peak_concurrent < self.mean_concurrent:
            violations.append(
                f"peak {self.peak_concurrent} below mean {self.mean_concurrent}"
            )
        return violations


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class CityEngine:
    """Run a :class:`CitySpec` serially or across shard workers."""

    def __init__(
        self,
        spec: CitySpec,
        topology: Optional[CityTopology] = None,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        self.spec = spec
        self.topology = topology if topology is not None else build_city_topology(spec)
        self.ring_capacity = ring_capacity
        if spec.initial_assignments is not None:
            self._validate_assignments(spec.initial_assignments)
            self.assignments: List[List[str]] = [
                list(names) for names in spec.initial_assignments
            ]
        else:
            plan = ShardPlanner().plan(self.topology, spec.shards)
            self.assignments = [list(names) for names in plan.assignments]

    def _validate_assignments(self, assignments) -> None:
        flat = [name for names in assignments for name in names]
        expected = set(self.topology.rsu_names())
        if len(flat) != len(expected) or set(flat) != expected:
            raise ValueError(
                "initial_assignments must cover every RSU exactly once"
            )
        if len(assignments) != self.spec.shards:
            raise ValueError(
                f"initial_assignments has {len(assignments)} shards, "
                f"spec says {self.spec.shards}"
            )

    def run(self) -> CityResult:
        if self.spec.shards == 1:
            return self._run_serial()
        return self._run_sharded()

    # ------------------------------------------------------------------
    def _run_serial(self) -> CityResult:
        spec = self.spec
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        shard = build_shard_state(spec, self.topology, range(len(self.topology)))
        pending: List[MoveBundle] = []
        peak = 0
        load_sum = 0
        produced = 0
        # Profiling installs a recorder sized to hold every phase span
        # of the run (5 per tick), so the summary is exact, not a tail.
        recorder = None
        prior_recorder = active_recorder()
        if spec.profile:
            # Up to 7 spans per tick (moves and churn each open twice);
            # size the ring so no span of the run is ever dropped.
            recorder = enable_tracing(SpanRecorder(capacity=8 * spec.n_ticks + 8))
        # The tick loop allocates heavily but creates no reference
        # cycles (arrays, tuples, dicts of arrays); cyclic GC passes are
        # pure pause time, so suspend them for the duration.  The shard
        # workers do the same, keeping serial and sharded comparable.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for tick_index in range(spec.n_ticks):
                now = tick_index * spec.tick_s
                moves, (_, counts) = shard.tick(tick_index, now, pending)
                pending = moves
                produced += sum(int(bundle[0].size) for bundle in moves)
                concurrent = int(counts.sum())
                load_sum += concurrent
                if concurrent > peak:
                    peak = concurrent
        finally:
            if gc_was_enabled:
                gc.enable()
            if recorder is not None:
                if prior_recorder is not None:
                    enable_tracing(prior_recorder)
                else:
                    disable_tracing()
        cpu = time.process_time() - cpu_start
        wall = time.perf_counter() - wall_start
        in_flight = sum(int(bundle[0].size) for bundle in pending)
        per_rsu = shard.rsu_results()
        obs = None
        if spec.observability:
            obs = self._fold_obs([per_rsu], produced)
            if recorder is not None:
                from repro.obs import metrics as obs_metrics

                registry = obs_metrics.MetricsRegistry()
                recorder.fold_into(registry)
                obs = obs.merge(registry.snapshot())
        return CityResult(
            n_rsus=len(self.topology),
            n_shards=1,
            n_ticks=spec.n_ticks,
            digests={name: r["digest"] for name, r in per_rsu.items()},
            warnings={name: r["warnings"] for name, r in per_rsu.items()},
            spawned=sum(r["spawned"] for r in per_rsu.values()),
            retired=sum(r["retired"] for r in per_rsu.values()),
            final_active=sum(r["active"] for r in per_rsu.values()),
            in_flight=in_flight,
            migrations_produced=produced,
            migrations_applied=shard.moves_applied,
            peak_concurrent=peak,
            mean_concurrent=load_sum / max(spec.n_ticks, 1),
            serial_cpu_s=cpu,
            wall_s=wall,
            obs=obs,
            profile=recorder.summary() if recorder is not None else None,
        )

    def _fold_obs(self, shard_results: List[Dict[str, dict]], produced: int):
        """End-of-run fold of city totals into one snapshot (the hot
        loop never touches the registry, same policy as ``repro.obs``)."""
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        for per_rsu in shard_results:
            for result in per_rsu.values():
                registry.counter("city.vehicles_spawned").inc(result["spawned"])
                registry.counter("city.vehicles_retired").inc(result["retired"])
                registry.counter("city.warnings").inc(result["warnings"])
        registry.counter("city.migrations").inc(produced)
        return registry.snapshot()

    # ------------------------------------------------------------------
    def _run_sharded(self) -> CityResult:
        index_of = {
            name: i for i, name in enumerate(self.topology.rsu_names())
        }
        shard_of = [0] * len(self.topology)
        for shard, names in enumerate(self.assignments):
            for name in names:
                shard_of[index_of[name]] = shard
        contexts = [
            CityWorkerContext(
                n_shards=len(self.assignments),
                spec=self.spec,
                topology=self.topology,
                owned=tuple(sorted(index_of[name] for name in names)),
                shard_of=tuple(shard_of),
            )
            for names in self.assignments
        ]
        wall_start = time.perf_counter()
        with ShardPool(city_worker_main, contexts, self.ring_capacity) as pool:
            return self._drive(pool, index_of, wall_start)

    def _drive(
        self, pool: ShardPool, index_of: Dict[str, int], wall_start: float
    ) -> CityResult:
        spec = self.spec
        topology = self.topology
        planner = ShardPlanner()

        def route(_source: int, _kind: int, buf: bytes) -> int:
            return int(frame_target(buf))  # city frames name their shard

        rebalance_events: List[dict] = []
        load_accum = np.zeros(len(topology), dtype=np.int64)
        window_ticks = 0
        peak = 0
        load_sum = 0
        interval = spec.rebalance_interval_ticks

        for tick_index in range(spec.n_ticks):
            now = tick_index * spec.tick_s
            # Ownership can only change on a rebalance-decision tick, so
            # every other tick runs the fused protocol: the worker routes
            # its moves under the (fixed) shard map inside the tick and a
            # single round covers both phases.
            decision_tick = bool(interval) and (tick_index + 1) % interval == 0
            replies = pool.round(
                ("tick", tick_index, now, not decision_tick),
                "ticked",
                route,
                barrier_s=now,
            )
            concurrent = sum(reply[2] for reply in replies)
            window_ticks += 1
            load_sum += concurrent
            if concurrent > peak:
                peak = concurrent
            if not decision_tick:
                continue

            # Window boundary: each worker shipped its per-RSU loads
            # summed over the closing window in one vector, and held its
            # moves for the flush round below.
            for reply in replies:
                load_accum[reply[3]] += reply[4]
            mean_loads = {
                rsu.name: load_accum[rsu.index] / window_ticks
                + spec.rebalance_rsu_cost
                for rsu in topology.rsus
            }
            reassignments: List[Tuple[int, int]] = []
            for decision in planner.rebalance(
                self.assignments, mean_loads, threshold=spec.rebalance_threshold
            ):
                self.assignments[decision.from_shard].remove(decision.rsu)
                self.assignments[decision.to_shard].append(decision.rsu)
                reassignments.append((index_of[decision.rsu], decision.to_shard))
                rebalance_events.append(
                    {
                        "tick": tick_index + 1,
                        "rsu": decision.rsu,
                        "from_shard": decision.from_shard,
                        "to_shard": decision.to_shard,
                    }
                )
            load_accum[:] = 0
            window_ticks = 0
            pool.round(("flush", reassignments), "flushed", route, deliver=False)

        shard_results = pool.collect(deliver=True)
        wall = time.perf_counter() - wall_start

        per_rsu: Dict[str, dict] = {}
        for result in shard_results:
            per_rsu.update(result["rsus"])
        produced = sum(r["produced"] for r in shard_results)
        applied = sum(r["applied"] for r in shard_results)
        in_flight = sum(r["in_flight"] for r in shard_results)
        obs = pool.obs
        if obs is not None:
            obs = obs.merge(self._fold_obs([per_rsu], produced))
        # Worker spans only cross the process boundary as folded
        # histograms, so the sharded breakdown comes from the snapshot.
        profile = None
        if spec.profile and obs is not None:
            profile = profile_from_snapshot(obs)
        return CityResult(
            n_rsus=len(topology),
            n_shards=len(shard_results),
            n_ticks=spec.n_ticks,
            digests={name: r["digest"] for name, r in per_rsu.items()},
            warnings={name: r["warnings"] for name, r in per_rsu.items()},
            spawned=sum(r["spawned"] for r in per_rsu.values()),
            retired=sum(r["retired"] for r in per_rsu.values()),
            final_active=sum(r["active"] for r in per_rsu.values()),
            in_flight=in_flight,
            migrations_produced=produced,
            migrations_applied=applied,
            peak_concurrent=peak,
            mean_concurrent=load_sum / max(spec.n_ticks, 1),
            rebalance_events=rebalance_events,
            build_cpu_s=pool.build_cpu_s,
            window_timings=pool.window_timings,
            wall_s=wall,
            obs=obs,
            profile=profile,
        )


def run_city(spec: CitySpec) -> CityResult:
    """Build the topology and run ``spec`` end to end."""
    return CityEngine(spec).run()
