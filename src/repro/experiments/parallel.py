"""Sharded-corridor speedup: the executed city-scale harness.

:mod:`repro.experiments.scale` argues city-scale feasibility with
arithmetic over the per-RSU envelope; this module *executes* the
scaled corridor instead.  One run of :func:`parallel_corridor` drives
the same spec through both engines — the single-process
:class:`~repro.core.system.TestbedScenario` and the multi-process
:class:`~repro.parallel.engine.ShardedScenario` — on the same dataset,
checks the parallel run is warning-for-warning identical, and scores
the speedup.

Two speedup figures are reported, because they answer different
questions:

- **critical-path speedup** — serial CPU seconds divided by the
  parallel run's CPU critical path (slowest shard's build, plus per
  barrier window the slowest shard's step plus the engine's routing).
  This is what the wall clock converges to on a host with at least
  ``workers`` free cores, and it is the honest figure on a smaller
  host, where workers time-share cores and measured wall degenerates
  to the CPU *sum*.
- **measured wall speedup** — serial wall divided by parallel wall on
  *this* host, reported alongside ``host_cpus`` so the reader can see
  when the two must disagree.

The parallel critical path deliberately *includes* the worker-side
scenario build while the serial figure starts from a built scenario —
the bias runs against the parallel engine, so the pinned speedup is
conservative.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.scenario import ScenarioBuilder
from repro.core.system import default_training_dataset


@dataclass
class ParallelReport:
    """One serial-vs-sharded corridor comparison, scored."""

    motorways: int
    n_vehicles: int
    duration_s: float
    workers: int
    host_cpus: int

    serial_wall_s: float = 0.0
    serial_cpu_s: float = 0.0
    parallel_wall_s: float = 0.0
    critical_path_cpu_s: float = 0.0
    total_worker_cpu_s: float = 0.0
    engine_cpu_s: float = 0.0
    build_cpu_s: List[float] = field(default_factory=list)

    windows: int = 0
    records: int = 0
    warnings: int = 0
    undelivered_frames: int = 0
    warnings_identical: bool = False
    #: RSU names per shard, for the report.
    shard_assignments: List[List[str]] = field(default_factory=list)
    #: Per-repeat paired (serial_cpu / critical_path_cpu) ratios; the
    #: headline figures above come from the median-ratio repeat.
    speedup_samples: List[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def critical_path_speedup(self) -> float:
        """Serial CPU over the parallel CPU critical path."""
        if self.critical_path_cpu_s <= 0:
            return 0.0
        return self.serial_cpu_s / self.critical_path_cpu_s

    @property
    def measured_wall_speedup(self) -> float:
        if self.parallel_wall_s <= 0:
            return 0.0
        return self.serial_wall_s / self.parallel_wall_s

    @property
    def work_inflation(self) -> float:
        """Total parallel CPU over serial CPU (>1 = sharding overhead)."""
        if self.serial_cpu_s <= 0:
            return 0.0
        return self.total_worker_cpu_s / self.serial_cpu_s

    @property
    def serial_records_per_s(self) -> float:
        return self.records / self.serial_cpu_s if self.serial_cpu_s else 0.0

    @property
    def parallel_records_per_s(self) -> float:
        """Aggregate telemetry throughput at the CPU critical path."""
        if not self.critical_path_cpu_s:
            return 0.0
        return self.records / self.critical_path_cpu_s

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "motorways": self.motorways,
            "n_vehicles": self.n_vehicles,
            "duration_s": self.duration_s,
            "workers": self.workers,
            "host_cpus": self.host_cpus,
            "serial_wall_s": self.serial_wall_s,
            "serial_cpu_s": self.serial_cpu_s,
            "parallel_wall_s": self.parallel_wall_s,
            "critical_path_cpu_s": self.critical_path_cpu_s,
            "total_worker_cpu_s": self.total_worker_cpu_s,
            "windows": self.windows,
            "records": self.records,
            "warnings": self.warnings,
            "undelivered_frames": self.undelivered_frames,
            "warnings_identical": self.warnings_identical,
            "shard_assignments": [list(s) for s in self.shard_assignments],
            "critical_path_speedup": self.critical_path_speedup,
            "measured_wall_speedup": self.measured_wall_speedup,
            "work_inflation": self.work_inflation,
            "speedup_samples": list(self.speedup_samples),
        }

    def format_report(self) -> str:
        lines = [
            f"corridor: {self.motorways} motorways + link, "
            f"{self.n_vehicles} vehicles/RSU, {self.duration_s:g}s sim",
            f"shards: {self.workers} workers on a {self.host_cpus}-cpu host",
        ]
        for index, names in enumerate(self.shard_assignments):
            lines.append(f"  shard {index}: {', '.join(names)}")
        lines += [
            f"serial:    {self.serial_cpu_s:7.3f}s cpu  "
            f"{self.serial_wall_s:7.3f}s wall  "
            f"{self.serial_records_per_s:>9,.0f} rec/s",
            f"parallel:  {self.critical_path_cpu_s:7.3f}s critical-path cpu  "
            f"{self.parallel_wall_s:7.3f}s wall  "
            f"{self.parallel_records_per_s:>9,.0f} rec/s",
            f"windows: {self.windows}  records: {self.records:,}  "
            f"warnings: {self.warnings:,}  "
            f"undelivered frames: {self.undelivered_frames}",
            f"critical-path speedup: {self.critical_path_speedup:.2f}x  "
            f"(measured wall {self.measured_wall_speedup:.2f}x, "
            f"work inflation {self.work_inflation:.2f}x)",
            "speedup samples: "
            + ", ".join(f"{s:.2f}x" for s in self.speedup_samples),
            "warnings bit-identical to single-process: "
            + ("YES" if self.warnings_identical else "NO"),
        ]
        return "\n".join(lines)


def _builder(
    n_vehicles: int,
    duration_s: float,
    seed: int,
    handover_fraction: float,
) -> ScenarioBuilder:
    return (
        ScenarioBuilder()
        .vehicles(n_vehicles)
        .duration(duration_s)
        .seed(seed)
        .handover(handover_fraction)
        .serde("struct")
    )


def parallel_corridor(
    n_vehicles: int = 16,
    duration_s: float = 4.0,
    motorways: int = 8,
    workers: int = 4,
    seed: int = 7,
    handover_fraction: float = 0.25,
    dataset=None,
    repeats: int = 1,
) -> ParallelReport:
    """Run the same corridor spec serially and sharded; score both.

    The dataset and fitted detectors are built once and reused by both
    engines, so neither timing includes model training — only scenario
    execution (and, on the parallel side, the per-worker scenario
    build, see the module docstring).

    With ``repeats > 1``, each repeat times a fresh serial run and a
    fresh parallel run back to back, and the headline numbers are
    noise-floored: the serial CPU is the minimum across repeats (the
    ``timeit`` convention for deterministic work), and the parallel
    critical path is rebuilt from the *elementwise minimum* per
    (window, shard) CPU across repeats before taking each window's
    maximum.  The per-window work is deterministic — scheduling noise
    can only inflate a sample, never shrink it — so the minimum is the
    closest observation of the true cost, and taking it *before* the
    max removes the upward bias that contention puts on a
    sum-of-maxima.  The naive paired per-repeat ratios are kept in
    ``speedup_samples`` for transparency.  Every repeat is
    deterministic, so the equivalence checks must hold on all of them.
    """
    dataset = dataset or default_training_dataset(seed=11)
    repeats = max(1, int(repeats))

    samples = []
    warnings_identical = True
    for _ in range(repeats):
        serial = _builder(n_vehicles, duration_s, seed, handover_fraction)
        serial_scenario = serial.corridor(
            motorways=motorways, dataset=dataset
        )
        cpu0, wall0 = time.process_time(), time.perf_counter()
        serial_result = serial_scenario.run()
        serial_cpu = time.process_time() - cpu0
        serial_wall = time.perf_counter() - wall0
        serial_warnings: Dict[str, list] = {
            name: rsu.warning_log()
            for name, rsu in serial_scenario.rsus.items()
        }

        sharded = _builder(n_vehicles, duration_s, seed, handover_fraction)
        scenario = sharded.shards(workers).corridor(
            motorways=motorways, dataset=dataset
        )
        wall0 = time.perf_counter()
        parallel_result = scenario.run()
        parallel_wall = time.perf_counter() - wall0

        records = sum(
            stats.records_sent
            for stats in parallel_result.vehicle_stats.values()
        )
        assert records == sum(
            stats.records_sent
            for stats in serial_result.vehicle_stats.values()
        ), "engines disagree on records sent"
        warnings_identical = warnings_identical and (
            scenario.warning_logs == serial_warnings
        )
        samples.append(
            (
                serial_cpu,
                serial_wall,
                parallel_wall,
                scenario,
                parallel_result,
                records,
            )
        )

    ratios = [
        cpu / scenario.critical_path_cpu_s()
        for cpu, _, _, scenario, _, _ in samples
    ]
    scenarios = [scenario for _, _, _, scenario, _, _ in samples]
    windows = len(scenarios[0].window_timings)
    assert all(
        len(s.window_timings) == windows for s in scenarios
    ), "repeats disagree on the barrier schedule"

    # Noise-floored timings (see docstring): elementwise min across
    # repeats, then the per-window max across shards.
    build_cpu = [
        min(s.build_cpu_s[shard] for s in scenarios)
        for shard in range(scenarios[0].n_shards)
    ]
    window_cpu = [
        [
            min(s.window_timings[w].worker_cpu_s[shard] for s in scenarios)
            for shard in range(scenarios[0].n_shards)
        ]
        for w in range(windows)
    ]
    engine_cpu = [
        min(s.window_timings[w].engine_cpu_s for s in scenarios)
        for w in range(windows)
    ]
    critical_path = max(build_cpu) + sum(
        max(cpu) + engine for cpu, engine in zip(window_cpu, engine_cpu)
    )
    total_worker = sum(build_cpu) + sum(map(sum, window_cpu))

    serial_cpu = min(cpu for cpu, _, _, _, _, _ in samples)
    serial_wall = min(wall for _, wall, _, _, _, _ in samples)
    parallel_wall = min(wall for _, _, wall, _, _, _ in samples)
    _, _, _, scenario, result, records = samples[0]

    return ParallelReport(
        motorways=motorways,
        n_vehicles=n_vehicles,
        duration_s=duration_s,
        workers=scenario.n_shards,
        host_cpus=os.cpu_count() or 1,
        serial_wall_s=serial_wall,
        serial_cpu_s=serial_cpu,
        parallel_wall_s=parallel_wall,
        critical_path_cpu_s=critical_path,
        total_worker_cpu_s=total_worker,
        engine_cpu_s=sum(engine_cpu),
        build_cpu_s=build_cpu,
        windows=windows,
        records=records,
        warnings=sum(m.warnings_issued for m in result.rsu_metrics.values()),
        undelivered_frames=scenario.undelivered_frames,
        warnings_identical=warnings_identical,
        shard_assignments=[
            list(names) for names in scenario.plan.assignments
        ],
        speedup_samples=[round(r, 3) for r in ratios],
    )
