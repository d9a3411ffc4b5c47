"""The ``repro city`` experiment: a trip-churn day over the Table V fleet.

Thin shell over :class:`~repro.city.engine.CityEngine`, constructed
from a :class:`~repro.city.model.CitySpec` as
:meth:`ScenarioBuilder.city` constructs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class CityReport:
    """What a city churn run measured, plus its conservation audit."""

    seed: int
    shards: int
    duration_s: float
    tick_s: float
    wave: str
    n_rsus: int
    n_ticks: int
    spawned: int
    retired: int
    final_active: int
    in_flight: int
    peak_concurrent: int
    mean_concurrent: float
    warnings_total: int
    migrations_applied: int
    rebalance_events: List[dict]
    digest_signature: str
    critical_path_cpu_s: float
    wall_s: float
    audit_violations: List[str] = field(default_factory=list)
    #: Per-phase tick-time breakdown (``--profile``): phase ->
    #: {count, total_ms, mean_ms}, folded from the repro.obs spans.
    profile: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.audit_violations

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "shards": self.shards,
            "duration_s": self.duration_s,
            "tick_s": self.tick_s,
            "wave": self.wave,
            "n_rsus": self.n_rsus,
            "n_ticks": self.n_ticks,
            "spawned": self.spawned,
            "retired": self.retired,
            "final_active": self.final_active,
            "in_flight": self.in_flight,
            "peak_concurrent": self.peak_concurrent,
            "mean_concurrent": self.mean_concurrent,
            "warnings_total": self.warnings_total,
            "migrations_applied": self.migrations_applied,
            "rebalance_events": list(self.rebalance_events),
            "digest_signature": self.digest_signature,
            "critical_path_cpu_s": self.critical_path_cpu_s,
            "wall_s": self.wall_s,
            "audit_violations": list(self.audit_violations),
            "ok": self.ok,
            "profile": self.profile,
        }

    def format_markdown(self) -> str:
        lines = [
            "## City trip-churn run",
            "",
            f"- seed {self.seed}, {self.shards} shard(s), "
            f"{self.n_rsus} RSUs, {self.n_ticks} ticks of "
            f"{self.tick_s:.0f} s ({self.wave} demand wave)",
            f"- vehicles: {self.spawned:,} spawned, {self.retired:,} "
            f"retired, {self.final_active:,} active at end, "
            f"{self.in_flight:,} in flight",
            f"- concurrency: peak {self.peak_concurrent:,}, "
            f"mean {self.mean_concurrent:,.0f}",
            f"- warnings: {self.warnings_total:,}; cross-RSU moves "
            f"applied: {self.migrations_applied:,}",
            f"- rebalances: {len(self.rebalance_events)}",
            f"- digest: `{self.digest_signature[:16]}…`",
            f"- cpu (critical path): {self.critical_path_cpu_s:.2f} s; "
            f"wall: {self.wall_s:.2f} s",
        ]
        for event in self.rebalance_events:
            lines.append(
                f"  - tick {event['tick']}: {event['rsu']} shard "
                f"{event['from_shard']} -> {event['to_shard']}"
            )
        lines.append("")
        if self.profile:
            lines.append("### Tick-time breakdown")
            lines.append("")
            lines.append("| phase | ticks | total ms | mean ms |")
            lines.append("|---|---:|---:|---:|")
            ordered = sorted(
                self.profile.items(),
                key=lambda item: item[1]["total_ms"],
                reverse=True,
            )
            for phase, stats in ordered:
                lines.append(
                    f"| {phase} | {stats['count']:,} | "
                    f"{stats['total_ms']:,.1f} | {stats['mean_ms']:.3f} |"
                )
            lines.append("")
        if self.audit_violations:
            lines.append("### Audit: FAILED")
            lines.extend(f"- {v}" for v in self.audit_violations)
        else:
            lines.append("### Audit: all conservation laws hold")
        return "\n".join(lines)


def city_report(
    seed: int = 7,
    shards: int = 1,
    duration_s: float = 3600.0,
    count_scale: float = 0.05,
    rebalance_interval_ticks: int = 10,
    wave: str = "commute",
    observability: bool = False,
    initial_assignments: Optional[tuple] = None,
    profile: bool = False,
) -> CityReport:
    """Run one city churn day (or fraction of one) and report it."""
    from repro.city.engine import CityEngine
    from repro.city.model import COMMUTE_WAVE, FLAT_WAVE, CitySpec

    waves = {"commute": COMMUTE_WAVE, "flat": FLAT_WAVE}
    if wave not in waves:
        raise ValueError(f"unknown demand wave {wave!r}; pick from {sorted(waves)}")
    spec = CitySpec(
        seed=seed,
        shards=shards,
        duration_s=duration_s,
        count_scale=count_scale,
        rebalance_interval_ticks=rebalance_interval_ticks if shards > 1 else 0,
        demand_wave=waves[wave],
        # Sharded profiling rides the obs span snapshots, so --profile
        # implies observability there.
        observability=observability or (profile and shards > 1),
        initial_assignments=initial_assignments,
        profile=profile,
    )
    result = CityEngine(spec).run()
    return CityReport(
        seed=seed,
        shards=shards,
        duration_s=duration_s,
        tick_s=spec.tick_s,
        wave=wave,
        n_rsus=result.n_rsus,
        n_ticks=result.n_ticks,
        spawned=result.spawned,
        retired=result.retired,
        final_active=result.final_active,
        in_flight=result.in_flight,
        peak_concurrent=result.peak_concurrent,
        mean_concurrent=result.mean_concurrent,
        warnings_total=result.warnings_total,
        migrations_applied=result.migrations_applied,
        rebalance_events=list(result.rebalance_events),
        digest_signature=result.digest_signature(),
        critical_path_cpu_s=result.critical_path_cpu_s(),
        wall_s=result.wall_s,
        audit_violations=result.audit(),
        profile=result.profile,
    )
