"""Comm-budget vs. detection-accuracy Pareto sweep for CO-DATA.

The bandwidth-adaptive collaboration plane (:mod:`repro.core.collab`)
trades CO-DATA bytes for summary freshness along three axes — utility
gating, delta encoding, and priority scheduling.  This harness runs the
5-RSU corridor at a send-everything refresh baseline plus a ladder of
gated budget points and reports the frontier: bytes per detected frame
against the link RSU's online detection accuracy, with the conservation
audit run at every point so a byte saved is never a summary silently
dropped.

The *knee* is the cheapest point whose accuracy stays within
``accuracy_budget_pp`` (default 0.5 pp) of the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.collab import CollabConfig
from repro.core.system import TestbedScenario, default_training_dataset
from repro.obs.audit import audit_scenario

#: The RSU whose online accuracy the frontier tracks — the corridor's
#: motorway-link node, the only one that *consumes* CO-DATA summaries.
LINK_RSU = "rsu-mw-link"

#: Default budget ladder: (label, gate_threshold, max_silence_s).
#: The baseline is prepended by the sweep itself and is NOT listed here.
DEFAULT_BUDGETS: Tuple[Tuple[str, float, Optional[float]], ...] = (
    ("tau=0.05", 0.05, None),
    ("tau=0.15", 0.15, None),
    ("tau=0.30", 0.30, None),
    ("tau=0.30/silence=4s", 0.30, 4.0),
    ("tau=0.60/silence=4s", 0.60, 4.0),
    ("tau=1.00/silence=6s", 1.00, 6.0),
)


@dataclass
class BudgetPoint:
    """One point of the comm-budget frontier."""

    label: str
    gate_threshold: float
    max_silence_s: Optional[float]
    delta_encoding: bool
    priority: bool
    co_bytes_sent: int
    co_bytes_suppressed: int
    co_msgs_gated: int
    co_stale_dropped: int
    summaries_sent: int
    summaries_received: int
    n_events: int
    link_accuracy: float
    audit_ok: bool

    @property
    def bytes_per_frame(self) -> float:
        """CO-DATA bytes spent per telemetry record detected."""
        return self.co_bytes_sent / self.n_events if self.n_events else 0.0

    def format_row(self) -> str:
        silence = (
            f"{self.max_silence_s:.1f}s" if self.max_silence_s else "auto"
        )
        return (
            f"| {self.label} | {self.gate_threshold:.2f} | {silence} "
            f"| {self.co_bytes_sent} | {self.bytes_per_frame:.3f} "
            f"| {self.co_msgs_gated} | {self.link_accuracy:.4f} "
            f"| {'ok' if self.audit_ok else 'FAIL'} |"
        )


@dataclass
class CollabBudgetResult:
    """The full frontier; ``points[0]`` is the send-all baseline."""

    points: List[BudgetPoint] = field(default_factory=list)
    accuracy_budget_pp: float = 0.5
    n_vehicles_per_rsu: int = 0
    duration_s: float = 0.0
    seed: int = 0

    @property
    def baseline(self) -> BudgetPoint:
        return self.points[0]

    @property
    def knee(self) -> BudgetPoint:
        """Cheapest point within the accuracy budget of the baseline."""
        budget = self.accuracy_budget_pp / 100.0
        eligible = [
            point
            for point in self.points[1:]
            if self.baseline.link_accuracy - point.link_accuracy <= budget
        ]
        if not eligible:
            return self.baseline
        return min(eligible, key=lambda point: point.co_bytes_sent)

    @property
    def knee_byte_reduction(self) -> float:
        """Baseline-to-knee bytes/frame ratio (>1 means cheaper)."""
        knee = self.knee
        if knee.bytes_per_frame <= 0.0:
            return float("inf") if self.baseline.bytes_per_frame else 1.0
        return self.baseline.bytes_per_frame / knee.bytes_per_frame

    @property
    def knee_accuracy_loss_pp(self) -> float:
        return 100.0 * (self.baseline.link_accuracy - self.knee.link_accuracy)

    @property
    def audits_ok(self) -> bool:
        return all(point.audit_ok for point in self.points)

    def format_markdown(self) -> str:
        lines = [
            "# CO-DATA comm-budget frontier",
            "",
            f"Corridor: {self.n_vehicles_per_rsu} vehicles/RSU, "
            f"{self.duration_s:.0f}s, seed {self.seed}.  Knee = cheapest "
            f"point within {self.accuracy_budget_pp} pp of baseline "
            "accuracy.",
            "",
            "| point | tau | silence | co bytes | bytes/frame | gated "
            "| link acc | audit |",
            "|---|---|---|---|---|---|---|---|",
        ]
        lines.extend(point.format_row() for point in self.points)
        knee = self.knee
        lines += [
            "",
            f"Knee: **{knee.label}** — "
            f"{self.knee_byte_reduction:.2f}x fewer CO-DATA bytes/frame "
            f"at {self.knee_accuracy_loss_pp:+.2f} pp accuracy "
            f"({'all audits green' if self.audits_ok else 'AUDIT FAILURES'}).",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "n_vehicles_per_rsu": self.n_vehicles_per_rsu,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "accuracy_budget_pp": self.accuracy_budget_pp,
            "points": [
                {
                    "label": point.label,
                    "gate_threshold": point.gate_threshold,
                    "max_silence_s": point.max_silence_s,
                    "delta_encoding": point.delta_encoding,
                    "priority": point.priority,
                    "co_bytes_sent": point.co_bytes_sent,
                    "co_bytes_suppressed": point.co_bytes_suppressed,
                    "co_msgs_gated": point.co_msgs_gated,
                    "co_stale_dropped": point.co_stale_dropped,
                    "summaries_sent": point.summaries_sent,
                    "summaries_received": point.summaries_received,
                    "n_events": point.n_events,
                    "bytes_per_frame": point.bytes_per_frame,
                    "link_accuracy": point.link_accuracy,
                    "audit_ok": point.audit_ok,
                }
                for point in self.points
            ],
            "knee": self.knee.label,
            "knee_byte_reduction": self.knee_byte_reduction,
            "knee_accuracy_loss_pp": self.knee_accuracy_loss_pp,
            "audits_ok": self.audits_ok,
        }


def _run_point(
    label: str,
    collab: CollabConfig,
    n_vehicles_per_rsu: int,
    duration_s: float,
    seed: int,
    handover_fraction: float,
    dataset,
) -> BudgetPoint:
    scenario = (
        TestbedScenario.builder()
        .vehicles(n_vehicles_per_rsu)
        .duration(duration_s)
        .seed(seed)
        .handover(handover_fraction)
        .observe()
        .collab(collab)
        .corridor(motorways=4, dataset=dataset)
    )
    result = scenario.run()
    audit_ok = audit_scenario(scenario).ok
    metrics = result.rsu_metrics
    link = metrics[LINK_RSU]
    if link.detection is None:
        raise RuntimeError(
            "link RSU saw no labelled events — the sweep needs a "
            "labelled replay dataset"
        )
    return BudgetPoint(
        label=label,
        gate_threshold=collab.gate_threshold,
        max_silence_s=collab.max_silence_s,
        delta_encoding=collab.delta_encoding,
        priority=collab.priority,
        co_bytes_sent=sum(m.co_bytes_sent for m in metrics.values()),
        co_bytes_suppressed=sum(
            m.co_bytes_suppressed for m in metrics.values()
        ),
        co_msgs_gated=sum(m.co_msgs_gated for m in metrics.values()),
        co_stale_dropped=sum(m.co_stale_dropped for m in metrics.values()),
        summaries_sent=sum(m.summaries_sent for m in metrics.values()),
        summaries_received=link.summaries_received,
        n_events=sum(m.n_events for m in metrics.values()),
        link_accuracy=link.detection.accuracy,
        audit_ok=audit_ok,
    )


def collab_budget_sweep(
    n_vehicles_per_rsu: int = 24,
    duration_s: float = 12.0,
    seed: int = 7,
    handover_fraction: float = 0.25,
    refresh_interval_s: float = 0.5,
    budgets: Sequence[Tuple[str, float, Optional[float]]] = DEFAULT_BUDGETS,
    accuracy_budget_pp: float = 0.5,
    dataset=None,
) -> CollabBudgetResult:
    """Sweep the CO-DATA comm budget over the 5-RSU corridor.

    The baseline re-broadcasts every tracked car's full summary each
    refresh interval (gating, delta, and priority all off); each budget
    point turns all three on at the given ``(gate_threshold,
    max_silence_s)``.  Everything else — workload, seed, handover
    schedule — is held fixed, so byte and accuracy deltas are
    attributable to the plane alone.
    """
    dataset = dataset or default_training_dataset(seed=11, n_cars=40)
    result = CollabBudgetResult(
        accuracy_budget_pp=accuracy_budget_pp,
        n_vehicles_per_rsu=n_vehicles_per_rsu,
        duration_s=duration_s,
        seed=seed,
    )
    baseline = CollabConfig(
        mode="refresh", refresh_interval_s=refresh_interval_s
    )
    result.points.append(
        _run_point(
            "baseline",
            baseline,
            n_vehicles_per_rsu,
            duration_s,
            seed,
            handover_fraction,
            dataset,
        )
    )
    for label, threshold, silence in budgets:
        collab = CollabConfig(
            mode="refresh",
            refresh_interval_s=refresh_interval_s,
            gate_threshold=threshold,
            max_silence_s=silence,
            delta_encoding=True,
            priority=True,
        )
        result.points.append(
            _run_point(
                label,
                collab,
                n_vehicles_per_rsu,
                duration_s,
                seed,
                handover_fraction,
                dataset,
            )
        )
    return result
