"""Experiment harnesses: one module per paper table/figure.

Each harness builds its workload, runs the relevant subsystem, and
returns a structured result with a ``format_*`` method that prints the
same rows/series the paper reports.  The ``benchmarks/`` tree calls
these functions and asserts the paper's qualitative claims.

| Paper artefact | Harness |
|---|---|
| Fig. 2 speed profiles        | :func:`repro.experiments.profiles.fig2_speed_profiles` |
| Table III dataset statistics | :func:`repro.experiments.datasets.table3_statistics` |
| Fig. 6a latency scalability  | :func:`repro.experiments.latency.fig6a_latency_sweep` |
| Fig. 6b dissemination        | :func:`repro.experiments.multirsu.fig6bd_corridor` |
| Fig. 6c bandwidth            | :func:`repro.experiments.latency.fig6a_latency_sweep` (same sweep) |
| Fig. 6d per-RSU bandwidth    | :func:`repro.experiments.multirsu.fig6bd_corridor` |
| Fig. 7 model comparison      | :func:`repro.experiments.models.fig7_table4_comparison` |
| Fig. 8 mesoscopic timeline   | :func:`repro.experiments.models.fig8_mesoscopic` |
| Table IV accidents           | :func:`repro.experiments.models.fig7_table4_comparison` |
| Table V RSU placement        | :func:`repro.experiments.deployment.table5_placement` |
| Table VI infrastructure      | :func:`repro.experiments.deployment.table6_infrastructure` |
| Fig. 9 coverage              | :func:`repro.experiments.deployment.fig9_coverage` |
| Eq. 5-6 MAC analysis         | :func:`repro.experiments.mac.eq5_access_times` |
"""

from repro.experiments.ablations import (
    ablate_batch_interval,
    ablate_collaboration_link,
    ablate_detector_complexity,
    ablate_episode_persistence,
    ablate_history_weight,
    ablate_labeling_granularity,
    ablate_packet_loss,
    ablate_poll_interval,
    ablate_warning_threshold,
    format_ablation,
)
from repro.experiments.datasets import corridor_dataset, table3_statistics
from repro.experiments.drift import drift_adaptation
from repro.experiments.mesochain import grid_dataset, mesoscopic_chain
from repro.experiments.scale import (
    max_supported_vehicles,
    peak_hour_feasibility,
)
from repro.experiments.deployment import (
    fig9_coverage,
    table5_placement,
    table6_infrastructure,
)
from repro.experiments.latency import Fig6aRow, fig6a_latency_sweep
from repro.experiments.mac import Eq5Row, eq5_access_times
from repro.experiments.models import (
    ModelComparison,
    fig7_table4_comparison,
    fig8_mesoscopic,
)
from repro.experiments.multirsu import CorridorResult, fig6bd_corridor
from repro.experiments.profiles import fig2_speed_profiles

__all__ = [
    "CorridorResult",
    "Eq5Row",
    "Fig6aRow",
    "ModelComparison",
    "ablate_batch_interval",
    "ablate_collaboration_link",
    "ablate_detector_complexity",
    "ablate_episode_persistence",
    "ablate_history_weight",
    "ablate_labeling_granularity",
    "ablate_packet_loss",
    "ablate_poll_interval",
    "ablate_warning_threshold",
    "corridor_dataset",
    "drift_adaptation",
    "format_ablation",
    "grid_dataset",
    "max_supported_vehicles",
    "mesoscopic_chain",
    "peak_hour_feasibility",
    "eq5_access_times",
    "fig2_speed_profiles",
    "fig6a_latency_sweep",
    "fig6bd_corridor",
    "fig7_table4_comparison",
    "fig8_mesoscopic",
    "fig9_coverage",
    "table3_statistics",
    "table5_placement",
    "table6_infrastructure",
]
