"""Fig. 6a / Fig. 6c: latency and bandwidth vs. number of vehicles.

One sweep produces both figures: for each vehicle count the testbed
simulation reports Tx latency, processing time, end-to-end latency
(Fig. 6a) and per-vehicle / total bandwidth (Fig. 6c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.system import TestbedScenario, default_training_dataset

#: The paper sweeps 8 to 256 vehicles.
PAPER_VEHICLE_COUNTS = (8, 16, 32, 64, 128, 256)


@dataclass
class Fig6aRow:
    """One x-axis point of Fig. 6a + Fig. 6c."""

    n_vehicles: int
    tx_ms: float
    processing_ms: float
    queuing_dissemination_ms: float
    total_ms: float
    total_std_ms: float
    per_vehicle_bandwidth_kbps: float
    total_bandwidth_mbps: float

    def format_row(self) -> str:
        return (
            f"{self.n_vehicles:>5}  tx={self.tx_ms:6.2f}ms  "
            f"proc={self.processing_ms:6.2f}ms  "
            f"queue+diss={self.queuing_dissemination_ms:6.2f}ms  "
            f"total={self.total_ms:6.2f}ms (sd {self.total_std_ms:.1f})  "
            f"bw/veh={self.per_vehicle_bandwidth_kbps:5.1f}Kbps  "
            f"bw={self.total_bandwidth_mbps:5.2f}Mbps"
        )


def fig6a_latency_sweep(
    vehicle_counts: Sequence[int] = PAPER_VEHICLE_COUNTS,
    duration_s: float = 5.0,
    seed: int = 7,
    dataset=None,
) -> List[Fig6aRow]:
    """Run the single-RSU testbed at each vehicle count.

    Returns one row per count, in order.  A shared training dataset is
    built once (detection quality is irrelevant here; the models just
    need to be fitted).
    """
    dataset = dataset or default_training_dataset(seed=11, n_cars=80)
    rows = []
    for count in vehicle_counts:
        result = (
            TestbedScenario.builder()
            .vehicles(count)
            .duration(duration_s)
            .seed(seed)
            .single_rsu(dataset=dataset)
            .run()
        )
        e2e = result.e2e_latencies_ms
        total_ms = float(e2e.mean()) if e2e.size else 0.0
        total_std = float(e2e.std()) if e2e.size else 0.0
        tx = result.mean_tx_ms()
        processing = result.mean_processing_ms()
        rows.append(
            Fig6aRow(
                n_vehicles=count,
                tx_ms=tx,
                processing_ms=processing,
                queuing_dissemination_ms=max(0.0, total_ms - tx - processing),
                total_ms=total_ms,
                total_std_ms=total_std,
                per_vehicle_bandwidth_kbps=result.per_vehicle_bandwidth_bps()
                / 1e3,
                total_bandwidth_mbps=result.total_bandwidth_bps() / 1e6,
            )
        )
    return rows


def format_fig6a(rows: List[Fig6aRow]) -> str:
    return "\n".join(row.format_row() for row in rows)
