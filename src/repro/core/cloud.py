"""Cloud-offloaded detection: the QF-COTE-style comparator (Sec. VII-A).

The paper positions CAD3 against QF-COTE, an MEC system that "detects
road anomalies in over 300 ms, using the cloud for inter-node
collaboration".  This module models that architecture so the latency
comparison can be regenerated: the RSU still ingests telemetry, but
every micro-batch is shipped to a cloud backend over a wide-area link,
detected there, and the warnings ride back down before dissemination.

The cloud is elastic (batches process in parallel — no single-slot
queueing like the edge pipeline), so the cost is pure round-trip
latency plus cloud batch processing; with typical RSU-to-cloud WAN
latencies this lands in the >300 ms regime the paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.features import IN_DATA
from repro.core.rsu import RsuConfig, RsuNode
from repro.core.wire import decode_telemetry_block
from repro.dataset.schema import ABNORMAL
from repro.simkernel.simulator import Simulator


@dataclass(frozen=True)
class CloudProfile:
    """WAN + backend characteristics of the cloud detour.

    Defaults model a 2019-era MEC-to-cloud path: ~120 ms one-way WAN
    latency (cellular backhaul + internet transit to a regional cloud)
    and a batch-processing cost with a higher floor than the edge
    (virtualisation, load balancing, shared tenancy).
    """

    uplink_latency_s: float = 0.120
    downlink_latency_s: float = 0.120
    processing_base_s: float = 0.030
    processing_per_record_s: float = 20e-6
    jitter_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.uplink_latency_s < 0 or self.downlink_latency_s < 0:
            raise ValueError("latencies must be non-negative")
        if self.processing_base_s < 0:
            raise ValueError("processing base must be non-negative")


class CloudRelayRsu(RsuNode):
    """An RSU that offloads detection to the cloud.

    Identical ingestion and dissemination to :class:`RsuNode`; the
    detection itself happens after an uplink hop, cloud processing,
    and a downlink hop.  Collaboration state (CO-DATA) is unused: in
    the QF-COTE architecture the cloud *is* the collaboration point.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        detector,
        cloud: Optional[CloudProfile] = None,
        config: Optional[RsuConfig] = None,
        jitter_rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(sim, name, detector, config=config, jitter_rng=jitter_rng)
        self.cloud = cloud or CloudProfile()
        self._cloud_rng = jitter_rng or np.random.default_rng(0)
        self.batches_offloaded = 0

    def _on_batch(self, batch, completion_time: float) -> None:
        """Ship the batch to the cloud; detect and warn on return."""
        if not batch:
            return
        payloads = batch.collect()
        self.batches_offloaded += 1
        cloud = self.cloud
        jitter = 1.0 + cloud.jitter_fraction * float(
            self._cloud_rng.uniform(-1.0, 1.0)
        )
        processing = (
            cloud.processing_base_s
            + cloud.processing_per_record_s * len(payloads)
        ) * jitter
        detour = (
            cloud.uplink_latency_s + processing + cloud.downlink_latency_s
        )
        self.sim.after(
            detour,
            lambda p=payloads: self._cloud_result(p, self.sim.now + detour),
            label=f"{self.name}-cloud-return",
        )

    def _cloud_result(self, payloads, arrival_time: float) -> None:
        """Batch-decode the shipped wire bytes and score the block in
        one pass."""
        now = self.sim.now
        block = decode_telemetry_block(payloads, serde=self._serde_for(IN_DATA))
        classes, _ = self.detector.detect(block)
        abnormal = np.asarray(classes) == ABNORMAL
        self.events.append_block(
            block.car_id,
            block.generated_at,
            block.arrived_at,
            now,
            abnormal,
            block.label,
        )
        self._emit_block_warnings(block, np.nonzero(abnormal)[0], now)
