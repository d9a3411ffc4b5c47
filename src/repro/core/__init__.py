"""CAD3 core: the paper's contribution.

- :mod:`repro.core.features` — feature encoding and the message types
  crossing the three topics (``IN-DATA`` telemetry, ``OUT-DATA``
  warnings, ``CO-DATA`` prediction summaries).
- :mod:`repro.core.detector` — AD3, the standalone per-road-type Naive
  Bayes detector (Sec. IV-C).
- :mod:`repro.core.collaborative` — CAD3, the Eq. 1 fusion plus
  Decision Tree collaborative detector (Sec. IV-D).
- :mod:`repro.core.centralized` — the centralized baseline.
- :mod:`repro.core.accidents` — the Nilsson-formula potential-accident
  estimator (Sec. IV-E).
- :mod:`repro.core.rsu` / :mod:`repro.core.vehicle` /
  :mod:`repro.core.system` — the runnable testbed: RSU nodes with
  broker + micro-batch pipeline + detection + collaboration, vehicle
  processes, and scenario assembly.
"""

from repro.core.accidents import (
    AccidentEstimate,
    expected_accidents,
    nilsson_accident_ratio,
    speed_deviation_delta,
)
from repro.core.block import DetectionEventLog
from repro.core.centralized import CentralizedDetector
from repro.core.collaborative import CollaborativeDetector, NEUTRAL_PRIOR
from repro.core.detector import AD3Detector
from repro.core.features import (
    CO_DATA,
    IN_DATA,
    OUT_DATA,
    PredictionSummary,
    WarningMessage,
    record_to_payload,
)
from repro.core.online import OnlineAD3Detector, OnlineLabeler, RollingProfile
from repro.core.rsu import RsuConfig, RsuNode
from repro.core.scenario import (
    ScenarioBuilder,
    ScenarioSpec,
    paper_city,
    paper_corridor,
    paper_single_rsu,
)
from repro.core.system import (
    ResilienceStats,
    ScenarioResult,
    TestbedScenario,
)
from repro.core.vehicle import VehicleNode, VehicleStats
from repro.core.wire import (
    SERDE_PROFILES,
    decode_telemetry_block,
    summary_struct_serde,
    telemetry_struct_serde,
    topic_serdes,
    warning_struct_serde,
)
from repro.dataset.schema import TelemetryBlock

__all__ = [
    "AD3Detector",
    "AccidentEstimate",
    "CO_DATA",
    "CentralizedDetector",
    "CollaborativeDetector",
    "DetectionEventLog",
    "IN_DATA",
    "NEUTRAL_PRIOR",
    "OUT_DATA",
    "SERDE_PROFILES",
    "TelemetryBlock",
    "OnlineAD3Detector",
    "OnlineLabeler",
    "PredictionSummary",
    "RollingProfile",
    "ResilienceStats",
    "RsuConfig",
    "RsuNode",
    "ScenarioBuilder",
    "ScenarioResult",
    "ScenarioSpec",
    "TestbedScenario",
    "paper_city",
    "paper_corridor",
    "paper_single_rsu",
    "VehicleNode",
    "VehicleStats",
    "WarningMessage",
    "decode_telemetry_block",
    "expected_accidents",
    "nilsson_accident_ratio",
    "record_to_payload",
    "speed_deviation_delta",
    "summary_struct_serde",
    "telemetry_struct_serde",
    "topic_serdes",
    "warning_struct_serde",
]
