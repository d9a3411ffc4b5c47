"""Drift adaptation: static vs. online detectors under changing
patterns.

The paper's Sec. II motivates CAD3 with *changing patterns* — driving
behaviour shifts with the hour, the day, and road conditions — but its
pipeline trains offline once.  This experiment quantifies what that
costs: a road's speed regime shifts mid-stream (e.g. roadworks or
weather capping speeds), and we compare

- a **static** AD3 detector trained on the pre-drift regime,
- a **cumulative** online detector (partial_fit, never forgets),
- a **window** online detector (sliding-window refits, forgets).

Ground truth follows the oracle definition: each regime labelled by
the sigma-cutoff of *its own* distribution, which is exactly what the
paper's offline labelling would produce if retrained per regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.detector import AD3Detector
from repro.core.features import labels_of
from repro.core.online import OnlineAD3Detector
from repro.dataset.generator import DatasetGenerator, GeneratorConfig
from repro.dataset.preprocess import SigmaCutoffLabeler
from repro.dataset.schema import TelemetryBlock
from repro.dataset.speed_profiles import SpeedProfileLibrary
from repro.geo.network_builder import CityNetworkBuilder
from repro.geo.roadnet import FREE_FLOW_KMH, RoadType

DETECTOR_NAMES = ("static", "cumulative", "window")


@dataclass
class DriftBucket:
    """Accuracy of each detector over one evaluation bucket."""

    index: int
    post_drift: bool
    accuracy: Dict[str, float]


@dataclass
class DriftResult:
    buckets: List[DriftBucket] = field(default_factory=list)
    drift_bucket: int = 0

    def mean_accuracy(self, name: str, post_drift: bool) -> float:
        values = [
            bucket.accuracy[name]
            for bucket in self.buckets
            if bucket.post_drift is post_drift and name in bucket.accuracy
        ]
        return float(np.mean(values)) if values else 0.0

    def format_series(self) -> str:
        header = f"{'bucket':>7} {'phase':<6}" + "".join(
            f"{name:>12}" for name in DETECTOR_NAMES
        )
        lines = [header]
        for bucket in self.buckets:
            phase = "after" if bucket.post_drift else "before"
            lines.append(
                f"{bucket.index:>7} {phase:<6}"
                + "".join(
                    f"{bucket.accuracy.get(name, float('nan')):>12.3f}"
                    for name in DETECTOR_NAMES
                )
            )
        return "\n".join(lines)


def _regime_block(speed_scale: float, n_cars: int, seed: int) -> TelemetryBlock:
    """Motorway rows from a regime with scaled base speeds."""
    network = CityNetworkBuilder(seed=seed).build_corridor()
    profiles = SpeedProfileLibrary(
        {
            road_type: FREE_FLOW_KMH[road_type] * speed_scale
            for road_type in RoadType
        }
    )
    generator = DatasetGenerator(
        network,
        GeneratorConfig(
            n_cars=n_cars, trips_per_car=6, seed=seed, erroneous_rate=0.0
        ),
        profiles=profiles,
    )
    motorway = generator.generate().by_road_type(RoadType.MOTORWAY)
    # Oracle labels: the regime's own sigma-cutoff.
    labeler = SigmaCutoffLabeler().fit(motorway.block)
    motorway.block.label = labeler.label_all(motorway.block)
    return motorway.block


def drift_adaptation(
    n_cars: int = 150,
    drift_scale: float = 0.7,
    bucket_size: int = 2000,
    seed: int = 5,
) -> DriftResult:
    """Run the drift experiment.

    The stream is regime A (normal speeds) followed by regime B (base
    speeds scaled by ``drift_scale``).  The static detector trains on
    regime A's first half; online detectors consume the stream bucket
    by bucket, scoring each bucket *before* learning from it
    (prequential evaluation).
    """
    regime_a = _regime_block(1.0, n_cars, seed)
    regime_b = _regime_block(drift_scale, n_cars, seed + 1)

    half = len(regime_a) // 2
    warm_up = regime_a.take(slice(0, half))
    static = AD3Detector(RoadType.MOTORWAY).fit(warm_up)
    rest = regime_a.take(slice(half, None))
    stream = TelemetryBlock(
        *(
            np.concatenate([getattr(rest, name), getattr(regime_b, name)])
            for name in TelemetryBlock.__slots__
        )
    )
    drift_at = len(regime_a) - half

    detectors = {
        "cumulative": OnlineAD3Detector(RoadType.MOTORWAY, mode="cumulative"),
        "window": OnlineAD3Detector(
            RoadType.MOTORWAY, mode="window", window=3000, refit_every=400
        ),
    }
    # Warm the online detectors on the static detector's training data
    # so all three start from the same regime-A knowledge.
    for detector in detectors.values():
        detector.observe(warm_up)

    result = DriftResult(drift_bucket=drift_at // bucket_size)
    for index, start in enumerate(range(0, len(stream), bucket_size)):
        bucket = stream.take(slice(start, start + bucket_size))
        if len(bucket) < bucket_size // 2:
            break
        y_true = labels_of(bucket)
        accuracy = {
            "static": float(np.mean(static.detect(bucket)[0] == y_true))
        }
        for name, detector in detectors.items():
            if detector.ready:
                predictions, _ = detector.detect(bucket)
                accuracy[name] = float(np.mean(predictions == y_true))
            detector.observe(bucket)
        result.buckets.append(
            DriftBucket(
                index=index,
                post_drift=start >= drift_at,
                accuracy=accuracy,
            )
        )
    return result
