"""Fig. 7 / Table IV / Fig. 8: model-quality experiments.

- Fig. 7: accuracy and F1 of centralized vs. AD3 vs. CAD3 at the
  motorway-link RSU.
- Table IV: TP/FN rates and the Nilsson potential-accident estimate
  E(Lambda) per model.
- Fig. 8: the mesoscopic (driver-trip) view — per-point detections
  along one trip with an abnormal-driving episode, showing CAD3's
  stability versus AD3's fluctuation and the centralized model's
  unpredictability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.accidents import AccidentEstimate, expected_accidents
from repro.core.centralized import CentralizedDetector
from repro.core.collaborative import CollaborativeDetector, summaries_from_upstream
from repro.core.detector import AD3Detector
from repro.core.features import labels_of
from repro.dataset.generator import SyntheticDataset
from repro.dataset.schema import (
    ABNORMAL,
    ANOMALY_KIND_INDEX,
    ROAD_TYPE_INDEX,
    AnomalyKind,
    TelemetryBlock,
)
from repro.experiments.datasets import corridor_dataset
from repro.geo.roadnet import RoadType
from repro.ml.metrics import BinaryClassificationReport, evaluate_binary

MODEL_NAMES = ("centralized", "ad3", "cad3")


@dataclass
class TrainedModels:
    """The three detectors, trained on one split."""

    centralized: CentralizedDetector
    ad3_motorway: AD3Detector
    ad3_link: AD3Detector
    cad3_link: CollaborativeDetector

    def predict_link(
        self,
        link: TelemetryBlock,
        test_summaries: Dict[int, object],
    ) -> Dict[str, np.ndarray]:
        return {
            "centralized": self.centralized.detect(link)[0],
            "ad3": self.ad3_link.detect(link)[0],
            "cad3": self.cad3_link.detect(link, test_summaries)[0],
        }


def train_models(train: SyntheticDataset) -> TrainedModels:
    """Train all three models exactly as the paper describes."""
    motorway = train.by_road_type(RoadType.MOTORWAY).block
    link = train.by_road_type(RoadType.MOTORWAY_LINK).block
    centralized = CentralizedDetector().fit(train.block)
    ad3_motorway = AD3Detector(RoadType.MOTORWAY).fit(motorway)
    ad3_link = AD3Detector(RoadType.MOTORWAY_LINK).fit(link)
    train_summaries = summaries_from_upstream(ad3_motorway, motorway)
    cad3_link = CollaborativeDetector(
        RoadType.MOTORWAY_LINK, nb=ad3_link
    ).fit(link, train_summaries, refit_nb=False)
    return TrainedModels(
        centralized=centralized,
        ad3_motorway=ad3_motorway,
        ad3_link=ad3_link,
        cad3_link=cad3_link,
    )


@dataclass
class ModelComparison:
    """Fig. 7 + Table IV in one result."""

    reports: Dict[str, BinaryClassificationReport]
    accidents: Dict[str, AccidentEstimate]
    n_eval: int
    abnormal_fraction: float

    def format_fig7(self) -> str:
        lines = [f"evaluation records: {self.n_eval} "
                 f"({self.abnormal_fraction:.0%} abnormal)"]
        for name in MODEL_NAMES:
            report = self.reports[name]
            lines.append(
                f"{name:<12} accuracy={report.accuracy:.4f} f1={report.f1:.4f}"
            )
        return "\n".join(lines)

    def format_table4(self) -> str:
        lines = [
            f"{'Model':<12}{'TP Rate':>9}{'FN Rate':>9}{'E(Lambda)':>11}"
        ]
        for name in MODEL_NAMES:
            report = self.reports[name]
            estimate = self.accidents[name]
            lines.append(
                f"{name:<12}{report.tp_rate:>8.1%}{report.fn_rate:>8.1%}"
                f"{estimate.expected_accidents:>11.1f}"
            )
        return "\n".join(lines)


def fig7_table4_comparison(
    dataset: Optional[SyntheticDataset] = None,
    train_fraction: float = 0.8,
    seed: int = 0,
) -> ModelComparison:
    """Run the paper's model comparison end to end.

    Trains on ``train_fraction`` of trips, evaluates all three models
    on the motorway-link test records (the collaborating RSU's road,
    where the paper measures Fig. 7), and estimates Table IV's
    potential accidents from each model's false negatives.
    """
    dataset = dataset or corridor_dataset()
    train, test = dataset.split_by_trip(train_fraction, seed=seed)
    models = train_models(train)

    link_test = test.by_road_type(RoadType.MOTORWAY_LINK).block
    motorway_test = test.by_road_type(RoadType.MOTORWAY).block
    test_summaries = summaries_from_upstream(
        models.ad3_motorway, motorway_test
    )
    predictions = models.predict_link(link_test, test_summaries)
    y_true = labels_of(link_test)

    reports = {}
    accidents = {}
    for name, y_pred in predictions.items():
        reports[name] = evaluate_binary(y_true, y_pred)
        accidents[name] = expected_accidents(link_test, y_true, y_pred)
    return ModelComparison(
        reports=reports,
        accidents=accidents,
        n_eval=len(link_test),
        abnormal_fraction=float(np.mean(y_true == ABNORMAL)),
    )


# ----------------------------------------------------------------------
# Fig. 8: mesoscopic timeline
# ----------------------------------------------------------------------
@dataclass
class Fig8Point:
    """One dot of the Fig. 8 trip overlay."""

    timestamp: float
    truth: int
    predictions: Dict[str, int]


@dataclass
class MesoscopicStats:
    """Aggregate per-trip behaviour of one model over all episode
    trips — the quantitative form of Fig. 8's visual claim."""

    mean_accuracy: float
    mean_excess_flips: float  # prediction flips beyond truth flips
    n_trips: int


@dataclass
class Fig8Result:
    trip_id: int
    car_id: int
    anomaly_kind: str
    points: List[Fig8Point] = field(default_factory=list)
    #: Aggregated over every test trip containing an episode.
    aggregate: Dict[str, MesoscopicStats] = field(default_factory=dict)

    def accuracy(self, model: str) -> float:
        if not self.points:
            return 0.0
        hits = sum(1 for p in self.points if p.predictions[model] == p.truth)
        return hits / len(self.points)

    def flips(self, model: str) -> int:
        """Prediction sign changes along the trip — the paper's
        'fluctuation'.  A stable detector flips few times."""
        sequence = [p.predictions[model] for p in self.points]
        return sum(1 for a, b in zip(sequence, sequence[1:]) if a != b)

    def truth_flips(self) -> int:
        sequence = [p.truth for p in self.points]
        return sum(1 for a, b in zip(sequence, sequence[1:]) if a != b)

    def format_aggregate(self) -> str:
        lines = [
            f"{'model':<12}{'mean trip accuracy':>20}"
            f"{'mean excess flips':>19}{'trips':>7}"
        ]
        for name in MODEL_NAMES:
            stats = self.aggregate[name]
            lines.append(
                f"{name:<12}{stats.mean_accuracy:>20.3f}"
                f"{stats.mean_excess_flips:>19.2f}{stats.n_trips:>7}"
            )
        return "\n".join(lines)

    def format_timeline(self) -> str:
        header = (
            f"trip {self.trip_id} (car {self.car_id}, {self.anomaly_kind}): "
            f"1=normal 0=abnormal"
        )
        rows = [header, f"{'truth':<12}" + "".join(
            str(p.truth) for p in self.points
        )]
        for model in MODEL_NAMES:
            rows.append(
                f"{model:<12}" + "".join(
                    str(p.predictions[model]) for p in self.points
                )
            )
        return "\n".join(rows)


_MOTORWAY = ROAD_TYPE_INDEX[RoadType.MOTORWAY.value]
_LINK = ROAD_TYPE_INDEX[RoadType.MOTORWAY_LINK.value]


def _trace_trip(models: TrainedModels, trip: TelemetryBlock) -> List[Fig8Point]:
    """Run all three models along one trip's link segment, in time
    order."""
    trip = trip.take(np.argsort(trip.timestamp, kind="stable"))
    link_part = trip.take(trip.road_type_code == _LINK)
    summaries = summaries_from_upstream(
        models.ad3_motorway, trip.take(trip.road_type_code == _MOTORWAY)
    )
    predictions = models.predict_link(link_part, summaries)
    return [
        Fig8Point(
            timestamp=timestamp,
            truth=truth,
            predictions={
                name: int(pred[index]) for name, pred in predictions.items()
            },
        )
        for index, (timestamp, truth) in enumerate(
            zip(link_part.timestamp.tolist(), link_part.label.tolist())
        )
    ]


def fig8_mesoscopic(
    dataset: Optional[SyntheticDataset] = None,
    seed: int = 0,
    anomaly: AnomalyKind = AnomalyKind.SLOWING,
    min_link_points: int = 4,
) -> Fig8Result:
    """Reproduce Fig. 8 at the mesoscopic (driver-trip) level.

    Every held-out trip whose link segment contains an abnormal
    ``anomaly`` episode is traced through all three models; the
    aggregate (mean per-trip accuracy and excess prediction flips)
    quantifies the paper's visual claim that CAD3 is accurate and
    stable while AD3 fluctuates and the centralized model is
    unpredictable.  The returned timeline is the single trip where the
    models disagree most — the illustrative case, as in the paper's
    figure.
    """
    dataset = dataset or corridor_dataset()
    train, test = dataset.split_by_trip(0.8, seed=seed)
    models = train_models(train)

    # A trip is an episode trip when its link segment has enough
    # points, two of them abnormal ``anomaly`` rows.
    block = test.block
    link = block.road_type_code == _LINK
    abnormal = (
        link
        & (block.anomaly_kind_code == ANOMALY_KIND_INDEX[anomaly.value])
        & (block.label == ABNORMAL)
    )
    trips = {
        tid: rows
        for tid, rows in test.trips().items()
        if np.count_nonzero(link[rows]) >= min_link_points
        and np.count_nonzero(abnormal[rows]) >= 2
    }
    if not trips:
        raise ValueError(
            f"no test trip contains an abnormal {anomaly.value} episode; "
            f"use a larger dataset"
        )
    traces: Dict[int, List[Fig8Point]] = {
        tid: _trace_trip(models, block.take(rows)) for tid, rows in trips.items()
    }

    def trip_accuracy(points: List[Fig8Point], model: str) -> float:
        return sum(
            1 for p in points if p.predictions[model] == p.truth
        ) / len(points)

    def trip_excess_flips(points: List[Fig8Point], model: str) -> int:
        preds = [p.predictions[model] for p in points]
        truth = [p.truth for p in points]
        pred_flips = sum(1 for a, b in zip(preds, preds[1:]) if a != b)
        truth_flips = sum(1 for a, b in zip(truth, truth[1:]) if a != b)
        return max(0, pred_flips - truth_flips)

    aggregate = {}
    for name in MODEL_NAMES:
        accuracies = [trip_accuracy(points, name) for points in traces.values()]
        flips = [trip_excess_flips(points, name) for points in traces.values()]
        aggregate[name] = MesoscopicStats(
            mean_accuracy=float(np.mean(accuracies)),
            mean_excess_flips=float(np.mean(flips)),
            n_trips=len(traces),
        )

    # Illustrative timeline: the trip with the widest CAD3-vs-baseline
    # gap (the paper's figure shows exactly such a case).
    def disagreement(tid: int) -> float:
        points = traces[tid]
        return 2.0 * trip_accuracy(points, "cad3") - trip_accuracy(
            points, "ad3"
        ) - trip_accuracy(points, "centralized")

    best_trip = max(trips, key=disagreement)
    rows = trips[best_trip]
    link_first = rows[link[rows]][0]
    return Fig8Result(
        trip_id=best_trip,
        car_id=int(block.car_id[link_first]),
        anomaly_kind=anomaly.value,
        points=traces[best_trip],
        aggregate=aggregate,
    )
