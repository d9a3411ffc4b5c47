"""AD3: the standalone per-road-type detector (Sec. IV-C).

Each RSU trains a Gaussian Naive Bayes on the data of the road type it
covers, learning the *normal* profile for that road, and classifies
incoming records.  Context-awareness comes from the per-road-type
scoping: 90 km/h is abnormal on a motorway link whose traffic runs
0-35 km/h, and normal on the motorway.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.features import ROAD_TYPE_CODE, base_features, labels_of
from repro.dataset.schema import NORMAL, ROAD_TYPES, TelemetryBlock, as_block
from repro.geo.roadnet import RoadType
from repro.ml.base import Detector
from repro.ml.naive_bayes import GaussianNaiveBayes


def road_features(records) -> np.ndarray:
    """The AD3 feature matrix: [InstSpeed, accel, Hour].

    Accepts a record sequence or a :class:`TelemetryBlock`.
    """
    return base_features(records)


class AD3Detector(Detector):
    """Per-road-type Naive Bayes anomaly detector.

    Parameters
    ----------
    road_type:
        The road type this detector covers; ``fit`` and ``predict``
        refuse records of other types, catching wiring bugs where an
        RSU receives data it has no model for.
    var_smoothing:
        Passed to the underlying :class:`GaussianNaiveBayes`.
    model:
        Optional alternative classifier (anything with ``fit`` /
        ``predict`` / ``proba_of``) — the hook for the paper's
        future-work "complex anomaly detection algorithms" (e.g.
        :class:`repro.ml.LogisticRegression` or
        :class:`repro.ml.RandomForestClassifier`).
    """

    def __init__(
        self,
        road_type: RoadType,
        var_smoothing: float = 1e-9,
        model=None,
    ) -> None:
        self.road_type = road_type
        self.model = model or GaussianNaiveBayes(var_smoothing=var_smoothing)
        self._fitted = False

    def _check_block_road_type(self, block: TelemetryBlock) -> None:
        expected = ROAD_TYPE_CODE[self.road_type]
        mismatched = np.nonzero(block.road_type_code != expected)[0]
        if mismatched.size:
            first = int(mismatched[0])
            other = ROAD_TYPES[block.road_type_code[first]]
            raise ValueError(
                f"AD3Detector for {self.road_type.value!r} received a "
                f"record for {other.value!r} "
                f"(car {int(block.car_id[first])})"
            )

    def fit(self, records) -> "AD3Detector":
        """Train on labelled records of this detector's road type: a
        record sequence or a :class:`TelemetryBlock`."""
        block = as_block(records)
        if not block:
            raise ValueError("cannot fit on zero records")
        self._check_block_road_type(block)
        self.model.fit(road_features(block), labels_of(block))
        self._fitted = True
        return self

    @property
    def fitted(self) -> bool:
        return self._fitted

    def predict(self, records) -> np.ndarray:
        """Class per record: 1 normal, 0 abnormal."""
        block = as_block(records)
        if not block:
            return np.empty(0, dtype=int)
        self._check_block_road_type(block)
        return self.model.predict(road_features(block))

    def predict_normal_proba(self, records) -> np.ndarray:
        """P(normal) per record — the P_NB of Eq. 1."""
        block = as_block(records)
        if not block:
            return np.empty(0)
        self._check_block_road_type(block)
        return self.model.proba_of(road_features(block), NORMAL)

    def detect(self, records, summaries=None) -> Tuple[np.ndarray, np.ndarray]:
        """(classes, normal probabilities) in one pass: :meth:`detect_block`
        of the records as a block.

        ``summaries`` is accepted for protocol uniformity and ignored:
        AD3 detection is road-local.
        """
        return self.detect_block(as_block(records))

    def detect_block(
        self, block: TelemetryBlock, summaries=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Columnar :meth:`detect`: score a whole micro-batch without
        materializing records, evaluating the likelihood once.

        Output is bit-identical to ``predict(block)`` and
        ``predict_normal_proba(block)``.
        """
        if len(block) == 0:
            return np.empty(0, dtype=int), np.empty(0)
        self._check_block_road_type(block)
        X = road_features(block)
        model = self.model
        if hasattr(model, "predict_and_proba"):
            return model.predict_and_proba(X, NORMAL)
        return model.predict(X), model.proba_of(X, NORMAL)

    def __repr__(self) -> str:
        state = "fitted" if self._fitted else "unfitted"
        return f"AD3Detector(road_type={self.road_type.value!r}, {state})"
