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
from repro.dataset.schema import NORMAL, ROAD_TYPES, TelemetryBlock
from repro.geo.roadnet import RoadType
from repro.ml.base import Detector
from repro.ml.naive_bayes import GaussianNaiveBayes


class AD3Detector(Detector):
    """Per-road-type Naive Bayes anomaly detector.

    Parameters
    ----------
    road_type:
        The road type this detector covers; ``fit`` and ``detect``
        refuse rows of other types, catching wiring bugs where an
        RSU receives data it has no model for.
    var_smoothing:
        Passed to the underlying :class:`GaussianNaiveBayes`.
    model:
        Optional alternative classifier (anything with ``fit`` /
        ``predict_and_proba``) — the hook for the paper's
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

    def fit(self, block: TelemetryBlock) -> "AD3Detector":
        """Train on the labelled rows of this detector's road type."""
        if not block:
            raise ValueError("cannot fit on zero records")
        self._check_block_road_type(block)
        self.model.fit(base_features(block), labels_of(block))
        self._fitted = True
        return self

    @property
    def fitted(self) -> bool:
        return self._fitted

    def detect(
        self, block: TelemetryBlock, summaries=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Class (1 normal, 0 abnormal) and P(normal) — the P_NB of
        Eq. 1 — per row, the likelihood evaluated once.

        ``summaries`` is accepted for interface uniformity and ignored:
        AD3 detection is road-local.
        """
        if len(block) == 0:
            return np.empty(0, dtype=int), np.empty(0)
        self._check_block_road_type(block)
        return self.model.predict_and_proba(base_features(block), NORMAL)

    def __repr__(self) -> str:
        state = "fitted" if self._fitted else "unfitted"
        return f"AD3Detector(road_type={self.road_type.value!r}, {state})"
