"""The centralized baseline: one city-scale model.

The paper's centralized comparator "assumes training all road vehicular
data at once": a single Naive Bayes over every road type, with RoadType
as just another feature.  Mixing the per-road-type speed distributions
into one Gaussian per class is exactly what costs it road-level
context-awareness — its per-class speed Gaussian must straddle the
motorway's ~160 km/h mode and the link's ~115 km/h mode at once.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.features import centralized_features, labels_of
from repro.dataset.schema import NORMAL, TelemetryBlock
from repro.ml.base import Detector
from repro.ml.naive_bayes import GaussianNaiveBayes


class CentralizedDetector(Detector):
    """City-scale Naive Bayes over [InstSpeed, accel, Hour, RoadType].

    ``encoding`` selects the RoadType representation ("ordinal" or
    "onehot"); both perform comparably — see ``centralized_features``.
    """

    def __init__(
        self, var_smoothing: float = 1e-9, encoding: str = "ordinal"
    ) -> None:
        self.model = GaussianNaiveBayes(var_smoothing=var_smoothing)
        self.encoding = encoding
        self._fitted = False

    def fit(self, block: TelemetryBlock) -> "CentralizedDetector":
        if not block:
            raise ValueError("cannot fit on zero records")
        X = centralized_features(block, encoding=self.encoding)
        self.model.fit(X, labels_of(block))
        self._fitted = True
        return self

    @property
    def fitted(self) -> bool:
        return self._fitted

    def detect(
        self, block: TelemetryBlock, summaries=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Class (1 normal, 0 abnormal) and P(normal) per row, the
        likelihood evaluated once."""
        if len(block) == 0:
            return np.empty(0, dtype=int), np.empty(0)
        X = centralized_features(block, encoding=self.encoding)
        return self.model.predict_and_proba(X, NORMAL)

    def __repr__(self) -> str:
        state = "fitted" if self._fitted else "unfitted"
        return f"CentralizedDetector({state})"
