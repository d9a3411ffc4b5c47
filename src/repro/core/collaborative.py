"""CAD3: the collaborative detector (Sec. IV-D).

At the motorway-link RSU, detection fuses two sources:

1. the local Naive Bayes probability ``P_NB`` for the incoming record,
   and
2. the averaged prediction history ``P_prevs-bar`` forwarded by the
   upstream (motorway) RSU in a ``CO-DATA`` summary,

via the paper's Eq. 1::

    P_X = 0.5 * P_prevs_bar + 0.5 * P_NB

A Decision Tree then classifies the feature vector
``[Hour, P_X, Class_NB]``.  The tree learns when to trust the local NB
call and when the driver's history overrides it — which is what makes
the detection *driver-aware* as well as road-aware.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.detector import AD3Detector
from repro.core.features import PredictionSummary, labels_of
from repro.dataset.schema import NORMAL, TelemetryBlock
from repro.geo.roadnet import RoadType
from repro.ml.base import Detector
from repro.ml.decision_tree import DecisionTreeClassifier

#: Prior used for vehicles with no forwarded history (e.g. a trip that
#: starts on the link): maximally uninformative, letting the Decision
#: Tree fall back on the local NB evidence.
NEUTRAL_PRIOR = 0.5

#: Eq. 1 weights.
HISTORY_WEIGHT = 0.5
LOCAL_WEIGHT = 0.5


class CollaborativeDetector(Detector):
    """CAD3 detection at a collaborating RSU.

    Parameters
    ----------
    road_type:
        Road type of the RSU running this detector (the paper's
        motorway link).
    nb:
        Optional pre-trained local :class:`AD3Detector`; built fresh
        when omitted.
    max_depth:
        Depth of the fusion Decision Tree (MLlib default 5).
    """

    FEATURE_NAMES = ["Hour", "P_X", "Class_NB"]

    def __init__(
        self,
        road_type: RoadType,
        nb: Optional[AD3Detector] = None,
        max_depth: int = 5,
        history_weight: float = HISTORY_WEIGHT,
    ) -> None:
        if not 0.0 <= history_weight <= 1.0:
            raise ValueError(
                f"history_weight must be in [0, 1]: {history_weight}"
            )
        self.road_type = road_type
        self.nb = nb or AD3Detector(road_type)
        self.tree = DecisionTreeClassifier(max_depth=max_depth)
        #: Eq. 1 weight on the forwarded history (paper: 0.5).  The
        #: local NB term gets ``1 - history_weight``.  Exposed for the
        #: ablation benches.
        self.history_weight = history_weight
        self._fitted = False

    # ------------------------------------------------------------------
    # Eq. 1 fusion
    # ------------------------------------------------------------------
    @staticmethod
    def fuse(p_nb: np.ndarray, p_prevs_bar: np.ndarray) -> np.ndarray:
        """Eq. 1 with the paper's weights:
        P_X = 0.5 * P_prevs_bar + 0.5 * P_NB."""
        return HISTORY_WEIGHT * np.asarray(p_prevs_bar) + LOCAL_WEIGHT * np.asarray(
            p_nb
        )

    def _fuse(self, p_nb: np.ndarray, p_prevs_bar: np.ndarray) -> np.ndarray:
        """Instance fusion honouring ``history_weight``."""
        weight = self.history_weight
        return weight * np.asarray(p_prevs_bar) + (1.0 - weight) * np.asarray(
            p_nb
        )

    def _history_vector(
        self,
        block: TelemetryBlock,
        summaries: Mapping[int, PredictionSummary],
    ) -> np.ndarray:
        """Each row's P_prevs-bar: its car's forwarded history, or
        :data:`NEUTRAL_PRIOR` without one."""
        if not summaries:
            return np.full(len(block), NEUTRAL_PRIOR)
        # One dict lookup per *unique* car, scattered back per record.
        unique_cars, inverse = np.unique(block.car_id, return_inverse=True)
        per_car = np.empty(len(unique_cars))
        for index, car in enumerate(unique_cars.tolist()):
            summary = summaries.get(car)
            per_car[index] = (
                NEUTRAL_PRIOR if summary is None else summary.mean_normal_prob
            )
        return per_car[inverse]

    def _fusion_features(
        self,
        block: TelemetryBlock,
        summaries: Mapping[int, PredictionSummary],
    ) -> np.ndarray:
        """``[Hour, P_X, Class_NB]`` per row, the NB evaluated once."""
        classes, p_nb = self.nb.detect(block)
        p_x = self._fuse(p_nb, self._history_vector(block, summaries))
        hours = block.hour.astype(np.float64)
        return np.column_stack([hours, p_x, classes.astype(float)])

    # ------------------------------------------------------------------
    # Training / inference
    # ------------------------------------------------------------------
    def fit(
        self,
        block: TelemetryBlock,
        summaries: Mapping[int, PredictionSummary],
        refit_nb: bool = True,
    ) -> "CollaborativeDetector":
        """Train the local NB (optionally) and the fusion tree.

        ``summaries`` maps car id to the upstream RSU's forwarded
        history for the same trips as ``block`` — the training-time
        analogue of what ``CO-DATA`` carries online.
        """
        if not block:
            raise ValueError("cannot fit on zero records")
        if refit_nb or not self.nb.fitted:
            self.nb.fit(block)
        self.tree.fit(self._fusion_features(block, summaries), labels_of(block))
        self._fitted = True
        return self

    @property
    def fitted(self) -> bool:
        return self._fitted

    def detect(
        self,
        block: TelemetryBlock,
        summaries: Optional[Mapping[int, PredictionSummary]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused class (1 normal, 0 abnormal) and P(normal) per row: the
        fusion features are built once and the NB likelihood is
        evaluated a single time."""
        if summaries is None:
            summaries = {}
        if len(block) == 0:
            return np.empty(0, dtype=int), np.empty(0)
        if not self._fitted:
            raise RuntimeError("CollaborativeDetector must be fitted first")
        X = self._fusion_features(block, summaries)
        return self.tree.predict_and_proba(X, NORMAL)

    def explain(self) -> str:
        """The learned fusion rules, human-readable."""
        return self.tree.export_text(self.FEATURE_NAMES)

    def __repr__(self) -> str:
        state = "fitted" if self._fitted else "unfitted"
        return f"CollaborativeDetector(road_type={self.road_type.value!r}, {state})"


def summaries_from_upstream(
    upstream: AD3Detector,
    block: TelemetryBlock,
    timestamp: Optional[float] = None,
) -> Dict[int, PredictionSummary]:
    """Build per-car summaries from an upstream RSU's predictions.

    The offline analogue of the online ``CO-DATA`` flow: run the
    upstream detector over the rows it saw, group by car, and average
    the normal-class probabilities (P_prevs-bar).  The groups come from
    one stable sort by car, so each car's slice keeps row order and its
    ``np.mean`` is the mean of its probabilities in that order; a car's
    last row is the one with the largest timestamp, the later one on a
    tie.  Cars appear in the order of their first row.
    """
    if not block:
        return {}
    classes, probs = upstream.detect(block)
    order = np.argsort(block.car_id, kind="stable")
    cars = block.car_id[order]
    starts = np.flatnonzero(np.r_[True, cars[1:] != cars[:-1]])
    stops = np.r_[starts[1:], len(cars)]
    probs = probs[order]
    times = block.timestamp[order]
    summaries = {}
    for group in np.argsort(order[starts], kind="stable").tolist():
        start, stop = int(starts[group]), int(stops[group])
        latest = times[start:stop][::-1]
        last = order[stop - 1 - int(np.argmax(latest))]
        summaries[int(cars[start])] = PredictionSummary(
            car_id=int(cars[start]),
            mean_normal_prob=float(np.mean(probs[start:stop])),
            n_predictions=stop - start,
            last_class=int(classes[last]),
            from_road_id=int(block.road_id[last]),
            timestamp=(
                timestamp if timestamp is not None else float(block.timestamp[last])
            ),
        )
    return summaries
