"""Online learning at the RSU (Sec. III-A: "each node learns the
normal behavior over time and maintains contextual information").

The paper's offline pipeline trains once; its motivation section
(Sec. II, "Changing Patterns") argues behaviour shifts with time of
day and conditions.  This module closes that loop:

- :class:`RollingProfile` — exponentially-weighted running mean/std of
  speed and acceleration: the RSU's live contextual information.
- :class:`OnlineLabeler` — the sigma-cutoff rule applied against the
  *current* rolling profile instead of a frozen training set.
- :class:`OnlineAD3Detector` — an AD3 detector that keeps learning
  from each micro-batch block it scores (``detect`` then ``observe``,
  both on the block's columns): either cumulatively
  (:meth:`GaussianNaiveBayes.partial_fit`) or from a sliding window
  (periodic refit), which also *forgets* stale regimes and therefore
  tracks drift.
"""

from __future__ import annotations

import collections
import math
from typing import Deque, Optional, Tuple

import numpy as np

from repro.core.features import ROAD_TYPE_CODE, base_features
from repro.dataset.schema import ABNORMAL, NORMAL, ROAD_TYPES, TelemetryBlock
from repro.geo.roadnet import RoadType
from repro.ml.base import Detector
from repro.ml.naive_bayes import GaussianNaiveBayes


class RollingProfile:
    """Exponentially-weighted mean/variance of a scalar signal.

    ``half_life`` is in *observations*: after that many updates an old
    observation's weight has halved.  This is the forgetting that lets
    the context track rush-hour onset, roadworks, weather, etc.
    """

    def __init__(self, half_life: float = 500.0) -> None:
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.alpha = 1.0 - 0.5 ** (1.0 / half_life)
        self._mean: Optional[float] = None
        self._var = 0.0
        self.n_observations = 0

    def update(self, value: float) -> None:
        self.n_observations += 1
        if self._mean is None:
            self._mean = value
            self._var = 0.0
            return
        delta = value - self._mean
        self._mean += self.alpha * delta
        # EW variance of the de-meaned signal.
        self._var = (1.0 - self.alpha) * (self._var + self.alpha * delta**2)

    @property
    def mean(self) -> float:
        if self._mean is None:
            raise RuntimeError("profile has seen no observations")
        return self._mean

    @property
    def std(self) -> float:
        return math.sqrt(max(self._var, 0.0))

    @property
    def ready(self) -> bool:
        return self.n_observations >= 10 and self._var > 0.0


class OnlineLabeler:
    """Sigma-cutoff labelling against live rolling profiles.

    The offline :class:`~repro.dataset.preprocess.SigmaCutoffLabeler`
    freezes mu/sigma at training time; this one tracks them, so the
    definition of "normal" follows the road's current behaviour.
    """

    def __init__(self, n_sigma: float = 1.0, half_life: float = 500.0) -> None:
        if n_sigma <= 0:
            raise ValueError("n_sigma must be positive")
        self.n_sigma = n_sigma
        self.speed = RollingProfile(half_life)
        self.accel = RollingProfile(half_life)

    def observe(self, speed_kmh: float, accel_ms2: float) -> None:
        """Fold one observation into the rolling profiles."""
        self.speed.update(speed_kmh)
        self.accel.update(accel_ms2)

    @property
    def ready(self) -> bool:
        return self.speed.ready and self.accel.ready

    def label(self, speed_kmh: float, accel_ms2: float) -> Optional[int]:
        """Label against the current bands; None while warming up."""
        if not self.ready:
            return None
        speed_ok = (
            abs(speed_kmh - self.speed.mean) <= self.n_sigma * self.speed.std
        )
        accel_ok = (
            abs(accel_ms2 - self.accel.mean) <= self.n_sigma * self.accel.std
        )
        return NORMAL if (speed_ok and accel_ok) else ABNORMAL

    def speed_band(self) -> Tuple[float, float]:
        return (
            self.speed.mean - self.n_sigma * self.speed.std,
            self.speed.mean + self.n_sigma * self.speed.std,
        )


class OnlineAD3Detector(Detector):
    """An AD3 detector that keeps learning from the stream it scores.

    Parameters
    ----------
    road_type:
        Road type covered.
    mode:
        ``"window"`` — refit the NB from a sliding buffer every
        ``refit_every`` observations (forgets old regimes: tracks
        drift); ``"cumulative"`` — ``partial_fit`` every batch (exact
        all-history model: smooth but slow to forget).
    window:
        Sliding-buffer capacity (window mode).
    refit_every:
        Observations between refits (window mode).
    half_life:
        Forgetting half-life of the labelling profiles.
    """

    def __init__(
        self,
        road_type: RoadType,
        mode: str = "window",
        window: int = 4000,
        refit_every: int = 500,
        half_life: float = 500.0,
        n_sigma: float = 1.0,
    ) -> None:
        if mode not in ("window", "cumulative"):
            raise ValueError(f"unknown mode: {mode}")
        self.road_type = road_type
        self.mode = mode
        self.labeler = OnlineLabeler(n_sigma=n_sigma, half_life=half_life)
        self.model = GaussianNaiveBayes()
        self._buffer: Deque[Tuple[np.ndarray, int]] = collections.deque(
            maxlen=window
        )
        self.refit_every = refit_every
        self._since_refit = 0
        self._model_ready = False
        self.observations = 0

    # ------------------------------------------------------------------
    def observe(self, block: TelemetryBlock) -> None:
        """Fold a block's rows into the context and the model.

        The labelling profiles are an exponentially-weighted recurrence
        (each label depends on every prior observation), so the scan
        runs row by row; the feature rows it keeps are fitted in one
        batch.  The profiles and the window buffer end the same however
        a stream is cut into blocks; the model is (re)fitted at block
        ends only.
        """
        n = len(block)
        if n == 0:
            return
        expected = ROAD_TYPE_CODE[self.road_type]
        mismatched = np.nonzero(block.road_type_code != expected)[0]
        if mismatched.size:
            other = ROAD_TYPES[block.road_type_code[int(mismatched[0])]]
            raise ValueError(
                f"online detector for {self.road_type.value!r} got a "
                f"{other.value!r} record"
            )
        speeds = block.speed_kmh.tolist()
        accels = block.accel_ms2.tolist()
        hours = block.hour.tolist()
        labeler = self.labeler
        features = []
        labels = []
        for speed, accel, hour in zip(speeds, accels, hours):
            label = labeler.label(speed, accel)
            labeler.observe(speed, accel)
            self.observations += 1
            if label is None:
                continue
            row = np.array([speed, accel, float(hour)])
            features.append(row)
            labels.append(label)
            if self.mode == "window":
                self._buffer.append((row, label))
        if not features:
            return
        if self.mode == "cumulative":
            self._partial_fit(np.vstack(features), np.array(labels))
        else:
            self._since_refit += len(features)
            if self._since_refit >= self.refit_every or not self._model_ready:
                self._refit_from_buffer()

    def _partial_fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.model.partial_fit(X, y, classes=[ABNORMAL, NORMAL])
        counts = self.model._counts
        if counts is not None and np.all(counts > 0):
            self._model_ready = True

    def _refit_from_buffer(self) -> None:
        if len(self._buffer) < 20:
            return
        X = np.vstack([row for row, _ in self._buffer])
        y = np.array([label for _, label in self._buffer])
        if len(np.unique(y)) < 2:
            return
        self.model = GaussianNaiveBayes().fit(X, y)
        self._model_ready = True
        self._since_refit = 0

    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        return self._model_ready

    def detect(
        self, block: TelemetryBlock, summaries=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(classes, normal probabilities) — the RSU pipeline contract.

        During warm-up (model not ready) every row scores normal with
        probability 1: no warnings are raised before the node has
        learned what normal looks like.
        """
        n = len(block)
        if n == 0:
            return np.empty(0, dtype=int), np.empty(0)
        if not self._model_ready:
            return np.full(n, NORMAL, dtype=int), np.ones(n)
        return self.model.predict_and_proba(base_features(block), NORMAL)

    def __repr__(self) -> str:
        return (
            f"OnlineAD3Detector(road_type={self.road_type.value!r}, "
            f"mode={self.mode!r}, observations={self.observations})"
        )
