"""Shared estimator plumbing: validation, fitted-state checks, and the
:class:`Detector` interface every pipeline detector implements — one
``detect`` and one ``observe``, both on a
:class:`~repro.dataset.schema.TelemetryBlock`."""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np


class EstimatorError(ValueError):
    """Invalid input to an estimator."""


class NotFittedError(RuntimeError):
    """An estimator method requiring ``fit`` was called before it."""


class Detector:
    """The detection interface the RSU pipeline dispatches on.

    Every detector — standalone (AD3), collaborative (CAD3),
    centralized, online — scores a
    :class:`~repro.dataset.schema.TelemetryBlock`, so callers never
    hand-switch on detector type:

    - :meth:`detect` is what the RSU pipeline calls, once per
      micro-batch, and what offline evaluation calls on a split's
      columns; it returns ``(classes, normal_probabilities)``, and
      ``summaries`` carries the CO-DATA per-car histories (ignored by
      detectors that do not collaborate).
    - :meth:`observe` lets prequential detectors keep learning from the
      block they just scored; the default is a no-op, so offline
      detectors need not define it.
    """

    def detect(
        self, block: Any, summaries: Optional[Any] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(classes, normal probabilities) for a block."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement detect()"
        )

    def observe(self, block: Any) -> None:
        """Fold a scored block back into the model (no-op by default)."""


def class_column(classes: np.ndarray, cls) -> int:
    """The column of class ``cls`` in a fitted model's probabilities
    (robust against class ordering)."""
    matches = np.nonzero(classes == cls)[0]
    if len(matches) == 0:
        raise ValueError(f"class {cls!r} not seen during fit")
    return int(matches[0])


def check_Xy(X, y) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and coerce a training pair to float/int arrays.

    Raises :class:`EstimatorError` on shape mismatches, empty data, or
    non-finite values — failing at fit time beats failing at predict
    time with a cryptic numpy warning.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise EstimatorError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise EstimatorError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise EstimatorError(
            f"X and y disagree on sample count: {X.shape[0]} vs {y.shape[0]}"
        )
    if X.shape[0] == 0:
        raise EstimatorError("cannot fit on zero samples")
    if not np.all(np.isfinite(X)):
        raise EstimatorError("X contains NaN or infinite values")
    return X, y


def check_X(X, n_features: int) -> np.ndarray:
    """Validate a prediction matrix against the fitted feature count."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise EstimatorError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[1] != n_features:
        raise EstimatorError(
            f"X has {X.shape[1]} features; estimator was fitted "
            f"with {n_features}"
        )
    if not np.all(np.isfinite(X)):
        raise EstimatorError("X contains NaN or infinite values")
    return X


def check_fitted(estimator, attribute: str = "classes_") -> None:
    """Raise :class:`NotFittedError` unless ``attribute`` is set."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} must be fitted before calling "
            f"this method"
        )
