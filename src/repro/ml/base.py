"""Shared estimator plumbing: validation, fitted-state checks, and the
:class:`Detector` protocol every pipeline detector implements."""

from __future__ import annotations

import inspect
from typing import Any, Optional, Sequence, Tuple

import numpy as np


class EstimatorError(ValueError):
    """Invalid input to an estimator."""


class NotFittedError(RuntimeError):
    """An estimator method requiring ``fit`` was called before it."""


class Detector:
    """The uniform detection interface the RSU pipeline dispatches on.

    Every detector — standalone (AD3), collaborative (CAD3),
    centralized, online — exposes the same four methods, so callers
    never hand-switch on detector type:

    - :meth:`detect_block` is what the RSU pipeline calls, once per
      micro-batch, on a :class:`~repro.dataset.schema.TelemetryBlock`; it
      returns ``(classes, normal_probabilities)``, and ``summaries``
      carries the CO-DATA per-car histories (ignored by detectors that
      do not collaborate).  The default materializes the block's
      records and delegates to :meth:`detect`; vectorizing subclasses
      override it with a bit-identical fast path.
    - :meth:`detect` scores a record sequence the same way: offline
      evaluation, and the per-record reference the golden tests hold
      :meth:`detect_block` to.
    - :meth:`observe` / :meth:`observe_block` let prequential
      detectors keep learning from what they just scored; the defaults
      are no-ops, so offline detectors need not define them.
    """

    def detect(
        self, records: Sequence[Any], summaries: Optional[Any] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(classes, normal probabilities) for a record sequence."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement detect()"
        )

    def detect_block(
        self, block: Any, summaries: Optional[Any] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Columnar :meth:`detect`; the default round-trips through
        ``block.records()`` so every detector works on the block path."""
        return self.detect(block.records(), summaries)

    def observe(self, records: Sequence[Any]) -> None:
        """Fold scored records back into the model (no-op by default)."""

    def observe_block(self, block: Any) -> None:
        """Columnar :meth:`observe`.

        Materializing ``block.records()`` costs more than most batch
        detections, so only detectors that actually learn (an
        overridden :meth:`observe`) pay it.
        """
        if type(self).observe is Detector.observe:
            return
        self.observe(block.records())


class _DetectorAdapter(Detector):
    """Wraps a foreign bare-``detect`` object into the protocol.

    Attribute access falls through to the wrapped object, so fitted
    flags, models, and diagnostics stay reachable.
    """

    def __init__(self, obj: Any) -> None:
        self._obj = obj
        parameters = [
            p
            for p in inspect.signature(obj.detect).parameters.values()
            if p.kind
            in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.VAR_POSITIONAL)
        ]
        self._pass_summaries = len(parameters) >= 2

    def detect(self, records, summaries=None):
        if self._pass_summaries:
            return self._obj.detect(records, summaries)
        return self._obj.detect(records)

    def detect_block(self, block, summaries=None):
        inner = getattr(self._obj, "detect_block", None)
        if inner is None:
            return self.detect(block.records(), summaries)
        if self._pass_summaries:
            return inner(block, summaries)
        return inner(block)

    def observe(self, records) -> None:
        inner = getattr(self._obj, "observe", None)
        if inner is not None:
            inner(records)

    def observe_block(self, block) -> None:
        inner = getattr(self._obj, "observe_block", None)
        if inner is not None:
            inner(block)
        elif callable(getattr(self._obj, "observe", None)):
            self._obj.observe(block.records())

    def __getattr__(self, name: str) -> Any:
        return getattr(self._obj, name)

    def __repr__(self) -> str:
        return f"as_detector({self._obj!r})"


def as_detector(obj: Any) -> Detector:
    """Coerce ``obj`` to the :class:`Detector` protocol.

    Protocol instances pass through untouched; anything else with a
    callable ``detect`` is wrapped so the pipeline can dispatch
    uniformly (the hook for user-supplied models).
    """
    if isinstance(obj, Detector):
        return obj
    if not callable(getattr(obj, "detect", None)):
        raise TypeError(
            f"{type(obj).__name__} is not a detector: it has no "
            f"callable detect() method"
        )
    return _DetectorAdapter(obj)


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
