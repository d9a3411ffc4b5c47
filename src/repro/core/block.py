"""The columnar detection event log of the telemetry hot path.

Every record that crosses an RSU used to pay per-record Python costs:
a dict → :class:`~repro.dataset.schema.TelemetryRecord` dataclass
construction, per-detector list comprehensions rebuilding the feature
matrix, and a ``DetectionEvent`` object per scored record.  At
city-scale load those costs dominate the micro-batch pipeline, so the
batch path works on *columns* instead: each micro-batch is one
:class:`~repro.dataset.schema.TelemetryBlock`, built **once** per batch
and shared by the detectors, the per-car bookkeeping, and the event
log, and :class:`DetectionEventLog` is a list-compatible event store
that accepts whole blocks in O(1) appends and materializes
:class:`~repro.core.rsu.DetectionEvent` objects only when somebody
iterates.

The log is value-faithful: it yields events bit-identical to what the
per-record path appends — the golden-equivalence tests pin this.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

import numpy as np

from repro.dataset.schema import NO_LABEL


class DetectionEventLog:
    """Columnar, list-compatible store of detection events.

    The hot path appends one whole micro-batch at a time
    (:meth:`append_block`, O(1) per batch); the legacy per-record path
    still works through :meth:`append`.  Iteration, indexing, and
    ``len`` behave like the plain ``List[DetectionEvent]`` this
    replaces; the vectorized accessors (:meth:`tx_s`,
    :meth:`queuing_s`, ...) are what the reports read.
    """

    __slots__ = ("_segments", "_length", "_materialized")

    def __init__(self) -> None:
        # Each segment is either a DetectionEvent or a block tuple
        # (car_ids, generated, arrived, detected_at_scalar, abnormal,
        # labels); order across segments is append order.
        self._segments: List[Any] = []
        self._length = 0
        self._materialized: Optional[List[Any]] = None

    def append(self, event) -> None:
        self._segments.append(event)
        self._length += 1
        self._materialized = None

    def append_block(
        self,
        car_ids: np.ndarray,
        generated_at: np.ndarray,
        arrived_at: np.ndarray,
        detected_at: float,
        abnormal: np.ndarray,
        labels: np.ndarray,
    ) -> None:
        """Record one scored micro-batch.

        ``labels`` uses :data:`NO_LABEL` for unlabelled records;
        ``detected_at`` is the batch completion time shared by every
        record of the block.
        """
        n = len(car_ids)
        if n == 0:
            return
        self._segments.append(
            (car_ids, generated_at, arrived_at, detected_at, abnormal, labels)
        )
        self._length += n
        self._materialized = None

    # ------------------------------------------------------------------
    # List protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator:
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def _materialize(self) -> List[Any]:
        if self._materialized is not None:
            return self._materialized
        from repro.core.rsu import DetectionEvent

        events: List[Any] = []
        for segment in self._segments:
            if not isinstance(segment, tuple):
                events.append(segment)
                continue
            car_ids, generated, arrived, detected_at, abnormal, labels = segment
            events.extend(
                DetectionEvent(
                    car_id=car,
                    generated_at=gen,
                    arrived_at=arr,
                    detected_at=detected_at,
                    abnormal=abn,
                    true_label=None if lbl == NO_LABEL else lbl,
                )
                for car, gen, arr, abn, lbl in zip(
                    car_ids.tolist(),
                    generated.tolist(),
                    arrived.tolist(),
                    abnormal.tolist(),
                    labels.tolist(),
                )
            )
        self._materialized = events
        return events

    # ------------------------------------------------------------------
    # Vectorized accessors
    # ------------------------------------------------------------------
    def _column(self, picker) -> np.ndarray:
        parts: List[np.ndarray] = []
        for segment in self._segments:
            parts.append(picker(segment))
        if not parts:
            return np.empty(0)
        return np.concatenate(parts)

    def car_ids(self) -> np.ndarray:
        return self._column(
            lambda s: s[0] if isinstance(s, tuple) else np.array([s.car_id])
        )

    def generated_at(self) -> np.ndarray:
        return self._column(
            lambda s: s[1] if isinstance(s, tuple) else np.array([s.generated_at])
        )

    def arrived_at(self) -> np.ndarray:
        return self._column(
            lambda s: s[2] if isinstance(s, tuple) else np.array([s.arrived_at])
        )

    def detected_at(self) -> np.ndarray:
        return self._column(
            lambda s: np.full(len(s[0]), s[3])
            if isinstance(s, tuple)
            else np.array([s.detected_at])
        )

    def abnormal(self) -> np.ndarray:
        return self._column(
            lambda s: np.asarray(s[4], dtype=bool)
            if isinstance(s, tuple)
            else np.array([s.abnormal], dtype=bool)
        )

    def true_labels(self) -> np.ndarray:
        """Labels as int8 with :data:`NO_LABEL` for unlabelled."""
        return self._column(
            lambda s: np.asarray(s[5], dtype=np.int8)
            if isinstance(s, tuple)
            else np.array(
                [NO_LABEL if s.true_label is None else s.true_label],
                dtype=np.int8,
            )
        )

    def tx_s(self) -> np.ndarray:
        """Per-event DSRC transfer time (arrived - generated)."""
        return self.arrived_at() - self.generated_at()

    def queuing_s(self) -> np.ndarray:
        """Per-event queuing + processing time (detected - arrived)."""
        return self.detected_at() - self.arrived_at()

    def __repr__(self) -> str:
        return f"DetectionEventLog(n={self._length})"
