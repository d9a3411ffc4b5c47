"""Lightweight span tracing on the monotonic clock.

Usage::

    with span("rsu.detect", rsu="rsu-motorway-1"):
        ...

Spans record *wall-clock* (``time.perf_counter``) durations into a
bounded ring buffer — they measure the cost of the reproduction's own
code, not simulated time, so they can never perturb simulation results.
When no recorder is active, :func:`span` returns a shared no-op context
manager: the disabled cost is one module-global read and two no-op
method calls.

Granularity discipline: spans wrap micro-batch-level work (one
detection batch, one barrier wait), never per-record work — the
columnar hot path's per-record budget is ~120 ns and a perf_counter
pair alone would blow it.  ``tests/test_obs/test_observer_effect.py``
holds the registry to the same discipline: a fixed number of
operations per micro-batch, whatever its size.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

#: Default ring capacity: a 10 s corridor run emits ~200 batch spans
#: per RSU; 4096 holds several runs without unbounded growth.
DEFAULT_CAPACITY = 4096

#: Bucket edges (milliseconds) used when span durations are folded
#: into a metrics registry for cross-shard merging.
SPAN_MS_EDGES = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0)


@dataclass(frozen=True)
class SpanRecord:
    """One completed span."""

    name: str
    start_s: float  # perf_counter at entry
    duration_s: float
    depth: int  # 0 = top-level, 1 = nested once, ...
    parent: Optional[str]  # enclosing span's name, if any
    labels: Tuple[Tuple[str, str], ...]


class _ActiveSpan:
    """Context manager for one running span."""

    __slots__ = ("_recorder", "_name", "_labels", "_start")

    def __init__(
        self, recorder: "SpanRecorder", name: str, labels: Dict[str, object]
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._recorder._stack.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        stack = self._recorder._stack
        stack.pop()
        self._recorder._record(
            SpanRecord(
                name=self._name,
                start_s=self._start,
                duration_s=duration,
                depth=len(stack),
                parent=stack[-1] if stack else None,
                labels=tuple(
                    sorted((str(k), str(v)) for k, v in self._labels.items())
                ),
            )
        )


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP = _NoopSpan()


class SpanRecorder:
    """A bounded ring of completed spans plus the live nesting stack."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("span ring capacity must be >= 1")
        self.capacity = capacity
        self._ring: Deque[SpanRecord] = deque(maxlen=capacity)
        self._stack: List[str] = []
        #: Spans that fell off the ring (overwrite count).
        self.dropped = 0

    def _record(self, record: SpanRecord) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)

    def span(self, name: str, **labels: object) -> _ActiveSpan:
        return _ActiveSpan(self, name, labels)

    # -- introspection --------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[SpanRecord]:
        if name is None:
            return list(self._ring)
        return [record for record in self._ring if record.name == name]

    def __len__(self) -> int:
        return len(self._ring)

    def names(self) -> List[str]:
        return sorted({record.name for record in self._ring})

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name count / total / mean / max duration (milliseconds)."""
        grouped: Dict[str, List[float]] = {}
        for record in self._ring:
            grouped.setdefault(record.name, []).append(record.duration_s)
        return {
            name: {
                "count": len(durations),
                "total_ms": sum(durations) * 1e3,
                "mean_ms": sum(durations) / len(durations) * 1e3,
                "max_ms": max(durations) * 1e3,
            }
            for name, durations in sorted(grouped.items())
        }

    def fold_into(self, registry) -> None:
        """Fold span durations into ``registry`` as ``span.<name>_ms``
        histograms, so shard-worker spans survive the snapshot merge."""
        for record in self._ring:
            registry.histogram(
                f"span.{record.name}_ms", SPAN_MS_EDGES
            ).observe(record.duration_s * 1e3)


# ----------------------------------------------------------------------
# Module-level activation
# ----------------------------------------------------------------------
_recorder: Optional[SpanRecorder] = None


def enable_tracing(
    recorder: Optional[SpanRecorder] = None, capacity: int = DEFAULT_CAPACITY
) -> SpanRecorder:
    """Install a recorder (a fresh one by default) and return it."""
    global _recorder
    _recorder = recorder if recorder is not None else SpanRecorder(capacity)
    return _recorder


def disable_tracing() -> None:
    global _recorder
    _recorder = None


def active_recorder() -> Optional[SpanRecorder]:
    return _recorder


def span(name: str, **labels: object):
    """Open a span under the active recorder (no-op when disabled)."""
    recorder = _recorder
    if recorder is None:
        return _NOOP
    return recorder.span(name, **labels)
