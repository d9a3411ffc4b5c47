"""Reference binary-heap event queue — the seed kernel, preserved.

This is the kernel the repository shipped with before the calendar
queue in :mod:`repro.simkernel.events`: a single ``heapq`` holding the
:class:`~repro.simkernel.events.Event` objects themselves, ordered by
their Python-level ``__lt__`` (which builds a ``(time, priority, seq)``
tuple per comparison), with lazy cancellation and a fresh allocation
per push.  It is kept, faithful to the seed implementation, as the
oracle for the calendar queue: the calendar queue must produce
trajectories bit-identical to this heap for every scenario.
``test_kernel_equivalence.py`` runs the same seeded corridor on both
queues and compares warnings, summaries and latencies exactly.
Faithfulness is the point — an oracle that shared the calendar
queue's tricks would share its bugs.

It intentionally has **no** slab free list and **no** compaction — it
is the seed implementation of the queue contract.  The interface
matches :class:`repro.simkernel.events.EventQueue` exactly
(``pop_next`` / ``pop_next_until`` / ``pop_next_before`` /
``schedule`` / ``release`` / the introspection counters), so the
simulator can run on either without branching.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.simkernel.events import Event


class ReferenceEventQueue:
    """Binary heap of schedulable objects, seed-style.

    Cancellation is lazy (cancelled entries are skipped on pop); there
    is no compaction, so cancel-heavy workloads grow the heap without
    bound — exactly the behaviour the calendar queue fixes.
    """

    def __init__(self) -> None:
        self._heap: List[Any] = []
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        # Introspection parity with the calendar queue (obs gauges).
        self.depth_peak = 0
        self.cancelled_peak = 0
        self.compactions = 0
        self.events_allocated = 0
        self.events_recycled = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def push(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: Optional[str] = None,
    ) -> Event:
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, priority, label)
        self.events_allocated += 1
        heapq.heappush(self._heap, event)
        live = self._live + 1
        self._live = live
        if live > self.depth_peak:
            self.depth_peak = live
        return event

    def schedule(self, obj: Any, time: float, priority: int = 0) -> None:
        """Insert a kernel-owned schedulable (e.g. a coalesced tick
        group); stamps ``obj.time`` / ``obj.seq`` like the calendar
        queue does.  The object must be orderable against events
        (``sort_key`` / ``__lt__``)."""
        seq = self._seq
        self._seq = seq + 1
        obj.time = time
        obj.seq = seq
        obj._cancelled = False
        heapq.heappush(self._heap, obj)
        live = self._live + 1
        self._live = live
        if live > self.depth_peak:
            self.depth_peak = live

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, event: Any) -> None:
        if not event._cancelled:
            event._cancelled = True
            self._live -= 1
            cancelled = self._cancelled + 1
            self._cancelled = cancelled
            if cancelled > self.cancelled_peak:
                self.cancelled_peak = cancelled

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------
    def _pop_live(self, limit: Optional[float], strict: bool) -> Any:
        heap = self._heap
        while heap:
            obj = heap[0]
            if obj._cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if limit is not None and (
                obj.time >= limit if strict else obj.time > limit
            ):
                return None
            heapq.heappop(heap)
            self._live -= 1
            return obj
        return None

    def pop_next(self) -> Any:
        return self._pop_live(None, False)

    def pop_next_until(self, deadline: float) -> Any:
        return self._pop_live(deadline, False)

    def pop_next_before(self, deadline: float) -> Any:
        return self._pop_live(deadline, True)

    def pop(self) -> Event:
        obj = self._pop_live(None, False)
        if obj is None:
            raise IndexError("pop from an empty EventQueue")
        return obj

    def peek_time(self) -> Optional[float]:
        heap = self._heap
        while heap:
            if heap[0]._cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return heap[0].time
        return None

    def release(self, obj: Any) -> None:
        """No slab recycling in the reference kernel."""
