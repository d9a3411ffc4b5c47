"""Event and event-queue primitives for the simulation kernel.

Events are ordered by ``(time, priority, sequence)``.  The sequence
number is a global insertion counter, which makes ordering total and the
whole simulation deterministic: two events scheduled for the same instant
fire in the order they were scheduled (unless a priority says otherwise).

The queue is a **calendar queue** (a one-level timer wheel with an
unbounded dial): entries land in fixed-width time buckets that are kept
unsorted until the dial reaches them, so the steady-state cost per event
is one dict lookup and one list append instead of an O(log n) heap
sift.  This fits the workload — nearly every event in a scenario is a
periodic tick (vehicle produce at 100 ms, RSU poll at 50 ms) landing a
bucket or two ahead of the dial.  Two escape hatches keep the structure
fully general:

- entries scheduled *behind or inside* the already-activated bucket go
  to a small overflow heap that is merged entry-by-entry with the
  active bucket (events scheduled for "now" during a callback are the
  common case);
- buckets far in the future simply sit in the bucket dict until the
  dial gets there — there is no wheel wrap-around to manage.

Entries are plain ``(time, priority, seq, obj)`` tuples so every
comparison (bucket sort, overflow heap sift) happens in C without
calling back into ``Event.__lt__``.  ``obj`` is usually an
:class:`Event`; the simulator also schedules its coalesced tick groups
directly (any object with ``time``, ``seq``, ``callback`` and
``_cancelled`` attributes works).

Fired :class:`Event` objects are recycled through a small free list
(slab allocation): when the simulator finishes a callback and nobody
else holds a reference to the handle, the object is reinitialised for
the next ``push`` instead of being garbage.  Cancellation stays lazy
(O(1) flag set), but the queue now *compacts* when cancelled entries
outnumber live ones, so cancel-heavy workloads — mass vehicle stops,
failover storms — no longer grow the structure without bound.
"""

from __future__ import annotations

import heapq
from sys import getrefcount
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulated time at which the callback fires.
    priority:
        Tie-breaker for events at the same time; lower fires first.
    callback:
        Zero-argument callable invoked when the event fires.
    label:
        Optional human-readable tag, used in error messages and traces.
    """

    __slots__ = ("time", "priority", "seq", "callback", "label", "_cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        priority: int = 0,
        label: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Mark the event so the queue drops it instead of firing it."""
        self._cancelled = True

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        state = " cancelled" if self._cancelled else ""
        return f"Event(t={self.time:.6f}{tag}{state})"


#: Queue entry: ``(time, priority, seq, obj)``.  ``seq`` is unique, so
#: tuple comparison never falls through to the trailing object.
Entry = Tuple[float, int, int, Any]

_NO_BUCKET = float("-inf")


class EventQueue:
    """Calendar queue of :class:`Event` objects (and kernel tick groups).

    Cancellation is lazy: cancelled entries stay in place and are
    skipped on pop, which keeps ``cancel`` O(1).  When cancelled
    entries outnumber live ones (past a small floor) the queue compacts
    in one pass, bounding memory under cancel-heavy workloads.

    ``bucket_width`` is the calendar's dial resolution.  The default
    matches the dominant tick cadence (the paper's 50 ms micro-batch);
    correctness does not depend on it, only the bucket fill factor.
    """

    #: Calendar bucket width in simulated seconds.
    BUCKET_WIDTH = 0.05
    #: Never compact below this many cancelled entries (avoids churn on
    #: tiny queues where rebuilding costs more than it saves).
    COMPACT_MIN = 512
    #: Free-list capacity for recycled Event slabs.
    SLAB_CAP = 1024

    def __init__(self, bucket_width: float = BUCKET_WIDTH) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive: {bucket_width}")
        self._inv_width = 1.0 / bucket_width
        #: Future buckets: dial index -> unsorted entry list.
        self._buckets: dict = {}
        #: Min-heap of dial indices with (possibly stale) buckets.
        self._bucket_keys: List[int] = []
        #: The activated bucket, sorted descending (pop from the end).
        self._current: List[Entry] = []
        self._current_key: float = _NO_BUCKET
        #: Entries that landed at or behind the activated bucket.
        self._overflow: List[Entry] = []
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        self._free: List[Event] = []
        # Introspection for the obs layer.
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
        free = self._free
        seq = self._seq
        self._seq = seq + 1
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.label = label
            event._cancelled = False
            self.events_recycled += 1
        else:
            event = Event(time, seq, callback, priority, label)
            self.events_allocated += 1
        # _insert, inlined: this is the hottest write path in the kernel.
        key = int(time * self._inv_width)
        if key <= self._current_key:
            heapq.heappush(self._overflow, (time, priority, seq, event))
        else:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [(time, priority, seq, event)]
                heapq.heappush(self._bucket_keys, key)
            else:
                bucket.append((time, priority, seq, event))
        live = self._live + 1
        self._live = live
        if live > self.depth_peak:
            self.depth_peak = live
        return event

    def schedule(self, obj: Any, time: float, priority: int = 0) -> None:
        """Insert a kernel-owned schedulable (e.g. a coalesced tick
        group).  ``obj`` must expose ``time``, ``seq``, ``callback`` and
        ``_cancelled``; the queue stamps the first two."""
        seq = self._seq
        self._seq = seq + 1
        obj.time = time
        obj.seq = seq
        obj._cancelled = False
        self._insert((time, priority, seq, obj))
        live = self._live + 1
        self._live = live
        if live > self.depth_peak:
            self.depth_peak = live

    def _insert(self, entry: Entry) -> None:
        key = int(entry[0] * self._inv_width)
        if key <= self._current_key:
            heapq.heappush(self._overflow, entry)
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [entry]
            heapq.heappush(self._bucket_keys, key)
        else:
            bucket.append(entry)

    # ------------------------------------------------------------------
    # Cancellation / compaction
    # ------------------------------------------------------------------
    def cancel(self, event: Any) -> None:
        if not event._cancelled:
            event._cancelled = True
            self._live -= 1
            cancelled = self._cancelled + 1
            self._cancelled = cancelled
            if cancelled > self.cancelled_peak:
                self.cancelled_peak = cancelled
            if cancelled >= self.COMPACT_MIN and cancelled > self._live:
                self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry in one pass.

        Also recounts ``len`` from the surviving entries, so the
        counters self-heal if an already-fired event was cancelled
        (which decrements ``_live`` with no entry to match).
        """
        remaining = 0
        current = [e for e in self._current if not e[3]._cancelled]
        self._current = current  # filter preserves the descending sort
        remaining += len(current)
        overflow = [e for e in self._overflow if not e[3]._cancelled]
        heapq.heapify(overflow)
        self._overflow = overflow
        remaining += len(overflow)
        buckets = {}
        for key, bucket in self._buckets.items():
            kept = [e for e in bucket if not e[3]._cancelled]
            if kept:
                buckets[key] = kept
                remaining += len(kept)
        self._buckets = buckets
        self._bucket_keys = list(buckets)
        heapq.heapify(self._bucket_keys)
        self._live = remaining
        self._cancelled = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------
    def _advance_bucket(self) -> bool:
        """Activate the next non-empty future bucket.  Stale dial
        indices (emptied by a compaction) are skipped."""
        keys = self._bucket_keys
        buckets = self._buckets
        while keys:
            key = heapq.heappop(keys)
            bucket = buckets.pop(key, None)
            if bucket:
                bucket.sort(reverse=True)
                self._current = bucket
                self._current_key = key
                return True
        return False

    def _pop_live(self, limit: Optional[float], strict: bool) -> Any:
        """Remove and return the next live schedulable, or ``None``.

        With a ``limit``, entries beyond it are left in place:
        ``strict=False`` pops entries with ``time <= limit`` and
        ``strict=True`` only ``time < limit`` (the sharded engine's
        conservative barrier).
        """
        current = self._current
        overflow = self._overflow
        while True:
            if current:
                if overflow and overflow[0] < current[-1]:
                    entry = overflow[0]
                    from_overflow = True
                else:
                    entry = current[-1]
                    from_overflow = False
            elif overflow:
                entry = overflow[0]
                from_overflow = True
            else:
                if not self._advance_bucket():
                    return None
                current = self._current
                continue
            obj = entry[3]
            if obj._cancelled:
                if from_overflow:
                    heapq.heappop(overflow)
                else:
                    current.pop()
                self._cancelled -= 1
                continue
            if limit is not None and (
                entry[0] >= limit if strict else entry[0] > limit
            ):
                return None
            if from_overflow:
                heapq.heappop(overflow)
            else:
                current.pop()
            self._live -= 1
            return obj

    def pop_next(self) -> Any:
        """Remove and return the next live schedulable, or ``None`` if
        the queue is empty (the simulator's hot-loop primitive).

        This is ``_pop_live(None, False)`` with the limit checks and
        the overflow merge peeled out of the common case — when the
        overflow heap is empty (steady state: callbacks schedule ahead
        of the dial), each pop is one list index and one list pop.
        """
        current = self._current
        overflow = self._overflow
        while True:
            if current:
                if overflow:
                    break  # rare: merge with the overflow heap
                entry = current[-1]
                obj = entry[3]
                current.pop()
                if obj._cancelled:
                    self._cancelled -= 1
                    continue
                self._live -= 1
                return obj
            if overflow:
                break
            if not self._advance_bucket():
                return None
            current = self._current
        return self._pop_live(None, False)

    def pop_next_until(self, deadline: float) -> Any:
        """Like :meth:`pop_next`, but leaves entries with
        ``time > deadline`` in place and returns ``None``."""
        return self._pop_live(deadline, False)

    def pop_next_before(self, deadline: float) -> Any:
        """Like :meth:`pop_next`, but strictly before ``deadline``."""
        return self._pop_live(deadline, True)

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises ``IndexError`` if the queue is empty.
        """
        obj = self._pop_live(None, False)
        if obj is None:
            raise IndexError("pop from an empty EventQueue")
        return obj

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        current = self._current
        while True:
            overflow = self._overflow
            while current and current[-1][3]._cancelled:
                current.pop()
                self._cancelled -= 1
            while overflow and overflow[0][3]._cancelled:
                heapq.heappop(overflow)
                self._cancelled -= 1
            if current:
                if overflow and overflow[0] < current[-1]:
                    return overflow[0][0]
                return current[-1][0]
            if overflow:
                return overflow[0][0]
            if not self._advance_bucket():
                return None
            current = self._current

    # ------------------------------------------------------------------
    # Slab recycling
    # ------------------------------------------------------------------
    def release(self, obj: Any) -> None:
        """Return a fired event handle to the slab free list.

        Only plain :class:`Event` objects nobody else references are
        recycled: exactly 3 references reach this frame (the caller's
        local, our parameter, and ``getrefcount``'s own argument).  A
        handle still held by user code — a pending-cancel reference, a
        closure over its own event — fails the check and stays a normal
        garbage-collected object, so recycling is never observable.
        """
        if (
            type(obj) is Event
            and len(self._free) < self.SLAB_CAP
            and getrefcount(obj) == 3
        ):
            obj.callback = None
            obj.label = None
            self._free.append(obj)
