"""The discrete-event simulator.

A :class:`Simulator` owns a :class:`~repro.simkernel.clock.SimClock` and
an :class:`~repro.simkernel.events.EventQueue` and runs callbacks in
timestamp order.  All CAD3 experiment scenarios are driven through this
loop, so a single seed fully determines every measurement.

Two scheduling paths exist for periodic work:

``every``
    The general recurrence: each firing is its own queue entry and each
    reschedule allocates a fresh one.  Fully flexible — callbacks may
    read any recurrence's ``next_time`` mid-tick and see exactly the
    per-event state.

``every_group``
    The coalesced recurrence for homogeneous tick storms (the paper's
    50 ms micro-batch polls, 100 ms vehicle beacons): recurrences with
    the *same interval and the same next-firing instant* share one queue
    entry.  When it fires, member callbacks run in registration order —
    which equals the ``(time, priority, seq)`` order N independent
    ``every`` recurrences would have fired in, because coalesced members
    were by construction scheduled in that order and callbacks never
    advance the clock.  The tick grid is the identical float recurrence
    ``next = now + interval``, so trajectories are bit-for-bit the same.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simkernel.clock import SimClock
from repro.simkernel.events import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Recurrence:
    """Handle for a periodic schedule created by :meth:`Simulator.every`.

    Calling the handle cancels the recurrence (it doubles as the
    zero-argument canceller that ``every`` historically returned).
    ``next_time`` exposes the absolute time of the next pending firing,
    which lets a periodic loop be suspended on one simulator and resumed
    on another at the exact same instant — interval recurrences
    accumulate ``now + interval`` in floating point, so the next firing
    cannot be recomputed from the phase alone.
    """

    __slots__ = ("_queue", "_state")

    def __init__(self, queue: Any, state: dict) -> None:
        self._queue = queue
        self._state = state

    @property
    def next_time(self) -> Optional[float]:
        """Absolute time of the next firing, or ``None`` if finished."""
        if self._state["cancelled"]:
            return None
        event = self._state["event"]
        if event is None or event.cancelled:
            return None
        return event.time

    def cancel(self) -> None:
        self._state["cancelled"] = True
        event = self._state["event"]
        if event is not None:
            self._queue.cancel(event)

    def __call__(self) -> None:
        self.cancel()


class _GroupMember:
    """One recurrence coalesced into a :class:`_TickGroup`."""

    __slots__ = ("callback", "until", "label", "cancelled", "group")

    def __init__(
        self,
        callback: Callable[[], Any],
        until: Optional[float],
        label: Optional[str],
    ) -> None:
        self.callback = callback
        self.until = until
        self.label = label
        self.cancelled = False
        #: The group currently carrying this member; ``None`` once the
        #: member has fired for the last time (or never joined one).
        self.group: Optional["_TickGroup"] = None


class GroupRecurrence:
    """Handle for a coalesced recurrence from :meth:`Simulator.every_group`.

    Duck-types :class:`Recurrence`: calling it cancels the member, and
    ``next_time`` reports the group's next firing instant (which *is*
    the member's, by the coalescing invariant).  One deliberate
    difference, documented in the determinism contract: read from inside
    a *sibling member's* callback mid-dispatch, ``next_time`` still
    reports the instant currently being dispatched (the group
    reschedules once, after all members ran), where N independent
    ``every`` handles would already show ``now + interval`` for members
    that fired earlier in the same instant.  Settled (post-tick) state
    is identical.
    """

    __slots__ = ("_member",)

    def __init__(self, member: _GroupMember) -> None:
        self._member = member

    @property
    def next_time(self) -> Optional[float]:
        """Absolute time of the next firing, or ``None`` if finished."""
        member = self._member
        if member.cancelled or member.group is None:
            return None
        return member.group.time

    def cancel(self) -> None:
        member = self._member
        if member.cancelled:
            return
        member.cancelled = True
        group = member.group
        if group is None:
            return
        group.live -= 1
        if group.live == 0 and not group.dispatching:
            group.sim._drop_group(group)

    def __call__(self) -> None:
        self.cancel()


#: Bucket size past which an interval's groups get a time-keyed index.
#: Below it a linear scan over a handful of groups beats dict upkeep;
#: above it (city-scale churn can phase-split one interval into dozens
#: of groups) registration and removal must stay O(1).
INDEX_THRESHOLD = 8


class _IntervalBucket:
    """The live tick groups sharing one interval.

    Starts as a plain list (registration scans it for a group whose
    next firing instant is bit-equal).  Once the bucket outgrows
    :data:`INDEX_THRESHOLD` it converts — permanently — to a dict keyed
    by next firing time, which is sound because the coalescing protocol
    guarantees at most one live group per ``(interval, time)``: a
    registration matching an existing instant joins that group, and a
    reschedule landing on an occupied instant merges into it (the epoch
    scan) instead of co-existing.
    """

    __slots__ = ("groups", "by_time")

    def __init__(self) -> None:
        self.groups: List["_TickGroup"] = []
        self.by_time: Optional[Dict[float, "_TickGroup"]] = None

    def __len__(self) -> int:
        if self.by_time is not None:
            return len(self.by_time)
        return len(self.groups)

    def find(
        self, time: float, exclude: Optional["_TickGroup"] = None
    ) -> Optional["_TickGroup"]:
        if self.by_time is not None:
            group = self.by_time.get(time)
            if group is not None and group is not exclude:
                return group
            return None
        for group in self.groups:
            if group is not exclude and group.time == time:
                return group
        return None

    def add(self, group: "_TickGroup") -> None:
        """Register ``group`` under its (already stamped) ``time``."""
        if self.by_time is not None:
            self.by_time[group.time] = group
            return
        self.groups.append(group)
        if len(self.groups) > INDEX_THRESHOLD:
            self.by_time = {g.time: g for g in self.groups}
            self.groups = []

    def discard(self, group: "_TickGroup") -> None:
        if self.by_time is not None:
            if self.by_time.get(group.time) is group:
                del self.by_time[group.time]
            return
        try:
            self.groups.remove(group)
        except ValueError:
            pass

    def reindex(self, group: "_TickGroup", old_time: float) -> None:
        """Move ``group``'s index entry after a reschedule.

        A no-op while the bucket is list-backed — identity membership
        doesn't change when a group's time does.
        """
        if self.by_time is None:
            return
        if self.by_time.get(old_time) is group:
            del self.by_time[old_time]
        self.by_time[group.time] = group


class _TickGroup:
    """A coalesced set of recurrences sharing ``(interval, next_fire)``.

    The group itself is the queue schedulable: the :class:`EventQueue`
    stamps ``time`` / ``seq`` on insert and honours ``_cancelled``.
    Dispatch fires member callbacks in registration order, then
    reschedules the whole group at ``time + interval`` — one queue
    operation and zero allocations per tick, no matter how many members.
    """

    __slots__ = (
        "time",
        "seq",
        "callback",
        "_cancelled",
        "sim",
        "interval",
        "members",
        "live",
        "dispatching",
        "_fire_n",
        "_epoch",
    )

    def __init__(self, sim: "Simulator", interval: float) -> None:
        self.sim = sim
        self.interval = interval
        self.members: List[_GroupMember] = []
        #: Count of non-cancelled members in ``members``.
        self.live = 0
        self.dispatching = False
        self._fire_n = 0
        #: The simulator's group-creation epoch last seen by this group;
        #: while it is unchanged, no phase-aligned group can have
        #: appeared, so dispatch skips the collision scan entirely.
        self._epoch = 0
        self.callback = self._dispatch
        # Stamped by EventQueue.schedule().
        self.time = 0.0
        self.seq = 0
        self._cancelled = False

    #: Groups always schedule at default priority; the class attribute
    #: (legal alongside ``__slots__``) keeps the ordering protocol
    #: below compatible with :class:`Event` in the reference heap.
    priority = 0

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: Any) -> bool:
        return self.sort_key() < other.sort_key()

    def _dispatch(self) -> None:
        sim = self.sim
        members = self.members
        now = self.time
        # Members appended *at this instant* during dispatch (a callback
        # starting a recurrence with ``start=now``) extend the firing
        # window via ``_fire_n``; members joining for a later instant do
        # not fire this tick.
        self.dispatching = True
        self._fire_n = len(members)
        i = 0
        while i < self._fire_n:
            member = members[i]
            i += 1
            if not member.cancelled:
                member.callback()
        self.dispatching = False

        next_time = now + self.interval
        drop = False
        for member in members:
            if member.cancelled or (
                member.until is not None and next_time >= member.until
            ):
                drop = True
                break
        if drop:
            survivors: List[_GroupMember] = []
            for member in members:
                if member.cancelled:
                    member.group = None
                elif member.until is not None and next_time >= member.until:
                    member.group = None  # fired for the last time
                else:
                    survivors.append(member)
            if not survivors:
                self.members = []
                self.live = 0
                sim._remove_group(self)
                return
            self.members = survivors
            self.live = len(survivors)

        if sim._group_epoch != self._epoch:
            # A group was created somewhere since our last tick — it may
            # be phase-aligned with us (e.g. an RSU restart inside a
            # fault callback).  It carries an earlier sequence number
            # than our reschedule would, so merging *into* it — its
            # members first, ours appended — reproduces the order
            # independent ``every`` events would fire in.
            self._epoch = sim._group_epoch
            other = sim._find_group(self.interval, next_time, self)
            if other is not None:
                for member in self.members:
                    member.group = other
                other.members.extend(self.members)
                other.live += self.live
                self.members = []
                self.live = 0
                sim._remove_group(self)
                return
        sim.queue.schedule(self, next_time)
        sim._reindex_group(self, now)

    def __repr__(self) -> str:
        return (
            f"TickGroup(t={self.time:.6f}, interval={self.interval}, "
            f"members={self.live}/{len(self.members)})"
        )


class Simulator:
    """Deterministic discrete-event loop.

    Parameters
    ----------
    start:
        Initial simulated time (seconds).
    max_events:
        Safety valve: ``run`` raises :class:`SimulationError` after this
        many events, catching accidental infinite self-scheduling loops.
        A coalesced group firing counts as one event regardless of its
        member count.
    queue:
        Optional queue instance (defaults to a fresh
        :class:`EventQueue`).
    """

    def __init__(
        self,
        start: float = 0.0,
        max_events: int = 50_000_000,
        queue: Optional[Any] = None,
    ) -> None:
        self.clock = SimClock(start)
        self.queue = queue if queue is not None else EventQueue()
        self.max_events = max_events
        self._events_fired = 0
        self._running = False
        #: Live coalesced tick groups, bucketed by interval.  New
        #: registrations look up their interval's bucket for a group
        #: whose next firing instant is bit-equal to theirs —
        #: recurrences coalesce only on exact float phase.  Small
        #: buckets are scanned linearly; past :data:`INDEX_THRESHOLD`
        #: a bucket indexes by firing time so churn-heavy workloads
        #: (many phase-split groups per interval) keep O(1)
        #: registration and removal.
        self._groups: Dict[float, _IntervalBucket] = {}
        #: Bumped whenever a new group is created; groups compare it to
        #: their own snapshot to decide whether a phase-collision scan
        #: is needed at reschedule time.
        self._group_epoch = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    def at(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self.clock._now:
            raise SimulationError(
                f"cannot schedule event at {time!r}; clock is already "
                f"at {self.clock.now!r}"
            )
        return self.queue.push(time, callback, priority, label)

    def after(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self.queue.push(self.clock._now + delay, callback, priority, label)

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        start: Optional[float] = None,
        until: Optional[float] = None,
        label: Optional[str] = None,
    ) -> Recurrence:
        """Schedule ``callback`` periodically.

        The first firing is at ``start`` (defaulting to ``now +
        interval``); subsequent firings occur every ``interval`` seconds
        until ``until`` (exclusive) or until the returned canceller is
        called.

        Returns
        -------
        A :class:`Recurrence` — calling it stops the recurrence, and its
        ``next_time`` property reports the next pending firing.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval!r}")
        state = {"cancelled": False, "event": None}

        def fire() -> None:
            if state["cancelled"]:
                return
            callback()
            next_time = self.clock.now + interval
            if until is None or next_time < until:
                state["event"] = self.at(next_time, fire, label=label)
            else:
                state["event"] = None

        first = self.clock.now + interval if start is None else start
        if until is None or first < until:
            state["event"] = self.at(first, fire, label=label)

        return Recurrence(self.queue, state)

    def every_group(
        self,
        interval: float,
        callback: Callable[[], Any],
        start: Optional[float] = None,
        until: Optional[float] = None,
        label: Optional[str] = None,
    ) -> GroupRecurrence:
        """Schedule ``callback`` periodically, coalescing with other
        ``every_group`` recurrences that share the same ``interval`` and
        the same (bit-equal) next firing instant.

        Firing times are the identical float grid ``every`` produces
        (``first = start`` or ``now + interval``, then ``next = now +
        interval`` after each firing), and member callbacks run in
        registration order — which is exactly the ``(time, priority,
        seq)`` order N independent ``every`` recurrences would fire in.
        The win is mechanical: one queue entry and one reschedule per
        tick for the whole group, instead of one allocation + heap
        operation per member per tick.

        Returns
        -------
        A :class:`GroupRecurrence`, duck-typing :class:`Recurrence`
        (callable canceller + ``next_time``).
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval!r}")
        now = self.clock.now
        first = now + interval if start is None else start
        member = _GroupMember(callback, until, label)
        if until is not None and first >= until:
            return GroupRecurrence(member)  # never fires
        if first < now:
            raise SimulationError(
                f"cannot schedule event at {first!r}; clock is already "
                f"at {now!r}"
            )
        bucket = self._groups.get(interval)
        if bucket is None:
            bucket = self._groups[interval] = _IntervalBucket()
        group = bucket.find(first)
        if group is not None:
            group.members.append(member)
            group.live += 1
            member.group = group
            if group.dispatching:
                # Joined the instant being dispatched right now
                # (e.g. ``start=now`` from inside a member
                # callback): fire it this tick, in arrival order,
                # as ``every`` would.
                group._fire_n += 1
            return GroupRecurrence(member)
        group = _TickGroup(self, interval)
        group.members.append(member)
        group.live = 1
        member.group = group
        self._group_epoch += 1
        group._epoch = self._group_epoch
        # Schedule first (the queue stamps ``group.time``), then index
        # under the stamped instant.
        self.queue.schedule(group, first)
        bucket.add(group)
        return GroupRecurrence(member)

    def _find_group(
        self, interval: float, time: float, exclude: _TickGroup
    ) -> Optional[_TickGroup]:
        """A live group (other than ``exclude``) at ``(interval, time)``.

        Only consulted when the group-creation epoch moved: two
        pre-existing groups with equal intervals keep a constant phase
        difference, so phase collisions can only be introduced by a
        fresh registration.
        """
        bucket = self._groups.get(interval)
        if bucket is None:
            return None
        group = bucket.find(time, exclude)
        if group is not None and group.live:
            return group
        return None

    def _remove_group(self, group: _TickGroup) -> None:
        """Drop a finished group from its interval bucket."""
        bucket = self._groups.get(group.interval)
        if bucket is not None:
            bucket.discard(group)
            if not len(bucket):
                del self._groups[group.interval]

    def _reindex_group(self, group: _TickGroup, old_time: float) -> None:
        """Refresh a rescheduled group's bucket entry (indexed buckets)."""
        bucket = self._groups.get(group.interval)
        if bucket is not None:
            bucket.reindex(group, old_time)

    def _drop_group(self, group: _TickGroup) -> None:
        """Remove a group whose members all cancelled between ticks."""
        self._remove_group(group)
        self.queue.cancel(group)
        group.members = []

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        self.queue.cancel(event)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty.
        """
        queue = self.queue
        obj = queue.pop_next()
        if obj is None:
            return False
        self.clock.advance_to(obj.time)
        self._events_fired += 1
        if self._events_fired > self.max_events:
            raise SimulationError(
                f"exceeded max_events={self.max_events}; "
                f"likely a runaway scheduling loop (last: {obj!r})"
            )
        obj.callback()
        queue.release(obj)
        return True

    def _drain(self, deadline: Optional[float], strict: bool) -> None:
        """Shared run loop: pop-advance-fire-release until exhausted.

        The queue method and counters are bound to locals — at ~1M
        events/s every attribute lookup in this loop is measurable.
        """
        queue = self.queue
        if deadline is None:
            pop = queue.pop_next
        elif strict:
            pop = partial(queue.pop_next_before, deadline)
        else:
            pop = partial(queue.pop_next_until, deadline)
        release = queue.release
        clock = self.clock
        fired = self._events_fired
        max_events = self.max_events
        try:
            while True:
                obj = pop()
                if obj is None:
                    break
                # clock.advance_to, inlined: the queue's pop order makes
                # time monotonic, but keep the invariant check — a
                # backwards jump is always a kernel bug.
                time = obj.time
                if type(time) is not float:
                    time = float(time)  # advance_to coerced; keep doing so
                if time < clock._now:
                    clock.advance_to(time)  # raises with the full message
                clock._now = time
                fired += 1
                if fired > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        f"likely a runaway scheduling loop (last: {obj!r})"
                    )
                obj.callback()
                release(obj)
        finally:
            self._events_fired = fired

    def run(self) -> float:
        """Run until the event queue drains.  Returns the final time."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        try:
            self._drain(None, False)
        finally:
            self._running = False
        return self.clock.now

    def run_until(self, deadline: float) -> float:
        """Run events with ``time <= deadline``; then advance the clock
        to ``deadline`` and return it."""
        if deadline < self.clock.now:
            raise SimulationError(
                f"deadline {deadline!r} is before current time {self.clock.now!r}"
            )
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        try:
            self._drain(deadline, False)
        finally:
            self._running = False
        self.clock.advance_to(deadline)
        return self.clock.now

    def run_before(self, deadline: float) -> float:
        """Run events with ``time < deadline`` (strictly); then advance
        the clock to ``deadline`` and return it.

        This is the conservative-synchronization primitive used by the
        sharded engine: a worker drains everything strictly before a
        barrier, leaving events *at* the barrier instant (micro-batch
        ticks, injected messages) to fire in the next window so that
        barrier-time injections land before them in simulated order.
        """
        if deadline < self.clock.now:
            raise SimulationError(
                f"deadline {deadline!r} is before current time {self.clock.now!r}"
            )
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        try:
            self._drain(deadline, True)
        finally:
            self._running = False
        self.clock.advance_to(deadline)
        return self.clock.now

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.clock.now:.6f}, pending={len(self.queue)}, "
            f"fired={self._events_fired})"
        )
