"""The discrete-event simulator.

A :class:`Simulator` owns a :class:`~repro.simkernel.clock.SimClock` and
an :class:`~repro.simkernel.events.EventQueue` and runs callbacks in
strict ``(time, priority, seq)`` order.  All CAD3 experiment scenarios
are driven through this loop, so a single seed fully determines every
measurement.

Periodic work is a :class:`Recurrence` (:meth:`Simulator.every`): each
firing is one queue event, and the next one is scheduled right after
the callback returns, at ``now + interval``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

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
    cannot be recomputed from the phase alone.  Read from inside the
    recurrence's own callback, ``next_time`` is the instant firing.
    """

    __slots__ = (
        "_sim",
        "_interval",
        "_callback",
        "_until",
        "_label",
        "_event",
        "_cancelled",
    )

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], Any],
        first: float,
        until: Optional[float],
        label: Optional[str],
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._until = until
        self._label = label
        self._cancelled = False
        self._event: Optional[Event] = None
        if until is None or first < until:
            self._event = sim.at(first, self._fire, label=label)

    def _fire(self) -> None:
        self._callback()
        if self._cancelled:
            return
        next_time = self._sim.clock._now + self._interval
        if self._until is None or next_time < self._until:
            self._event = self._sim.at(next_time, self._fire, label=self._label)
        else:
            self._event = None

    @property
    def next_time(self) -> Optional[float]:
        """Absolute time of the next firing, or ``None`` if finished."""
        if self._cancelled or self._event is None:
            return None
        return self._event.time

    def cancel(self) -> None:
        self._cancelled = True
        if self._event is not None:
            self._sim.queue.cancel(self._event)
            self._event = None

    def __call__(self) -> None:
        self.cancel()


class Simulator:
    """Deterministic discrete-event loop.

    Parameters
    ----------
    start:
        Initial simulated time (seconds).
    max_events:
        Safety valve: ``run`` raises :class:`SimulationError` after this
        many events, catching accidental infinite self-scheduling loops.
    """

    def __init__(self, start: float = 0.0, max_events: int = 50_000_000) -> None:
        self.clock = SimClock(start)
        self.queue = EventQueue()
        self.max_events = max_events
        self._events_fired = 0
        self._running = False

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
        first = self.clock.now + interval if start is None else start
        return Recurrence(self, interval, callback, first, until, label)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        self.queue.cancel(event)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _fire(self, event: Event) -> None:
        self.clock.advance_to(event.time)
        self._events_fired += 1
        if self._events_fired > self.max_events:
            raise SimulationError(
                f"exceeded max_events={self.max_events}; "
                f"likely a runaway scheduling loop (last: {event!r})"
            )
        event.callback()

    def step(self) -> bool:
        """Fire the single next event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty.
        """
        event = self.queue.pop_next()
        if event is None:
            return False
        self._fire(event)
        return True

    def _run(self, deadline: Optional[float], strict: bool) -> None:
        """Pop and fire until the queue is empty or the next event lies
        past ``deadline`` (at or past it with ``strict``)."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        queue = self.queue
        if deadline is None:
            pop = queue.pop_next
        elif strict:
            pop = partial(queue.pop_next_before, deadline)
        else:
            pop = partial(queue.pop_next_until, deadline)
        self._running = True
        try:
            event = pop()
            while event is not None:
                self._fire(event)
                event = pop()
        finally:
            self._running = False

    def run(self) -> float:
        """Run until the event queue drains.  Returns the final time."""
        self._run(None, False)
        return self.clock.now

    def run_until(self, deadline: float) -> float:
        """Run events with ``time <= deadline``; then advance the clock
        to ``deadline`` and return it."""
        return self._run_to(deadline, strict=False)

    def run_before(self, deadline: float) -> float:
        """Run events with ``time < deadline`` (strictly); then advance
        the clock to ``deadline`` and return it.

        This is the conservative-synchronization primitive used by the
        sharded engine: a worker drains everything strictly before a
        barrier, leaving events *at* the barrier instant (micro-batch
        ticks, injected messages) to fire in the next window so that
        barrier-time injections land before them in simulated order.
        """
        return self._run_to(deadline, strict=True)

    def _run_to(self, deadline: float, strict: bool) -> float:
        if deadline < self.clock.now:
            raise SimulationError(
                f"deadline {deadline!r} is before current time {self.clock.now!r}"
            )
        self._run(deadline, strict)
        self.clock.advance_to(deadline)
        return self.clock.now

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.clock.now:.6f}, pending={len(self.queue)}, "
            f"fired={self._events_fired})"
        )
