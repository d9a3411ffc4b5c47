"""Tests for the discrete-event simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import SimulationError, Simulator


class TestScheduling:
    def test_at_schedules_absolute(self):
        sim = Simulator()
        times = []
        sim.at(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0]

    def test_after_schedules_relative(self):
        sim = Simulator()
        times = []
        sim.at(1.0, lambda: sim.after(0.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.5]

    def test_at_in_the_past_raises(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().after(-0.1, lambda: None)

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        event = sim.at(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run()
        assert fired == []


class TestPeriodic:
    def test_every_fires_at_interval(self):
        sim = Simulator()
        times = []
        sim.every(0.1, lambda: times.append(round(sim.now, 6)), until=0.35)
        sim.run()
        assert times == [0.1, 0.2, 0.3]

    def test_every_with_start(self):
        sim = Simulator()
        times = []
        sim.every(0.1, lambda: times.append(round(sim.now, 6)), start=0.05, until=0.3)
        sim.run()
        assert times == [0.05, pytest.approx(0.15), pytest.approx(0.25)]

    def test_every_cancel_stops_recurrence(self):
        sim = Simulator()
        times = []
        cancel = sim.every(0.1, lambda: times.append(sim.now))
        sim.at(0.25, cancel)
        sim.run()
        assert len(times) == 2

    def test_nonpositive_interval_raises(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)


class TestRunning:
    def test_run_returns_final_time(self):
        sim = Simulator()
        sim.at(2.5, lambda: None)
        assert sim.run() == 2.5

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(5.0, lambda: fired.append(5))
        assert sim.run_until(2.0) == 2.0
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_then_run_processes_rest(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        sim.run()
        assert fired == [1, 5]

    def test_run_until_past_deadline_raises(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda: None)
        sim.run()
        assert sim.events_fired == 3

    def test_runaway_loop_detected(self):
        sim = Simulator(max_events=100)

        def reschedule():
            sim.after(0.001, reschedule)

        sim.at(0.0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()

    def test_deterministic_across_runs(self):
        def build_and_run():
            sim = Simulator()
            trace = []
            sim.every(0.1, lambda: trace.append(("a", sim.now)), until=1.0)
            sim.every(0.15, lambda: trace.append(("b", sim.now)), until=1.0)
            sim.run()
            return trace

        assert build_and_run() == build_and_run()


class TestRunBefore:
    """The sharded engine's conservative-synchronization primitive."""

    def test_events_at_deadline_do_not_fire(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1.0))
        sim.at(2.0, lambda: fired.append(2.0))
        sim.run_before(2.0)
        assert fired == [1.0]
        assert sim.now == 2.0  # clock advances TO the barrier
        sim.run()
        assert fired == [1.0, 2.0]  # the deadline event fires later

    def test_injection_between_barriers_lands_before_tick(self):
        """An event *scheduled* at the barrier instant sorts after the
        already-pending tick there (insertion order) — which is why the
        sharded engine applies cross-shard frames synchronously at the
        barrier clock instead of scheduling them as events."""
        sim = Simulator()
        order = []
        sim.every(0.05, lambda: order.append(("tick", sim.now)), until=0.2)
        sim.run_before(0.05)
        sim.at(0.05, lambda: order.append(("inject", sim.now)))
        sim.run_before(0.1)
        assert order[0] == ("tick", 0.05)  # tick was scheduled first
        assert order[1] == ("inject", 0.05)

    def test_windowed_run_equals_straight_run(self):
        def trace(windowed):
            sim = Simulator()
            out = []
            sim.every(0.05, lambda: out.append(round(sim.now, 9)), until=1.0)
            sim.every(0.03, lambda: out.append(-round(sim.now, 9)), until=1.0)
            if windowed:
                barrier = 0.05
                while barrier < 1.0:
                    sim.run_before(barrier)
                    barrier += 0.05
                sim.run_until(1.5)
            else:
                sim.run_until(1.5)
            return out

        assert trace(windowed=True) == trace(windowed=False)


class TestRecurrence:
    def test_next_time_tracks_the_pending_event(self):
        sim = Simulator()
        recurrence = sim.every(0.1, lambda: None, start=0.3, until=1.0)
        assert recurrence.next_time == 0.3
        sim.run_until(0.35)
        assert recurrence.next_time == pytest.approx(0.4)

    def test_next_time_none_after_cancel(self):
        sim = Simulator()
        recurrence = sim.every(0.1, lambda: None)
        recurrence.cancel()
        assert recurrence.next_time is None

    def test_next_time_none_after_until(self):
        sim = Simulator()
        recurrence = sim.every(0.1, lambda: None, until=0.25)
        sim.run()
        assert recurrence.next_time is None

    def test_next_time_none_when_never_scheduled(self):
        sim = Simulator()
        recurrence = sim.every(0.1, lambda: None, start=0.5, until=0.4)
        assert recurrence.next_time is None
        sim.run()
        assert sim.events_fired == 0

    def test_next_time_inside_callback_is_the_instant_firing(self):
        sim = Simulator()
        seen = []
        recurrence = sim.every(
            0.1, lambda: seen.append((sim.now, recurrence.next_time)), until=0.45
        )
        sim.run()
        assert len(seen) == 4
        assert all(now == inside for now, inside in seen)

    def test_call_still_cancels(self):
        # Legacy callers treat the return of every() as a cancel thunk.
        sim = Simulator()
        fired = []
        cancel = sim.every(0.1, lambda: fired.append(sim.now), until=1.0)
        sim.run_until(0.15)
        cancel()
        sim.run()
        assert len(fired) == 1

    def test_resume_from_next_time_continues_the_grid(self):
        """Detach/resume round trip: restarting a recurrence at its
        captured next_time reproduces the original drifted grid."""
        straight = Simulator()
        expected = []
        straight.every(0.1, lambda: expected.append(straight.now), until=2.0)
        straight.run()

        sim = Simulator()
        out = []
        recurrence = sim.every(0.1, lambda: out.append(sim.now), until=2.0)
        sim.run_until(0.95)
        resume_at = recurrence.next_time
        recurrence.cancel()
        sim.every(0.1, lambda: out.append(sim.now), start=resume_at, until=2.0)
        sim.run()
        assert out == expected

    def test_resume_on_another_simulator_continues_the_grid(self):
        # The sharded engine detaches at next_time and resumes with
        # ``start=`` on another simulator; the grids must agree.
        straight = Simulator()
        expected = []
        straight.every(0.1, lambda: expected.append(straight.now), until=2.0)
        straight.run()

        first = Simulator()
        out = []
        recurrence = first.every(0.1, lambda: out.append(first.now), until=2.0)
        first.run_until(0.95)
        resume_at = recurrence.next_time
        recurrence.cancel()
        first.run()
        second = Simulator()
        second.every(0.1, lambda: out.append(second.now), start=resume_at, until=2.0)
        second.run()
        assert out == expected


class TestSameInstantOrder:
    """Every ordering at one instant follows from the single rule:
    strict ``(time, priority, seq)``, with ``seq`` the scheduling
    order.  A recurrence reschedules right after its callback returns,
    so the RSUs' micro-batch ticks keep their start order."""

    def test_same_instant_ticks_fire_in_start_order(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.every(
                0.1,
                lambda tag=tag: order.append((sim.now, tag)),
                start=0.1,
                until=0.35,
            )
        sim.run()
        assert order == [
            (0.1, "first"),
            (0.1, "second"),
            (0.1, "third"),
            (0.2, "first"),
            (0.2, "second"),
            (0.2, "third"),
            (0.30000000000000004, "first"),
            (0.30000000000000004, "second"),
            (0.30000000000000004, "third"),
        ]

    def test_recurrence_started_at_now_fires_this_instant(self):
        sim = Simulator()
        order = []

        def spawn():
            order.append("spawner")
            sim.every(
                0.1, lambda: order.append("spawned"), start=sim.now, until=0.15
            )

        sim.every(0.1, spawn, start=0.1, until=0.15)
        sim.run()
        assert order == ["spawner", "spawned"]

    def test_recurrence_cancelled_mid_instant_does_not_fire(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            third.cancel()

        sim.every(0.1, first, start=0.1, until=0.15)
        sim.every(0.1, lambda: order.append("second"), start=0.1, until=0.15)
        third = sim.every(
            0.1, lambda: order.append("third"), start=0.1, until=0.15
        )
        sim.run()
        assert order == ["first", "second"]
        assert third.next_time is None

    def test_recurrence_started_between_ticks_fires_after_existing(self):
        sim = Simulator()
        order = []
        sim.every(0.1, lambda: order.append("old"), start=0.1, until=0.25)
        sim.at(
            0.15,
            lambda: sim.every(
                0.1, lambda: order.append("new"), start=0.2, until=0.25
            ),
        )
        sim.run()
        assert order == ["old", "old", "new"]

    def test_recurrence_created_for_next_tick_fires_before_its_creator(self):
        # An RSU restarted inside a fault callback: the new recurrence is
        # scheduled during the callback, the creator's reschedule after
        # it returns, so the new one holds the earlier ``seq``.
        sim = Simulator()
        order = []

        def spawn():
            order.append(("spawner", sim.now))
            if sim.now < 0.15:
                sim.every(
                    0.1,
                    lambda: order.append(("spawned", sim.now)),
                    start=sim.now + 0.1,
                    until=0.35,
                )

        sim.every(0.1, spawn, start=0.1, until=0.35)
        sim.run()
        assert len(sim.queue) == 0
        assert [tag for tag, t in order if t == pytest.approx(0.2)] == [
            "spawned",
            "spawner",
        ]

    def test_event_at_a_tick_instant_fires_by_priority_then_seq(self):
        # Two contexts tick at bit-equal instants.  An event scheduled
        # from the second context's callback for the first context's
        # next tick lands between their reschedules, so it fires between
        # the two ticks; with a lower priority value it fires first.
        sim = Simulator()
        order = []
        first = sim.every(
            0.05, lambda: order.append(("tick-a", sim.now)), until=0.12
        )

        def tick_b():
            order.append(("tick-b", sim.now))
            if sim.now < 0.06:
                at = first.next_time
                sim.at(at, lambda: order.append(("event", sim.now)))
                sim.at(at, lambda: order.append(("urgent", sim.now)), priority=-1)

        sim.every(0.05, tick_b, until=0.12)
        sim.run()
        assert order == [
            ("tick-a", 0.05),
            ("tick-b", 0.05),
            ("urgent", 0.1),
            ("tick-a", 0.1),
            ("event", 0.1),
            ("tick-b", 0.1),
        ]


class TestQueueCounts:
    def test_cancel_from_inside_own_callback(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            recurrence.cancel()

        recurrence = sim.every(0.1, tick)
        sim.run()
        assert fired == [pytest.approx(0.1)]
        assert recurrence.next_time is None

    def test_cancelling_a_fired_event_keeps_the_counts(self):
        """A recurrence cancelling itself cancels the event being fired:
        the queue must not count it, or a still pending event looks
        gone."""
        sim = Simulator()
        handle = sim.every(0.1, lambda: handle.cancel())
        fired = []
        sim.at(5.0, lambda: fired.append(sim.now))
        sim.run_until(1.0)
        assert len(sim.queue) == 1
        assert sim.queue
        assert sim.queue.cancelled_peak == 0
        assert sim.queue.depth_peak == 2
        sim.run()
        assert fired == [5.0]
        assert len(sim.queue) == 0

    def test_cancelled_pending_events_are_counted_until_dropped(self):
        sim = Simulator()
        events = [sim.at(1.0 + k, lambda: None) for k in range(3)]
        sim.cancel(events[0])
        sim.cancel(events[0])
        sim.cancel(events[1])
        assert len(sim.queue) == 1
        assert sim.queue.cancelled_peak == 2
        assert sim.queue.depth_peak == 3
        sim.run()
        assert sim.events_fired == 1
        assert len(sim.queue) == 0


INTERVALS = (0.01, 0.05, 0.1, 0.25)
PHASES = (0.0, 0.005, 0.01, 0.05, 0.1)


@st.composite
def recurrence_specs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return [
        (
            draw(st.sampled_from(INTERVALS)),
            draw(st.sampled_from(PHASES)),
            draw(st.sampled_from((0.5, 1.0, None))),
        )
        for _ in range(n)
    ]


class TestRecurrenceGrid:
    @settings(max_examples=60, deadline=None)
    @given(specs=recurrence_specs())
    def test_grids_are_float_recurrences_and_keep_start_order(self, specs):
        """Each recurrence fires on its own accumulated float grid
        (``next = now + interval``), and recurrences sharing an interval
        and a first instant keep their start order at every instant."""
        sim = Simulator()
        fired = []
        for index, (interval, phase, until) in enumerate(specs):
            sim.every(
                interval,
                lambda index=index: fired.append((sim.now, index)),
                start=phase if phase > 0.0 else None,
                until=until,
            )
        sim.run_until(1.2)

        for index, (interval, phase, until) in enumerate(specs):
            expected = []
            t = phase if phase > 0.0 else interval
            while t <= 1.2 and (until is None or t < until):
                expected.append(t)
                t = t + interval
            assert [t for t, i in fired if i == index] == expected

        def combo(index):
            interval, phase, _ = specs[index]
            return (interval, phase if phase > 0.0 else interval)

        by_instant = {}
        for t, i in fired:
            by_instant.setdefault(t, []).append(i)
        for indices in by_instant.values():
            for key in {combo(i) for i in indices}:
                members = [i for i in indices if combo(i) == key]
                assert members == sorted(members)
