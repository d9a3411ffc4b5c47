"""Settlement: ``Consumer.settle_polls`` against running the polls.

The batched dataplane does not execute a vehicle's polls that would only
fetch and drop other cars' warnings; it settles them.  The reference
here is the naive thing — ``poll_block`` at every grid instant, in time
order with the appends — and the property is that settling afterwards,
in one call or several, leaves every position and every consumed /
fetched counter exactly where the executed polls left them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import Broker, Consumer, RawSerde

TOPIC = "OUT-DATA"

millis = st.integers(0, 300).map(lambda n: n / 1000.0)
appends_strategy = st.lists(
    st.tuples(millis, st.integers(0, 5), st.integers(1, 40)), max_size=60
).map(lambda items: sorted(items, key=lambda item: item[0]))


def _grid(first, interval, limit):
    instants = []
    instant = first
    while instant < limit:
        instants.append(instant)
        instant += interval
    return instants, instant


class _World:
    """One broker on a hand-driven clock and one consumer attached to
    it at ``attach`` (records appended earlier are skipped)."""

    def __init__(self, partitions):
        self.now = 0.0
        self.broker = Broker("rsu", clock=lambda: self.now)
        self.broker.create_topic(TOPIC, partitions)
        self.consumer = None

    def append(self, at, key, size):
        self.now = at
        # the record timestamp is deliberately not the append clock
        self.broker.produce(
            TOPIC, b"x" * size, key=str(key).encode(), timestamp=at - 1.0
        )

    def attach(self, at):
        self.now = at
        self.consumer = Consumer(self.broker, serde=RawSerde())
        self.consumer.subscribe([TOPIC])
        self.consumer.seek_to_end()

    def state(self):
        return (
            sorted(self.consumer._positions.items()),
            self.consumer.records_consumed,
            self.consumer.bytes_consumed,
            self.broker.records_out,
            self.broker.bytes_out,
        )


def _executed(partitions, appends, attach, instants, budget):
    """The polls run for real, interleaved with the appends; an append
    clocked exactly at a grid instant is visible to that poll."""
    world = _World(partitions)
    timeline = [(at, 0, ("append", at, key, size)) for at, key, size in appends]
    timeline.append((attach, -1, ("attach", attach)))
    timeline.extend((at, 1, ("poll", at)) for at in instants)
    timeline.sort(key=lambda entry: entry[:2])
    for _at, _order, action in timeline:
        if action[0] == "append":
            world.append(*action[1:])
        elif action[0] == "attach":
            world.attach(action[1])
        else:
            world.now = action[1]
            world.consumer.poll_block(budget)
    return world


def _settled(partitions, appends, attach, first, interval, limits, budget):
    """Every append first, then the polls settled up to each limit."""
    world = _World(partitions)
    attached = False
    for at, key, size in appends:
        if not attached and at >= attach:
            world.attach(attach)
            attached = True
        world.append(at, key, size)
    if not attached:
        world.attach(attach)
    world.now = max(world.now, limits[-1])
    upcoming = first
    for limit in limits:
        upcoming = world.consumer.settle_polls(upcoming, interval, limit, budget)
    return world, upcoming


@settings(max_examples=300, deadline=None)
@given(
    partitions=st.integers(1, 3),
    appends=appends_strategy,
    attach=millis,
    phase=st.integers(0, 10).map(lambda n: n / 1000.0),
    interval=st.sampled_from([0.01, 0.007]),
    limit=st.integers(0, 320).map(lambda n: n / 1000.0),
    cut=st.integers(0, 320).map(lambda n: n / 1000.0),
    budget=st.sampled_from([1, 2, 5, 500]),
)
def test_settling_equals_running_every_poll(
    partitions, appends, attach, phase, interval, limit, cut, budget
):
    first = attach + phase
    instants, upcoming = _grid(first, interval, limit)
    executed = _executed(partitions, appends, attach, instants, budget)
    at_once, next_at_once = _settled(
        partitions, appends, attach, first, interval, [limit], budget
    )
    in_two, next_in_two = _settled(
        partitions, appends, attach, first, interval,
        sorted([cut, limit]), budget,
    )
    assert at_once.state() == executed.state()
    assert next_at_once == upcoming
    if cut <= limit:
        # settling is path-independent: the same float grid is walked
        # whichever instants the caller stops at in between
        assert in_two.state() == executed.state()
        assert next_in_two == upcoming


def test_settle_takes_the_replay_branch_when_the_backlog_overflows():
    """Ten records, budget three, two polls: the second poll is still
    behind, which only the instant-by-instant replay reproduces."""
    appends = [(0.001 * n, 0, 10) for n in range(1, 11)]
    executed = _executed(1, appends, 0.0, [0.02, 0.03], 3)
    settled, upcoming = _settled(1, appends, 0.0, 0.02, 0.01, [0.035], 3)
    assert executed.consumer.records_consumed == 6
    assert settled.state() == executed.state()
    assert upcoming == 0.02 + 0.01 + 0.01


def test_settle_refuses_a_retention_bounded_partition():
    broker = Broker("rsu")
    broker.create_topic(TOPIC, 1, retention_records=4)
    consumer = Consumer(broker, serde=RawSerde())
    consumer.subscribe([TOPIC])
    broker.produce(TOPIC, b"x")
    with pytest.raises(ValueError, match="retention-bounded"):
        consumer.settle_polls(0.0, 0.01, 1.0)
