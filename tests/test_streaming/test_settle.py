"""Settlement: ``Consumer.settle_polls`` against running the polls.

A vehicle does not execute the polls that would only fetch and drop
other cars' warnings, or be refused by a down broker; it settles them.
The reference here is the naive thing — ``poll_block`` at every grid
instant, in time order with the appends, the crashes and the restarts —
and the property is that settling afterwards, in one call or several,
leaves every position and every consumed / fetched counter exactly
where the executed polls left them, and counts exactly the polls the
broker refused.

The polls of a warned vehicle are settled too.  The records it would
not have dropped — here those keyed ``0`` or ``1`` — are queued as
their appends are notified, and settlement must hand each back stamped
with the grid instant whose executed poll returned it, in the order
the polls returned them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import Broker, BrokerUnavailable, Consumer, RawSerde

TOPIC = "OUT-DATA"
OWN_KEYS = (b"0", b"1")

millis = st.integers(0, 300).map(lambda n: n / 1000.0)
appends_strategy = st.lists(
    st.tuples(millis, st.integers(0, 5), st.integers(1, 40)), max_size=60
).map(lambda items: sorted(items, key=lambda item: item[0]))
# Crash / restart instants off the millisecond lattice the grids and
# appends live on: an outage edge exactly at a grid instant is the one
# documented relaxation (docs/ARCHITECTURE.md), not part of the property.
# An odd count leaves the last outage open.
outage_edges_strategy = st.lists(
    st.integers(0, 330).map(lambda n: n / 1000.0 + 0.0004),
    max_size=5,
    unique=True,
).map(sorted)


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
        self.refused = 0
        self.own = []  # notified, not yet handed back by settlement
        self.receipts = []  # (poll instant, partition, offset)

    def append(self, at, key, size):
        self.now = at
        try:
            # the record timestamp is deliberately not the append clock
            self.broker.produce(
                TOPIC, b"x" * size, key=str(key).encode(), timestamp=at - 1.0
            )
        except BrokerUnavailable:
            pass  # produced into an outage: never appended

    def toggle(self, at):
        self.now = at
        if self.broker.available:
            self.broker.shutdown()
        else:
            self.broker.restart()

    def poll(self, at, budget):
        self.now = at
        try:
            segments = self.consumer.poll_block(budget)
        except BrokerUnavailable:
            self.refused += 1
            return
        for segment in segments:
            log = self.broker.topic(TOPIC).partition(segment.partition)
            first = segment.next_offset - segment.count
            for record in log.read(first, segment.count):
                if record.key in OWN_KEYS:
                    self.receipts.append((at, segment.partition, record.offset))

    def attach(self, at):
        self.now = at
        self.consumer = Consumer(self.broker, serde=RawSerde())
        self.consumer.subscribe([TOPIC])
        self.consumer.seek_to_end()
        for key in OWN_KEYS:
            self.broker.subscribe_key(TOPIC, key, self.notified)

    def notified(self, metadata):
        self.own.append(
            ((TOPIC, metadata.partition), metadata.offset, self.now)
        )

    def receive(self, instant, entry):
        (_, partition), offset, _ = entry
        self.receipts.append((instant, partition, offset))

    def state(self):
        return (
            sorted(self.consumer._positions.items()),
            self.consumer.records_consumed,
            self.consumer.bytes_consumed,
            self.broker.records_out,
            self.broker.bytes_out,
            self.refused,
            self.receipts,
        )


def _timeline(appends, attach, outage_edges, polls=()):
    entries = [(at, 0, ("append", at, key, size)) for at, key, size in appends]
    entries.append((attach, -1, ("attach", attach)))
    entries.extend((at, 0, ("toggle", at)) for at in outage_edges)
    entries.extend((at, 1, ("poll", at, budget)) for at, budget in polls)
    return [action for *_, action in sorted(entries, key=lambda e: e[:2])]


def _play(partitions, timeline):
    world = _World(partitions)
    for name, *args in timeline:
        getattr(world, name)(*args)
    return world


def _executed(partitions, appends, attach, instants, budget, outage_edges=()):
    """The polls run for real, interleaved with the appends and the
    outages; an append clocked exactly at a grid instant is visible to
    that poll."""
    polls = [(at, budget) for at in instants]
    return _play(partitions, _timeline(appends, attach, outage_edges, polls))


def _settled(
    partitions, appends, attach, first, interval, limits, budget,
    outage_edges=(),
):
    """Every append and outage first, then the polls settled up to each
    limit."""
    world = _play(partitions, _timeline(appends, attach, outage_edges))
    world.now = max(world.now, limits[-1])
    upcoming = first
    for limit in limits:
        upcoming, refused = world.consumer.settle_polls(
            upcoming, interval, limit, budget, world.own, world.receive
        )
        world.refused += refused
    # what is left queued is what no settled poll has read
    assert all(
        offset >= world.consumer.position(*key) for key, offset, _ in world.own
    )
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
    budget=st.sampled_from([1, 2, 3, 5, 8, 20, 500]),
    outage_edges=outage_edges_strategy,
)
def test_settling_equals_running_every_poll(
    partitions, appends, attach, phase, interval, limit, cut, budget,
    outage_edges,
):
    first = attach + phase
    instants, upcoming = _grid(first, interval, limit)
    executed = _executed(
        partitions, appends, attach, instants, budget, outage_edges
    )
    at_once, next_at_once = _settled(
        partitions, appends, attach, first, interval, [limit], budget,
        outage_edges,
    )
    in_two, next_in_two = _settled(
        partitions, appends, attach, first, interval,
        sorted([cut, limit]), budget, outage_edges,
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
    # own records, three per poll: none at the first instant at or
    # after its append (0.02 for all ten), the last four still unread
    assert settled.receipts == [(0.02, 0, n) for n in range(3)] + [
        (0.03, 0, n) for n in range(3, 6)
    ]
    assert [offset for _, offset, _ in settled.own] == [6, 7, 8, 9]


def test_settle_refuses_a_retention_bounded_partition():
    broker = Broker("rsu")
    broker.create_topic(TOPIC, 1, retention_records=4)
    consumer = Consumer(broker, serde=RawSerde())
    consumer.subscribe([TOPIC])
    broker.produce(TOPIC, b"x")
    with pytest.raises(ValueError, match="retention-bounded"):
        consumer.settle_polls(0.0, 0.01, 1.0)


def test_settle_counts_the_polls_an_outage_refused():
    """Down over [0.025, 0.055): the polls at 0.03, 0.04 and 0.05 are
    refused and move nothing; the one at 0.06 reads what queued up
    before the crash."""
    appends = [(0.001, 0, 10), (0.021, 0, 10), (0.024, 1, 10)]
    edges = [0.025, 0.055]
    instants, after = _grid(0.01, 0.01, 0.065)  # 0.01 ... 0.06
    executed = _executed(1, appends, 0.0, instants, 500, edges)
    settled, upcoming = _settled(1, appends, 0.0, 0.01, 0.01, [0.065], 500, edges)
    assert executed.refused == 3
    assert executed.consumer.records_consumed == 3
    assert settled.state() == executed.state()
    # the own record appended just before the crash waits the outage out
    back_up = instants[-1]  # 0.06 as the grid's float sums reach it
    assert settled.receipts == [(0.01, 0, 0), (back_up, 0, 1), (back_up, 0, 2)]
    assert len(instants) == 6 and upcoming == after
    # settled while the outage is still open: refused so far, no more
    open_world, _ = _settled(1, appends, 0.0, 0.01, 0.01, [0.045], 500, edges[:1])
    assert open_world.refused == 2
    assert open_world.consumer.records_consumed == 1
