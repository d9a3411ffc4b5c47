"""Property tests: struct serde round trips through the shm ring.

The sharded engine's cross-process traffic is framed bytes through
:class:`ShmRing`; these tests drive the ring through wrap-around and
partial-drain interleavings with hypothesis and check that the fixed
layout serdes survive the trip bit-exactly, and that a payload that is
not a struct record comes out of it refused.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wire import summary_struct_serde
from repro.parallel.barrier import summary_car_ids
from repro.streaming.serde import JsonSerde, SerdeError
from repro.streaming.shm import RingFull, ShmRing
from tests.strategies import ring_frames, summary_dicts


@pytest.fixture
def ring():
    ring = ShmRing(capacity=256)
    yield ring
    ring.close()
    ring.unlink()


payloads_strategy = ring_frames


class TestRingProperties:
    @given(frames=payloads_strategy)
    @settings(max_examples=60, deadline=None)
    def test_interleaved_push_pop_round_trips(self, frames):
        """Push/pop interleaved so the cursors lap the 256-byte ring
        many times: every frame must come back intact and in order."""
        ring = ShmRing(capacity=256)
        try:
            popped = []
            for kind, payload in frames:
                ring.push(kind, payload)
                popped.append(ring.pop())
            assert popped == frames
            assert ring.pop() is None
        finally:
            ring.close()
            ring.unlink()

    @given(frames=payloads_strategy, keep=st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_partial_drain_preserves_order(self, frames, keep):
        """Drain only part of the backlog between pushes (the engine's
        n_frames-at-a-time consumption): order still holds."""
        ring = ShmRing(capacity=4096)
        try:
            popped = []
            pending = 0
            for index, (kind, payload) in enumerate(frames):
                ring.push(kind, payload)
                pending += 1
                while pending > keep:
                    popped.append(ring.pop())
                    pending -= 1
            popped.extend(ring.drain())
            assert popped == frames
        finally:
            ring.close()
            ring.unlink()

    def test_wrap_around_split_frame(self, ring):
        """A frame larger than the space left before the physical end
        must split across the boundary and reassemble."""
        ring.push(1, b"x" * 200)
        assert ring.pop() == (1, b"x" * 200)
        # Cursor now at 205; the next 200-byte frame wraps.
        ring.push(2, b"y" * 200)
        assert ring.pop() == (2, b"y" * 200)

    def test_full_ring_raises_instead_of_overwriting(self, ring):
        ring.push(1, b"a" * 120)
        ring.push(1, b"b" * 120)
        with pytest.raises(RingFull):
            ring.push(1, b"c" * 20)
        # The backlog is untouched by the failed push.
        assert ring.pop() == (1, b"a" * 120)
        ring.push(1, b"c" * 20)
        assert ring.drain() == [(1, b"b" * 120), (1, b"c" * 20)]

    def test_attach_by_name_shares_frames(self, ring):
        ring.push(7, b"hello")
        attached = ShmRing(ring.capacity, name=ring.name)
        try:
            assert attached.pop() == (7, b"hello")
            assert ring.pop() is None  # shared cursors
        finally:
            attached.close()


class TestZeroCopyViews:
    @given(frames=payloads_strategy)
    @settings(max_examples=60, deadline=None)
    def test_pop_view_round_trips_across_wrap(self, frames):
        """push/view/pop at random sizes: cursors lap the 256-byte ring,
        so frames land on both sides of (and across) the wrap boundary;
        every borrowed view must read back bit-exact, in order."""
        ring = ShmRing(capacity=256)
        try:
            for kind, payload in frames:
                ring.push(kind, payload)
                got_kind, view = ring.pop_view()
                assert (got_kind, bytes(view)) == (kind, payload)
                view.release()
            assert ring.pop_view() is None
        finally:
            ring.close()
            ring.unlink()

    @given(frames=payloads_strategy)
    @settings(max_examples=60, deadline=None)
    def test_drain_views_matches_drain(self, frames):
        """The bulk-frame view drain returns the same frames as the
        copying drain would, oldest first."""
        ring = ShmRing(capacity=4096)
        try:
            for kind, payload in frames:
                ring.push(kind, payload)
            views = ring.drain_views()
            materialized = [(kind, bytes(view)) for kind, view in views]
            for _, view in views:
                view.release()
            assert materialized == frames
            assert ring.drain_views() == []
        finally:
            ring.close()
            ring.unlink()

    def test_non_wrapping_view_aliases_the_segment(self, ring):
        """The fast path hands out a window into shared memory itself —
        writes to the segment are visible through the view (zero-copy)."""
        ring.push(3, b"abcdef")
        _, view = ring.pop_view()
        try:
            # Payload starts after the 16-byte ring header and the
            # 5-byte frame header.
            ring._shm.buf[16 + 5] = ord("Z")
            assert bytes(view) == b"Zbcdef"
        finally:
            view.release()

    def test_stale_view_after_pop_is_overwritten(self):
        """Popping frees the frame's bytes for reuse: a view retained
        across the next push aliases recycled storage and goes stale.
        Callers that keep a frame must copy it (``bytes(view)``) first."""
        ring = ShmRing(capacity=64)
        try:
            ring.push(1, b"a" * 32)
            _, view = ring.pop_view()
            keep = bytes(view)  # owned copy taken before the next push
            assert keep == b"a" * 32
            ring.push(2, b"b" * 32)  # wraps; recycles the popped region
            assert bytes(view) != b"a" * 32
            assert keep == b"a" * 32
            view.release()
        finally:
            ring.close()
            ring.unlink()


summaries_strategy = summary_dicts


class TestStructSerdeThroughRing:
    @given(values=summaries_strategy)
    @settings(max_examples=40, deadline=None)
    def test_summary_round_trip_and_batch_decode(self, values):
        serde = summary_struct_serde()
        ring = ShmRing(capacity=1024)
        try:
            for value in values:
                ring.push(1, serde.serialize(value))
            payloads = [payload for _, payload in ring.drain()]
            assert [serde.deserialize(p)["car"] for p in payloads] == [
                v["car"] for v in values
            ]
            batch = serde.decode_batch(payloads)
            assert batch["car"].tolist() == [v["car"] for v in values]
            assert batch["n"].tolist() == [v["n"] for v in values]
        finally:
            ring.close()
            ring.unlink()

    @given(values=summaries_strategy)
    @settings(max_examples=40, deadline=None)
    def test_a_json_payload_through_the_ring_is_refused(self, values):
        """A value the struct layout cannot hold raises before it
        reaches the ring; a JSON payload pushed through it is refused by
        the batch decode, the per-payload decode and summary_car_ids."""
        serde = summary_struct_serde()
        odd = dict(values[0])
        odd["n"] = 2**70  # overflows the fixed field
        with pytest.raises(SerdeError):
            serde.serialize(odd)
        wire = [serde.serialize(v) for v in values] + [JsonSerde().serialize(values[0])]

        ring = ShmRing(capacity=8192)
        try:
            for payload in wire:
                ring.push(1, payload)
            payloads = [payload for _, payload in ring.drain()]
        finally:
            ring.close()
            ring.unlink()

        for decode in (serde.decode_batch, lambda p: serde.deserialize(p[-1])):
            with pytest.raises(SerdeError):
                decode(payloads)
        with pytest.raises(SerdeError):
            summary_car_ids(payloads, serde)
        assert summary_car_ids(payloads[:-1], serde) == [v["car"] for v in values]
