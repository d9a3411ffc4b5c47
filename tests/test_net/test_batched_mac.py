"""Block-MAC equivalence: deferred contention vs per-frame transmit.

The uplink queues frames with :meth:`DsrcChannel.enqueue` and resolves
the whole batch in one :meth:`DsrcChannel.flush` at the next RSU tick;
:meth:`HtbShaper.send` accrues the shared root bucket lazily.  Both
claim bit-identity with the per-frame arithmetic they replaced — same
RNG draw order, same float-op order, same stats.  That arithmetic
lives on here as the reference (``_reference_transmit``, one simulator
event per frame; ``_reference_send``, a root refill per packet), and
these tests hold the production code to it at the component level (the
scenario-level counterpart is ``test_core/test_golden_dataplane.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.dsrc import DsrcChannel, DsrcMacModel
from repro.net.htb import HtbClass, HtbShaper
from repro.simkernel import Simulator
from tests.test_net.test_dsrc import deliver_to_callbacks


def _reference_transmit(channel, payload_bytes, on_delivered):
    """The per-frame uplink's contention, verbatim: draw, serialize on
    the medium, one delivery event."""
    now = channel.sim.now
    mac, rng = channel.mac, channel._rng
    cw = mac.cw_max if rng.random() < mac.collision_prob else 15
    backoff = float(rng.integers(0, cw + 1)) * mac.t_slot_s
    airtime = mac.airtime_s(channel.mcs, payload_bytes)
    start = max(now, channel._busy_until) + mac.difs_s + backoff
    delivery = start + airtime
    channel._busy_until = delivery
    channel.transmissions += 1
    channel.bytes_transmitted += payload_bytes
    channel.total_airtime_s += airtime
    if channel.loss_prob > 0.0 and rng.random() < channel.loss_prob:
        channel.frames_lost += 1
        return None
    channel.sim.at(delivery, lambda t=delivery: on_delivered(t))
    return delivery


def _reference_send(shaper, leaf_name, packet_bytes, now):
    """Eager HTB charging: the root refills on every packet."""
    leaf = shaper.leaf(leaf_name)
    leaf.refill(now)
    shaper.root.refill(now)
    if leaf.tokens >= packet_bytes:
        leaf.tokens -= packet_bytes
        leaf.bytes_sent += packet_bytes
        return 0.0
    deficit = packet_bytes - leaf.tokens
    if shaper.root.tokens >= deficit:
        shaper.root.tokens -= deficit
        leaf.tokens = 0.0
        leaf.bytes_sent += packet_bytes
        leaf.bytes_borrowed += deficit
        return 0.0
    leaf.tokens = 0.0
    leaf.bytes_sent += packet_bytes
    return deficit / (leaf.rate_bps / 8.0)


def _frame_sizes(seed, n):
    """A deterministic mix of payload sizes (exercises the airtime
    memo with repeats and a few distinct sizes)."""
    rng = np.random.default_rng(seed)
    return [int(size) for size in rng.choice([71, 200, 43, 512], size=n)]


class TestFlushEquivalence:
    def _per_frame(self, sizes, seed, loss_prob=0.0):
        sim = Simulator()
        channel = DsrcChannel(
            sim, rng=np.random.default_rng(seed), loss_prob=loss_prob
        )
        deliveries = []
        for size in sizes:
            _reference_transmit(channel, size, deliveries.append)
        sim.run()
        return channel, deliveries

    def _batched(self, sizes, seed, flush_at, loss_prob=0.0):
        sim = Simulator()
        channel = DsrcChannel(
            sim, rng=np.random.default_rng(seed), loss_prob=loss_prob
        )
        deliveries = []
        deliver_to_callbacks(channel)
        for size in sizes:
            channel.enqueue(0.0, size, None, deliveries.append)
        channel.flush(flush_at)
        sim.run()
        return channel, deliveries

    @pytest.mark.parametrize("loss_prob", [0.0, 0.3])
    def test_flush_matches_per_frame_transmit(self, loss_prob):
        """Same RNG seed, same frames: one flush reproduces the exact
        delivery times and stats of per-frame transmit calls —
        including the loss draws."""
        sizes = _frame_sizes(0, 50)
        per_frame, expected = self._per_frame(sizes, 42, loss_prob)
        batched, got = self._batched(sizes, 42, flush_at=10.0, loss_prob=loss_prob)
        assert got == expected  # exact floats, not approx
        assert batched.transmissions == per_frame.transmissions
        assert batched.bytes_transmitted == per_frame.bytes_transmitted
        assert batched.frames_lost == per_frame.frames_lost
        assert batched.total_airtime_s == per_frame.total_airtime_s
        assert batched._busy_until == per_frame._busy_until

    def test_flush_orders_by_eff_time_then_seq(self):
        """Frames enqueue out of effective-time order (shaper delays
        differ per sender); flush must draw RNG in (eff_time, seq)
        order — the order the per-frame transmit events would fire."""
        sizes = [200, 200, 200]
        sim = Simulator()
        reference = DsrcChannel(sim, rng=np.random.default_rng(9))
        expected = []
        # per-frame path: kernel dispatches by time
        for eff, size in sorted(zip([0.00, 0.01, 0.02], sizes)):
            sim.at(
                eff,
                lambda s=size: _reference_transmit(
                    reference, s, expected.append
                ),
            )
        sim.run()

        sim2 = Simulator()
        batched = DsrcChannel(sim2, rng=np.random.default_rng(9))
        got = []
        deliver_to_callbacks(batched)
        for eff in [0.02, 0.00, 0.01]:  # enqueue order != effective order
            batched.enqueue(eff, 200, None, got.append)
        batched.flush(1.0)
        sim2.run()
        # busy-medium serialization from eff_time 0.0 differs from the
        # reference's staggered sends only if a frame outlasts the gap;
        # with 10 ms gaps and sub-ms airtimes the starts are identical.
        assert got == expected

    def test_flush_carries_future_frames(self):
        """A frame whose eff_time is past the flush instant stays
        queued (shaper delay pushed it beyond this tick) and resolves
        on the next flush, RNG order preserved."""
        sim = Simulator()
        channel = DsrcChannel(sim, rng=np.random.default_rng(3))
        deliveries = []
        deliver_to_callbacks(channel)
        channel.enqueue(0.0, 200, None, deliveries.append)
        channel.enqueue(5.0, 200, None, deliveries.append)  # not yet effective
        assert channel.flush(1.0) == 1
        assert channel.pending_frames == 1
        assert channel.flush(6.0) == 1
        assert channel.pending_frames == 0
        sim.run()
        assert len(deliveries) == 2
        assert deliveries[1] > 5.0

    def test_flush_delivers_past_frames_inline(self):
        """A frame already clear of the medium by flush time lands
        inline (no kernel event), stamped with the same delivery time
        the event would have carried."""
        sim = Simulator()
        channel = DsrcChannel(sim, rng=np.random.default_rng(4))
        deliveries = []
        deliver_to_callbacks(channel)
        channel.enqueue(0.0, 200, None, deliveries.append)
        channel.flush(10.0)
        # delivered during flush, before the kernel ever runs
        assert len(deliveries) == 1
        assert 0.0 < deliveries[0] < 10.0

    def test_take_pending_moves_owners_frames(self):
        """Handover: the vehicle's not-yet-effective frames leave the
        old channel and nothing of other senders goes with them."""
        channel = DsrcChannel(Simulator(), rng=np.random.default_rng(5))
        mine, other = object(), object()
        channel.enqueue(1.0, 200, mine)
        channel.enqueue(2.0, 200, other)
        channel.enqueue(3.0, 200, mine)
        taken = channel.take_pending(mine)
        assert [frame[0] for frame in taken] == [1.0, 3.0]
        assert channel.pending_frames == 1
        assert channel.take_pending(mine) == []

    def test_empty_flush_is_free(self):
        channel = DsrcChannel(Simulator(), rng=np.random.default_rng(6))
        assert channel.flush(1.0) == 0
        assert channel.transmissions == 0


class TestSendDeferredEquivalence:
    def _shaper(self):
        shaper = HtbShaper(
            HtbClass("root", rate_bps=1_000_000.0, burst_bytes=20_000.0)
        )
        shaper.add_leaf(
            HtbClass("veh", rate_bps=100_000.0, burst_bytes=2_000.0)
        )
        return shaper

    def test_send_deferred_matches_send(self):
        """Interleaved idle gaps, burst borrowing, and starvation: the
        lazy-root path must price every packet identically."""
        # gaps chosen to hit all three branches: tokens available,
        # borrow from root, starved wait
        sends = [(0.0, 1500)] * 3 + [(0.001, 4000)] * 4 + [(0.5, 800)] * 2
        eager, lazy = self._shaper(), self._shaper()
        now = 0.0
        for gap, size in sends:
            now += gap
            assert lazy.send("veh", size, now) == _reference_send(
                eager, "veh", size, now
            )
        # identical leaf state, not just identical delays
        assert lazy.leaf("veh").tokens == eager.leaf("veh").tokens
        assert lazy.leaf("veh").bytes_sent == eager.leaf("veh").bytes_sent
        assert lazy.leaf("veh").bytes_borrowed == eager.leaf(
            "veh"
        ).bytes_borrowed
        # the root's snapshot may lag (idle refills are skipped — the
        # one documented state difference); a catch-up refill at a
        # common instant must land both on the same level exactly
        eager.root.refill(now)
        lazy.root.refill(now)
        assert lazy.root.tokens == eager.root.tokens

    def test_lazy_root_catches_up_on_borrow(self):
        """The root bucket skips idle refills; the first borrow after a
        gap must see exactly the level per-packet refilling would have
        accrued (token growth is associative under the burst cap)."""
        eager, lazy = self._shaper(), self._shaper()
        # drain the leaf so the next send must borrow
        _reference_send(eager, "veh", 2000, 0.0)
        lazy.send("veh", 2000, 0.0)
        # eager refills root at every instant; lazy has not touched it
        # since construction
        for t in (0.01, 0.02, 0.03):
            eager.root.refill(t)
        assert lazy.send("veh", 1500, 0.04) == _reference_send(
            eager, "veh", 1500, 0.04
        )
        assert lazy.root.tokens == eager.root.tokens

    def test_send_deferred_validates_packet_size(self):
        with pytest.raises(ValueError):
            self._shaper().send("veh", 0, 0.0)

    def test_send_deferred_unknown_leaf(self):
        with pytest.raises(KeyError):
            self._shaper().send("ghost", 100, 0.0)


class TestRawStreamDraws:
    """A flush decodes its frames' MAC randoms from one ``random_raw``
    call: ``random()`` from a whole raw, the bounded backoff by Lemire's
    method over buffered 32-bit halves (rejections included), the loss
    draw only on a lossy channel.  Held here to the per-frame
    ``_reference_transmit`` draw for draw, bit generator state included,
    across flushes that leave a half buffered."""

    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("loss_prob", [0.0, 0.3])
    @pytest.mark.parametrize("cw_max", [255, 2**31, 2**33])
    def test_flushes_draw_as_per_frame_transmits(
        self, cw_max, loss_prob, primed
    ):
        # collisions often enough that cw_max's draws (which at 2**31
        # reject about half of all halves) are many
        mac = DsrcMacModel(cw_max=cw_max, collision_prob=0.5)
        reference = DsrcChannel(
            Simulator(), mac=mac, rng=np.random.default_rng(11),
            loss_prob=loss_prob,
        )
        batched = DsrcChannel(
            Simulator(), mac=mac, rng=np.random.default_rng(11),
            loss_prob=loss_prob,
        )
        if primed:
            # enter the first flush with an odd half buffered
            for channel in (reference, batched):
                channel._rng.integers(0, 16)
        expected, got = [], []
        deliver_to_callbacks(batched)
        sizes = _frame_sizes(1, 40)
        # odd-sized flushes carry a buffered half from one to the next
        for count in (7, 5, 1, 12, 3):
            block, sizes = sizes[:count], sizes[count:]
            for size in block:
                _reference_transmit(reference, size, expected.append)
                batched.enqueue(0.0, size, None, got.append)
            assert batched.flush(100.0) == count
            assert (
                batched._rng.bit_generator.state
                == reference._rng.bit_generator.state
            )
        reference.sim.run()
        batched.sim.run()  # wide windows deliver past the flush instant
        assert got == expected
        assert batched.frames_lost == reference.frames_lost
        assert (loss_prob > 0) == (batched.frames_lost > 0)
        assert batched.transmissions == reference.transmissions
        assert batched.total_airtime_s == reference.total_airtime_s
        assert batched._busy_until == reference._busy_until

    def test_a_32_bit_generator_is_refused(self):
        """Only 64-bit bit generators buffer halves the way the decoder
        reads them."""
        channel = DsrcChannel(
            Simulator(), rng=np.random.Generator(np.random.MT19937(0))
        )
        channel.enqueue(0.0, 200)
        with pytest.raises(ValueError, match="64-bit"):
            channel.flush(1.0)


class TestHtbBlockEquivalence:
    """``send_block`` charges a block in array rounds; the per-packet
    eager reference (``_reference_send``) prices each packet in turn.
    Same packets, same delays and the same buckets, bit for bit."""

    @staticmethod
    def _shaper(leaves, root_burst):
        shaper = HtbShaper(
            HtbClass("root", rate_bps=40_000.0, burst_bytes=root_burst)
        )
        for leaf in range(leaves):
            shaper.add_leaf(
                HtbClass(f"v{leaf}", rate_bps=8_000.0, burst_bytes=300.0)
            )
        return shaper

    @settings(max_examples=200, deadline=None)
    @given(
        leaves=st.integers(1, 4),
        root_burst=st.sampled_from([0.0, 250.0, 5_000.0]),
        blocks=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 3),
                    st.integers(1, 400),
                    # gaps binary-exact, so eager and lazy root accrual agree
                    st.sampled_from([0.0, 0.0, 0.125, 0.25]),
                ),
                min_size=1,
                max_size=10,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_block_matches_per_packet_reference(self, leaves, root_burst, blocks):
        eager = self._shaper(leaves, root_burst)
        block_wise = self._shaper(leaves, root_burst)
        now = 0.0
        for block in blocks:
            names, sizes, instants = [], [], []
            for leaf, size, gap in block:
                now += gap  # repeated leaves, and bit-equal instants
                names.append(f"v{leaf % leaves}")
                sizes.append(size)
                instants.append(now)
            expected = [
                _reference_send(eager, name, size, at)
                for name, size, at in zip(names, sizes, instants)
            ]
            assert block_wise.send_block(names, sizes, instants) == expected
        for name in (f"v{leaf}" for leaf in range(leaves)):
            got, want = block_wise.leaf(name), eager.leaf(name)
            assert got.tokens == want.tokens
            assert got.bytes_sent == want.bytes_sent
            assert got.bytes_borrowed == want.bytes_borrowed
        eager.root.refill(now)
        block_wise.root.refill(now)
        assert block_wise.root.tokens == eager.root.tokens

    def test_a_leaf_written_through_its_handle_prices_the_next_packet(self):
        eager, block_wise = self._shaper(1, 0.0), self._shaper(1, 0.0)
        for shaper in (eager, block_wise):
            leaf = shaper.leaf("v0")
            leaf.burst_bytes = leaf.tokens = 150.0
        delay = block_wise.send_block(["v0"], [200], [0.0])
        assert delay == [_reference_send(eager, "v0", 200, 0.0)]
        assert delay[0] > 0.0  # 50 bytes short, nothing to borrow
        assert block_wise.leaf("v0").tokens == eager.leaf("v0").tokens == 0.0

    def test_time_going_backwards_is_refused(self):
        shaper = self._shaper(1, 0.0)
        shaper.send("v0", 10, 1.0)
        with pytest.raises(ValueError, match="time went backwards"):
            shaper.send_block(["v0", "v0"], [10, 10], [1.0, 0.5])
