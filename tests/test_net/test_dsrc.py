"""Tests for the DSRC MAC models (Eq. 5-6)."""

import numpy as np
import pytest

from repro.net import (
    DSRC_BANDWIDTH_BPS,
    MCS_TABLE,
    PAPER_MCS_3,
    PAPER_MCS_8,
    DsrcChannel,
    DsrcMacModel,
    McsScheme,
)
from repro.simkernel import Simulator


def deliver_to_callbacks(channel):
    """Land each delivered frame by calling the callback it carries as
    its wire, with its delivery time."""
    channel.lander = lambda delivered: [row[4](t) for t, row in delivered]


def transmit(channel, payload_bytes, on_delivered):
    """Send one frame now: enqueue it at the current instant, then
    flush.  ``on_delivered(delivery_time)`` fires when the frame clears
    the medium.  Broadcast DSRC frames are unacknowledged: with
    ``loss_prob`` set, a lost frame still occupies the medium but never
    delivers."""
    deliver_to_callbacks(channel)
    channel.enqueue(channel.sim.now, payload_bytes, None, on_delivered)
    channel.flush(channel.sim.now)


class TestMcsTable:
    def test_eight_schemes(self):
        assert sorted(MCS_TABLE) == list(range(1, 9))

    def test_rates_monotonic(self):
        rates = [MCS_TABLE[i].data_rate_bps for i in range(1, 9)]
        assert rates == sorted(rates)

    def test_top_rate_is_dsrc_bandwidth(self):
        assert MCS_TABLE[8].data_rate_bps == DSRC_BANDWIDTH_BPS

    def test_paper_mcs8_is_64qam(self):
        assert PAPER_MCS_8.modulation == "64-QAM"
        assert PAPER_MCS_8.coding_rate == "3/4"

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            McsScheme(1, "BPSK", "1/2", 0)


class TestAnalyticModel:
    def setup_method(self):
        self.model = DsrcMacModel()

    def test_difs_eq6(self):
        # DIFS = SIFS + 2 * t_slot = 16 + 18 = 34 us.
        assert self.model.difs_s == pytest.approx(34e-6)

    def test_backoff_eq6(self):
        # t_backoff = p_c * cw_max * t_slot = 0.03 * 255 * 9 us.
        assert self.model.backoff_s == pytest.approx(68.85e-6)

    def test_paper_access_time_mcs8(self):
        """Paper: 54.28 ms for 256 vehicles at MCS 8."""
        access = self.model.channel_access_time_s(256, PAPER_MCS_8)
        assert access * 1e3 == pytest.approx(54.28, rel=0.05)

    def test_paper_access_time_mcs3(self):
        """Paper: 92.62 ms for 256 vehicles at MCS 3."""
        access = self.model.channel_access_time_s(256, PAPER_MCS_3)
        assert access * 1e3 == pytest.approx(92.62, rel=0.05)

    def test_256_vehicles_fit_10hz_at_mcs8(self):
        """Paper: 256 vehicles at 10 Hz clear the medium before the
        next update (54.28 ms < 100 ms)."""
        assert self.model.supports_update_rate(256, 10.0, PAPER_MCS_8)

    def test_256_vehicles_fit_10hz_at_mcs3_too(self):
        assert self.model.supports_update_rate(256, 10.0, PAPER_MCS_3)

    def test_update_rate_limit(self):
        assert not self.model.supports_update_rate(600, 10.0, PAPER_MCS_8)

    def test_paper_dense_deployment_claim(self):
        """Sec. VII-B: at MCS 8 and 10 Hz, ~400 vehicles are served
        under 85 ms."""
        assert self.model.max_vehicles(0.085, PAPER_MCS_8) == pytest.approx(
            400, abs=15
        )

    def test_access_time_linear_in_vehicles(self):
        one = self.model.channel_access_time_s(1, PAPER_MCS_8)
        many = self.model.channel_access_time_s(100, PAPER_MCS_8)
        assert many == pytest.approx(100 * one)

    def test_airtime_decreases_with_rate(self):
        slow = self.model.airtime_s(MCS_TABLE[1])
        fast = self.model.airtime_s(MCS_TABLE[8])
        assert fast < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            self.model.channel_access_time_s(0, PAPER_MCS_8)
        with pytest.raises(ValueError):
            self.model.airtime_s(PAPER_MCS_8, payload_bytes=0)
        with pytest.raises(ValueError):
            self.model.supports_update_rate(1, 0.0, PAPER_MCS_8)
        with pytest.raises(ValueError):
            self.model.max_vehicles(0.0, PAPER_MCS_8)
        with pytest.raises(ValueError):
            DsrcMacModel(collision_prob=1.5)


class TestDsrcChannel:
    def test_single_transmission_latency(self):
        sim = Simulator()
        channel = DsrcChannel(sim, rng=np.random.default_rng(0))
        delivered = []
        transmit(channel, 200, delivered.append)
        sim.run()
        assert len(delivered) == 1
        # DIFS + backoff + airtime: sub-millisecond at 27 Mb/s.
        assert 50e-6 < delivered[0] < 3e-3

    def test_transmissions_serialize(self):
        sim = Simulator()
        channel = DsrcChannel(sim, rng=np.random.default_rng(1))
        deliveries = []
        for _ in range(10):
            transmit(channel, 200, deliveries.append)
        sim.run()
        assert deliveries == sorted(deliveries)
        # Strictly increasing: only one frame on the medium at a time.
        assert all(b > a for a, b in zip(deliveries, deliveries[1:]))

    def test_byte_and_airtime_accounting(self):
        sim = Simulator()
        channel = DsrcChannel(sim, rng=np.random.default_rng(2))
        for _ in range(5):
            transmit(channel, 200, lambda t: None)
        sim.run()
        assert channel.transmissions == 5
        assert channel.bytes_transmitted == 1000
        assert channel.utilization(1.0) == pytest.approx(
            channel.total_airtime_s
        )

    def test_utilization_validation(self):
        sim = Simulator()
        channel = DsrcChannel(sim)
        with pytest.raises(ValueError):
            channel.utilization(0.0)

    def test_loss_prob_drops_frames(self):
        sim = Simulator()
        channel = DsrcChannel(
            sim, rng=np.random.default_rng(5), loss_prob=0.3
        )
        delivered = []
        for _ in range(500):
            transmit(channel, 200, delivered.append)
        sim.run()
        assert channel.frames_lost > 0
        assert len(delivered) + channel.frames_lost == 500
        # Empirical loss near the configured probability.
        assert channel.frames_lost / 500 == pytest.approx(0.3, abs=0.07)

    def test_lost_frames_still_occupy_airtime(self):
        """A lost broadcast still burned the medium (no ACK, no
        retransmit): airtime accounting includes it."""
        sim = Simulator()
        lossy = DsrcChannel(sim, rng=np.random.default_rng(6), loss_prob=0.5)
        for _ in range(100):
            transmit(lossy, 200, lambda t: None)
        sim.run()
        clean = DsrcChannel(Simulator(), rng=np.random.default_rng(6))
        for _ in range(100):
            transmit(clean, 200, lambda t: None)
        assert lossy.total_airtime_s == pytest.approx(clean.total_airtime_s)

    def test_loss_prob_validated(self):
        with pytest.raises(ValueError):
            DsrcChannel(Simulator(), loss_prob=1.0)

    def test_contention_grows_with_load(self):
        """Mean delivery latency under heavy offered load exceeds the
        idle-channel latency."""

        def mean_latency(n_senders):
            sim = Simulator()
            channel = DsrcChannel(sim, rng=np.random.default_rng(3))
            latencies = []
            for v in range(n_senders):
                start = sim.now
                transmit(channel, 200, lambda t, s=start: latencies.append(t - s))
            sim.run()
            return float(np.mean(latencies))

        assert mean_latency(64) > mean_latency(1)
