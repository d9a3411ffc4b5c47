"""Tests for the hierarchical token bucket."""

import pytest

from repro.net import HtbClass, HtbShaper


def build_paper_shaper(n_vehicles=4):
    """The testbed configuration: 100 Kb/s assured per vehicle,
    27 Mb/s shared ceiling."""
    root = HtbClass("root", 27e6, 27e6)
    shaper = HtbShaper(root)
    for index in range(n_vehicles):
        shaper.add_leaf(HtbClass(f"vehicle-{index}", 100e3, 27e6))
    return shaper


class TestHtbClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            HtbClass("x", 0.0)
        with pytest.raises(ValueError):
            HtbClass("x", 200.0, ceil_bps=100.0)

    def test_refill_accrues_at_rate(self):
        leaf = HtbClass("x", 8000.0, burst_bytes=10_000.0)  # 1 KB/s
        leaf.tokens = 0.0
        leaf.refill(2.0)
        assert leaf.tokens == pytest.approx(2000.0)

    def test_refill_caps_at_burst(self):
        leaf = HtbClass("x", 8e6, burst_bytes=500.0)
        leaf.refill(100.0)
        assert leaf.tokens == 500.0

    def test_time_backwards_rejected(self):
        leaf = HtbClass("x", 1000.0)
        leaf.refill(5.0)
        with pytest.raises(ValueError):
            leaf.refill(4.0)


class TestHtbShaper:
    def test_within_assured_rate_no_delay(self):
        shaper = build_paper_shaper()
        # 100 Kb/s = 12.5 KB/s; a 200 B packet every 100 ms is 2 KB/s.
        for step in range(20):
            delay = shaper.send("vehicle-0", 200, now=step * 0.1)
            assert delay == 0.0

    def test_burst_borrows_from_root(self):
        shaper = build_paper_shaper()
        leaf = shaper.leaf("vehicle-0")
        # Exhaust the leaf's own bucket, then keep sending: the root
        # (27 Mb/s) lends.
        delay = shaper.send("vehicle-0", int(leaf.burst_bytes) + 10_000, now=0.0)
        assert delay == 0.0
        assert leaf.bytes_borrowed > 0

    def test_starved_leaf_waits_at_assured_rate(self):
        root = HtbClass("root", 1e6, 1e6, burst_bytes=100.0)
        shaper = HtbShaper(root)
        shaper.add_leaf(HtbClass("v", 8000.0, 1e6, burst_bytes=100.0))
        # Both buckets tiny: a 1100-byte packet must wait for the
        # leaf's assured 1 KB/s to cover the 1000-byte deficit.
        delay = shaper.send("v", 1100, now=0.0)
        assert delay == pytest.approx(1.0, rel=0.01)

    def test_leaf_ceil_cannot_exceed_root(self):
        shaper = HtbShaper(HtbClass("root", 1e6, 1e6))
        with pytest.raises(ValueError):
            shaper.add_leaf(HtbClass("v", 1e3, 2e6))

    def test_duplicate_leaf_rejected(self):
        shaper = build_paper_shaper(1)
        with pytest.raises(ValueError):
            shaper.add_leaf(HtbClass("vehicle-0", 100e3, 27e6))

    def test_unknown_leaf_raises(self):
        shaper = build_paper_shaper(1)
        with pytest.raises(KeyError):
            shaper.send("vehicle-99", 100, now=0.0)

    def test_packet_size_validated(self):
        shaper = build_paper_shaper(1)
        with pytest.raises(ValueError):
            shaper.send("vehicle-0", 0, now=0.0)

    def test_aggregate_rate(self):
        shaper = build_paper_shaper(2)
        shaper.send("vehicle-0", 1000, now=0.0)
        shaper.send("vehicle-1", 1000, now=0.0)
        assert shaper.aggregate_rate_bps(1.0) == pytest.approx(16_000.0)
        with pytest.raises(ValueError):
            shaper.aggregate_rate_bps(0.0)

    def test_vehicle_beaconing_fits_assured_rate(self):
        """The paper's workload (200 B at 10 Hz = 16 Kb/s) fits inside
        the 100 Kb/s assured rate with zero shaping delay."""
        shaper = build_paper_shaper(1)
        delays = [
            shaper.send("vehicle-0", 200, now=t * 0.1) for t in range(100)
        ]
        assert all(d == 0.0 for d in delays)
