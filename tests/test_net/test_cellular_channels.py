"""Tests for cellular links."""

import numpy as np
import pytest

from repro.net import LTE_PROFILE, NR_5G_PROFILE, CellularLink, CellularProfile
from repro.simkernel import Simulator


class TestCellularLink:
    def test_delivery_scheduled(self):
        sim = Simulator()
        link = CellularLink(sim, rng=np.random.default_rng(0))
        delivered = []
        delivery = link.send(500, delivered.append)
        sim.run()
        assert delivered == [delivery]
        assert delivery > 0.0

    def test_5g_faster_than_lte(self):
        def mean_latency(profile):
            sim = Simulator()
            link = CellularLink(sim, profile, rng=np.random.default_rng(1))
            for _ in range(200):
                link.send(300, lambda t: None)
            sim.run()
            return link.mean_latency_ms()

        assert mean_latency(NR_5G_PROFILE) < mean_latency(LTE_PROFILE) / 2

    def test_latency_near_profile_base(self):
        sim = Simulator()
        link = CellularLink(sim, NR_5G_PROFILE, rng=np.random.default_rng(2))
        for _ in range(500):
            link.send(300, lambda t: None)
        sim.run()
        # Lognormal(0, 0.25) multiplier has mean exp(sigma^2/2) ~ 1.03.
        assert link.mean_latency_ms() == pytest.approx(4.0 * 1.03, rel=0.15)

    def test_accounting(self):
        sim = Simulator()
        link = CellularLink(sim, rng=np.random.default_rng(3))
        link.send(100, lambda t: None)
        link.send(200, lambda t: None)
        assert link.bytes_sent == 300
        assert link.packets_sent == 2

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CellularLink(sim).send(0, lambda t: None)
        with pytest.raises(ValueError):
            CellularProfile("x", 0.0, 0.1, 1e6)
        with pytest.raises(ValueError):
            CellularProfile("x", 1e-3, -0.1, 1e6)

