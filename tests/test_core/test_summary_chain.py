"""Tests for multi-hop summary chaining (Sec. I: "the former RSU
passes a prediction summary to the next, the process which is carried
on")."""

import numpy as np
import pytest

from repro.core import RsuConfig, RsuNode
from repro.core.detector import AD3Detector
from repro.core.vehicle import VehicleNode
from repro.geo import RoadType
from repro.microbatch import ProcessingModel
from repro.net.dsrc import DsrcChannel
from repro.net.link import WiredLink
from repro.simkernel import Simulator


@pytest.fixture
def chain(motorway_records, motorway_blocks):
    """Three RSUs in a line A -> B -> C with one vehicle on A."""
    _, test = motorway_records
    detector = AD3Detector(RoadType.MOTORWAY).fit(motorway_blocks[0])
    sim = Simulator()
    config = RsuConfig(processing_model=ProcessingModel(jitter_fraction=0.0))
    nodes = {
        name: RsuNode(sim, name, detector, config=config)
        for name in ("rsu-a", "rsu-b", "rsu-c")
    }
    nodes["rsu-a"].connect(nodes["rsu-b"], WiredLink(sim))
    nodes["rsu-b"].connect(nodes["rsu-c"], WiredLink(sim))
    channel = DsrcChannel(sim, rng=np.random.default_rng(0))
    vehicle = VehicleNode(
        sim, 7, test[:60], nodes["rsu-a"], channel,
        rng=np.random.default_rng(1),
    )
    return sim, nodes, vehicle, channel


class TestSummaryChain:
    def test_history_accumulates_across_hops(self, chain):
        sim, nodes, vehicle, channel = chain
        for node in nodes.values():
            node.start(until=4.0)
        vehicle.start(until=4.0)

        # A serves the car for 1.5 s, then hands over to B.
        sim.run_until(1.5)
        n_at_a = len(nodes["rsu-a"]._history[7])
        assert nodes["rsu-a"].handover(7, "rsu-b")
        vehicle.migrate(nodes["rsu-b"], channel)

        # B serves for another 1.5 s, then hands over to C.
        sim.run_until(3.0)
        n_at_b = len(nodes["rsu-b"]._history[7])
        assert n_at_b > 0
        assert nodes["rsu-b"].handover(7, "rsu-c")
        sim.run_until(3.5)

        summary = nodes["rsu-c"].summaries[7]
        # The carried-on summary merges A's and B's prediction counts.
        assert summary.n_predictions == n_at_a + n_at_b
        assert 0.0 <= summary.mean_normal_prob <= 1.0

    def test_forwarding_clears_inherited_summary(self, chain):
        sim, nodes, vehicle, channel = chain
        for node in nodes.values():
            node.start(until=4.0)
        vehicle.start(until=4.0)
        sim.run_until(1.0)
        nodes["rsu-a"].handover(7, "rsu-b")
        vehicle.migrate(nodes["rsu-b"], channel)
        sim.run_until(2.0)
        nodes["rsu-b"].handover(7, "rsu-c")
        # B forwarded everything: nothing remains to forward twice.
        assert 7 not in nodes["rsu-b"].summaries
        assert nodes["rsu-b"].build_summary(7) is None

    def test_inherited_summary_forwarded_even_without_local_history(
        self, chain
    ):
        """A car that crosses B without transmitting still has its A
        summary carried on to C."""
        sim, nodes, vehicle, channel = chain
        for node in nodes.values():
            node.start(until=4.0)
        vehicle.start(until=4.0)
        sim.run_until(1.0)
        nodes["rsu-a"].handover(7, "rsu-b")
        vehicle.stop()  # radio silence while crossing B
        sim.run_until(2.0)
        assert nodes["rsu-b"].handover(7, "rsu-c") is True
        sim.run_until(2.5)
        assert 7 in nodes["rsu-c"].summaries
