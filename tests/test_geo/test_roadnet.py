"""Tests for the road network graph."""

import pytest

from repro.geo import LatLon, RoadNetwork, RoadSegment, RoadType
from repro.geo.coords import destination_point

CENTER = LatLon(22.6, 114.2)


def straight_segment(segment_id, start, bearing, length_m, road_type=RoadType.MOTORWAY):
    end = destination_point(start, bearing, length_m)
    return RoadSegment(
        segment_id=segment_id, road_type=road_type, polyline=[start, end]
    )


class TestRoadSegment:
    def test_length_computed(self):
        segment = straight_segment(1, CENTER, 90.0, 1000.0)
        assert segment.length_m == pytest.approx(1000.0, rel=1e-3)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            RoadSegment(1, RoadType.MOTORWAY, [CENTER])

    def test_free_flow_defaults_by_type(self):
        motorway = straight_segment(1, CENTER, 0.0, 500.0)
        assert motorway.free_flow_kmh == 160.0
        link = straight_segment(
            2, CENTER, 0.0, 500.0, road_type=RoadType.MOTORWAY_LINK
        )
        assert link.free_flow_kmh == 115.0

    def test_lanes_validated(self):
        with pytest.raises(ValueError):
            RoadSegment(
                1,
                RoadType.MOTORWAY,
                [CENTER, destination_point(CENTER, 0, 100)],
                lanes=0,
            )

    def test_link_types_flagged(self):
        assert RoadType.MOTORWAY_LINK.is_link
        assert not RoadType.MOTORWAY.is_link


class TestRoadNetwork:
    def build_t_junction(self):
        """Two motorways meeting a link at a shared endpoint."""
        network = RoadNetwork()
        junction = CENTER
        network.add_segment(straight_segment(1, junction, 0.0, 2000.0))
        network.add_segment(straight_segment(2, junction, 120.0, 2000.0))
        network.add_segment(
            straight_segment(
                3, junction, 240.0, 500.0, road_type=RoadType.MOTORWAY_LINK
            )
        )
        return network

    def test_adjacency_via_shared_endpoint(self):
        network = self.build_t_junction()
        assert network.neighbors(3) == [1, 2]
        assert network.neighbors(1) == [2, 3]

    def test_disconnected_segments_have_no_neighbors(self):
        network = RoadNetwork()
        network.add_segment(straight_segment(1, CENTER, 0.0, 1000.0))
        far = destination_point(CENTER, 90.0, 50_000.0)
        network.add_segment(straight_segment(2, far, 0.0, 1000.0))
        assert network.neighbors(1) == []

    def test_duplicate_id_rejected(self):
        network = RoadNetwork()
        network.add_segment(straight_segment(1, CENTER, 0.0, 1000.0))
        with pytest.raises(ValueError):
            network.add_segment(straight_segment(1, CENTER, 90.0, 1000.0))

    def test_unknown_segment_raises(self):
        with pytest.raises(KeyError):
            RoadNetwork().segment(99)
        with pytest.raises(KeyError):
            RoadNetwork().neighbors(99)

    def test_by_road_type(self):
        network = self.build_t_junction()
        links = network.by_road_type(RoadType.MOTORWAY_LINK)
        assert [seg.segment_id for seg in links] == [3]

    def test_total_length(self):
        network = self.build_t_junction()
        assert network.total_length_m() == pytest.approx(4500.0, rel=0.01)

    def test_len_and_contains(self):
        network = self.build_t_junction()
        assert len(network) == 3
        assert 1 in network
        assert 99 not in network
