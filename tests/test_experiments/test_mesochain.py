"""Tests for the mesoscopic-chain harness."""

import numpy as np
import pytest

from repro.dataset import DatasetGenerator, GeneratorConfig, Preprocessor
from repro.experiments.mesochain import (
    _split_trip_by_segment,
    grid_dataset,
    mesoscopic_chain,
)
from repro.dataset.schema import TelemetryBlock, TelemetryRecord
from repro.geo import CityNetworkBuilder, RoadType


def make_record(road_id, timestamp, road_type=RoadType.PRIMARY):
    return TelemetryRecord(
        car_id=1,
        road_id=road_id,
        accel_ms2=0.0,
        speed_kmh=60.0,
        hour=8,
        day=4,
        road_type=road_type,
        road_mean_speed_kmh=60.0,
        timestamp=timestamp,
        label=1,
    )


class TestSplitTripBySegment:
    def test_contiguous_legs(self):
        records = [
            make_record(1, 0.0),
            make_record(1, 1.0),
            make_record(2, 2.0),
            make_record(3, 3.0),
            make_record(3, 4.0),
        ]
        legs = _split_trip_by_segment(TelemetryBlock.from_records(records))
        assert [int(leg.road_id[0]) for leg in legs] == [1, 2, 3]
        assert [len(leg) for leg in legs] == [2, 1, 2]

    def test_revisited_segment_is_a_new_leg(self):
        records = [
            make_record(1, 0.0),
            make_record(2, 1.0),
            make_record(1, 2.0),
        ]
        legs = _split_trip_by_segment(TelemetryBlock.from_records(records))
        assert [int(leg.road_id[0]) for leg in legs] == [1, 2, 1]

    def test_orders_by_timestamp(self):
        records = [make_record(2, 5.0), make_record(1, 1.0)]
        legs = _split_trip_by_segment(TelemetryBlock.from_records(records))
        assert [int(leg.road_id[0]) for leg in legs] == [1, 2]


@pytest.fixture(scope="module")
def small_chain_result():
    dataset = grid_dataset(n_cars=80, trips_per_car=4, seed=10, rows=3, cols=3)
    return mesoscopic_chain(dataset)


class TestMesoscopicChain:
    def test_hop_structure(self, small_chain_result):
        assert small_chain_result.hops
        hops = [h.hop for h in small_chain_result.hops]
        assert hops == sorted(hops)
        for hop in small_chain_result.hops:
            assert set(hop.f1) == {"ad3", "chain"}
            assert hop.n_records > 0

    def test_overall_weighting(self, small_chain_result):
        overall = small_chain_result.overall("ad3", "f1")
        values = [h.f1["ad3"] for h in small_chain_result.hops]
        assert min(values) <= overall <= max(values)

    def test_format_table(self, small_chain_result):
        text = small_chain_result.format_table()
        assert "hop 0" in text
        assert "chain" in text


def test_a_chain_over_three_or_more_road_types():
    """On the routed city every fusion tree trains on summaries from
    several upstream types, each type's rows scored by its own NB."""
    network = CityNetworkBuilder(seed=9).build_city()
    dataset = Preprocessor().run(
        DatasetGenerator(
            network,
            GeneratorConfig(n_cars=40, trips_per_car=4, seed=9, route_plan="routed"),
        ).generate()
    )
    assert len(np.unique(dataset.block.road_type_code)) >= 3
    result = mesoscopic_chain(dataset)
    assert result.hops
    for hop in result.hops:
        assert set(hop.f1) == {"ad3", "chain"}
