"""Replay pools: each pool's payloads and wire templates are made once.

A vehicle group's stripes are views on one :class:`ReplayPool`; the
pool encodes its rows once for all of them, and each vehicle only
writes its car id into its stripe's template rows.  These tests count
that work exactly and hold a stripe's rows to encoding its records one
by one.
"""

import numpy as np
import pytest

import repro.core.vehicle as vehicle_module
from repro.core import RsuConfig, RsuNode
from repro.core.detector import AD3Detector
from repro.core.features import record_to_payload
from repro.core.scenario import ScenarioSpec
from repro.core.system import TestbedScenario, corridor_bundle, default_training_dataset
from repro.core.vehicle import ReplayPool, VehicleNode
from repro.core.wire import telemetry_struct_serde, topic_serdes
from repro.geo import RoadType
from repro.net.dsrc import DsrcChannel
from repro.simkernel import Simulator
from repro.streaming.serde import FlatStructSerde, SerdeError

_SERDE = telemetry_struct_serde()


def test_a_scenario_encodes_each_pool_row_once(monkeypatch):
    """Across build and run (a handover restripes 40% of each motorway
    group onto the link pool), the payload rows and template rows made
    are the pools' rows, not the stripes' (four motorway groups stripe
    one pool)."""
    spec = ScenarioSpec(
        n_vehicles=5, duration_s=1.0, serde_profile="struct", handover_fraction=0.4
    )
    dataset = default_training_dataset(seed=11, n_cars=40)
    pooled = sum(map(len, corridor_bundle(spec, dataset=dataset).pools.values()))
    rows = {"payload": 0, "template": 0}
    payload_columns = vehicle_module.payload_columns
    encode_batch = FlatStructSerde.encode_batch

    def counted_payloads(records):
        rows["payload"] += len(records)
        return payload_columns(records)

    def counted_templates(self, columns):
        if self.fields == _SERDE.fields:  # IN-DATA, not the warnings
            rows["template"] += len(columns["car"])
        return encode_batch(self, columns)

    monkeypatch.setattr(vehicle_module, "payload_columns", counted_payloads)
    monkeypatch.setattr(FlatStructSerde, "encode_batch", counted_templates)
    scenario = TestbedScenario.corridor(spec, dataset=dataset)
    scenario.run()
    striped = sum(len(vehicle._stripe) for vehicle in scenario.vehicles)
    assert rows == {"payload": pooled, "template": pooled}
    assert striped > pooled


def test_a_stripe_is_its_records_encoded_one_by_one(motorway_records):
    _, replay = motorway_records
    pool = ReplayPool.of(replay[:23])
    stripe = pool[2::5]
    assert list(stripe) == replay[:23][2::5]
    assert list(stripe[1::2]) == replay[:23][2::5][1::2]
    templates = stripe.templates(_SERDE)
    for row, record in zip(templates, stripe):
        payload = record_to_payload(record)
        payload["car"] = 0
        expected = _SERDE.serialize({**payload, "gen": 0.0, "arr": None})
        assert row.tobytes() == expected
    assert stripe.payloads() == [record_to_payload(r) for r in stripe]


def test_a_car_id_the_layout_cannot_hold_raises(motorway_records, motorway_blocks):
    """The vehicle fails when it is built, not at its first beacon; a
    car id that fits is written into every template row."""
    _, replay = motorway_records
    sim = Simulator()
    rsu = RsuNode(
        sim, "r", AD3Detector(RoadType.MOTORWAY).fit(motorway_blocks[0]),
        RsuConfig(serdes=topic_serdes("struct")),
    )
    channel = DsrcChannel(sim, rng=np.random.default_rng(0))
    pool = ReplayPool.of(replay[:6])
    with pytest.raises(SerdeError, match="car"):
        VehicleNode(sim, 2**63, pool, rsu, channel, serdes=topic_serdes("struct"))
    fits = VehicleNode(sim, 7, pool, rsu, channel, serdes=topic_serdes("struct"))
    for row, record in zip(fits._templates, replay[:6]):
        payload = record_to_payload(record)
        payload["car"] = 7
        assert row.tobytes() == _SERDE.serialize({**payload, "gen": 0.0, "arr": None})


def test_the_vehicles_on_a_channel_share_one_format(motorway_records, motorway_blocks):
    """A vehicle whose IN-DATA serde differs from its channel's fleet
    fails when it is built, instead of sending in the fleet's format."""
    _, replay = motorway_records
    sim = Simulator()
    rsu = RsuNode(
        sim, "r", AD3Detector(RoadType.MOTORWAY).fit(motorway_blocks[0]),
        RsuConfig(serdes=topic_serdes("struct")),
    )
    channel = DsrcChannel(sim, rng=np.random.default_rng(0))
    pool = ReplayPool.of(replay[:6])
    VehicleNode(sim, 1, pool, rsu, channel, serdes=topic_serdes("json"))
    with pytest.raises(ValueError, match="FlatStructSerde vehicle"):
        VehicleNode(sim, 2, pool, rsu, channel, serdes=topic_serdes("struct"))
    VehicleNode(sim, 3, pool, rsu, channel)  # the JSON profile's, as the first
