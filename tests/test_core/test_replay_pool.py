"""Replay pools: each pool's payloads and wire templates are made once.

A vehicle group's stripes are views on one :class:`ReplayPool`; the
pool encodes its rows once for all of them, and each vehicle only
writes its car id into its stripe's template rows.  These tests count
that work exactly and hold a stripe's rows to encoding its records one
by one.
"""

import numpy as np

import repro.core.vehicle as vehicle_module
from repro.core import RsuConfig, RsuNode
from repro.core.detector import AD3Detector
from repro.core.features import record_to_payload
from repro.core.scenario import ScenarioSpec
from repro.core.system import TestbedScenario, corridor_bundle, default_training_dataset
from repro.core.vehicle import ReplayPool, VehicleNode
from repro.core.wire import TelemetryStructSerde, topic_serdes
from repro.geo import RoadType
from repro.net.dsrc import DsrcChannel
from repro.simkernel import Simulator

_SERDE = TelemetryStructSerde()


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
    encode_columns = TelemetryStructSerde.encode_columns

    def counted_payloads(records):
        rows["payload"] += len(records)
        return payload_columns(records)

    def counted_templates(self, columns):
        rows["template"] += len(columns["car"])
        return encode_columns(self, columns)

    monkeypatch.setattr(vehicle_module, "payload_columns", counted_payloads)
    monkeypatch.setattr(TelemetryStructSerde, "encode_columns", counted_templates)
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
    templates, mask = stripe.templates(_SERDE)
    assert mask.all()
    for row, record in zip(templates, stripe):
        payload = record_to_payload(record)
        payload["car"] = 0
        expected = _SERDE.serialize(
            {"data": payload, "generated_at": 0.0, "arrived_at": None}
        )
        assert row.tobytes() == expected
    assert stripe.payloads() == [record_to_payload(r) for r in stripe]


def test_a_car_id_the_layout_cannot_hold_sends_json(
    motorway_records, motorway_blocks
):
    """As serializing each envelope would: no row struct-encodes."""
    _, replay = motorway_records
    sim = Simulator()
    rsu = RsuNode(
        sim, "r", AD3Detector(RoadType.MOTORWAY).fit(motorway_blocks[0]),
        RsuConfig(serdes=topic_serdes("struct")),
    )
    channel = DsrcChannel(sim, rng=np.random.default_rng(0))
    pool = ReplayPool.of(replay[:6])
    fits, too_big = (
        VehicleNode(
            sim, car, pool, rsu, channel, serdes=topic_serdes("struct")
        )
        for car in (7, 2**63)
    )
    assert fits._encodable.all() and not too_big._encodable.any()
    assert not too_big._templates.any()
    assert [p["car"] for p in too_big._payloads] == [2**63] * 6
    for row, record in zip(fits._templates, replay[:6]):
        payload = record_to_payload(record)
        payload["car"] = 7
        assert row.tobytes() == _SERDE.serialize(
            {"data": payload, "generated_at": 0.0, "arrived_at": None}
        )
