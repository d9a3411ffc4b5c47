"""The channel's fleet: stripe templates encoded at once, replay rows.

A vehicle's stripe is struct-encoded once, into template rows that the
channel's :class:`~repro.core.vehicle.Fleet` stores; a beacon is a row
gather with both timestamps patched.  These tests hold the batch encode
to ``TelemetryStructSerde.serialize`` row by row, and a restripe to the
record the next beacon must carry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IN_DATA, RsuConfig, RsuNode
from repro.core.detector import AD3Detector
from repro.core.features import record_to_payload
from repro.core.vehicle import VehicleNode
from repro.core.wire import TelemetryStructSerde, topic_serdes
from repro.geo import RoadType
from repro.microbatch import ProcessingModel
from repro.net.dsrc import DsrcChannel
from repro.simkernel import Simulator

_SERDE = TelemetryStructSerde()
_ROAD_TYPES = [t.value for t in RoadType]

_payloads = st.fixed_dictionaries(
    {
        "car": st.integers(-(2**63), 2**63 - 1),
        "rd": st.integers(0, 10**6),
        "acc": st.floats(-10, 10),
        "spd": st.floats(0, 200),
        "hr": st.integers(0, 23),
        "day": st.integers(0, 6),
        "rt": st.sampled_from(_ROAD_TYPES),
        "vr": st.floats(0, 150),
        "ts": st.floats(0, 1e6),
        "ak": st.sampled_from(["none", "speeding"]),
        "lbl": st.none() | st.integers(0, 1),
    }
)


def _fallback(payload, kind):
    """A payload the struct layout cannot hold, one way or another."""
    payload = dict(payload)
    if kind == "rt":
        payload["rt"] = "unknown-road"
    elif kind == "hr":
        payload["hr"] = 256
    elif kind == "car":
        payload["car"] = float(payload["car"] % 1000) + 0.5
    elif kind == "extra":
        payload["extra"] = 1
    return payload


_stripes = st.lists(
    st.tuples(
        _payloads, st.sampled_from([None, None, "rt", "hr", "car", "extra"])
    ).map(lambda pair: pair[0] if pair[1] is None else _fallback(*pair)),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(stripe=_stripes)
def test_templates_are_serialize_row_by_row(stripe):
    rows, struct = _SERDE.encode_templates(stripe)
    assert rows.shape == (len(stripe), _SERDE.wire_size)
    assert rows.dtype == np.uint8
    for row, encodable, payload in zip(rows, struct, stripe):
        frame = _SERDE.serialize(
            {"data": payload, "generated_at": 0.0, "arrived_at": None}
        )
        # the mask is serialize's own choice between struct and JSON
        assert encodable == (len(frame) == _SERDE.wire_size and frame[0] == 0xC3)
        if encodable:
            assert row.tobytes() == frame
        else:
            assert not row.any()


def test_set_records_replays_the_new_stripe_from_its_first_record(
    motorway_records, motorway_blocks
):
    """After a migrate onto another stripe, the next beacon is the new
    stripe's first payload (car id overridden) with its two timestamps,
    and the one after it the second."""
    _, test = motorway_records
    sim = Simulator()
    detector = AD3Detector(RoadType.MOTORWAY).fit(motorway_blocks[0])
    config = RsuConfig(processing_model=ProcessingModel(jitter_fraction=0.0))
    rsus = [RsuNode(sim, name, detector, config=config) for name in ("a", "b")]
    channels = [DsrcChannel(sim, rng=np.random.default_rng(i)) for i in (0, 1)]
    vehicle = VehicleNode(
        sim, 42, test[:7], rsus[0], channels[0],
        rng=np.random.default_rng(3), serdes=topic_serdes("struct"),
    )
    vehicle.start(until=2.0)
    sim.run_until(0.55)
    channels[0].flush(sim.now)
    vehicle.migrate(rsus[1], channels[1])
    link = test[20:25]
    vehicle.set_records(link)
    sim.run_until(0.85)
    channels[1].flush(sim.now)
    log = rsus[1].broker.topic(IN_DATA)
    records = sorted(
        (
            (_SERDE.deserialize(value)["generated_at"], value)
            for part in log.partitions
            for value in part._values
        ),
        key=lambda record: record[0],
    )
    assert len(records) >= 2
    for (_, value), source in zip(records, link):
        envelope = _SERDE.deserialize(value)
        payload = record_to_payload(source)
        payload["car"] = 42
        assert value == _SERDE.serialize(
            {
                "data": payload,
                "generated_at": envelope["generated_at"],
                "arrived_at": envelope["arrived_at"],
            }
        )
