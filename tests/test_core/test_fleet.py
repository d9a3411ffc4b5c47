"""The channel's fleet: stripe templates encoded at once, replay rows.

A vehicle's stripe is struct-encoded once, into template rows that the
channel's :class:`~repro.core.vehicle.Fleet` stores; a beacon is a row
gather with both timestamps written in.  These tests hold the batch
encode to the telemetry struct serde's ``serialize`` row by row, what
the layout cannot hold to a :class:`SerdeError`, and a restripe to the
record the next beacon must carry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IN_DATA, RsuConfig, RsuNode
from repro.core.detector import AD3Detector
from repro.core.features import record_to_payload
from repro.core.vehicle import ReplayPool, VehicleNode
from repro.core.wire import telemetry_struct_serde, topic_serdes
from repro.dataset.schema import TelemetryBlock
from repro.geo import RoadType
from repro.microbatch import ProcessingModel
from repro.net.dsrc import DsrcChannel
from repro.simkernel import Simulator
from repro.streaming.serde import SerdeError

_SERDE = telemetry_struct_serde()
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

_stripes = st.lists(_payloads, max_size=12)


@settings(max_examples=200, deadline=None)
@given(stripe=_stripes)
def test_templates_are_serialize_row_by_row(stripe):
    block = TelemetryBlock.from_payloads(
        [{"data": payload, "generated_at": 0.0} for payload in stripe]
    )
    pool = ReplayPool(block, np.zeros(len(stripe), dtype=np.int64))
    rows = pool.templates(_SERDE)
    assert rows.shape == (len(stripe), _SERDE.wire_size)
    assert rows.dtype == np.uint8
    for row, payload in zip(rows, pool.payloads()):
        frame = _SERDE.serialize({**payload, "car": 0, "gen": 0.0, "arr": None})
        assert row.tobytes() == frame


def _misfit(payload, kind):
    """``payload`` with one value the struct layout cannot hold."""
    payload = dict(payload)
    if kind == "rt":
        payload["rt"] = "unknown-road"
    elif kind == "hr":
        payload["hr"] = 256
    elif kind == "car":
        payload["car"] = float(payload["car"] % 1000) + 0.5
    elif kind == "extra":
        payload["extra"] = 1
    elif kind == "car-id":
        payload["car"] = 2**63
    return payload


_EXAMPLE = {
    "car": 7, "rd": 12, "acc": -3.25, "spd": 120.5, "hr": 17, "day": 3,
    "rt": "motorway", "vr": 110.5, "ts": 42.125, "ak": "none", "lbl": 1,
}


@pytest.mark.parametrize("kind", ["rt", "hr", "car", "extra", "car-id"])
def test_what_the_layout_cannot_hold_raises(kind):
    """Each kind of value the telemetry layout cannot hold is refused,
    alone and as one row of a batch: a struct topic has no other format
    to send it in."""
    good = {**_EXAMPLE, "gen": 0.0, "arr": None}
    misfit = {**_misfit(_EXAMPLE, kind), "gen": 0.0, "arr": None}
    with pytest.raises(SerdeError):
        _SERDE.serialize(misfit)
    with pytest.raises(SerdeError):
        _SERDE.encode_batch(
            {key: [good.get(key), misfit.get(key)] for key in good.keys() | misfit.keys()}
        )


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
            (_SERDE.deserialize(value)["gen"], value)
            for part in log.partitions
            for value in part._values
        ),
        key=lambda record: record[0],
    )
    assert len(records) >= 2
    for (_, value), source in zip(records, link):
        stamps = _SERDE.deserialize(value)
        payload = record_to_payload(source)
        payload["car"] = 42
        assert value == _SERDE.serialize(
            {**payload, "gen": stamps["gen"], "arr": stamps["arr"]}
        )
