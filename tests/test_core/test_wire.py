"""Schema-aware serdes for the three topics and the batch decoder."""

import numpy as np
import pytest

from repro.dataset.schema import TelemetryBlock
from repro.core.features import (
    CO_DATA,
    IN_DATA,
    OUT_DATA,
    PredictionSummary,
    WarningMessage,
    record_to_payload,
)
from repro.core.wire import (
    SERDE_PROFILES,
    decode_telemetry_block,
    summary_struct_serde,
    telemetry_struct_serde,
    topic_serdes,
    warning_struct_serde,
)
from repro.dataset.schema import AnomalyKind, TelemetryRecord
from repro.geo.roadnet import RoadType
from repro.streaming.serde import JsonSerde, STRUCT_MAGIC, SerdeError


def _record(car=7, label=1, kind=AnomalyKind.NONE):
    return TelemetryRecord(
        car_id=car,
        road_id=12,
        accel_ms2=-3.456,
        speed_kmh=123.45,
        hour=17,
        day=3,
        road_type=RoadType.MOTORWAY,
        road_mean_speed_kmh=110.5,
        timestamp=42.125,
        anomaly_kind=kind,
        label=label,
    )


def _envelope(record, generated_at=1.5, arrived_at=1.625):
    return {
        "data": record_to_payload(record),
        "generated_at": generated_at,
        "arrived_at": arrived_at,
    }


def _flat(record, generated_at=1.5, arrived_at=1.625):
    """The telemetry struct serde's record of what ``_envelope`` wraps."""
    return {**record_to_payload(record), "gen": generated_at, "arr": arrived_at}


class TestTelemetryStructSerde:
    def test_round_trip(self):
        serde = telemetry_struct_serde()
        value = _flat(_record())
        payload = serde.serialize(value)
        assert payload[0] == STRUCT_MAGIC
        assert len(payload) == serde.wire_size == 71
        assert serde.deserialize(payload) == value

    def test_round_trip_all_road_types_and_kinds(self):
        serde = telemetry_struct_serde()
        for road_type in RoadType:
            for kind in AnomalyKind:
                record = TelemetryRecord(
                    car_id=1, road_id=2, accel_ms2=0.0, speed_kmh=50.0,
                    hour=0, day=1, road_type=road_type,
                    road_mean_speed_kmh=45.0, timestamp=0.0,
                    anomaly_kind=kind, label=0,
                )
                value = _flat(record)
                assert serde.deserialize(serde.serialize(value)) == value

    def test_none_label_and_arrival_round_trip(self):
        serde = telemetry_struct_serde()
        value = _flat(_record(label=None), arrived_at=None)
        out = serde.deserialize(serde.serialize(value))
        assert out["lbl"] is None
        assert out["arr"] is None
        assert out == value

    def test_much_smaller_than_json(self):
        struct_size = len(telemetry_struct_serde().serialize(_flat(_record())))
        json_size = len(JsonSerde().serialize(_envelope(_record())))
        assert struct_size * 2 <= json_size

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param({"not": "telemetry"}, id="foreign"),
            pytest.param(_envelope(_record()), id="json-envelope"),
            pytest.param({**_flat(_record()), "rt": "unknown-road"}, id="road-type"),
            pytest.param([1, 2, 3], id="non-dict"),
        ],
    )
    def test_a_foreign_schema_raises(self, value):
        with pytest.raises(SerdeError):
            telemetry_struct_serde().serialize(value)

    def test_a_json_envelope_raises(self):
        with pytest.raises(SerdeError, match="struct"):
            telemetry_struct_serde().deserialize(
                JsonSerde().serialize(_envelope(_record()))
            )

    def test_truncated_payload_raises(self):
        serde = telemetry_struct_serde()
        payload = serde.serialize(_flat(_record()))
        with pytest.raises(SerdeError):
            serde.deserialize(payload[:-1])

    def test_bad_version_raises(self):
        serde = telemetry_struct_serde()
        payload = bytearray(serde.serialize(_flat(_record())))
        payload[1] = 42
        with pytest.raises(SerdeError, match="version"):
            serde.deserialize(bytes(payload))


class TestTopicSerdes:
    def test_profiles(self):
        assert set(SERDE_PROFILES) == {"json", "struct"}
        for profile in SERDE_PROFILES:
            assert set(topic_serdes(profile)) == {IN_DATA, OUT_DATA, CO_DATA}
        assert all(
            type(serde) is JsonSerde for serde in topic_serdes("json").values()
        )
        with pytest.raises(ValueError, match="profile"):
            topic_serdes("protobuf")

    def test_warning_round_trip(self):
        serde = warning_struct_serde()
        warning = WarningMessage(
            car_id=9, road_id=4, detected_at=3.5, speed_kmh=160.0
        )
        out = dict(warning.to_payload())
        out["generated_at"] = 3.25
        decoded = serde.deserialize(serde.serialize(out))
        assert decoded == out
        assert WarningMessage.from_payload(decoded) == warning

    def test_summary_round_trip(self):
        serde = summary_struct_serde()
        summary = PredictionSummary(
            car_id=5,
            mean_normal_prob=0.875,
            n_predictions=40,
            last_class=1,
            from_road_id=2,
            timestamp=9.5,
        )
        decoded = serde.deserialize(serde.serialize(summary.to_payload()))
        assert PredictionSummary.from_payload(decoded) == summary


class TestDecodeTelemetryBlock:
    def _payloads(self, n=64):
        return [
            _envelope(_record(car=i % 7, label=i % 2), generated_at=0.1 * i,
                      arrived_at=0.1 * i + 0.01)
            for i in range(n)
        ]

    def test_fast_path_equals_slow_path(self):
        serde = telemetry_struct_serde()
        envelopes = self._payloads()
        raw = serde.encode_batch(
            {
                **{
                    key: [e["data"][key] for e in envelopes]
                    for key in envelopes[0]["data"]
                },
                "gen": [e["generated_at"] for e in envelopes],
                "arr": [e["arrived_at"] for e in envelopes],
            }
        )
        fast = decode_telemetry_block(raw, serde=serde)
        slow = TelemetryBlock.from_payloads(envelopes)
        for column in TelemetryBlock.__slots__:
            assert np.array_equal(
                getattr(fast, column), getattr(slow, column)
            ), column

    def test_json_payloads_decode(self):
        serde = JsonSerde()
        envelopes = self._payloads(8)
        raw = [serde.serialize(e) for e in envelopes]
        block = decode_telemetry_block(raw, serde=serde)
        assert len(block) == 8
        assert block.car_id.tolist() == [e["data"]["car"] for e in envelopes]

    def test_a_json_payload_on_a_struct_topic_raises(self):
        struct_serde = telemetry_struct_serde()
        envelopes = self._payloads(6)
        raw = [
            struct_serde.serialize(
                {**e["data"], "gen": e["generated_at"], "arr": e["arrived_at"]}
            )
            for e in envelopes[:3]
        ]
        raw += [JsonSerde().serialize(e) for e in envelopes[3:]]
        with pytest.raises(SerdeError):
            decode_telemetry_block(raw, serde=struct_serde)
        # a record's size, without the struct magic: refused all the same
        with pytest.raises(SerdeError, match="magic"):
            decode_telemetry_block([b"{" * 71], serde=struct_serde)

    def test_empty(self):
        for profile in SERDE_PROFILES:
            serde = topic_serdes(profile)[IN_DATA]
            assert len(decode_telemetry_block([], serde)) == 0
