"""FlatStructSerde: fixed-layout binary encoding with JSON fallback."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.serde import (
    FIELD_ENUM,
    FIELD_OPT_FLOAT,
    FIELD_OPT_INT,
    FIELD_PLAIN,
    FlatStructSerde,
    JsonSerde,
    STRUCT_MAGIC,
    SerdeError,
)

KINDS = ("alpha", "beta")


def _serde():
    return FlatStructSerde(
        [
            ("car", "q", FIELD_PLAIN, None),
            ("speed", "d", FIELD_PLAIN, None),
            ("kind", "B", FIELD_ENUM, KINDS),
            ("score", "d", FIELD_OPT_FLOAT, None),
            ("label", "b", FIELD_OPT_INT, None),
        ]
    )


@pytest.fixture
def serde():
    return _serde()


def test_round_trip(serde):
    value = {
        "car": 42,
        "speed": 130.25,
        "kind": "beta",
        "score": 0.75,
        "label": 1,
    }
    payload = serde.serialize(value)
    assert payload[0] == STRUCT_MAGIC
    assert len(payload) == serde.wire_size
    assert serde.deserialize(payload) == value


def test_round_trip_none_fields(serde):
    value = {
        "car": 1,
        "speed": 0.0,
        "kind": "alpha",
        "score": None,
        "label": None,
    }
    assert serde.deserialize(serde.serialize(value)) == value


def test_round_trip_extreme_values(serde):
    for value in [
        {"car": 2**62, "speed": 1e308, "kind": "alpha", "score": -1e-300,
         "label": 127},
        {"car": -(2**62), "speed": -1e308, "kind": "beta", "score": 5e-324,
         "label": 0},
        {"car": 0, "speed": float("inf"), "kind": "alpha", "score": None,
         "label": None},
    ]:
        assert serde.deserialize(serde.serialize(value)) == value


def test_nan_round_trips_as_nan_for_plain_float(serde):
    value = {"car": 0, "speed": float("nan"), "kind": "alpha",
             "score": 1.0, "label": 0}
    out = serde.deserialize(serde.serialize(value))
    assert out["speed"] != out["speed"]  # NaN


def test_opt_float_nan_collapses_to_none(serde):
    # NaN is the wire sentinel for None: an optional-float field cannot
    # distinguish the two, by design.
    value = {"car": 0, "speed": 0.0, "kind": "alpha",
             "score": float("nan"), "label": 0}
    assert serde.deserialize(serde.serialize(value))["score"] is None


def test_unknown_enum_falls_back_to_json(serde):
    value = {"car": 1, "speed": 2.0, "kind": "gamma", "score": None,
             "label": None}
    payload = serde.serialize(value)
    assert payload[0] != STRUCT_MAGIC  # JSON, not struct
    assert serde.deserialize(payload) == value


def test_out_of_range_int_falls_back_to_json(serde):
    value = {"car": 2**70, "speed": 2.0, "kind": "alpha", "score": None,
             "label": None}
    payload = serde.serialize(value)
    assert payload[0] != STRUCT_MAGIC
    assert serde.deserialize(payload) == value


def test_missing_key_falls_back_to_json(serde):
    value = {"car": 1, "speed": 2.0}
    payload = serde.serialize(value)
    assert serde.deserialize(payload) == value


def test_non_dict_falls_back_to_json(serde):
    assert serde.deserialize(serde.serialize([1, 2, 3])) == [1, 2, 3]
    assert serde.deserialize(serde.serialize("hello")) == "hello"


def test_json_payload_interop(serde):
    # A plain-JSON producer on the same topic deserializes fine.
    value = {"car": 9, "speed": 1.5, "kind": "alpha", "score": 0.5,
             "label": 1}
    payload = JsonSerde().serialize(value)
    assert serde.deserialize(payload) == value


def test_truncated_struct_payload_raises(serde):
    good = serde.serialize(
        {"car": 1, "speed": 2.0, "kind": "alpha", "score": None,
         "label": None}
    )
    with pytest.raises(SerdeError):
        serde.deserialize(good[:-3])
    with pytest.raises(SerdeError):
        serde.deserialize(good + b"\x00")


def test_bad_version_raises(serde):
    good = bytearray(
        serde.serialize(
            {"car": 1, "speed": 2.0, "kind": "alpha", "score": None,
             "label": None}
        )
    )
    good[1] = 99  # version byte
    with pytest.raises(SerdeError, match="version"):
        serde.deserialize(bytes(good))


def test_garbage_payload_raises(serde):
    with pytest.raises(SerdeError):
        serde.deserialize(bytes([STRUCT_MAGIC]) + b"garbage")
    with pytest.raises(SerdeError):
        serde.deserialize(b"\x00\x01\x02")  # not magic, not JSON


def test_unknown_field_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        FlatStructSerde([("x", "q", "mystery", None)])


def test_wire_size_is_fixed_and_small(serde):
    expected = struct.calcsize("<BBqdBdb")
    assert serde.wire_size == expected
    value = {"car": 1, "speed": 2.0, "kind": "alpha", "score": 3.0,
             "label": 1}
    json_size = len(JsonSerde().serialize(value))
    assert serde.wire_size < json_size


def test_random_round_trip_sweep(serde):
    import numpy as np

    rng = np.random.default_rng(5)
    for _ in range(200):
        value = {
            "car": int(rng.integers(-(2**62), 2**62)),
            "speed": float(rng.normal(0, 1e6)),
            "kind": KINDS[int(rng.integers(0, len(KINDS)))],
            "score": (
                None if rng.random() < 0.2 else float(rng.random())
            ),
            "label": None if rng.random() < 0.2 else int(rng.integers(0, 2)),
        }
        assert serde.deserialize(serde.serialize(value)) == value


# ----------------------------------------------------------------------
# encode_batch: the columnar inverse of decode_batch
# ----------------------------------------------------------------------
_struct_rows = st.fixed_dictionaries(
    {
        "car": st.integers(-(2**63), 2**63 - 1),
        "speed": st.floats(allow_nan=False),
        "kind": st.sampled_from(KINDS),
        "score": st.none() | st.floats(allow_nan=False),
        "label": st.none() | st.integers(0, 127),
    }
)
# Each of these makes ``serialize`` take the JSON fallback for its row.
_misfits = st.sampled_from(
    [
        ("kind", "gamma"),  # unknown enum
        ("car", 2**63),  # out of range for int64
        ("label", 128),  # out of range for int8
        ("car", 1.5),  # a float where the layout holds an int
        ("speed", "fast"),  # not a number
    ]
)


def _columns(rows):
    return {key: [row[key] for row in rows] for key in rows[0]}


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_struct_rows, min_size=1, max_size=12))
def test_encode_batch_equals_the_rows_serialized_and_joined(rows):
    serde = _serde()
    frames = serde.encode_batch(_columns(rows))
    assert frames == b"".join(serde.serialize(row) for row in rows)
    assert len(frames) == len(rows) * serde.wire_size
    decoded = serde.decode_batch(
        [
            frames[at : at + serde.wire_size]
            for at in range(0, len(frames), serde.wire_size)
        ]
    )
    assert decoded["car"].tolist() == [row["car"] for row in rows]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(_struct_rows, min_size=1, max_size=12),
    at=st.integers(0, 11),
    misfit=_misfits,
)
def test_encode_batch_is_none_as_soon_as_one_row_would_fall_back(
    rows, at, misfit
):
    serde = _serde()
    key, value = misfit
    rows[at % len(rows)] = {**rows[at % len(rows)], key: value}
    assert any(
        serde.serialize(row)[0] != STRUCT_MAGIC for row in rows
    )  # the premise: that row is JSON on the wire
    assert serde.encode_batch(_columns(rows)) is None


def test_encode_batch_of_a_missing_column_is_none(serde):
    assert serde.encode_batch({"car": [1], "speed": [2.0]}) is None

