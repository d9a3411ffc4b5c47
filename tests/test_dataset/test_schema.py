"""Tests for dataset record types."""

import numpy as np
import pytest

from repro.dataset import ABNORMAL, NORMAL, AnomalyKind, TelemetryRecord
from repro.dataset.schema import NO_LABEL, TelemetryBlock
from repro.geo import RoadType


def make_record(**overrides):
    defaults = dict(
        car_id=1,
        road_id=10,
        accel_ms2=0.2,
        speed_kmh=150.0,
        hour=8,
        day=4,
        road_type=RoadType.MOTORWAY,
        road_mean_speed_kmh=160.0,
    )
    defaults.update(overrides)
    return TelemetryRecord(**defaults)


class TestTelemetryRecord:
    def test_valid_record(self):
        record = make_record()
        assert record.speed_kmh == 150.0
        assert record.label is None

    def test_hour_out_of_range(self):
        with pytest.raises(ValueError):
            make_record(hour=24)

    def test_day_out_of_range(self):
        with pytest.raises(ValueError):
            make_record(day=0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            make_record(speed_kmh=-1.0)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            make_record(label=2)

    def test_with_label_copies(self):
        record = make_record()
        labeled = record.with_label(ABNORMAL)
        assert labeled.label == ABNORMAL
        assert record.label is None
        assert labeled.speed_kmh == record.speed_kmh

    def test_weekend_calendar_july_2016(self):
        # 1 July 2016 was a Friday; 2-3 July the first weekend.
        assert not make_record(day=1).is_weekend
        assert make_record(day=2).is_weekend
        assert make_record(day=3).is_weekend
        assert not make_record(day=4).is_weekend
        assert make_record(day=9).is_weekend
        assert make_record(day=10).is_weekend
        assert not make_record(day=11).is_weekend

    def test_label_constants(self):
        assert NORMAL == 1
        assert ABNORMAL == 0

    def test_anomaly_kinds(self):
        assert AnomalyKind.NONE.value == "none"
        assert len(AnomalyKind) == 4


class TestTelemetryBlock:
    """The column form: its rows are the records it was built from, and
    :meth:`TelemetryBlock.validate` applies the record's checks."""

    def test_rows_round_trip(self):
        records = [
            make_record(trip_id=3),
            make_record(label=ABNORMAL, anomaly_kind=AnomalyKind.SLOWING, trip_id=4),
        ]
        block = TelemetryBlock.from_records(records)
        assert block.records(np.array([3, 4])) == records
        assert [repr(r) for r in block.records(np.array([3, 4]))] == [
            repr(r) for r in records
        ]

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("hour", 24, "hour out of range"),
            ("day", 0, "day out of range"),
            ("speed_kmh", -1.0, "speed must be non-negative"),
            ("label", 2, "label must be 0/1/None"),
        ],
    )
    def test_validate_applies_the_record_checks(self, column, value, message):
        block = TelemetryBlock.from_records([make_record(), make_record()])
        block.validate()
        getattr(block, column)[1] = value
        with pytest.raises(ValueError, match=message):
            block.validate()

    def test_unlabelled_rows_pass_validation(self):
        block = TelemetryBlock.from_records([make_record()])
        assert block.label.tolist() == [NO_LABEL]
        block.validate()
