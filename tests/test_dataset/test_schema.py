"""Tests for dataset record types."""

import pytest

from repro.dataset import ABNORMAL, NORMAL, AnomalyKind, TelemetryRecord
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
