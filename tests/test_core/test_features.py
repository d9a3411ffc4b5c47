"""Tests for feature encoding and wire messages."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import PredictionSummary, WarningMessage, payload_to_record, record_to_payload
from repro.core.features import base_features, centralized_features, labels_of
from repro.dataset.schema import TelemetryRecord
from repro.geo import RoadType


def make_record(**overrides):
    defaults = dict(
        car_id=7,
        road_id=3,
        accel_ms2=-0.4,
        speed_kmh=98.6,
        hour=17,
        day=12,
        road_type=RoadType.MOTORWAY_LINK,
        road_mean_speed_kmh=110.0,
        label=1,
        timestamp=123.456,
    )
    defaults.update(overrides)
    return TelemetryRecord(**defaults)


class TestFeatureMatrices:
    def test_base_features_columns(self):
        X = base_features([make_record()])
        assert X.shape == (1, 3)
        assert X[0].tolist() == [98.6, -0.4, 17.0]

    def test_centralized_adds_road_type_code(self):
        X = centralized_features([make_record()])
        assert X.shape == (1, 4)
        motorway = centralized_features(
            [make_record(road_type=RoadType.MOTORWAY)]
        )
        assert X[0, 3] != motorway[0, 3]

    def test_labels_of(self):
        labels = labels_of([make_record(label=0), make_record(label=1)])
        assert labels.tolist() == [0, 1]

    def test_labels_of_unlabelled_raises(self):
        with pytest.raises(ValueError, match="no label"):
            labels_of([make_record(label=None)])


class TestTelemetryWireFormat:
    def test_round_trip(self):
        record = make_record()
        restored = payload_to_record(record_to_payload(record))
        assert restored.car_id == record.car_id
        assert restored.road_type is record.road_type
        assert restored.speed_kmh == pytest.approx(record.speed_kmh, abs=0.01)
        assert restored.label == record.label

    def test_unlabelled_round_trip(self):
        record = make_record(label=None)
        assert payload_to_record(record_to_payload(record)).label is None


class TestPredictionSummary:
    def test_round_trip(self):
        summary = PredictionSummary(
            car_id=1,
            mean_normal_prob=0.75,
            n_predictions=10,
            last_class=1,
            from_road_id=5,
            timestamp=2.5,
        )
        assert PredictionSummary.from_payload(summary.to_payload()) == summary

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionSummary(1, 1.5, 10, 1, 5, 0.0)
        with pytest.raises(ValueError):
            PredictionSummary(1, 0.5, 0, 1, 5, 0.0)

    def test_merge_weights_by_count(self):
        a = PredictionSummary(1, 0.8, 30, 1, 5, 1.0)
        b = PredictionSummary(1, 0.2, 10, 0, 6, 2.0)
        merged = PredictionSummary.merge([a, b])
        assert merged.mean_normal_prob == pytest.approx(0.65)
        assert merged.n_predictions == 40
        assert merged.last_class == 0  # from the later summary
        assert merged.from_road_id == 6

    def test_merge_empty_returns_none(self):
        assert PredictionSummary.merge([]) is None

    def test_merge_different_cars_rejected(self):
        a = PredictionSummary(1, 0.5, 1, 1, 5, 0.0)
        b = PredictionSummary(2, 0.5, 1, 1, 5, 0.0)
        with pytest.raises(ValueError):
            PredictionSummary.merge([a, b])


class TestWarningMessage:
    def test_round_trip(self):
        warning = WarningMessage(
            car_id=3, road_id=9, detected_at=1.25, speed_kmh=180.0
        )
        assert WarningMessage.from_payload(warning.to_payload()) == warning

    def test_default_kind(self):
        warning = WarningMessage(1, 2, 0.0, 100.0)
        assert warning.kind == "aggressive_driving"

    @settings(max_examples=200, deadline=None)
    @example(speeds=[2.675], detected_at=1.25)  # round: 2.67, np.round: 2.68
    @given(
        speeds=st.lists(st.floats(0.0, 400.0), min_size=1, max_size=8),
        detected_at=st.floats(0.0, 100.0),
    )
    def test_payload_columns_are_the_payloads_column_by_column(
        self, speeds, detected_at
    ):
        """Bit for bit, Python's ``round`` included (``np.round``
        differs in the last ulp)."""
        cars = list(range(len(speeds)))
        roads = [7] * len(speeds)
        columns = WarningMessage.payload_columns(
            cars, roads, speeds, detected_at
        )
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        assert rows == [
            WarningMessage(car, road, detected_at, speed).to_payload()
            for car, road, speed in zip(cars, roads, speeds)
        ]


class TestRoadHourContextMemo:
    def test_matches_direct_computation(self):
        from repro.core.features import ROAD_TYPE_CODE, road_hour_context

        for road_type in RoadType:
            for hour in (0, 7, 23):
                assert road_hour_context(road_type, hour) == (
                    float(hour),
                    float(ROAD_TYPE_CODE[road_type]),
                )

    def test_cache_hits_on_repeats(self):
        from repro.core.features import road_hour_context

        road_hour_context.cache_clear()
        road_hour_context(RoadType.MOTORWAY, 8)
        before = road_hour_context.cache_info()
        for _ in range(5):
            road_hour_context(RoadType.MOTORWAY, 8)
        after = road_hour_context.cache_info()
        assert after.hits == before.hits + 5
        assert after.misses == before.misses

    def test_feature_columns_unchanged_by_memo(self):
        from repro.core.features import base_features

        records = [
            make_record(hour=h, road_type=rt, speed_kmh=60.0 + h)
            for h in range(24)
            for rt in (RoadType.MOTORWAY, RoadType.MOTORWAY_LINK)
        ]
        columns = base_features(records)
        assert columns.shape == (48, 3)
        assert columns[:, 2].tolist() == [float(r.hour) for r in records]
