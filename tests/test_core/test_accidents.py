"""Tests for the Nilsson potential-accident estimator (Eq. 2-3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    expected_accidents,
    nilsson_accident_ratio,
    speed_deviation_delta,
)
from repro.dataset.schema import ABNORMAL, NORMAL, TelemetryBlock, TelemetryRecord
from repro.geo import RoadType


def make_record(speed, road_mean=100.0):
    return TelemetryRecord(
        car_id=1,
        road_id=1,
        accel_ms2=0.0,
        speed_kmh=speed,
        hour=8,
        day=4,
        road_type=RoadType.MOTORWAY,
        road_mean_speed_kmh=road_mean,
    )


def make_block(*speeds):
    return TelemetryBlock.from_records([make_record(s) for s in speeds])


class TestNilssonRatio:
    def test_normal_speed_gives_one(self):
        assert nilsson_accident_ratio(100.0, 100.0) == pytest.approx(1.0)

    def test_speeding_reduces_ratio(self):
        # Eq. 2: driving 120 where normal is 100: (100/120)^2.
        assert nilsson_accident_ratio(100.0, 120.0) == pytest.approx(
            (100 / 120) ** 2
        )

    def test_slowing_mirrors(self):
        # Driving 80 where normal is 100: mirrored speed 120.
        assert nilsson_accident_ratio(100.0, 80.0) == pytest.approx(
            (100 / 120) ** 2
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            nilsson_accident_ratio(0.0, 50.0)
        with pytest.raises(ValueError):
            nilsson_accident_ratio(100.0, -1.0)

    @given(st.floats(min_value=1.0, max_value=300.0))
    @settings(max_examples=50, deadline=None)
    def test_ratio_in_unit_interval(self, speed):
        ratio = nilsson_accident_ratio(100.0, speed)
        assert 0.0 < ratio <= 1.0


class TestDelta:
    def test_zero_at_normal_speed(self):
        assert speed_deviation_delta(100.0, 100.0) == pytest.approx(0.0)

    def test_grows_with_deviation(self):
        mild = speed_deviation_delta(100.0, 110.0)
        severe = speed_deviation_delta(100.0, 160.0)
        assert 0.0 < mild < severe < 1.0

    def test_symmetric_tendency(self):
        """Speeding by X and slowing by X give the same delta (the
        paper's mirrored construction)."""
        assert speed_deviation_delta(100.0, 130.0) == pytest.approx(
            speed_deviation_delta(100.0, 70.0)
        )

    @given(st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=50, deadline=None)
    def test_delta_bounds(self, speed):
        delta = speed_deviation_delta(100.0, speed)
        assert 0.0 <= delta < 1.0


class TestExpectedAccidents:
    def test_no_false_negatives_means_zero(self):
        records = make_block(160.0, 40.0)
        y_true = [ABNORMAL, ABNORMAL]
        y_pred = [ABNORMAL, ABNORMAL]  # all detected
        estimate = expected_accidents(records, y_true, y_pred)
        assert estimate.expected_accidents == 0.0
        assert estimate.n_false_negatives == 0
        assert estimate.n_abnormal == 2
        assert estimate.fn_fraction == 0.0

    def test_each_fn_contributes_its_delta(self):
        records = make_block(160.0, 40.0, 100.0)
        y_true = [ABNORMAL, ABNORMAL, NORMAL]
        y_pred = [NORMAL, ABNORMAL, NORMAL]  # first one missed
        estimate = expected_accidents(records, y_true, y_pred)
        assert estimate.n_false_negatives == 1
        assert estimate.expected_accidents == pytest.approx(
            speed_deviation_delta(100.0, 160.0)
        )
        assert estimate.mean_delta_of_fn == pytest.approx(
            speed_deviation_delta(100.0, 160.0)
        )

    def test_severe_misses_cost_more(self):
        mild = expected_accidents(
            make_block(115.0), [ABNORMAL], [NORMAL]
        ).expected_accidents
        severe = expected_accidents(
            make_block(190.0), [ABNORMAL], [NORMAL]
        ).expected_accidents
        assert severe > mild

    def test_normal_records_never_contribute(self):
        records = make_block(*[100.0] * 5)
        estimate = expected_accidents(
            records, [NORMAL] * 5, [ABNORMAL] * 5
        )
        assert estimate.expected_accidents == 0.0
        assert estimate.n_abnormal == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expected_accidents(make_block(100.0), [0, 1], [0])

    def test_better_detector_fewer_expected_accidents(self):
        """The Table IV mechanism: lower FN rate => lower E(Lambda)."""
        rng = np.random.default_rng(0)
        speeds = rng.uniform(130.0, 200.0, 200)
        records = make_block(*speeds.tolist())
        y_true = [ABNORMAL] * 200
        good = [ABNORMAL if rng.random() < 0.9 else NORMAL for _ in range(200)]
        bad = [ABNORMAL if rng.random() < 0.5 else NORMAL for _ in range(200)]
        good_estimate = expected_accidents(records, y_true, good)
        bad_estimate = expected_accidents(records, y_true, bad)
        assert good_estimate.expected_accidents < bad_estimate.expected_accidents
