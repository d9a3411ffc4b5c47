"""Tests for warning debouncing and hour-aware labelling granularity."""

import numpy as np
import pytest

from repro.core import RsuConfig, RsuNode
from repro.core.detector import AD3Detector
from repro.core.vehicle import VehicleNode
from repro.dataset.preprocess import SigmaCutoffLabeler
from repro.dataset.schema import ABNORMAL, NORMAL, TelemetryBlock, TelemetryRecord
from repro.geo import RoadType
from repro.microbatch import ProcessingModel
from repro.net.dsrc import DsrcChannel
from repro.simkernel import Simulator


def run_with_threshold(threshold, records, motorway_blocks):
    train, _ = motorway_blocks
    detector = AD3Detector(RoadType.MOTORWAY).fit(train)
    sim = Simulator()
    rsu = RsuNode(
        sim,
        f"rsu-t{threshold}",
        detector,
        config=RsuConfig(
            processing_model=ProcessingModel(jitter_fraction=0.0),
            warning_threshold=threshold,
        ),
    )
    channel = DsrcChannel(sim, rng=np.random.default_rng(0))
    vehicle = VehicleNode(
        sim, 1, records, rsu, channel, rng=np.random.default_rng(1)
    )
    rsu.start(until=6.0)
    vehicle.start(until=6.0)
    sim.run_until(6.5)
    return rsu


class TestWarningThreshold:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RsuConfig(warning_threshold=0)

    def test_higher_threshold_fewer_warnings(
        self, motorway_records, motorway_blocks
    ):
        _, test = motorway_records
        # Alternate normal/abnormal so streaks rarely reach 2.
        abnormal = [r for r in test if r.label == 0]
        normal = [r for r in test if r.label == 1]
        interleaved = [
            record
            for pair in zip(abnormal[:30], normal[:30])
            for record in pair
        ]
        eager = run_with_threshold(1, interleaved, motorway_blocks)
        debounced = run_with_threshold(3, interleaved, motorway_blocks)
        assert eager.warnings_issued > 0
        assert debounced.warnings_issued < eager.warnings_issued
        # Same detections either way: only the warning policy changed.
        assert len(eager.events) == len(debounced.events)

    def test_sustained_abnormality_still_warns(
        self, motorway_records, motorway_blocks
    ):
        _, test = motorway_records
        sustained = [r for r in test if r.label == 0][:40]
        debounced = run_with_threshold(3, sustained, motorway_blocks)
        assert debounced.warnings_issued > 0


class TestLabelingGranularity:
    def build_hourly_records(self, n_per_hour=300, seed=0):
        """Speeds whose mean shifts with the hour (Fig. 2's pattern), as
        a block."""
        rng = np.random.default_rng(seed)
        records = []
        for hour in (3, 8, 12):  # night / rush / midday
            mean = {3: 170.0, 8: 110.0, 12: 160.0}[hour]
            for speed in rng.normal(mean, 12.0, n_per_hour):
                records.append(
                    TelemetryRecord(
                        car_id=1,
                        road_id=1,
                        accel_ms2=float(rng.normal(0, 0.5)),
                        speed_kmh=max(0.0, float(speed)),
                        hour=hour,
                        day=4,
                        road_type=RoadType.MOTORWAY,
                        road_mean_speed_kmh=mean,
                    )
                )
        return TelemetryBlock.from_records(records)

    def test_validation(self):
        with pytest.raises(ValueError):
            SigmaCutoffLabeler(granularity="by-vibes")

    def test_hour_aware_bands_differ_by_hour(self):
        records = self.build_hourly_records()
        labeler = SigmaCutoffLabeler(granularity="type_hour").fit(records)
        # 160 km/h at rush hour (mean 110) is abnormal; at midday
        # (mean 160) it is normal.  The type-level labeler cannot tell.
        make = lambda hour, speed: TelemetryRecord(
            car_id=1, road_id=1, accel_ms2=0.0, speed_kmh=speed, hour=hour,
            day=4, road_type=RoadType.MOTORWAY, road_mean_speed_kmh=100.0,
        )
        assert labeler.label(make(8, 160.0)) == ABNORMAL
        assert labeler.label(make(12, 160.0)) == NORMAL

    def test_type_level_labeler_is_hour_blind(self):
        records = self.build_hourly_records()
        labeler = SigmaCutoffLabeler(granularity="type").fit(records)
        make = lambda hour, speed: TelemetryRecord(
            car_id=1, road_id=1, accel_ms2=0.0, speed_kmh=speed, hour=hour,
            day=4, road_type=RoadType.MOTORWAY, road_mean_speed_kmh=100.0,
        )
        assert labeler.label(make(8, 160.0)) == labeler.label(make(12, 160.0))

    def test_sparse_hour_falls_back_to_type_band(self):
        records = self.build_hourly_records(n_per_hour=300)
        # Add a handful of records at an unseen-ish hour.
        extra = TelemetryRecord(
            car_id=1, road_id=1, accel_ms2=0.0, speed_kmh=150.0, hour=22,
            day=4, road_type=RoadType.MOTORWAY, road_mean_speed_kmh=150.0,
        )
        labeler = SigmaCutoffLabeler(granularity="type_hour").fit(
            TelemetryBlock.from_records(records.records() + [extra] * 5)
        )
        # Hour 22 had < MIN_CELL_SAMPLES: falls back without KeyError.
        assert labeler.label(extra) in (NORMAL, ABNORMAL)

    def test_unknown_road_type_still_raises(self):
        records = self.build_hourly_records(n_per_hour=100)
        labeler = SigmaCutoffLabeler(granularity="type_hour").fit(records)
        stray = TelemetryRecord(
            car_id=1, road_id=1, accel_ms2=0.0, speed_kmh=30.0, hour=8,
            day=4, road_type=RoadType.RESIDENTIAL, road_mean_speed_kmh=30.0,
        )
        with pytest.raises(KeyError):
            labeler.label(stray)
