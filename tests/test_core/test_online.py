"""Tests for online profiles, labelling, and the online detector."""

import numpy as np
import pytest

from repro.core.online import OnlineAD3Detector, OnlineLabeler, RollingProfile
from repro.dataset.schema import ABNORMAL, NORMAL, TelemetryBlock, TelemetryRecord
from repro.geo import RoadType


def make_record(speed, accel=0.0, hour=8):
    return TelemetryRecord(
        car_id=1,
        road_id=1,
        accel_ms2=accel,
        speed_kmh=speed,
        hour=hour,
        day=4,
        road_type=RoadType.MOTORWAY,
        road_mean_speed_kmh=160.0,
    )


def block_of(records):
    return TelemetryBlock.from_records(records)


class TestRollingProfile:
    def test_tracks_stationary_mean(self):
        rng = np.random.default_rng(0)
        profile = RollingProfile(half_life=100)
        for value in rng.normal(160, 15, 2000):
            profile.update(float(value))
        assert profile.mean == pytest.approx(160.0, abs=5.0)
        assert profile.std == pytest.approx(15.0, rel=0.3)

    def test_forgets_old_regime(self):
        rng = np.random.default_rng(1)
        profile = RollingProfile(half_life=100)
        for value in rng.normal(160, 10, 1000):
            profile.update(float(value))
        for value in rng.normal(100, 10, 1000):
            profile.update(float(value))
        # After 10 half-lives the old regime's weight is ~1/1000.
        assert profile.mean == pytest.approx(100.0, abs=5.0)

    def test_empty_profile_raises(self):
        with pytest.raises(RuntimeError):
            RollingProfile().mean

    def test_half_life_validation(self):
        with pytest.raises(ValueError):
            RollingProfile(half_life=0.0)

    def test_ready_needs_data_and_variance(self):
        profile = RollingProfile()
        assert not profile.ready
        for _ in range(20):
            profile.update(5.0)
        assert not profile.ready  # zero variance
        profile.update(6.0)
        assert profile.ready


class TestOnlineLabeler:
    def warm_labeler(self, mu=160.0, sigma=15.0, n=1000, seed=2):
        rng = np.random.default_rng(seed)
        labeler = OnlineLabeler(half_life=200)
        for speed, accel in zip(
            rng.normal(mu, sigma, n), rng.normal(0, 0.6, n)
        ):
            labeler.observe(max(0.0, float(speed)), float(accel))
        return labeler

    def test_warmup_returns_none(self):
        labeler = OnlineLabeler()
        assert labeler.label(160.0, 0.0) is None

    def test_labels_against_current_band(self):
        labeler = self.warm_labeler()
        assert labeler.label(160.0, 0.0) == NORMAL
        assert labeler.label(240.0, 0.0) == ABNORMAL
        assert labeler.label(80.0, 0.0) == ABNORMAL

    def test_band_follows_drift(self):
        labeler = self.warm_labeler(mu=160.0)
        lo_before, hi_before = labeler.speed_band()
        rng = np.random.default_rng(3)
        for speed in rng.normal(100.0, 10.0, 3000):
            labeler.observe(max(0.0, float(speed)), 0.0)
        lo_after, hi_after = labeler.speed_band()
        assert hi_after < hi_before
        # 160 was normal before the drift, abnormal after.
        assert labeler.label(160.0, 0.0) == ABNORMAL

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineLabeler(n_sigma=0.0)


class TestOnlineAD3Detector:
    def stream(self, mu, n, seed):
        rng = np.random.default_rng(seed)
        records = []
        for speed, accel in zip(
            rng.normal(mu, 15.0, n), rng.normal(0, 0.6, n)
        ):
            records.append(make_record(max(0.0, float(speed)), float(accel)))
        return block_of(records)

    def test_becomes_ready_and_predicts(self):
        detector = OnlineAD3Detector(RoadType.MOTORWAY, refit_every=100)
        detector.observe(self.stream(160.0, 1500, seed=4))
        assert detector.ready
        test = self.stream(160.0, 200, seed=5)
        predictions, probs = detector.detect(test)
        assert set(np.unique(predictions)) <= {NORMAL, ABNORMAL}
        assert np.all((probs >= 0) & (probs <= 1))

    def test_wrong_road_type_rejected(self):
        detector = OnlineAD3Detector(RoadType.MOTORWAY_LINK)
        with pytest.raises(ValueError):
            detector.observe(block_of([make_record(100.0)]))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            OnlineAD3Detector(RoadType.MOTORWAY, mode="telepathy")

    def test_window_mode_adapts_to_drift(self):
        detector = OnlineAD3Detector(
            RoadType.MOTORWAY, mode="window", window=2000, refit_every=200
        )
        detector.observe(self.stream(160.0, 2500, seed=6))
        detector.observe(self.stream(100.0, 4000, seed=7))
        # Post-drift, a 160 km/h record is abnormal; 100 km/h normal.
        test_fast = block_of([make_record(160.0) for _ in range(50)])
        test_mid = block_of([make_record(100.0) for _ in range(50)])
        assert np.mean(detector.detect(test_fast)[0] == ABNORMAL) > 0.8
        assert np.mean(detector.detect(test_mid)[0] == NORMAL) > 0.8

    def test_cumulative_mode_learns(self):
        detector = OnlineAD3Detector(RoadType.MOTORWAY, mode="cumulative")
        detector.observe(self.stream(160.0, 2000, seed=8))
        assert detector.ready
        accuracy = np.mean(
            detector.detect(block_of([make_record(160.0)] * 20))[0] == NORMAL
        )
        assert accuracy > 0.8

    def test_empty_observe_and_predict(self):
        detector = OnlineAD3Detector(RoadType.MOTORWAY)
        detector.observe(TelemetryBlock.empty())
        assert detector.detect(TelemetryBlock.empty())[0].size == 0

    @pytest.mark.parametrize("chunk", [1, 31])
    def test_observe_state_does_not_depend_on_the_chunking(self, chunk):
        """Observing a stream as one block leaves the same labelling
        profiles, observation count, readiness, window buffer and NB
        parameters as observing it in chunks (with a refit at every
        chunk end, so both fit the same final buffer)."""
        stream = self.stream(160.0, 600, seed=11)

        def detector():
            return OnlineAD3Detector(
                RoadType.MOTORWAY, window=250, refit_every=1, half_life=100
            )

        whole, chunked = detector(), detector()
        whole.observe(stream)
        for start in range(0, len(stream), chunk):
            chunked.observe(stream.take(slice(start, start + chunk)))

        def state(d):
            profiles = [
                (p._mean, p._var, p.n_observations)
                for p in (d.labeler.speed, d.labeler.accel)
            ]
            buffer = [(row.tolist(), label) for row, label in d._buffer]
            model = d.model
            nb = [
                model.theta_.tolist(), model.var_.tolist(),
                model._counts.tolist(), model._epsilon,
            ]
            return profiles, d.observations, d.ready, buffer, nb

        assert whole.ready
        assert state(whole) == state(chunked)

    def test_detect_during_warmup_is_all_normal(self):
        detector = OnlineAD3Detector(RoadType.MOTORWAY)
        classes, probs = detector.detect(block_of([make_record(500.0)] * 3))
        assert classes.tolist() == [NORMAL] * 3
        assert probs.tolist() == [1.0] * 3

    def test_rsu_with_online_detector_warms_up_and_detects(self):
        """End-to-end: an RSU running an online detector issues no
        warnings during warm-up, then starts detecting."""
        from repro.core import RsuConfig, RsuNode
        from repro.core.vehicle import VehicleNode
        from repro.microbatch import ProcessingModel
        from repro.net.dsrc import DsrcChannel
        from repro.simkernel import Simulator

        detector = OnlineAD3Detector(
            RoadType.MOTORWAY, mode="window", window=2000, refit_every=100,
            half_life=100,
        )
        sim = Simulator()
        rsu = RsuNode(
            sim,
            "rsu-online",
            detector,
            config=RsuConfig(
                processing_model=ProcessingModel(jitter_fraction=0.0)
            ),
        )
        channel = DsrcChannel(sim, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        stream = [
            make_record(max(0.0, float(s)), float(a))
            for s, a in zip(rng.normal(160, 15, 400), rng.normal(0, 0.6, 400))
        ]
        # 8 vehicles at 10 Hz feed ~80 records/s; warm-up needs ~100+.
        vehicles = [
            VehicleNode(
                sim, i + 1, stream[i::8], rsu, channel,
                rng=np.random.default_rng(10 + i),
            )
            for i in range(8)
        ]
        rsu.start(until=20.0)
        for vehicle in vehicles:
            vehicle.start(until=20.0)
        sim.run_until(20.5)
        assert detector.ready
        assert detector.observations > 100
        # Warnings only fire once the model came online.
        assert rsu.warnings_issued > 0
        first_warning = min(
            (e.detected_at for e in rsu.events if e.abnormal),
            default=None,
        )
        assert first_warning is not None and first_warning > 0.5
