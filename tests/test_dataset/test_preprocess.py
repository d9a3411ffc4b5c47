"""Tests for filtering and labelling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import (
    DatasetGenerator,
    FilterConfig,
    GeneratorConfig,
    Preprocessor,
    SigmaCutoffLabeler,
    SyntheticDataset,
)
from repro.dataset.schema import ABNORMAL, NORMAL, TelemetryBlock, TelemetryRecord
from repro.geo import CityNetworkBuilder, RoadType


def make_record(speed, accel=0.0, road_type=RoadType.MOTORWAY, **kw):
    defaults = dict(
        car_id=1,
        road_id=1,
        accel_ms2=accel,
        speed_kmh=speed,
        hour=8,
        day=4,
        road_type=road_type,
        road_mean_speed_kmh=160.0,
    )
    defaults.update(kw)
    return TelemetryRecord(**defaults)


def block_of(records):
    return TelemetryBlock.from_records(records)


class TestFilterConfig:
    def test_keeps_normal(self):
        assert FilterConfig().keep(make_record(150.0, 0.5))

    def test_drops_absurd_speed(self):
        assert not FilterConfig().keep(make_record(400.0))

    def test_drops_absurd_accel(self):
        assert not FilterConfig().keep(make_record(100.0, accel=30.0))

    def test_drops_stuck_sensor(self):
        assert not FilterConfig().keep(make_record(0.0, 0.0))

    def test_keeps_stuck_when_disabled(self):
        config = FilterConfig(drop_stuck=False)
        assert config.keep(make_record(0.0, 0.0))

    def test_drops_nan(self):
        assert not FilterConfig().keep(make_record(float("nan")))


class TestSigmaCutoffLabeler:
    def build_gaussian_records(self, n=2000, mu=160.0, sigma=20.0, seed=0):
        rng = np.random.default_rng(seed)
        return [
            make_record(max(0.0, float(s)), accel=float(a))
            for s, a in zip(
                rng.normal(mu, sigma, n), rng.normal(0.0, 0.6, n)
            )
        ]

    def test_gaussian_data_yields_about_one_third_abnormal(self):
        """With the 1-sigma cutoff on two near-independent Gaussian
        features, ~45 % of records fall outside at least one band
        (1 - 0.68^2); speed-only deviation alone is ~32 %.  The paper's
        500 K eval subset is 35 % abnormal — same regime."""
        records = self.build_gaussian_records()
        labeler = SigmaCutoffLabeler().fit(block_of(records))
        labels = [labeler.label(r) for r in records]
        abnormal_fraction = labels.count(ABNORMAL) / len(labels)
        assert 0.30 < abnormal_fraction < 0.55

    def test_mean_record_is_normal(self):
        records = self.build_gaussian_records()
        labeler = SigmaCutoffLabeler().fit(block_of(records))
        assert labeler.label(make_record(160.0, 0.0)) == NORMAL

    def test_extreme_speed_is_abnormal(self):
        records = self.build_gaussian_records()
        labeler = SigmaCutoffLabeler().fit(block_of(records))
        assert labeler.label(make_record(250.0, 0.0)) == ABNORMAL
        assert labeler.label(make_record(60.0, 0.0)) == ABNORMAL

    def test_extreme_accel_is_abnormal(self):
        records = self.build_gaussian_records()
        labeler = SigmaCutoffLabeler().fit(block_of(records))
        assert labeler.label(make_record(160.0, accel=5.0)) == ABNORMAL

    def test_bands_are_per_road_type(self):
        motorway = self.build_gaussian_records(mu=160.0)
        link = [
            make_record(s.speed_kmh * 115.0 / 160.0, s.accel_ms2,
                        road_type=RoadType.MOTORWAY_LINK)
            for s in self.build_gaussian_records(mu=160.0, seed=1)
        ]
        labeler = SigmaCutoffLabeler().fit(block_of(motorway + link))
        lo_m, hi_m = labeler.band(RoadType.MOTORWAY)
        lo_l, hi_l = labeler.band(RoadType.MOTORWAY_LINK)
        assert hi_l < hi_m
        # 130 km/h: normal on the motorway, abnormal on the link.
        assert labeler.label(make_record(150.0)) == NORMAL
        assert (
            labeler.label(make_record(150.0, road_type=RoadType.MOTORWAY_LINK))
            == ABNORMAL
        )

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SigmaCutoffLabeler().label(make_record(100.0))

    def test_unknown_road_type_raises(self):
        labeler = SigmaCutoffLabeler().fit(block_of(self.build_gaussian_records()))
        with pytest.raises(KeyError):
            labeler.label(make_record(30.0, road_type=RoadType.RESIDENTIAL))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            SigmaCutoffLabeler().fit(block_of([]))

    def test_n_sigma_validation(self):
        with pytest.raises(ValueError):
            SigmaCutoffLabeler(n_sigma=0)

    @given(st.floats(min_value=1.0, max_value=3.0))
    @settings(max_examples=10, deadline=None)
    def test_wider_band_labels_fewer_abnormal(self, n_sigma):
        records = self.build_gaussian_records(n=500)
        narrow = SigmaCutoffLabeler(n_sigma=1.0).fit(block_of(records))
        wide = SigmaCutoffLabeler(n_sigma=n_sigma).fit(block_of(records))
        narrow_abnormal = sum(
            1 for r in records if narrow.label(r) == ABNORMAL
        )
        wide_abnormal = sum(1 for r in records if wide.label(r) == ABNORMAL)
        assert wide_abnormal <= narrow_abnormal


#: Values on and just past the filter's bounds and the degenerate
#: readings it drops.
_EDGE_SPEEDS = [float("nan"), float("inf"), 0.0, -0.0, 300.0, np.nextafter(300.0, 400.0)]
_EDGE_ACCELS = [
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 20.0, -20.0,
    np.nextafter(20.0, 30.0), np.nextafter(-20.0, -30.0),
]


class TestOneSigmaRule:
    """The column path (``fit`` / ``label_all`` / ``Preprocessor.run``)
    against the per-record rules (``label`` / ``FilterConfig.keep``)."""

    @staticmethod
    def _edge_probes(labeler):
        """Records sitting exactly on every fitted band edge (and one
        ulp inside and outside), at a fitted cell's hour or at an hour
        no cell was fitted for."""
        probes = []
        for key, (lo_s, hi_s) in labeler._speed_bands.items():
            lo_a, hi_a = labeler._accel_bands[key]
            road_type, hours = (key[0], [key[1]]) if isinstance(key, tuple) else (key, [8, 13])
            for speed in (lo_s, hi_s, np.nextafter(lo_s, -np.inf), np.nextafter(hi_s, np.inf)):
                for accel in (lo_a, hi_a, np.nextafter(hi_a, np.inf), (lo_a + hi_a) / 2):
                    for hour in hours:
                        if speed >= 0:
                            probes.append(
                                make_record(
                                    float(speed), float(accel), road_type, hour=hour
                                )
                            )
        return probes

    @given(
        dense=st.lists(
            st.tuples(st.floats(0, 200), st.floats(-10, 10)),
            min_size=SigmaCutoffLabeler.MIN_CELL_SAMPLES,
            max_size=SigmaCutoffLabeler.MIN_CELL_SAMPLES + 10,
        ),
        sparse=st.lists(
            st.tuples(
                st.sampled_from([RoadType.MOTORWAY, RoadType.MOTORWAY_LINK]),
                st.sampled_from([8, 9, 23]),
                st.floats(0, 200),
                st.floats(-10, 10),
            ),
            max_size=40,
        ),
        granularity=st.sampled_from(["type", "type_hour"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_label_all_is_label_per_record(self, dense, sparse, granularity):
        records = [make_record(speed, accel, hour=8) for speed, accel in dense]
        records += [
            make_record(speed, accel, road_type, hour=hour)
            for road_type, hour, speed, accel in sparse
        ]
        labeler = SigmaCutoffLabeler(granularity=granularity).fit(block_of(records))
        probes = records + self._edge_probes(labeler)
        labels = labeler.label_all(block_of(probes))
        assert labels.tolist() == [labeler.label(r) for r in probes]

    def test_label_all_raises_for_an_unfitted_road_type(self):
        labeler = SigmaCutoffLabeler().fit(block_of([make_record(100.0), make_record(90.0)]))
        with pytest.raises(KeyError, match="RESIDENTIAL"):
            labeler.label_all(
                block_of([make_record(30.0, road_type=RoadType.RESIDENTIAL)])
            )

    @given(
        readings=st.lists(
            st.tuples(
                st.sampled_from(_EDGE_SPEEDS) | st.floats(0, 400),
                st.sampled_from(_EDGE_ACCELS) | st.floats(-30, 30),
            ),
            max_size=40,
        ),
        drop_stuck=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_run_keeps_exactly_what_keep_accepts(self, readings, drop_stuck):
        config = FilterConfig(drop_stuck=drop_stuck)
        records = [
            make_record(speed, accel, car_id=index)
            for index, (speed, accel) in enumerate(readings)
        ]
        kept = Preprocessor(filter_config=config).run(
            SyntheticDataset.from_records(records)
        )
        assert [r.car_id for r in kept.records] == [
            r.car_id for r in records if config.keep(r)
        ]


class TestPreprocessor:
    def test_end_to_end(self):
        network = CityNetworkBuilder(seed=1).build_corridor()
        dataset = DatasetGenerator(
            network,
            GeneratorConfig(n_cars=30, trips_per_car=4, seed=3, erroneous_rate=0.02),
        ).generate()
        labeled = Preprocessor().run(dataset).records
        assert labeled
        assert len(labeled) < len(dataset.records)  # filtering removed some
        assert all(r.label in (NORMAL, ABNORMAL) for r in labeled)

    def test_empty_input(self):
        empty = SyntheticDataset.from_records([])
        assert Preprocessor().run(empty).records == []
