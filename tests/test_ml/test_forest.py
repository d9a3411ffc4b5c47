"""Tests for the random forest."""

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, RandomForestClassifier


def xor(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


class TestRandomForest:
    def test_learns_xor(self):
        X, y = xor()
        model = RandomForestClassifier(
            n_trees=30, max_depth=8, max_features=2, seed=1
        ).fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.9

    def test_proba_rows_sum_to_one(self):
        X, y = xor(n=100)
        model = RandomForestClassifier(n_trees=10, seed=2).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.sum(axis=1) == pytest.approx(np.ones(len(X)))

    def test_deterministic_given_seed(self):
        X, y = xor(n=100)
        a = RandomForestClassifier(n_trees=5, seed=3).fit(X, y).predict(X)
        b = RandomForestClassifier(n_trees=5, seed=3).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_seed_changes_ensemble(self):
        X, y = xor(n=200, seed=4)
        a = RandomForestClassifier(n_trees=5, seed=1).fit(X, y)
        b = RandomForestClassifier(n_trees=5, seed=2).fit(X, y)
        assert not np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_ensemble_beats_single_stump(self):
        """On noisy data a forest should beat one shallow tree."""
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (600, 6))
        y = ((X[:, 0] + X[:, 1] + 0.5 * X[:, 2]) > 0).astype(int)
        noise = rng.random(600) < 0.1
        y_noisy = np.where(noise, 1 - y, y)
        X_test = rng.normal(0, 1, (400, 6))
        y_test = ((X_test[:, 0] + X_test[:, 1] + 0.5 * X_test[:, 2]) > 0).astype(int)

        stump = DecisionTreeClassifier(max_depth=2).fit(X, y_noisy)
        forest = RandomForestClassifier(n_trees=40, max_depth=6, seed=6).fit(
            X, y_noisy
        )
        stump_accuracy = np.mean(stump.predict(X_test) == y_test)
        forest_accuracy = np.mean(forest.predict(X_test) == y_test)
        assert forest_accuracy > stump_accuracy

    def test_max_features_validation(self):
        X, y = xor(n=50)
        with pytest.raises(ValueError):
            RandomForestClassifier(max_features=5).fit(X, y)
        with pytest.raises(ValueError):
            RandomForestClassifier(n_trees=0)

    def test_proba_of(self):
        X, y = xor(n=100)
        model = RandomForestClassifier(n_trees=5, seed=7).fit(X, y)
        assert model.proba_of(X, 1) == pytest.approx(
            model.predict_proba(X)[:, 1]
        )
        with pytest.raises(ValueError):
            model.proba_of(X, 9)

    def test_works_as_ad3_model(self):
        """The future-work hook: a forest inside AD3Detector."""
        from repro.core.detector import AD3Detector
        from repro.dataset.schema import TelemetryBlock, TelemetryRecord
        from repro.geo import RoadType

        rng = np.random.default_rng(8)
        records = []
        for _ in range(300):
            normal = rng.random() < 0.6
            speed = rng.normal(160 if normal else 220, 10)
            records.append(
                TelemetryRecord(
                    car_id=1,
                    road_id=1,
                    accel_ms2=float(rng.normal(0, 0.5)),
                    speed_kmh=max(0.0, float(speed)),
                    hour=8,
                    day=4,
                    road_type=RoadType.MOTORWAY,
                    road_mean_speed_kmh=160.0,
                    label=1 if normal else 0,
                )
            )
        block = TelemetryBlock.from_records(records)
        detector = AD3Detector(
            RoadType.MOTORWAY,
            model=RandomForestClassifier(n_trees=15, max_features=3, seed=9),
        ).fit(block)
        classes, _ = detector.detect(block)
        accuracy = np.mean(classes == block.label)
        assert accuracy > 0.9
